// Quickstart: the smallest complete TS program.
//
// Builds a two-worker dataflow that sessionizes a hand-written log stream and
// prints the reconstructed sessions and trace trees. Demonstrates the public
// API end to end: Computation -> Scope -> NewInput -> Sessionize ->
// ConstructTraceTrees -> Sink.
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "src/dataflow/sessionize.h"
#include "src/dataflow/tree_ops.h"
#include "src/timely/timely.h"

namespace {

ts::LogRecord Make(ts::EventTime ms, const char* session, const char* txn,
                   uint32_t service, ts::EventKind kind) {
  ts::LogRecord r;
  r.time = ms * ts::kNanosPerMilli;
  r.session_id = session;
  r.txn_id = *ts::TxnId::Parse(txn);
  r.service = service;
  r.host = service % 4;
  r.kind = kind;
  return r;
}

void PrintTree(const ts::TraceTree& tree) {
  std::printf("  trace tree (session %s, root txn %s, %zu spans, %u records, "
              "%.2f ms)\n",
              tree.session_id().c_str(), tree.root().id.ToString().c_str(),
              tree.num_spans(), tree.total_records(),
              static_cast<double>(tree.Duration()) / 1e6);
  // Depth-first ASCII rendering.
  struct Item {
    int node;
    int depth;
  };
  std::vector<Item> stack = {{0, 0}};
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    const auto& n = tree.nodes()[item.node];
    std::printf("    %*s%s", item.depth * 2, "", n.id.ToString().c_str());
    if (n.inferred) {
      std::printf("  [inferred: records lost]");
    } else {
      std::printf("  svc-%u  [%0.2f..%0.2f ms]", n.service,
                  static_cast<double>(n.start) / 1e6,
                  static_cast<double>(n.end) / 1e6);
    }
    std::printf("\n");
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
      stack.push_back({*it, item.depth + 1});
    }
  }
  std::printf("    signature: %s\n", tree.SignatureKey().c_str());
}

}  // namespace

int main() {
  using namespace ts;

  // A tiny trace: two user sessions; session "alice" makes a nested request
  // (frontend -> auth, inventory -> db), session "bob" a flat one. One of
  // alice's records ("1-2" itself) is missing — TS infers the span.
  const std::vector<LogRecord> log = {
      Make(0, "alice", "1", 1, EventKind::kSpanStart),
      Make(10, "alice", "1-1", 2, EventKind::kSpanStart),
      Make(25, "alice", "1-1", 2, EventKind::kSpanEnd),
      Make(30, "alice", "1-2-1", 4, EventKind::kSpanStart),  // Parent 1-2 lost!
      Make(55, "alice", "1-2-1", 4, EventKind::kSpanEnd),
      Make(70, "alice", "1", 1, EventKind::kSpanEnd),
      Make(100, "bob", "1", 1, EventKind::kSpanStart),
      Make(130, "bob", "1", 1, EventKind::kSpanEnd),
      // Bob comes back 8 seconds later: with a 5s inactivity window this is a
      // *new* session fragment (online sessionization, §2.2).
      Make(8'200, "bob", "2", 1, EventKind::kSpanStart),
      Make(8'240, "bob", "2", 1, EventKind::kSpanEnd),
  };

  std::mutex print_mu;
  Computation::Options options;
  options.workers = 2;  // Sessions are partitioned by SipHash(session id).
  Computation::Run(options, [&](Scope& scope) {
    auto [input, records] = scope.NewInput<LogRecord>("logs");

    SessionizeOptions sess;
    sess.inactivity_epochs = 5;  // Close after 5 quiet seconds.
    auto [sessions, metrics] = Sessionize(scope, records, sess);
    auto trees = ConstructTraceTrees(scope, sessions);

    scope.Sink<TraceTree>(trees, "print", [&](Epoch epoch, std::vector<TraceTree>& out) {
      std::lock_guard<std::mutex> lock(print_mu);
      for (const auto& tree : out) {
        std::printf("[epoch %llu closed]\n", static_cast<unsigned long long>(epoch));
        PrintTree(tree);
      }
    });

    // Drive the input: worker 0 feeds the log epoch by epoch (1s of event
    // time each); worker 1 participates in the exchange only.
    auto in = std::make_shared<InputSession<LogRecord>>(input);
    if (scope.worker_index() == 0) {
      auto cursor = std::make_shared<size_t>(0);
      scope.AddDriver([in, cursor, &log]() -> DriverStatus {
        if (*cursor == log.size()) {
          in->Close();
          return DriverStatus::kFinished;
        }
        const Epoch epoch =
            static_cast<Epoch>(log[*cursor].time / kNanosPerSecond);
        if (epoch > in->current_epoch()) {
          in->AdvanceTo(epoch);
        }
        while (*cursor < log.size() &&
               static_cast<Epoch>(log[*cursor].time / kNanosPerSecond) == epoch) {
          in->Give(log[(*cursor)++]);
        }
        return DriverStatus::kWorked;
      });
    } else {
      scope.AddDriver([in]() -> DriverStatus {
        in->Close();
        return DriverStatus::kFinished;
      });
    }
  });

  std::printf("\nDone. Note bob's two fragments (online horizon) and alice's "
              "inferred span 1-2.\n");
  return 0;
}
