#include "src/analytics/report_accumulator.h"

#include <algorithm>
#include <cstdarg>
#include <utility>

#include "src/core/trace_tree.h"

namespace ts {
namespace {

void Appendf(std::string* out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string* out, const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list sized;
  va_copy(sized, args);
  const int n = std::vsnprintf(nullptr, 0, format, sized);
  va_end(sized);
  if (n > 0) {
    const size_t at = out->size();
    out->resize(at + static_cast<size_t>(n) + 1);
    std::vsnprintf(out->data() + at, static_cast<size_t>(n) + 1, format, args);
    out->resize(at + static_cast<size_t>(n));
  }
  va_end(args);
}

}  // namespace

ReportAccumulator::ReportAccumulator(size_t partials, std::FILE* trees_out)
    : trees_out_(trees_out), partials_(std::max<size_t>(1, partials)) {}

void ReportAccumulator::Add(size_t partial, const Session& session) {
  Partial& p = partials_[partial];
  ++p.sessions;
  for (const auto& tree : TraceTree::FromSession(session)) {
    ++p.trees;
    p.spans += tree.num_spans();
    p.inferred += tree.num_inferred();
    ++p.signatures[tree.SignatureKey()];
    p.deps.AddTree(tree);
    if (trees_out_ != nullptr) {
      std::fprintf(trees_out_,
                   "%s root=%s spans=%zu records=%u duration=%.2fms sig=%s\n",
                   session.id.c_str(), tree.root().id.ToString().c_str(),
                   tree.num_spans(), tree.total_records(),
                   static_cast<double>(tree.Duration()) / 1e6,
                   tree.SignatureKey().c_str());
    }
  }
}

std::string ReportAccumulator::Format(size_t record_count,
                                      uint64_t parse_failures,
                                      size_t top) const {
  Partial all;
  for (const Partial& p : partials_) {
    all.sessions += p.sessions;
    all.trees += p.trees;
    all.spans += p.spans;
    all.inferred += p.inferred;
    for (const auto& [sig, count] : p.signatures) {
      all.signatures[sig] += count;
    }
    all.deps.Merge(p.deps);
  }

  std::string out;
  Appendf(&out, "records:        %zu (%llu unparseable lines skipped)\n",
          record_count, static_cast<unsigned long long>(parse_failures));
  Appendf(&out, "sessions:       %llu\n",
          static_cast<unsigned long long>(all.sessions));
  Appendf(&out, "trace trees:    %llu\n",
          static_cast<unsigned long long>(all.trees));
  Appendf(&out, "spans:          %llu (%llu inferred from descendants)\n",
          static_cast<unsigned long long>(all.spans),
          static_cast<unsigned long long>(all.inferred));
  Appendf(&out, "service edges:  %zu (%llu calls)\n", all.deps.num_edges(),
          static_cast<unsigned long long>(all.deps.total_calls()));

  if (top > 0 && !all.signatures.empty()) {
    std::vector<std::pair<uint64_t, std::string>> ranked;
    for (const auto& [sig, count] : all.signatures) {
      ranked.emplace_back(count, sig);
    }
    std::sort(ranked.rbegin(), ranked.rend());
    Appendf(&out, "\ntop tree structures:\n");
    for (size_t i = 0; i < std::min(top, ranked.size()); ++i) {
      Appendf(&out, "  %8llu x %s\n",
              static_cast<unsigned long long>(ranked[i].first),
              ranked[i].second.c_str());
    }
    Appendf(&out, "\nhottest service pairs:\n");
    for (const auto& [edge, calls] : all.deps.HeaviestEdges(top)) {
      Appendf(&out, "  %8llu x svc-%u -> svc-%u\n",
              static_cast<unsigned long long>(calls), edge.first, edge.second);
    }
  }
  return out;
}

}  // namespace ts
