// Graph-construction API: typed streams, partitioning contracts, and operator
// factories. This mirrors the programming model in §3/§4.3 of the paper — a
// program chains operators into a workflow; each worker instantiates a copy.
#ifndef SRC_TIMELY_SCOPE_H_
#define SRC_TIMELY_SCOPE_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/timely/operator.h"
#include "src/timely/worker.h"

namespace ts {

// A handle to the output of a dataflow node, usable only during construction.
template <typename T>
struct Stream {
  int node = -1;
  Producer<T>* producer = nullptr;
};

// Parallelization contract for an edge: how records reach consumer instances.
template <typename T>
struct Partition {
  // Empty hash => pipeline edge (records stay on the producing worker).
  std::function<uint64_t(const T&)> hash;

  static Partition Pipeline() { return Partition{}; }
  static Partition ByKey(std::function<uint64_t(const T&)> h) {
    return Partition{std::move(h)};
  }
  bool exchanged() const { return static_cast<bool>(hash); }
};

// Observes the frontier at a point in the dataflow; used to detect epoch
// completion ("a punctuation is delivered, confirming that the epoch is over").
// Valid only on the owning worker's thread, after the graph is finalized.
class ProbeHandle {
 public:
  ProbeHandle() = default;
  ProbeHandle(const WorkerGraph* graph, int node) : graph_(graph), node_(node) {}

  Frontier frontier() const { return graph_->tracker().NodeInputFrontier(node_); }
  bool Beyond(Epoch e) const { return frontier().Beyond(e); }

 private:
  const WorkerGraph* graph_ = nullptr;
  int node_ = -1;
};

class Scope {
 public:
  explicit Scope(WorkerGraph* graph) : graph_(graph) {}

  size_t worker_index() const { return graph_->index(); }

  // Registers a per-quantum driver that feeds inputs (replayer, generator...).
  void AddDriver(std::function<DriverStatus()> driver) {
    graph_->AddDriver(std::move(driver));
  }
  void AddStepCallback(std::function<void()> callback) {
    graph_->AddStepCallback(std::move(callback));
  }

  // Creates a new input. The returned session must be driven (and eventually
  // closed) by a driver on this worker.
  template <typename T>
  std::pair<InputSession<T>, Stream<T>> NewInput(const std::string& name) {
    Topology& topo = graph_->topo();
    const int node = topo.AddNode(name, /*is_input=*/true);
    auto op = std::make_unique<InputOperator<T>>(
        node, topo.nodes()[node].cap_loc, graph_->index(), graph_->workers(),
        &graph_->runtime()->counters());
    InputOperator<T>* raw = op.get();
    graph_->SetOperator(node, std::move(op));
    return {InputSession<T>(raw), Stream<T>{node, raw}};
  }

  // The generic stateful operator: full access to the notificator, matching the
  // paper's sessionization pseudo-code (§4.2).
  template <typename In, typename Out>
  Stream<Out> Unary(const Stream<In>& in, Partition<In> partition,
                    const std::string& name,
                    typename UnaryOperator<In, Out>::DataFn on_data,
                    typename UnaryOperator<In, Out>::NotifyFn on_notify) {
    Topology& topo = graph_->topo();
    const int node = topo.AddNode(name, /*is_input=*/false);
    auto op = std::make_unique<UnaryOperator<In, Out>>(
        node, topo.nodes()[node].cap_loc, graph_->index(), graph_->workers(),
        &graph_->runtime()->counters(), std::move(on_data), std::move(on_notify));
    ConnectEdge<In>(in, node, op.get(), std::move(partition));
    Stream<Out> out{node, op.get()};
    graph_->SetOperator(node, std::move(op));
    return out;
  }

  // --- Functional wrappers (§4.3: "a minimal set of default operators") ------

  template <typename In, typename Out>
  Stream<Out> Map(const Stream<In>& in, const std::string& name,
                  std::function<Out(In)> fn) {
    return Unary<In, Out>(
        in, Partition<In>::Pipeline(), name,
        [fn = std::move(fn)](Epoch e, std::vector<In>& data, OutputSession<Out>& out,
                             NotificatorHandle&) {
          for (auto& v : data) {
            out.Give(e, fn(std::move(v)));
          }
        },
        [](Epoch, OutputSession<Out>&, NotificatorHandle&) {});
  }

  template <typename In>
  Stream<In> Filter(const Stream<In>& in, const std::string& name,
                    std::function<bool(const In&)> pred) {
    return Unary<In, In>(
        in, Partition<In>::Pipeline(), name,
        [pred = std::move(pred)](Epoch e, std::vector<In>& data,
                                 OutputSession<In>& out, NotificatorHandle&) {
          for (auto& v : data) {
            if (pred(v)) {
              out.Give(e, std::move(v));
            }
          }
        },
        [](Epoch, OutputSession<In>&, NotificatorHandle&) {});
  }

  template <typename In, typename Out>
  Stream<Out> FlatMap(const Stream<In>& in, const std::string& name,
                      std::function<void(In, std::vector<Out>&)> fn) {
    return Unary<In, Out>(
        in, Partition<In>::Pipeline(), name,
        [fn = std::move(fn)](Epoch e, std::vector<In>& data, OutputSession<Out>& out,
                             NotificatorHandle&) {
          std::vector<Out> buffer;
          for (auto& v : data) {
            buffer.clear();
            fn(std::move(v), buffer);
            for (auto& o : buffer) {
              out.Give(e, std::move(o));
            }
          }
        },
        [](Epoch, OutputSession<Out>&, NotificatorHandle&) {});
  }

  // Observes records without consuming the stream shape.
  template <typename In>
  Stream<In> Inspect(const Stream<In>& in, const std::string& name,
                     std::function<void(Epoch, const In&)> fn) {
    return Unary<In, In>(
        in, Partition<In>::Pipeline(), name,
        [fn = std::move(fn)](Epoch e, std::vector<In>& data, OutputSession<In>& out,
                             NotificatorHandle&) {
          for (auto& v : data) {
            fn(e, v);
            out.Give(e, std::move(v));
          }
        },
        [](Epoch, OutputSession<In>&, NotificatorHandle&) {});
  }

  // Terminal consumer.
  template <typename In>
  void Sink(const Stream<In>& in, const std::string& name,
            std::function<void(Epoch, std::vector<In>&)> fn) {
    Unary<In, Unit>(
        in, Partition<In>::Pipeline(), name,
        [fn = std::move(fn)](Epoch e, std::vector<In>& data, OutputSession<Unit>&,
                             NotificatorHandle&) { fn(e, data); },
        [](Epoch, OutputSession<Unit>&, NotificatorHandle&) {});
  }

  // Merges same-typed streams (arrival order preserved per epoch per input).
  template <typename T>
  Stream<T> Concat(const std::vector<Stream<T>>& ins, const std::string& name) {
    Topology& topo = graph_->topo();
    const int node = topo.AddNode(name, /*is_input=*/false);
    auto op = std::make_unique<UnaryOperator<T, T>>(
        node, topo.nodes()[node].cap_loc, graph_->index(), graph_->workers(),
        &graph_->runtime()->counters(),
        [](Epoch e, std::vector<T>& data, OutputSession<T>& out, NotificatorHandle&) {
          out.GiveVec(e, std::move(data));
        },
        [](Epoch, OutputSession<T>&, NotificatorHandle&) {});
    for (const auto& in : ins) {
      ConnectEdge<T>(in, node, op.get(), Partition<T>::Pipeline());
    }
    Stream<T> out{node, op.get()};
    graph_->SetOperator(node, std::move(op));
    return out;
  }

  // Attaches a frontier probe after `in`; also consumes the stream.
  template <typename T>
  ProbeHandle Probe(const Stream<T>& in, const std::string& name) {
    Topology& topo = graph_->topo();
    const int node = topo.AddNode(name, /*is_input=*/false);
    auto op = std::make_unique<UnaryOperator<T, Unit>>(
        node, topo.nodes()[node].cap_loc, graph_->index(), graph_->workers(),
        &graph_->runtime()->counters(),
        [](Epoch, std::vector<T>& data, OutputSession<Unit>&, NotificatorHandle&) {
          data.clear();
        },
        [](Epoch, OutputSession<Unit>&, NotificatorHandle&) {});
    ConnectEdge<T>(in, node, op.get(), Partition<T>::Pipeline());
    graph_->SetOperator(node, std::move(op));
    return ProbeHandle(graph_, node);
  }

 private:
  template <typename In, typename ConsumerT>
  void ConnectEdge(const Stream<In>& in, int dst_node, ConsumerT* consumer,
                   Partition<In> partition) {
    Topology& topo = graph_->topo();
    const bool exchanged = partition.exchanged();
    const int edge = topo.AddEdge(in.node, dst_node, exchanged);
    const int msg_loc = topo.edges()[edge].msg_loc;
    auto* hub = graph_->runtime()->template Hub<In>(edge);
    in.producer->AddTarget(
        OutputTarget<In>{hub, edge, msg_loc, std::move(partition.hash)});
    consumer->AddInput(hub, msg_loc);
  }

  WorkerGraph* graph_;
};

}  // namespace ts

#endif  // SRC_TIMELY_SCOPE_H_
