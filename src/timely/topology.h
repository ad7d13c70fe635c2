// Static dataflow-graph topology and the location-reachability relation used by
// progress tracking.
//
// Progress is accounted at "locations": one message location per edge (unconsumed
// batches in flight) and one capability location per node (the right to produce
// output or request notification at an epoch). A location L constrains a frontier
// at location L' iff work at L could eventually result in a message at L'
// ("could-result-in" in the Naiad formulation). For the acyclic graphs TS builds,
// that relation is plain graph reachability, precomputed here once per worker.
#ifndef SRC_TIMELY_TOPOLOGY_H_
#define SRC_TIMELY_TOPOLOGY_H_

#include <string>
#include <vector>

namespace ts {

class Topology {
 public:
  struct Node {
    std::string name;
    int cap_loc = -1;              // Capability location of this node.
    std::vector<int> in_edges;     // Edge ids entering this node.
    std::vector<int> out_edges;    // Edge ids leaving this node.
    bool is_input = false;         // Source nodes hold an initial capability.
  };

  struct Edge {
    int src_node = -1;
    int dst_node = -1;
    int msg_loc = -1;              // Message location of this edge.
    bool exchanged = false;        // Exchange PACT vs worker-local pipeline.
  };

  // Adds a node; returns its id. Assigns the capability location.
  int AddNode(std::string name, bool is_input);

  // Adds an edge src -> dst; returns its id. Assigns the message location.
  int AddEdge(int src_node, int dst_node, bool exchanged);

  // Precomputes `reaching(loc)` for every location. Must be called after the
  // graph is complete and before any frontier query. The graph must be acyclic.
  void Finalize();

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Edge>& edges() const { return edges_; }
  int num_locations() const { return num_locations_; }

  // Locations whose outstanding work can still produce a message on edge `e`
  // (including e's own message location).
  const std::vector<int>& ReachingEdge(int edge_id) const;

 private:
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<std::vector<int>> reaching_;  // Indexed by edge id.
  int num_locations_ = 0;
  bool finalized_ = false;
};

}  // namespace ts

#endif  // SRC_TIMELY_TOPOLOGY_H_
