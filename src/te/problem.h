// problem.h — the path formulation of WAN traffic engineering (Appendix A).
//
// A Problem fixes everything that changes rarely: the topology G = (V, E, c),
// the demand set D (source-destination pairs), and each demand's preconfigured
// path set P_d (by default its 4 shortest paths). The per-interval inputs are
// a TrafficMatrix (one volume per demand) and, for failure experiments, a
// capacity vector override. The decision variable is an Allocation: a split
// ratio F_d(p) in [0,1] per (demand, path), with sum_p F_d(p) <= 1.
//
// Problem precomputes the flattened index structures every solver in this
// repo shares: a global path id space, per-demand offsets, path->edge lists
// and edge->path inverted lists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topo/graph.h"
#include "topo/shortest_path.h"

namespace teal::te {

struct Demand {
  topo::NodeId src = 0;
  topo::NodeId dst = 0;
};

// Per-interval demand volumes, one per Problem demand (aligned indices).
struct TrafficMatrix {
  std::vector<double> volume;

  double total() const;
};

// Split ratios per global path id, in demand order (paths of demand d occupy
// the contiguous id range [path_offset[d], path_offset[d+1])).
struct Allocation {
  std::vector<double> split;
};

class Problem {
 public:
  // Builds the path formulation for `demands` on `g`, precomputing up to
  // `k_paths` shortest paths per demand (demands with no path are dropped).
  Problem(topo::Graph g, std::vector<Demand> demands, int k_paths = 4);

  const topo::Graph& graph() const { return graph_; }
  topo::Graph& mutable_graph() { return graph_; }

  int num_demands() const { return static_cast<int>(demands_.size()); }
  const Demand& demand(int d) const { return demands_[static_cast<std::size_t>(d)]; }
  const std::vector<Demand>& demands() const { return demands_; }

  int k_paths() const { return k_paths_; }

  // Global path id range of demand d: [path_begin(d), path_end(d)).
  int path_begin(int d) const { return path_offset_[static_cast<std::size_t>(d)]; }
  int path_end(int d) const { return path_offset_[static_cast<std::size_t>(d) + 1]; }
  int num_paths(int d) const { return path_end(d) - path_begin(d); }
  int total_paths() const { return path_offset_.back(); }

  // Demand that owns global path id p.
  int demand_of_path(int p) const { return path_demand_[static_cast<std::size_t>(p)]; }

  // Edges of global path p.
  const topo::Path& path_edges(int p) const { return path_edges_[static_cast<std::size_t>(p)]; }

  // Latency of global path p (sum of edge latencies; cached).
  double path_latency(int p) const { return path_latency_[static_cast<std::size_t>(p)]; }

  // Global path ids traversing edge e.
  const std::vector<int>& paths_on_edge(topo::EdgeId e) const {
    return edge_paths_[static_cast<std::size_t>(e)];
  }

  // Zero-filled allocation of the right size.
  Allocation empty_allocation() const { return Allocation{std::vector<double>(total_paths(), 0.0)}; }

  // Allocation that pins every demand fully onto its shortest path.
  Allocation shortest_path_allocation() const;

  // Throws if `a` has the wrong size, negative splits, or per-demand split
  // sums exceeding 1 + tol.
  void validate_allocation(const Allocation& a, double tol = 1e-6) const;

  // Capacity vector snapshot (index = edge id). Failure experiments pass a
  // modified copy to the evaluation functions instead of mutating the graph.
  std::vector<double> capacities() const;

  // Same snapshot written into a caller-owned vector; reuses its capacity so
  // the workspace-based solve path stays allocation-free.
  void capacities_into(std::vector<double>& out) const;

 private:
  topo::Graph graph_;
  std::vector<Demand> demands_;
  int k_paths_;
  std::vector<int> path_offset_;             // size num_demands()+1
  std::vector<int> path_demand_;             // size total_paths()
  std::vector<topo::Path> path_edges_;       // size total_paths()
  std::vector<double> path_latency_;         // size total_paths()
  std::vector<std::vector<int>> edge_paths_; // size num_edges()
};

// All (src, dst) ordered pairs of g.
std::vector<Demand> all_pairs_demands(const topo::Graph& g);

// A demand volume the solvers can take: finite and nonnegative. One NaN or
// infinite volume turns every split NaN, and a negative one passes silently.
bool valid_volume(double v);

// Throws std::invalid_argument, naming the demand, unless `tm` has one
// valid_volume() per demand of `pb`. Allocation-free when it passes.
void validate_traffic_matrix(const Problem& pb, const TrafficMatrix& tm);

}  // namespace teal::te
