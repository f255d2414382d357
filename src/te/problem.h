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
// repo shares: a global path id space with per-demand offsets, and the one
// path<->edge incidence index as two CSR pairs (offsets + ids). path -> edges
// numbers the incidences path-major (the order of ADMM's l4); edge -> paths
// lists each edge's paths in strictly ascending order, the order FlowGNN's
// mean gather and ADMM's scatter add in (DESIGN.md, bit-identity contract).
#pragma once

#include <cstdint>
#include <span>
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
  // Throws std::out_of_range when a demand names a node outside `g`.
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

  // Edges of global path p, in path order.
  std::span<const topo::EdgeId> path_edges(int p) const {
    const int* o = &path_edge_offset_[static_cast<std::size_t>(p)];
    return {path_edge_ids_.begin() + o[0], path_edge_ids_.begin() + o[1]};
  }

  // Path p's edges are incidences [incidence_begin(p), incidence_begin(p+1)).
  int incidence_begin(int p) const { return path_edge_offset_[static_cast<std::size_t>(p)]; }
  int num_incidences() const { return static_cast<int>(path_edge_ids_.size()); }
  topo::EdgeId incidence_edge(int i) const { return path_edge_ids_[static_cast<std::size_t>(i)]; }

  // Latency of global path p (sum of edge latencies; cached).
  double path_latency(int p) const { return path_latency_[static_cast<std::size_t>(p)]; }

  // Global path ids traversing edge e, strictly ascending.
  std::span<const int> paths_on_edge(topo::EdgeId e) const {
    const int* o = &edge_path_offset_[static_cast<std::size_t>(e)];
    return {edge_path_ids_.begin() + o[0], edge_path_ids_.begin() + o[1]};
  }

  // Zero-filled allocation of the right size.
  Allocation empty_allocation() const { return Allocation{std::vector<double>(total_paths(), 0.0)}; }

  // Allocation that pins every demand fully onto its shortest path.
  Allocation shortest_path_allocation() const;

  // Throws if `a` has the wrong size, a split that is not finite or is below
  // -tol, or a per-demand split sum exceeding 1 + tol.
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
  std::vector<double> path_latency_;         // size total_paths()
  std::vector<int> path_edge_offset_;        // size total_paths()+1
  std::vector<topo::EdgeId> path_edge_ids_;  // size num_incidences(), path-major
  std::vector<int> edge_path_offset_;        // size num_edges()+1
  std::vector<int> edge_path_ids_;           // size num_incidences(), edge-major
};

// Snapshots the problem graph's capacities and writes them back on scope
// exit, so a driver that fails links between solves (the failure-reaction
// harness, scenario failure epochs) leaves the problem as it found it even
// when a solve or a bad edge id throws.
class CapacityRestore {
 public:
  explicit CapacityRestore(Problem& pb) : pb_(&pb), orig_(pb.capacities()) {}
  ~CapacityRestore() {
    for (topo::EdgeId e = 0; e < pb_->graph().num_edges(); ++e) {
      pb_->mutable_graph().set_capacity(e, orig_[static_cast<std::size_t>(e)]);
    }
  }
  CapacityRestore(const CapacityRestore&) = delete;
  CapacityRestore& operator=(const CapacityRestore&) = delete;

 private:
  Problem* pb_;
  std::vector<double> orig_;
};

// Throws std::invalid_argument, naming `what` and `count`, when `count`
// exceeds INT_MAX. Problem's path ids and path-edge incidences are
// int-indexed; its constructor checks both counts through this guard.
void check_index_count(long long count, const char* what);

// All (src, dst) ordered pairs of g.
std::vector<Demand> all_pairs_demands(const topo::Graph& g);

// A demand volume the solvers can take: finite and nonnegative. One NaN or
// infinite volume turns every split NaN, and a negative one passes silently.
bool valid_volume(double v);

// Throws std::invalid_argument, naming the demand, unless `tm` has one
// valid_volume() per demand of `pb`. Allocation-free when it passes.
void validate_traffic_matrix(const Problem& pb, const TrafficMatrix& tm);

}  // namespace teal::te
