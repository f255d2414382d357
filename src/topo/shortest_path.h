// shortest_path.h — Dijkstra and Yen's k-shortest simple paths.
//
// The path formulation of TE (Appendix A) routes each demand over a handful
// of *preconfigured* paths; the paper (and NCFlow/POP before it) uses the 4
// shortest paths between every node pair. We implement Yen's algorithm on
// top of a latency-weighted Dijkstra. A Path is a sequence of edge ids from
// source to destination.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "topo/graph.h"

namespace teal::topo {

using Path = std::vector<EdgeId>;

inline constexpr double kInf = std::numeric_limits<double>::infinity();

// Shortest path src -> dst, or nullopt if unreachable.
std::optional<Path> shortest_path(const Graph& g, NodeId src, NodeId dst);

// Yen's algorithm: up to k loop-free shortest paths in nondecreasing latency
// order. Returns fewer than k paths when the graph does not contain k
// distinct simple paths.
std::vector<Path> yen_ksp(const Graph& g, NodeId src, NodeId dst, int k);

// Reusable state behind yen_ksp, for one thread: the search scratch, sized
// to the graph once, and the reverse shortest-path tree of the last
// destination asked for. Queries grouped by destination share one tree.
// Every query returns exactly what yen_ksp returns (DESIGN.md, "Path
// precompute"). The graph must outlive the search and stay unchanged.
class YenSearch {
 public:
  explicit YenSearch(const Graph& g);
  ~YenSearch();

  std::vector<Path> yen_ksp(NodeId src, NodeId dst, int k);

  // How the shortest-path searches so far were answered: from the reverse
  // tree, or by an early-exit Dijkstra over the masked graph. `dead_end`
  // counts the Dijkstras that the reverse reachability search ended with no
  // path.
  struct Counts {
    std::int64_t tree = 0;
    std::int64_t dijkstra = 0;
    std::int64_t dead_end = 0;
  };
  Counts counts() const;

 private:
  struct State;
  std::unique_ptr<State> s_;
};

// Hop-count single-source BFS distances (used for Table 3 statistics, which
// report hop-based shortest-path length and diameter).
std::vector<int> bfs_hops(const Graph& g, NodeId src);

// Total latency of a path.
double path_latency(const Graph& g, std::span<const EdgeId> p);

// Validates that p is a contiguous src->dst simple path; throws otherwise.
void validate_path(const Graph& g, std::span<const EdgeId> p, NodeId src, NodeId dst);

}  // namespace teal::topo
