// shortest_path.h — Dijkstra and Yen's k-shortest simple paths.
//
// The path formulation of TE (Appendix A) routes each demand over a handful
// of *preconfigured* paths; the paper (and NCFlow/POP before it) uses the 4
// shortest paths between every node pair. We implement Yen's algorithm on
// top of a latency-weighted Dijkstra. A Path is a sequence of edge ids from
// source to destination.
#pragma once

#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "topo/graph.h"

namespace teal::topo {

using Path = std::vector<EdgeId>;

inline constexpr double kInf = std::numeric_limits<double>::infinity();

// Single-source Dijkstra over edge latencies. Returns per-node distance and
// the incoming edge on the shortest-path tree (kInvalidEdge for unreachable
// nodes and the source).
struct SsspResult {
  std::vector<double> dist;
  std::vector<EdgeId> parent_edge;
};
SsspResult dijkstra(const Graph& g, NodeId src);

// Dijkstra with masked nodes/edges — the spur computation in Yen's algorithm
// removes root-path nodes and previously used deviation edges.
SsspResult dijkstra_masked(const Graph& g, NodeId src,
                           const std::vector<char>& node_banned,
                           const std::vector<char>& edge_banned);

// Shortest path src -> dst, or nullopt if unreachable.
std::optional<Path> shortest_path(const Graph& g, NodeId src, NodeId dst);

// Yen's algorithm: up to k loop-free shortest paths in nondecreasing latency
// order. Returns fewer than k paths when the graph does not contain k
// distinct simple paths.
std::vector<Path> yen_ksp(const Graph& g, NodeId src, NodeId dst, int k);

// Hop-count single-source BFS distances (used for Table 3 statistics, which
// report hop-based shortest-path length and diameter).
std::vector<int> bfs_hops(const Graph& g, NodeId src);

// Total latency of a path.
double path_latency(const Graph& g, std::span<const EdgeId> p);

// Validates that p is a contiguous src->dst simple path; throws otherwise.
void validate_path(const Graph& g, std::span<const EdgeId> p, NodeId src, NodeId dst);

}  // namespace teal::topo
