// reference_yen.h — the plain Yen's k-shortest-paths algorithm, kept as a
// test oracle for topo::yen_ksp:
//   * every spur search is a full single-source Dijkstra over the masked
//     graph, with fresh dist/parent vectors and a fresh heap;
//   * the first path is one more full Dijkstra from the source.
// It is sequential and written for clarity, not speed. topo::yen_ksp must
// return the same paths, edge for edge and in the same order, on every input
// (tests/topo_test.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "topo/graph.h"
#include "topo/shortest_path.h"

namespace teal::reference {

struct ReferenceSssp {
  std::vector<double> dist;
  std::vector<topo::EdgeId> parent_edge;
};

// Full Dijkstra from src; masked nodes/edges are skipped (either mask may be
// null). Ties go to the lower (dist, node) heap entry and the first strict
// improvement.
inline ReferenceSssp reference_dijkstra(const topo::Graph& g, topo::NodeId src,
                                        const std::vector<char>* node_banned,
                                        const std::vector<char>* edge_banned) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  ReferenceSssp res;
  res.dist.assign(n, topo::kInf);
  res.parent_edge.assign(n, topo::kInvalidEdge);
  if (node_banned && (*node_banned)[static_cast<std::size_t>(src)]) return res;

  using Item = std::pair<double, topo::NodeId>;  // (dist, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  res.dist[static_cast<std::size_t>(src)] = 0.0;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (d > res.dist[static_cast<std::size_t>(v)]) continue;  // stale entry
    for (topo::EdgeId e : g.out_edges(v)) {
      if (edge_banned && (*edge_banned)[static_cast<std::size_t>(e)]) continue;
      const topo::Edge& ed = g.edge(e);
      if (node_banned && (*node_banned)[static_cast<std::size_t>(ed.dst)]) continue;
      double nd = d + ed.latency;
      if (nd < res.dist[static_cast<std::size_t>(ed.dst)]) {
        res.dist[static_cast<std::size_t>(ed.dst)] = nd;
        res.parent_edge[static_cast<std::size_t>(ed.dst)] = e;
        pq.emplace(nd, ed.dst);
      }
    }
  }
  return res;
}

inline std::optional<topo::Path> reference_extract_path(const topo::Graph& g,
                                                        const ReferenceSssp& sssp,
                                                        topo::NodeId src, topo::NodeId dst) {
  if (sssp.dist[static_cast<std::size_t>(dst)] == topo::kInf) return std::nullopt;
  topo::Path p;
  topo::NodeId v = dst;
  while (v != src) {
    topo::EdgeId e = sssp.parent_edge[static_cast<std::size_t>(v)];
    if (e == topo::kInvalidEdge) return std::nullopt;
    p.push_back(e);
    v = g.edge(e).src;
  }
  std::reverse(p.begin(), p.end());
  return p;
}

inline std::vector<topo::Path> reference_yen_ksp(const topo::Graph& g, topo::NodeId src,
                                                 topo::NodeId dst, int k) {
  std::vector<topo::Path> result;
  if (k <= 0 || src == dst) return result;
  auto first = reference_extract_path(g, reference_dijkstra(g, src, nullptr, nullptr), src, dst);
  if (!first) return result;
  result.push_back(std::move(*first));

  struct Candidate {
    double cost;
    topo::Path path;
    bool operator>(const Candidate& o) const {
      if (cost != o.cost) return cost > o.cost;
      return path > o.path;  // deterministic tiebreak
    }
  };
  std::priority_queue<Candidate, std::vector<Candidate>, std::greater<>> candidates;
  std::set<topo::Path> seen;  // paths already produced or enqueued
  seen.insert(result[0]);

  std::vector<char> node_banned(static_cast<std::size_t>(g.num_nodes()), 0);
  std::vector<char> edge_banned(static_cast<std::size_t>(g.num_edges()), 0);

  while (static_cast<int>(result.size()) < k) {
    const topo::Path& prev = result.back();
    // Node sequence of the previous path: spur nodes are prev[0..len-1].src.
    std::vector<topo::NodeId> prev_nodes;
    prev_nodes.push_back(src);
    for (topo::EdgeId e : prev) prev_nodes.push_back(g.edge(e).dst);

    for (std::size_t i = 0; i < prev.size(); ++i) {
      topo::NodeId spur = prev_nodes[i];
      // Root path: prev[0..i)
      std::fill(node_banned.begin(), node_banned.end(), 0);
      std::fill(edge_banned.begin(), edge_banned.end(), 0);
      // Ban edges that would duplicate an already-known path sharing this root.
      for (const topo::Path& p : result) {
        if (p.size() >= i && std::equal(p.begin(), p.begin() + static_cast<long>(i),
                                        prev.begin())) {
          if (p.size() > i) edge_banned[static_cast<std::size_t>(p[i])] = 1;
        }
      }
      // Ban root-path nodes (except the spur node) to keep paths simple.
      for (std::size_t j = 0; j < i; ++j) {
        node_banned[static_cast<std::size_t>(prev_nodes[j])] = 1;
      }

      auto sssp = reference_dijkstra(g, spur, &node_banned, &edge_banned);
      auto spur_path = reference_extract_path(g, sssp, spur, dst);
      if (!spur_path) continue;

      topo::Path total(prev.begin(), prev.begin() + static_cast<long>(i));
      total.insert(total.end(), spur_path->begin(), spur_path->end());
      if (seen.insert(total).second) {
        candidates.push(Candidate{topo::path_latency(g, total), std::move(total)});
      }
    }

    if (candidates.empty()) break;
    result.push_back(candidates.top().path);
    candidates.pop();
  }
  return result;
}

}  // namespace teal::reference
