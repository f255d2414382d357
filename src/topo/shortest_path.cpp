#include "topo/shortest_path.h"

#include <algorithm>
#include <queue>
#include <set>
#include <unordered_set>

namespace teal::topo {

namespace {

SsspResult dijkstra_impl(const Graph& g, NodeId src,
                         const std::vector<char>* node_banned,
                         const std::vector<char>* edge_banned) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  SsspResult res;
  res.dist.assign(n, kInf);
  res.parent_edge.assign(n, kInvalidEdge);
  if (node_banned && (*node_banned)[static_cast<std::size_t>(src)]) return res;

  using Item = std::pair<double, NodeId>;  // (dist, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  res.dist[static_cast<std::size_t>(src)] = 0.0;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (d > res.dist[static_cast<std::size_t>(v)]) continue;  // stale entry
    for (EdgeId e : g.out_edges(v)) {
      if (edge_banned && (*edge_banned)[static_cast<std::size_t>(e)]) continue;
      const Edge& ed = g.edge(e);
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

std::optional<Path> extract_path(const Graph& g, const SsspResult& sssp, NodeId src,
                                 NodeId dst) {
  if (sssp.dist[static_cast<std::size_t>(dst)] == kInf) return std::nullopt;
  Path p;
  NodeId v = dst;
  while (v != src) {
    EdgeId e = sssp.parent_edge[static_cast<std::size_t>(v)];
    if (e == kInvalidEdge) return std::nullopt;
    p.push_back(e);
    v = g.edge(e).src;
  }
  std::reverse(p.begin(), p.end());
  return p;
}

}  // namespace

SsspResult dijkstra(const Graph& g, NodeId src) {
  return dijkstra_impl(g, src, nullptr, nullptr);
}

SsspResult dijkstra_masked(const Graph& g, NodeId src,
                           const std::vector<char>& node_banned,
                           const std::vector<char>& edge_banned) {
  return dijkstra_impl(g, src, &node_banned, &edge_banned);
}

std::optional<Path> shortest_path(const Graph& g, NodeId src, NodeId dst) {
  if (src == dst) return Path{};
  auto sssp = dijkstra(g, src);
  return extract_path(g, sssp, src, dst);
}

double path_latency(const Graph& g, std::span<const EdgeId> p) {
  double total = 0.0;
  for (EdgeId e : p) total += g.edge(e).latency;
  return total;
}

void validate_path(const Graph& g, std::span<const EdgeId> p, NodeId src, NodeId dst) {
  if (p.empty()) {
    if (src != dst) throw std::invalid_argument("validate_path: empty path, src != dst");
    return;
  }
  if (g.edge(p.front()).src != src) throw std::invalid_argument("validate_path: bad source");
  if (g.edge(p.back()).dst != dst) throw std::invalid_argument("validate_path: bad destination");
  std::unordered_set<NodeId> visited{src};
  NodeId cur = src;
  for (EdgeId e : p) {
    const Edge& ed = g.edge(e);
    if (ed.src != cur) throw std::invalid_argument("validate_path: discontinuous path");
    cur = ed.dst;
    if (!visited.insert(cur).second) {
      throw std::invalid_argument("validate_path: path revisits a node");
    }
  }
}

std::vector<Path> yen_ksp(const Graph& g, NodeId src, NodeId dst, int k) {
  std::vector<Path> result;
  if (k <= 0 || src == dst) return result;
  auto first = shortest_path(g, src, dst);
  if (!first) return result;
  result.push_back(std::move(*first));

  struct Candidate {
    double cost;
    Path path;
    bool operator>(const Candidate& o) const {
      if (cost != o.cost) return cost > o.cost;
      return path > o.path;  // deterministic tiebreak
    }
  };
  std::priority_queue<Candidate, std::vector<Candidate>, std::greater<>> candidates;
  std::set<Path> seen;  // paths already produced or enqueued
  seen.insert(result[0]);

  std::vector<char> node_banned(static_cast<std::size_t>(g.num_nodes()), 0);
  std::vector<char> edge_banned(static_cast<std::size_t>(g.num_edges()), 0);

  while (static_cast<int>(result.size()) < k) {
    const Path& prev = result.back();
    // Node sequence of the previous path: spur nodes are prev[0..len-1].src.
    std::vector<NodeId> prev_nodes;
    prev_nodes.push_back(src);
    for (EdgeId e : prev) prev_nodes.push_back(g.edge(e).dst);

    for (std::size_t i = 0; i < prev.size(); ++i) {
      NodeId spur = prev_nodes[i];
      // Root path: prev[0..i)
      std::fill(node_banned.begin(), node_banned.end(), 0);
      std::fill(edge_banned.begin(), edge_banned.end(), 0);
      // Ban edges that would duplicate an already-known path sharing this root.
      for (const Path& p : result) {
        if (p.size() >= i && std::equal(p.begin(), p.begin() + static_cast<long>(i),
                                        prev.begin())) {
          if (p.size() > i) edge_banned[static_cast<std::size_t>(p[i])] = 1;
        }
      }
      // Ban root-path nodes (except the spur node) to keep paths simple.
      for (std::size_t j = 0; j < i; ++j) {
        node_banned[static_cast<std::size_t>(prev_nodes[j])] = 1;
      }

      auto sssp = dijkstra_masked(g, spur, node_banned, edge_banned);
      auto spur_path = extract_path(g, sssp, spur, dst);
      if (!spur_path) continue;

      Path total(prev.begin(), prev.begin() + static_cast<long>(i));
      total.insert(total.end(), spur_path->begin(), spur_path->end());
      if (seen.insert(total).second) {
        candidates.push(Candidate{path_latency(g, total), std::move(total)});
      }
    }

    if (candidates.empty()) break;
    result.push_back(candidates.top().path);
    candidates.pop();
  }
  return result;
}

std::vector<int> bfs_hops(const Graph& g, NodeId src) {
  std::vector<int> hops(static_cast<std::size_t>(g.num_nodes()), -1);
  std::queue<NodeId> q;
  hops[static_cast<std::size_t>(src)] = 0;
  q.push(src);
  while (!q.empty()) {
    NodeId v = q.front();
    q.pop();
    for (EdgeId e : g.out_edges(v)) {
      NodeId u = g.edge(e).dst;
      if (hops[static_cast<std::size_t>(u)] < 0) {
        hops[static_cast<std::size_t>(u)] = hops[static_cast<std::size_t>(v)] + 1;
        q.push(u);
      }
    }
  }
  return hops;
}

}  // namespace teal::topo
