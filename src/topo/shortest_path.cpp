#include "topo/shortest_path.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <set>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace teal::topo {

namespace {

using HeapItem = std::pair<double, NodeId>;  // (dist, node); std::greater pops the least

// Relative margin by which the reverse tree's answer must beat every
// alternative before a spur search takes it (DESIGN.md, "Path precompute").
// It must stay well above the forward sums' rounding, ~hops * 2^-53.
constexpr double kTreeMarginRel = 1e-9;

void check_node(const Graph& g, NodeId v) {
  if (v < 0 || v >= g.num_nodes()) throw std::out_of_range("shortest path query: node id out of range");
}

// Dijkstra from src over the graph minus the banned nodes and edges that
// stops when it pops dst: every edge on dst's parent chain is final by then.
// Beside it, a reverse reachability search from dst proves a dead end
// without popping the whole component. The scratch is sized to the graph
// once and reset through the lists of nodes the last search reached.
struct ForwardSearch {
  const Graph& g;
  std::vector<double> dist;
  std::vector<EdgeId> parent_edge;
  std::vector<NodeId> reached;
  std::vector<HeapItem> heap;
  std::vector<char> node_banned;
  std::vector<char> edge_banned;
  // The reverse search's seen marks, and the nodes it has seen in the order
  // it scans them (its queue).
  std::vector<char> rev_seen;
  std::vector<NodeId> rev_nodes;
  std::int64_t dead_ends = 0;  // searches the reverse side ended

  explicit ForwardSearch(const Graph& graph)
      : g(graph),
        dist(static_cast<std::size_t>(graph.num_nodes()), kInf),
        parent_edge(static_cast<std::size_t>(graph.num_nodes()), kInvalidEdge),
        node_banned(static_cast<std::size_t>(graph.num_nodes()), 0),
        edge_banned(static_cast<std::size_t>(graph.num_edges()), 0),
        rev_seen(static_cast<std::size_t>(graph.num_nodes()), 0) {}

  // Scans the unbanned in-edges of w, a node that reaches dst. Returns true
  // when one starts at a node the forward search has reached: a path then
  // exists. Otherwise queues the unbanned, unseen tails.
  bool reverse_step(NodeId w) {
    for (EdgeId e : g.in_edges(w)) {
      if (edge_banned[static_cast<std::size_t>(e)]) continue;
      const auto u = static_cast<std::size_t>(g.edge(e).src);
      if (dist[u] != kInf) return true;
      if (node_banned[u] || rev_seen[u]) continue;
      rev_seen[u] = 1;
      rev_nodes.push_back(g.edge(e).src);
    }
    return false;
  }

  // Appends the shortest src -> dst path (src != dst) to `out` and returns
  // true, or returns false when no unbanned path exists.
  bool run(NodeId src, NodeId dst, Path& out) {
    // parent_edge needs no reset: only dst's chain is read, and this search
    // writes every entry on it.
    for (NodeId v : reached) dist[static_cast<std::size_t>(v)] = kInf;
    for (NodeId v : rev_nodes) rev_seen[static_cast<std::size_t>(v)] = 0;
    reached.assign(1, src);
    heap.assign(1, HeapItem{0.0, src});
    dist[static_cast<std::size_t>(src)] = 0.0;
    rev_nodes.assign(1, dst);
    rev_seen[static_cast<std::size_t>(dst)] = 1;
    // The reverse search scans one node per forward pop until it meets a
    // forward-reached node. If it runs out of nodes first, src cannot reach
    // dst (DESIGN.md, "Path precompute"), and neither could this Dijkstra.
    std::size_t rev_next = 0;
    bool met = false;
    bool found = false;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const auto [d, v] = heap.back();
      heap.pop_back();
      if (d > dist[static_cast<std::size_t>(v)]) continue;  // stale entry
      if (v == dst) {
        found = true;
        break;
      }
      for (EdgeId e : g.out_edges(v)) {
        if (edge_banned[static_cast<std::size_t>(e)]) continue;
        const Edge& ed = g.edge(e);
        const auto u = static_cast<std::size_t>(ed.dst);
        if (node_banned[u]) continue;
        const double nd = d + ed.latency;
        if (nd < dist[u]) {
          if (dist[u] == kInf) reached.push_back(ed.dst);
          dist[u] = nd;
          parent_edge[u] = e;
          heap.emplace_back(nd, ed.dst);
          std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        }
      }
      if (!met) {
        if (rev_next == rev_nodes.size()) {
          ++dead_ends;
          return false;
        }
        met = reverse_step(rev_nodes[rev_next++]);
      }
    }
    if (!found) return false;
    const std::size_t mark = out.size();
    for (NodeId v = dst; v != src;) {
      const EdgeId e = parent_edge[static_cast<std::size_t>(v)];
      out.push_back(e);
      v = g.edge(e).src;
    }
    std::reverse(out.begin() + static_cast<long>(mark), out.end());
    return true;
  }
};

// Reverse shortest-path tree to one destination over the unmasked graph:
// h[v] = dist(v -> dst) and v's tree out-edge. Banning nodes and edges only
// removes paths, so h lower-bounds every spur search's distances.
struct ReverseTree {
  NodeId dst = -1;
  std::vector<double> h;
  std::vector<EdgeId> next_edge;
  // next_edge[v] beats every other out-edge f of v by the margin:
  // latency(f) + h[f.dst] > h[v] + margin.
  std::vector<char> unique;
  double margin = 0.0;
  std::vector<HeapItem> heap;

  void build(const Graph& g, NodeId root, double max_latency) {
    const auto n = static_cast<std::size_t>(g.num_nodes());
    dst = root;
    h.assign(n, kInf);
    next_edge.assign(n, kInvalidEdge);
    unique.assign(n, 0);
    h[static_cast<std::size_t>(root)] = 0.0;
    heap.assign(1, HeapItem{0.0, root});
    double h_max = 0.0;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const auto [d, v] = heap.back();
      heap.pop_back();
      if (d > h[static_cast<std::size_t>(v)]) continue;
      h_max = d;  // pops ascend
      for (EdgeId e : g.in_edges(v)) {
        const Edge& ed = g.edge(e);
        const auto u = static_cast<std::size_t>(ed.src);
        const double nd = d + ed.latency;
        if (nd < h[u]) {
          h[u] = nd;
          next_edge[u] = e;
          heap.emplace_back(nd, ed.src);
          std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        }
      }
    }
    // Every spur path the tree answers costs at most max_latency + h_max, so
    // that bounds the scale of the sums whose rounding the margin must cover;
    // on graphs big enough for hops * 2^-53 to near kTreeMarginRel the margin
    // grows with the hop bound instead.
    const double rel = std::max(kTreeMarginRel, 8.0 * static_cast<double>(n) *
                                                    std::numeric_limits<double>::epsilon());
    margin = rel * (h_max + max_latency);
    for (std::size_t v = 0; v < n; ++v) {
      if (next_edge[v] == kInvalidEdge) continue;
      bool ok = true;
      for (EdgeId f : g.out_edges(static_cast<NodeId>(v))) {
        if (f == next_edge[v]) continue;
        const Edge& ed = g.edge(f);
        if (!(ed.latency + h[static_cast<std::size_t>(ed.dst)] > h[v] + margin)) {
          ok = false;
          break;
        }
      }
      unique[v] = ok;
    }
  }
};

}  // namespace

struct YenSearch::State {
  const Graph& g;
  double max_latency = 0.0;
  ForwardSearch fwd;
  ReverseTree tree;
  Counts counts;

  explicit State(const Graph& graph) : g(graph), fwd(graph) {
    for (const Edge& ed : graph.edges()) max_latency = std::max(max_latency, ed.latency);
  }

  enum class TreeAnswer { kPath, kUnreachable, kUnsure };

  // Answers the spur search from the reverse tree when the tree path is the
  // unique shortest unbanned one by more than the margin, so that forward
  // Dijkstra would return it too; kUnsure otherwise.
  TreeAnswer tree_answer(NodeId spur, NodeId dst, Path& out) const {
    const auto& node_banned = fwd.node_banned;
    const auto& edge_banned = fwd.edge_banned;
    double best = kInf, second = kInf;
    EdgeId best_edge = kInvalidEdge;
    for (EdgeId e : g.out_edges(spur)) {
      if (edge_banned[static_cast<std::size_t>(e)]) continue;
      const Edge& ed = g.edge(e);
      if (node_banned[static_cast<std::size_t>(ed.dst)]) continue;
      const double c = ed.latency + tree.h[static_cast<std::size_t>(ed.dst)];
      if (c < best) {
        second = best;
        best = c;
        best_edge = e;
      } else if (c < second) {
        second = c;
      }
    }
    if (best == kInf) return TreeAnswer::kUnreachable;  // no unbanned edge leads to dst
    if (!(second > best + tree.margin)) return TreeAnswer::kUnsure;
    // Yen bans only edges that leave the spur, so a tree path that avoids the
    // spur avoids every banned edge too.
    const std::size_t mark = out.size();
    out.push_back(best_edge);
    for (NodeId v = g.edge(best_edge).dst; v != dst;) {
      const auto vi = static_cast<std::size_t>(v);
      if (v == spur || node_banned[vi] || !tree.unique[vi]) {
        out.resize(mark);
        return TreeAnswer::kUnsure;
      }
      out.push_back(tree.next_edge[vi]);
      v = g.edge(tree.next_edge[vi]).dst;
    }
    return TreeAnswer::kPath;
  }

  // Appends the shortest unbanned spur -> dst path to `out`; false when none.
  bool spur_path(NodeId spur, NodeId dst, Path& out) {
    switch (tree_answer(spur, dst, out)) {
      case TreeAnswer::kPath:
        ++counts.tree;
        return true;
      case TreeAnswer::kUnreachable:
        ++counts.tree;
        return false;
      case TreeAnswer::kUnsure:
        break;
    }
    ++counts.dijkstra;
    return fwd.run(spur, dst, out);
  }
};

YenSearch::YenSearch(const Graph& g) : s_(std::make_unique<State>(g)) {}
YenSearch::~YenSearch() = default;

YenSearch::Counts YenSearch::counts() const {
  Counts c = s_->counts;
  c.dead_end = s_->fwd.dead_ends;
  return c;
}

std::optional<Path> shortest_path(const Graph& g, NodeId src, NodeId dst) {
  check_node(g, src);
  check_node(g, dst);
  if (src == dst) return Path{};
  ForwardSearch search(g);
  Path p;
  if (!search.run(src, dst, p)) return std::nullopt;
  return p;
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
  return YenSearch(g).yen_ksp(src, dst, k);
}

std::vector<Path> YenSearch::yen_ksp(NodeId src, NodeId dst, int k) {
  State& st = *s_;
  const Graph& g = st.g;
  check_node(g, src);
  check_node(g, dst);
  std::vector<Path> result;
  if (k <= 0 || src == dst) return result;
  if (st.tree.dst != dst) st.tree.build(g, dst, st.max_latency);
  Path first;
  if (!st.spur_path(src, dst, first)) return result;
  result.push_back(std::move(first));

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

  auto& node_banned = st.fwd.node_banned;
  auto& edge_banned = st.fwd.edge_banned;
  std::vector<NodeId> prev_nodes;
  std::vector<EdgeId> banned_edges;
  while (static_cast<int>(result.size()) < k) {
    const Path& prev = result.back();
    // Node sequence of the previous path: spur nodes are prev[0..len-1].src.
    prev_nodes.assign(1, src);
    for (EdgeId e : prev) prev_nodes.push_back(g.edge(e).dst);

    for (std::size_t i = 0; i < prev.size(); ++i) {
      const NodeId spur = prev_nodes[i];
      // Root path: prev[0..i). Its nodes except the spur stay banned to keep
      // paths simple; the set grows by one node per spur.
      if (i > 0) node_banned[static_cast<std::size_t>(prev_nodes[i - 1])] = 1;
      // Ban edges that would duplicate an already-known path sharing this root.
      banned_edges.clear();
      for (const Path& p : result) {
        if (p.size() > i && std::equal(p.begin(), p.begin() + static_cast<long>(i),
                                       prev.begin())) {
          banned_edges.push_back(p[i]);
          edge_banned[static_cast<std::size_t>(p[i])] = 1;
        }
      }

      Path total(prev.begin(), prev.begin() + static_cast<long>(i));
      const bool found = st.spur_path(spur, dst, total);
      for (EdgeId e : banned_edges) edge_banned[static_cast<std::size_t>(e)] = 0;
      if (!found) continue;
      if (seen.insert(total).second) {
        candidates.push(Candidate{path_latency(g, total), std::move(total)});
      }
    }
    for (NodeId v : prev_nodes) node_banned[static_cast<std::size_t>(v)] = 0;

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
