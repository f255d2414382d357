#include "topo/graph.h"

#include <cmath>
#include <queue>

namespace teal::topo {

namespace {

// Capacities, latencies and scale factors must be finite and non-negative:
// a bare `x < 0.0` test lets NaN through, and one NaN capacity poisons every
// solve that reads it.
bool finite_non_negative(double x) { return std::isfinite(x) && x >= 0.0; }

}  // namespace

NodeId Graph::add_node() {
  out_.emplace_back();
  in_.emplace_back();
  return n_++;
}

void Graph::add_nodes(NodeId count) {
  for (NodeId i = 0; i < count; ++i) add_node();
}

EdgeId Graph::add_edge(NodeId src, NodeId dst, double capacity, double latency) {
  check_node(src);
  check_node(dst);
  if (src == dst) throw std::invalid_argument("Graph::add_edge: self loop");
  if (!finite_non_negative(capacity)) {
    throw std::invalid_argument("Graph::add_edge: capacity must be finite and >= 0");
  }
  if (!finite_non_negative(latency)) {
    throw std::invalid_argument("Graph::add_edge: latency must be finite and >= 0");
  }
  EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{src, dst, capacity, latency});
  out_[static_cast<std::size_t>(src)].push_back(id);
  in_[static_cast<std::size_t>(dst)].push_back(id);
  return id;
}

EdgeId Graph::add_link(NodeId a, NodeId b, double capacity, double latency) {
  EdgeId fwd = add_edge(a, b, capacity, latency);
  add_edge(b, a, capacity, latency);
  return fwd;
}

EdgeId Graph::find_edge(NodeId src, NodeId dst) const {
  check_node(src);
  check_node(dst);
  for (EdgeId e : out_[static_cast<std::size_t>(src)]) {
    if (edges_[static_cast<std::size_t>(e)].dst == dst) return e;
  }
  return kInvalidEdge;
}

void Graph::set_capacity(EdgeId e, double capacity) {
  if (!finite_non_negative(capacity)) {
    throw std::invalid_argument("Graph::set_capacity: capacity must be finite and >= 0");
  }
  edges_.at(static_cast<std::size_t>(e)).capacity = capacity;
}

void Graph::scale_capacities(double factor) {
  if (!finite_non_negative(factor)) {
    throw std::invalid_argument("Graph::scale_capacities: factor must be finite and >= 0");
  }
  for (auto& e : edges_) e.capacity *= factor;
}

bool Graph::is_strongly_connected() const {
  if (n_ == 0) return true;
  auto bfs = [&](bool forward) {
    std::vector<char> seen(static_cast<std::size_t>(n_), 0);
    std::queue<NodeId> q;
    q.push(0);
    seen[0] = 1;
    NodeId count = 1;
    while (!q.empty()) {
      NodeId v = q.front();
      q.pop();
      const auto& adj = forward ? out_[static_cast<std::size_t>(v)]
                                : in_[static_cast<std::size_t>(v)];
      for (EdgeId e : adj) {
        NodeId u = forward ? edges_[static_cast<std::size_t>(e)].dst
                           : edges_[static_cast<std::size_t>(e)].src;
        if (!seen[static_cast<std::size_t>(u)]) {
          seen[static_cast<std::size_t>(u)] = 1;
          ++count;
          q.push(u);
        }
      }
    }
    return count == n_;
  };
  return bfs(true) && bfs(false);
}

}  // namespace teal::topo
