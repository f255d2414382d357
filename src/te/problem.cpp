#include "te/problem.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "util/thread_pool.h"

namespace teal::te {

void check_index_count(long long count, const char* what) {
  if (count > static_cast<long long>(std::numeric_limits<int>::max())) {
    throw std::invalid_argument("Problem: " + std::string(what) + " = " + std::to_string(count) +
                                " exceeds the int index space; cap the demand sample "
                                "(traffic::sample_demands) or lower k_paths");
  }
}

double TrafficMatrix::total() const {
  return std::accumulate(volume.begin(), volume.end(), 0.0);
}

Problem::Problem(topo::Graph g, std::vector<Demand> demands, int k_paths)
    : graph_(std::move(g)), k_paths_(k_paths) {
  if (k_paths <= 0) throw std::invalid_argument("Problem: k_paths must be positive");
  // The global path id space is int-indexed (path_begin/path_end and every
  // solver's flattened arrays). A generated graph at 10x-ASN scale with an
  // unbounded demand set could overflow it; fail loudly up front instead of
  // silently wrapping ids after the expensive path precomputation.
  check_index_count(static_cast<long long>(demands.size()) * static_cast<long long>(k_paths),
                    "demands * k_paths");

  // Yen's algorithm per demand on the pool (path precomputation is a one-time
  // cost excluded from the computation-time metric, §5.1). The demands run in
  // a stable order sorted by destination. Each pool thread owns a YenSearch
  // and claims whole destination groups one at a time off a shared counter,
  // so it builds one reverse tree per group and no thread idles behind a
  // slow fixed chunk. Every result lands at its demand's own index, and a
  // YenSearch returns exactly what yen_ksp does, so neither the order nor
  // the claiming can change a path.
  std::vector<std::size_t> order(demands.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return demands[a].dst < demands[b].dst;
  });
  std::vector<std::size_t> group_begin;  // group i is order[group_begin[i], group_begin[i + 1])
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || demands[order[i]].dst != demands[order[i - 1]].dst) group_begin.push_back(i);
  }
  const std::size_t n_groups = group_begin.size();
  group_begin.push_back(order.size());
  std::vector<std::vector<topo::Path>> per_demand(demands.size());
  std::atomic<std::size_t> next_group{0};
  auto& pool = util::ThreadPool::global();
  pool.parallel_for(std::min(pool.size() + 1, n_groups), [&](std::size_t) {
    topo::YenSearch search(graph_);
    for (std::size_t gi; (gi = next_group++) < n_groups;) {
      for (std::size_t i = group_begin[gi]; i < group_begin[gi + 1]; ++i) {
        const Demand& d = demands[order[i]];
        per_demand[order[i]] = search.yen_ksp(d.src, d.dst, k_paths);
      }
    }
  });
  // The path-edge incidences are int-indexed too (the CSR offsets and ADMM's
  // l4); long paths can overflow them before the path ids do.
  long long incidences = 0;
  for (const auto& paths : per_demand) {
    for (const auto& p : paths) incidences += static_cast<long long>(p.size());
  }
  check_index_count(incidences, "path-edge incidences");

  path_offset_.push_back(0);
  path_edge_offset_.push_back(0);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (per_demand[i].empty()) continue;  // unreachable pair: drop
    demands_.push_back(demands[i]);
    for (auto& p : per_demand[i]) {
      path_demand_.push_back(static_cast<int>(demands_.size()) - 1);
      path_latency_.push_back(topo::path_latency(graph_, p));
      path_edge_ids_.insert(path_edge_ids_.end(), p.begin(), p.end());
      path_edge_offset_.push_back(static_cast<int>(path_edge_ids_.size()));
    }
    path_offset_.push_back(static_cast<int>(path_demand_.size()));
  }

  // Transpose by counting sort: count each edge's incidences, then place the
  // path ids, visiting paths in ascending order so each edge's list ascends.
  edge_path_offset_.assign(static_cast<std::size_t>(graph_.num_edges()) + 1, 0);
  for (topo::EdgeId e : path_edge_ids_) ++edge_path_offset_[static_cast<std::size_t>(e) + 1];
  std::partial_sum(edge_path_offset_.begin(), edge_path_offset_.end(), edge_path_offset_.begin());
  std::vector<std::size_t> next(edge_path_offset_.begin(), edge_path_offset_.end() - 1);
  edge_path_ids_.resize(path_edge_ids_.size());
  for (int p = 0; p < total_paths(); ++p) {
    for (topo::EdgeId e : path_edges(p)) edge_path_ids_[next[static_cast<std::size_t>(e)]++] = p;
  }
}

Allocation Problem::shortest_path_allocation() const {
  Allocation a = empty_allocation();
  for (int d = 0; d < num_demands(); ++d) {
    a.split[static_cast<std::size_t>(path_begin(d))] = 1.0;  // Yen returns shortest first
  }
  return a;
}

void Problem::validate_allocation(const Allocation& a, double tol) const {
  if (static_cast<int>(a.split.size()) != total_paths()) {
    throw std::invalid_argument("validate_allocation: size mismatch");
  }
  for (std::size_t p = 0; p < a.split.size(); ++p) {
    const double s = a.split[p];
    // Written so a NaN split fails too.
    if (!(std::isfinite(s) && s >= -tol)) {
      throw std::invalid_argument("validate_allocation: path " + std::to_string(p) +
                                  " has split " + std::to_string(s) +
                                  " (must be finite and >= 0)");
    }
  }
  for (int d = 0; d < num_demands(); ++d) {
    double sum = 0.0;
    for (int p = path_begin(d); p < path_end(d); ++p) {
      sum += a.split[static_cast<std::size_t>(p)];
    }
    if (sum > 1.0 + tol) {
      throw std::invalid_argument("validate_allocation: demand oversubscribed");
    }
  }
}

std::vector<double> Problem::capacities() const {
  std::vector<double> c;
  capacities_into(c);
  return c;
}

void Problem::capacities_into(std::vector<double>& out) const {
  out.resize(static_cast<std::size_t>(graph_.num_edges()));
  for (topo::EdgeId e = 0; e < graph_.num_edges(); ++e) {
    out[static_cast<std::size_t>(e)] = graph_.edge(e).capacity;
  }
}

bool valid_volume(double v) { return std::isfinite(v) && v >= 0.0; }

void validate_traffic_matrix(const Problem& pb, const TrafficMatrix& tm) {
  if (static_cast<int>(tm.volume.size()) != pb.num_demands()) {
    throw std::invalid_argument("traffic matrix has " + std::to_string(tm.volume.size()) +
                                " volumes for " + std::to_string(pb.num_demands()) +
                                " demands");
  }
  for (std::size_t d = 0; d < tm.volume.size(); ++d) {
    if (!valid_volume(tm.volume[d])) {
      throw std::invalid_argument("traffic matrix: demand " + std::to_string(d) +
                                  " has volume " + std::to_string(tm.volume[d]) +
                                  " (must be finite and >= 0)");
    }
  }
}

std::vector<Demand> all_pairs_demands(const topo::Graph& g) {
  std::vector<Demand> ds;
  ds.reserve(static_cast<std::size_t>(g.num_nodes()) *
             static_cast<std::size_t>(g.num_nodes() - 1));
  for (topo::NodeId s = 0; s < g.num_nodes(); ++s) {
    for (topo::NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s != t) ds.push_back(Demand{s, t});
    }
  }
  return ds;
}

}  // namespace teal::te
