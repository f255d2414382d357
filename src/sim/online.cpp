#include "sim/online.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/rng.h"

namespace teal::sim {

namespace {

double eval_pct(const te::Problem& pb, const te::TrafficMatrix& tm,
                const te::Allocation& a, const OnlineConfig& cfg) {
  switch (cfg.objective) {
    case te::Objective::kTotalFlow:
      return te::satisfied_demand_pct(pb, tm, a);
    case te::Objective::kLatencyPenalizedFlow: {
      double total = tm.total();
      if (total <= 0.0) return 100.0;
      return 100.0 * te::latency_penalized_flow(pb, tm, a) / total;
    }
    case te::Objective::kMinMaxLinkUtil:
      // "Satisfied demand" is not the MLU metric; callers evaluating MLU use
      // te::max_link_utilization directly. Fall back to satisfied demand.
      return te::satisfied_demand_pct(pb, tm, a);
  }
  return 0.0;
}

}  // namespace

namespace {

// Shared control-loop core: `solve_fn(t)` produces (allocation, raw seconds)
// for the matrix of interval t.
template <typename SolveFn>
OnlineResult run_loop(const te::Problem& pb, const traffic::Trace& trace,
                      const OnlineConfig& cfg, SolveFn&& solve_fn) {
  OnlineResult res;
  res.intervals.resize(static_cast<std::size_t>(trace.size()));
  const double I = cfg.interval_seconds;

  te::Allocation active = pb.shortest_path_allocation();
  // Pending solve result and its activation time.
  bool pending = false;
  te::Allocation pending_alloc;
  double pending_activation = 0.0;
  double free_at = 0.0;  // when the scheme can start the next solve

  for (int t = 0; t < trace.size(); ++t) {
    const double t0 = static_cast<double>(t) * I;
    const double t1 = t0 + I;
    auto& iv = res.intervals[static_cast<std::size_t>(t)];

    if (!pending && free_at <= t0 + 1e-9) {
      auto [a, raw] = solve_fn(t);
      const double scaled = raw * cfg.time_scale;
      iv.started_solve = true;
      iv.solve_seconds = raw;
      res.solve_times.push_back(raw);
      pending = true;
      pending_alloc = std::move(a);
      pending_activation = t0 + scaled;
      free_at = pending_activation;
    }

    // Time-weighted satisfied demand across the segments of this interval.
    double weighted = 0.0;
    double cur = t0;
    while (cur < t1 - 1e-12) {
      double seg_end = t1;
      if (pending && pending_activation > cur && pending_activation < t1) {
        seg_end = pending_activation;
      }
      double pct = eval_pct(pb, trace.at(t), active, cfg);
      weighted += pct * (seg_end - cur) / I;
      cur = seg_end;
      if (pending && pending_activation <= cur + 1e-12) {
        active = std::move(pending_alloc);
        pending = false;
      }
    }
    if (pending && pending_activation <= t1 + 1e-12) {
      active = std::move(pending_alloc);
      pending = false;
    }
    iv.satisfied_pct = weighted;
  }

  double sum = 0.0;
  for (const auto& iv : res.intervals) sum += iv.satisfied_pct;
  res.mean_satisfied_pct = res.intervals.empty()
                               ? 0.0
                               : sum / static_cast<double>(res.intervals.size());
  return res;
}

}  // namespace

OnlineResult run_online(te::Scheme& scheme, const te::Problem& pb,
                        const traffic::Trace& trace, const OnlineConfig& cfg) {
  if (scheme.supports_parallel_batch()) {
    // One batched solve pass over the whole trace, then the staleness replay
    // over the measured times. Solving matrices the replay never deploys is
    // free here relative to the fan-out's amortization win.
    te::BatchSolve batch = scheme.solve_batch(pb, std::span(trace.matrices));
    return replay_online(pb, trace, batch.allocs, batch.solve_seconds, cfg);
  }
  // Sequential schemes keep the lazy control loop: only the solves that
  // actually start given the budget are computed (a slow LP skips matrices
  // while busy, exactly like the paper's testbed).
  return run_loop(pb, trace, cfg, [&](int t) {
    te::Allocation a = scheme.solve(pb, trace.at(t));
    return std::make_pair(std::move(a), scheme.last_solve_seconds());
  });
}

OnlineResult replay_online(const te::Problem& pb, const traffic::Trace& trace,
                           const std::vector<te::Allocation>& allocs,
                           const std::vector<double>& solve_seconds,
                           const OnlineConfig& cfg) {
  if (static_cast<int>(allocs.size()) < trace.size() ||
      static_cast<int>(solve_seconds.size()) < trace.size()) {
    throw std::invalid_argument("replay_online: series shorter than trace");
  }
  return run_loop(pb, trace, cfg, [&](int t) {
    return std::make_pair(allocs[static_cast<std::size_t>(t)],
                          solve_seconds[static_cast<std::size_t>(t)]);
  });
}

FailureResult eval_failure_reaction(te::Scheme& scheme, te::Problem& pb,
                                    const te::TrafficMatrix& tm,
                                    const std::vector<topo::EdgeId>& failed_edges,
                                    const OnlineConfig& cfg) {
  FailureResult out;
  // Routes computed on the healthy topology.
  te::Allocation before = scheme.solve(pb, tm);
  {
    // Restores every capacity on scope exit: a repeated id, an out-of-range
    // id or a throwing solve cannot leave a link dead.
    te::CapacityRestore restore(pb);
    for (topo::EdgeId e : failed_edges) pb.mutable_graph().set_capacity(e, 0.0);
    scheme.on_topology_change(pb);

    // Recompute on the failed topology.
    te::Allocation after = scheme.solve(pb, tm);
    out.resolve_seconds = scheme.last_solve_seconds();

    const std::vector<double> failed_caps = pb.capacities();
    out.stale_pct = te::satisfied_demand_pct(pb, tm, before, &failed_caps);
    out.recomputed_pct = te::satisfied_demand_pct(pb, tm, after, &failed_caps);
    const double frac_stale =
        std::clamp(out.resolve_seconds * cfg.time_scale / cfg.interval_seconds, 0.0, 1.0);
    out.satisfied_pct = frac_stale * out.stale_pct + (1.0 - frac_stale) * out.recomputed_pct;
  }
  scheme.on_topology_change(pb);
  return out;
}

std::vector<topo::EdgeId> sample_link_failures(const topo::Graph& g, int n_failures,
                                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::set<topo::EdgeId> failed;
  int guard = 0;
  while (static_cast<int>(failed.size()) < 2 * n_failures &&
         static_cast<int>(failed.size()) < g.num_edges() && ++guard < 100000) {
    auto e = static_cast<topo::EdgeId>(rng.uniform_int(0, g.num_edges() - 1));
    if (failed.count(e)) continue;
    failed.insert(e);
    topo::EdgeId rev = g.find_edge(g.edge(e).dst, g.edge(e).src);
    if (rev != topo::kInvalidEdge) failed.insert(rev);
  }
  return {failed.begin(), failed.end()};
}

}  // namespace teal::sim
