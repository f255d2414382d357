#include "core/admm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "te/objective.h"
#include "util/thread_pool.h"

namespace teal::core {

namespace {
// Sizes a buffer whose every entry the caller writes before reading. Under
// TEAL_DEBUG_MAT it is poison-filled like nn::BasicMat::resize, so an entry
// read before it is written turns the result NaN and fails the suite.
void resize_unspecified(util::AVec<double>& v, std::size_t n) {
  v.resize(n);
#ifdef TEAL_DEBUG_MAT
  std::fill(v.begin(), v.end(), std::numeric_limits<double>::signaling_NaN());
#endif
}
}  // namespace

int default_admm_iterations(int n_nodes) { return n_nodes < 100 ? 2 : 5; }

Admm::Admm(const te::Problem& pb, AdmmConfig cfg) : pb_(pb), cfg_(std::move(cfg)) {
  const int np = pb.total_paths();
  const int ne = pb.graph().num_edges();
  z_offset_.resize(static_cast<std::size_t>(np) + 1, 0);
  edge_begin_.assign(static_cast<std::size_t>(ne) + 1, 0);
  for (int p = 0; p < np; ++p) {
    z_offset_[static_cast<std::size_t>(p) + 1] =
        z_offset_[static_cast<std::size_t>(p)] +
        static_cast<int>(pb.path_edges(p).size());
    for (topo::EdgeId e : pb.path_edges(p)) ++edge_begin_[static_cast<std::size_t>(e) + 1];
  }
  for (int e = 0; e < ne; ++e) {
    edge_begin_[static_cast<std::size_t>(e) + 1] += edge_begin_[static_cast<std::size_t>(e)];
  }
  // Filling edges in ascending path order keeps every edge's slots in the
  // order its sums have always been taken in.
  const auto nz = static_cast<std::size_t>(z_offset_.back());
  inc_path_.resize(nz);
  slot_.resize(nz);
  std::vector<int> next(edge_begin_.begin(), edge_begin_.end() - 1);
  for (int p = 0; p < np; ++p) {
    int zi = z_offset_[static_cast<std::size_t>(p)];
    for (topo::EdgeId e : pb.path_edges(p)) {
      const int s = next[static_cast<std::size_t>(e)]++;
      inc_path_[static_cast<std::size_t>(s)] = p;
      slot_[static_cast<std::size_t>(zi++)] = s;
    }
  }
}

Admm::Residuals Admm::fine_tune(const te::TrafficMatrix& tm,
                                const std::vector<double>& capacities,
                                te::Allocation& a) const {
  Workspace ws;
  return fine_tune(tm, capacities, a, ws);
}

Admm::Residuals Admm::fine_tune(const te::TrafficMatrix& tm,
                                const std::vector<double>& capacities,
                                te::Allocation& a, Workspace& ws) const {
  const int nd = pb_.num_demands();
  return fine_tune(tm, capacities, a, ws,
                   ShardPlan::make(nd, auto_shard_count(nd, pb_.total_paths())));
}

Admm::Residuals Admm::fine_tune(const te::TrafficMatrix& tm,
                                const std::vector<double>& capacities,
                                te::Allocation& a, Workspace& ws, const ShardPlan& shards,
                                ShardStat* stats) const {
  const int nd = pb_.num_demands();
  const int ne = pb_.graph().num_edges();
  const int np = pb_.total_paths();
  const int nz = z_offset_.back();
  const double rho = cfg_.rho;
  auto& pool = util::ThreadPool::global();

  // Normalize volumes/capacities by the mean capacity so rho=1 is a sensible
  // penalty on every topology.
  double scale = 1e-9;
  for (double c : capacities) scale += c;
  scale /= std::max<std::size_t>(1, capacities.size());
  auto& vol = ws.vol;
  vol.resize(static_cast<std::size_t>(nd));
  for (int d = 0; d < nd; ++d) {
    vol[static_cast<std::size_t>(d)] = tm.volume[static_cast<std::size_t>(d)] / scale;
  }
  auto& cap = ws.cap;
  cap.resize(static_cast<std::size_t>(ne));
  for (int e = 0; e < ne; ++e) {
    cap[static_cast<std::size_t>(e)] = capacities[static_cast<std::size_t>(e)] / scale;
  }

  // Primal/dual state.
  auto& x = ws.x;
  x.assign(a.split.begin(), a.split.end());
  for (double& xv : x) xv = std::clamp(xv, 0.0, 1.0);

  // Per-path state carried between the stages: the flow x * vol, and the
  // path's l4 and z summed over its edges in path order. z and l4 are held
  // fixed through an F-update, so the sums are gathered once per iteration
  // rather than once per coordinate sweep.
  auto& flow = ws.flow;
  auto& sum_l4 = ws.sum_l4;
  auto& sum_z = ws.sum_z;
  resize_unspecified(flow, static_cast<std::size_t>(np));
  resize_unspecified(sum_l4, static_cast<std::size_t>(np));
  resize_unspecified(sum_z, static_cast<std::size_t>(np));
  for (int p = 0; p < np; ++p) {
    const auto ps = static_cast<std::size_t>(p);
    flow[ps] = x[ps] * vol[static_cast<std::size_t>(pb_.demand_of_path(p))];
    // z starts at the path's flow on each of its edges and l4 at zero.
    double sz = 0.0;
    for (int zi = z_offset_[ps]; zi < z_offset_[ps + 1]; ++zi) sz += flow[ps];
    sum_l4[ps] = 0.0;
    sum_z[ps] = sz;
  }

  // Total constraint violation of the current x (whose flow is current):
  // demand overshoot plus per-edge load over capacity. Each edge's load sums
  // its slots, which are in path order.
  auto violation = [&] {
    double v = 0.0;
    for (int d = 0; d < nd; ++d) {
      double sum = 0.0;
      for (int p = pb_.path_begin(d); p < pb_.path_end(d); ++p) {
        sum += x[static_cast<std::size_t>(p)];
      }
      v += std::max(0.0, sum - 1.0);
    }
    for (int e = 0; e < ne; ++e) {
      double load = 0.0;
      for (int s = edge_begin_[static_cast<std::size_t>(e)];
           s < edge_begin_[static_cast<std::size_t>(e) + 1]; ++s) {
        load += flow[static_cast<std::size_t>(inc_path_[static_cast<std::size_t>(s)])];
      }
      v += std::max(0.0, load - cap[static_cast<std::size_t>(e)]);
    }
    return v;
  };

  Residuals res;
  res.before = violation();

  // z and l4 are stored edge-major, so the per-edge pass streams them.
  auto& z = ws.z;
  resize_unspecified(z, static_cast<std::size_t>(nz));
  auto& l4 = ws.l4;
  l4.assign(static_cast<std::size_t>(nz), 0.0);
  for (std::size_t s = 0; s < z.size(); ++s) {
    z[s] = flow[static_cast<std::size_t>(inc_path_[s])];
  }
  auto& s1 = ws.s1;
  s1.resize(static_cast<std::size_t>(nd));
  auto& l1 = ws.l1;
  l1.assign(static_cast<std::size_t>(nd), 0.0);
  auto& x_sum = ws.x_sum;
  x_sum.resize(static_cast<std::size_t>(nd));
  for (int d = 0; d < nd; ++d) {
    double sum = 0.0;
    for (int p = pb_.path_begin(d); p < pb_.path_end(d); ++p) {
      sum += x[static_cast<std::size_t>(p)];
    }
    x_sum[static_cast<std::size_t>(d)] = sum;
    s1[static_cast<std::size_t>(d)] = std::max(0.0, 1.0 - sum);
  }
  auto& z_sum = ws.z_sum;
  z_sum.resize(static_cast<std::size_t>(ne));
  for (int e = 0; e < ne; ++e) {
    double sum = 0.0;
    for (int s = edge_begin_[static_cast<std::size_t>(e)];
         s < edge_begin_[static_cast<std::size_t>(e) + 1]; ++s) {
      sum += flow[static_cast<std::size_t>(inc_path_[static_cast<std::size_t>(s)])];
    }
    z_sum[static_cast<std::size_t>(e)] = sum;
  }
  auto& s3 = ws.s3;
  s3.resize(static_cast<std::size_t>(ne));
  auto& l3 = ws.l3;
  l3.assign(static_cast<std::size_t>(ne), 0.0);
  for (int e = 0; e < ne; ++e) {
    s3[static_cast<std::size_t>(e)] =
        std::max(0.0, cap[static_cast<std::size_t>(e)] - z_sum[static_cast<std::size_t>(e)]);
  }

  const bool weighted = !cfg_.path_weight.empty();

  for (int it = 0; it < cfg_.iterations; ++it) {
    // ---- F-update: per-demand nonnegative QP via coordinate descent,
    // fanned over the demand shards. Each shard touches only its own
    // demands' x/x_sum/flow entries and reads the per-path sums and s1/l1
    // held fixed this block.
    run_sharded(shards, stats, [&](int /*shard*/, int d0, int d1) {
      for (int d = d0; d < d1; ++d) {
        const auto di = static_cast<std::size_t>(d);
        const double dv = vol[di];
        for (int sweep = 0; sweep < cfg_.coord_sweeps; ++sweep) {
          for (int p = pb_.path_begin(d); p < pb_.path_end(d); ++p) {
            const auto ps = static_cast<std::size_t>(p);
            const double m = static_cast<double>(z_offset_[ps + 1] - z_offset_[ps]);
            const double w = weighted ? cfg_.path_weight[ps] : 1.0;
            const double rest = x_sum[di] - x[ps] + s1[di] - 1.0;
            double num =
                w * dv - l1[di] - dv * sum_l4[ps] - rho * rest + rho * dv * sum_z[ps];
            double x_new = std::clamp(num / (rho * (1.0 + dv * dv * m)), 0.0, 1.0);
            x_sum[di] += x_new - x[ps];
            x[ps] = x_new;
          }
        }
        for (int p = pb_.path_begin(d); p < pb_.path_end(d); ++p) {
          flow[static_cast<std::size_t>(p)] = x[static_cast<std::size_t>(p)] * dv;
        }
      }
    });

    // ---- Coupled link-level block, fused per edge: s3-update, exact
    // z-update, l4 and l3 dual ascent. The z-update reads the flow of
    // *other* demands' paths through the edge's incidence slots — the
    // coupling that makes this an edge pass, not a demand shard. Per-edge
    // rows are independent and deterministic (slot order is fixed), so any
    // chunking is bit-identical. The per-edge quadratic has Hessian
    // rho*(I + 1 1ᵀ); by Sherman-Morrison, with a_p = f_p + l4_p/rho -
    // l3/rho + cap - s3, the minimizer is z_p = a_p - S with
    // S = (sum_p a_p) / (n + 1). z is unbounded, so this block minimization
    // is exact — important for ADMM convergence. The l4 ascent is
    // elementwise in (path, edge) and reads only the final z and the flow,
    // so it runs here, on the slots this edge just wrote.
    pool.parallel_chunks(static_cast<std::size_t>(ne), [&](std::size_t b, std::size_t e_) {
      for (std::size_t ei = b; ei < e_; ++ei) {
        s3[ei] = std::max(0.0, cap[ei] - z_sum[ei] - l3[ei] / rho);
        const auto s_begin = static_cast<std::size_t>(edge_begin_[ei]);
        const auto s_end = static_cast<std::size_t>(edge_begin_[ei + 1]);
        if (s_begin != s_end) {
          const double offset = -l3[ei] / rho + cap[ei] - s3[ei];
          double a_sum = 0.0;
          for (std::size_t s = s_begin; s < s_end; ++s) {
            // Stash a_p in z temporarily.
            z[s] = flow[static_cast<std::size_t>(inc_path_[s])] + l4[s] / rho + offset;
            a_sum += z[s];
          }
          const auto n = static_cast<double>(s_end - s_begin);
          const double S = a_sum / (n + 1.0);
          for (std::size_t s = s_begin; s < s_end; ++s) {
            z[s] -= S;
            l4[s] += rho * (flow[static_cast<std::size_t>(inc_path_[s])] - z[s]);
          }
          z_sum[ei] = a_sum - n * S;
        }
        l3[ei] += rho * (z_sum[ei] + s3[ei] - cap[ei]);
      }
    });

    // ---- Demand-side block 2 + dual ascent, fused per demand and fanned
    // over the shards: s1-update and l1 ascent, then — when another
    // F-update follows — each path's l4/z sums gathered from the edge
    // slots in path order.
    const bool gather = it + 1 < cfg_.iterations;
    run_sharded(shards, stats, [&](int /*shard*/, int d0, int d1) {
      for (int d = d0; d < d1; ++d) {
        const auto di = static_cast<std::size_t>(d);
        s1[di] = std::max(0.0, 1.0 - x_sum[di] - l1[di] / rho);
        l1[di] += rho * (x_sum[di] + s1[di] - 1.0);
        if (!gather) continue;
        for (int p = pb_.path_begin(d); p < pb_.path_end(d); ++p) {
          const auto ps = static_cast<std::size_t>(p);
          double sl4 = 0.0, sz = 0.0;
          for (int zi = z_offset_[ps]; zi < z_offset_[ps + 1]; ++zi) {
            const auto s = static_cast<std::size_t>(slot_[static_cast<std::size_t>(zi)]);
            sl4 += l4[s];
            sz += z[s];
          }
          sum_l4[ps] = sl4;
          sum_z[ps] = sz;
        }
      }
    });
  }

  // Each demand's last F-update wrote its flow from the final x.
  res.after = violation();
  // ADMM iterates are not exactly feasible for the *demand* constraint; clamp
  // the per-demand sums (cheap and local) but keep capacity handling to the
  // evaluation semantics, as the paper does. Sharded: each demand's clamp and
  // split writeback touch only its own path range.
  a.split.resize(static_cast<std::size_t>(np));
  run_sharded(shards, stats, [&](int /*shard*/, int d0, int d1) {
    for (int d = d0; d < d1; ++d) {
      const auto di = static_cast<std::size_t>(d);
      const bool over = x_sum[di] > 1.0;
      for (int p = pb_.path_begin(d); p < pb_.path_end(d); ++p) {
        const auto ps = static_cast<std::size_t>(p);
        if (over) x[ps] /= x_sum[di];
        a.split[ps] = x[ps];
      }
    }
  });
  return res;
}

}  // namespace teal::core
