#include "core/admm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "te/objective.h"

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
  const std::size_t nw = cfg_.path_weight.size();
  if (nw != 0 && nw != static_cast<std::size_t>(pb.total_paths())) {
    throw std::invalid_argument("Admm: path_weight has " + std::to_string(nw) + " entries for " +
                                std::to_string(pb.total_paths()) + " paths");
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
  const int nz = pb_.num_incidences();
  const double rho = cfg_.rho;

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
  // fixed through an F-update, so the sums are taken once per iteration
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
    for (int zi = pb_.incidence_begin(p); zi < pb_.incidence_begin(p + 1); ++zi) sz += flow[ps];
    sum_l4[ps] = 0.0;
    sum_z[ps] = sz;
  }

  // Ordered path-major scatter: acc[e] = the sum of term(p, zi) over the
  // incidences of edge e. Paths are visited in ascending order, so every
  // edge adds its terms in ascending path order, as the reference
  // (tests/reference_solve.h) does. It reduces across demands, so it runs on
  // the calling thread and is bit-identical for every shard plan.
  auto scatter = [&](util::AVec<double>& acc, auto term) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (int p = 0; p < np; ++p) {
      const auto ps = static_cast<std::size_t>(p);
      for (int zi = pb_.incidence_begin(p); zi < pb_.incidence_begin(p + 1); ++zi) {
        acc[static_cast<std::size_t>(pb_.incidence_edge(zi))] += term(ps, zi);
      }
    }
  };

  // Total constraint violation of the current x (whose flow is current):
  // demand overshoot plus per-edge load over capacity. The per-edge loads
  // are left in `load`.
  auto violation = [&](util::AVec<double>& load) {
    double v = 0.0;
    for (int d = 0; d < nd; ++d) {
      double sum = 0.0;
      for (int p = pb_.path_begin(d); p < pb_.path_end(d); ++p) {
        sum += x[static_cast<std::size_t>(p)];
      }
      v += std::max(0.0, sum - 1.0);
    }
    scatter(load, [&](std::size_t ps, int /*zi*/) { return flow[ps]; });
    for (int e = 0; e < ne; ++e) {
      v += std::max(0.0, load[static_cast<std::size_t>(e)] - cap[static_cast<std::size_t>(e)]);
    }
    return v;
  };

  // z starts at the flows, so each edge's first sum of z is its load.
  auto& z_sum = ws.z_sum;
  resize_unspecified(z_sum, static_cast<std::size_t>(ne));
  Residuals res;
  res.before = violation(z_sum);

  // l4 is stored path-major, so the path pass streams it.
  auto& l4 = ws.l4;
  l4.assign(static_cast<std::size_t>(nz), 0.0);
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
  auto& s3 = ws.s3;
  resize_unspecified(s3, static_cast<std::size_t>(ne));
  auto& l3 = ws.l3;
  l3.assign(static_cast<std::size_t>(ne), 0.0);
  auto& offset = ws.offset;
  resize_unspecified(offset, static_cast<std::size_t>(ne));
  auto& shift = ws.shift;
  resize_unspecified(shift, static_cast<std::size_t>(ne));

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
            const double m = static_cast<double>(pb_.path_edges(p).size());
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
    // Everything after the F-update only feeds the next one: the result
    // reads x, x_sum and flow alone.
    if (it + 1 == cfg_.iterations) break;

    // ---- Coupled link-level block: s3-update, exact z-update and l3 dual
    // ascent. The per-edge quadratic has Hessian rho*(I + 1 1ᵀ); by
    // Sherman-Morrison, with a_p = f_p + l4_p/rho + offset_e, where
    // offset_e = -l3/rho + cap - s3, the minimizer is z_p = a_p - S_e with
    // S_e = (sum_p a_p) / (n + 1). z is unbounded, so this block
    // minimization is exact — important for ADMM convergence. The sum of a_p
    // reads the flow of *other* demands' paths, so it is the ordered
    // scatter; the rest is per edge, on ne entries.
    for (int e = 0; e < ne; ++e) {
      const auto ei = static_cast<std::size_t>(e);
      s3[ei] = std::max(0.0, cap[ei] - z_sum[ei] - l3[ei] / rho);
      offset[ei] = -l3[ei] / rho + cap[ei] - s3[ei];
    }
    scatter(shift, [&](std::size_t ps, int zi) {
      const auto zs = static_cast<std::size_t>(zi);
      return flow[ps] + l4[zs] / rho + offset[static_cast<std::size_t>(pb_.incidence_edge(zi))];
    });
    // shift holds each edge's sum of a_p; turn it into S_e. An edge on no
    // path keeps its z_sum.
    for (int e = 0; e < ne; ++e) {
      const auto ei = static_cast<std::size_t>(e);
      const auto n = static_cast<double>(pb_.paths_on_edge(e).size());
      if (n != 0.0) {
        const double S = shift[ei] / (n + 1.0);
        z_sum[ei] = shift[ei] - n * S;
        shift[ei] = S;
      }
      l3[ei] += rho * (z_sum[ei] + s3[ei] - cap[ei]);
    }

    // ---- Demand-side block 2 + dual ascent, fused per demand and fanned
    // over the shards: s1-update and l1 ascent, then the path pass — each
    // incidence's z recomputed from its edge's offset and S, its l4 ascent,
    // and the path's l4/z sums in path order. A shard writes only its own
    // paths' l4 range.
    run_sharded(shards, stats, [&](int /*shard*/, int d0, int d1) {
      for (int d = d0; d < d1; ++d) {
        const auto di = static_cast<std::size_t>(d);
        s1[di] = std::max(0.0, 1.0 - x_sum[di] - l1[di] / rho);
        l1[di] += rho * (x_sum[di] + s1[di] - 1.0);
        for (int p = pb_.path_begin(d); p < pb_.path_end(d); ++p) {
          const auto ps = static_cast<std::size_t>(p);
          const double f = flow[ps];
          double sl4 = 0.0, sz = 0.0;
          for (int zi = pb_.incidence_begin(p); zi < pb_.incidence_begin(p + 1); ++zi) {
            const auto zs = static_cast<std::size_t>(zi);
            const auto ei = static_cast<std::size_t>(pb_.incidence_edge(zi));
            // a_p as the scatter computed it, so z is a_p - S_e exactly.
            const double z = f + l4[zs] / rho + offset[ei] - shift[ei];
            l4[zs] += rho * (f - z);
            sl4 += l4[zs];
            sz += z;
          }
          sum_l4[ps] = sl4;
          sum_z[ps] = sz;
        }
      }
    });
  }

  // ADMM iterates are not exactly feasible for the *demand* constraint; clamp
  // the per-demand sums (cheap and local) but keep capacity handling to the
  // evaluation semantics, as the paper does. Sharded: each demand's clamp,
  // flow and split writeback touch only its own path range.
  a.split.resize(static_cast<std::size_t>(np));
  run_sharded(shards, stats, [&](int /*shard*/, int d0, int d1) {
    for (int d = d0; d < d1; ++d) {
      const auto di = static_cast<std::size_t>(d);
      const bool over = x_sum[di] > 1.0;
      for (int p = pb_.path_begin(d); p < pb_.path_end(d); ++p) {
        const auto ps = static_cast<std::size_t>(p);
        if (over) x[ps] /= x_sum[di];
        flow[ps] = x[ps] * vol[di];
        a.split[ps] = x[ps];
      }
    }
  });
  // The residual of the allocation returned: the flows are the clamped x's,
  // and shift is free again, so it takes the loads.
  res.after = violation(shift);
  return res;
}

}  // namespace teal::core
