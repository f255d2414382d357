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
void resize_unspecified(std::vector<double>& v, std::size_t n) {
  v.resize(n);
#ifdef TEAL_DEBUG_MAT
  std::fill(v.begin(), v.end(), std::numeric_limits<double>::signaling_NaN());
#endif
}

// Demands per F-update group: one coordinate step of kGroup demands runs as
// one pass over kGroup lanes (two AVX2 or four SSE2 vectors of doubles).
constexpr int kGroup = 8;

// The F-update group's demand-interleaved arrays, (slot j, lane l) at
// j * kGroup + l: lane l is the group's l-th demand, slot j its j-th path.
struct GroupLanes {
  double* __restrict x;    // split ratios
  double* __restrict c1;   // w * dv - l1 - dv * sum_l4
  double* __restrict c2;   // rho * dv * sum_z
  double* __restrict den;  // rho * (1 + dv * dv * m)
};

// `sweeps` coordinate-descent sweeps over slots [0, depth) of one group, all
// lanes in lockstep. A lane steps slot j only when j < n_paths[l]; the other
// lanes keep their x and x_sum through a select, so each demand takes
// exactly the steps of the one-demand loop, with the same expression:
// num = (c1 - rho * rest) + c2 with rest = x_sum - x + s1 - 1, and the
// clamp of num / den to [0, 1] written as std::clamp evaluates it.
void sweep_group(const GroupLanes& g, double* __restrict x_sum, const double* __restrict s1,
                 const double* __restrict n_paths, int depth, int sweeps, double rho) {
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (int j = 0; j < depth; ++j) {
      double* __restrict xj = g.x + j * kGroup;
      const double* __restrict c1 = g.c1 + j * kGroup;
      const double* __restrict c2 = g.c2 + j * kGroup;
      const double* __restrict den = g.den + j * kGroup;
      const double slot = static_cast<double>(j);
      for (int l = 0; l < kGroup; ++l) {
        const double x_old = xj[l];
        const double rest = x_sum[l] - x_old + s1[l] - 1.0;
        const double q = ((c1[l] - rho * rest) + c2[l]) / den[l];
        const double x_new = q < 0.0 ? 0.0 : (1.0 < q ? 1.0 : q);
        const bool on = slot < n_paths[l];
        x_sum[l] = on ? x_sum[l] + (x_new - x_old) : x_sum[l];
        xj[l] = on ? x_new : x_old;
      }
    }
  }
}
}  // namespace

int default_admm_iterations(int n_nodes) { return n_nodes < 100 ? 2 : 5; }

Admm::Admm(const te::Problem& pb, AdmmConfig cfg) : pb_(pb), cfg_(std::move(cfg)) {
  if (!std::isfinite(cfg_.rho) || cfg_.rho <= 0.0) {
    throw std::invalid_argument("Admm: rho must be finite and > 0, got " +
                                std::to_string(cfg_.rho));
  }
  if (cfg_.iterations < 0) {
    throw std::invalid_argument("Admm: iterations must be >= 0, got " +
                                std::to_string(cfg_.iterations));
  }
  if (cfg_.coord_sweeps < 0) {
    throw std::invalid_argument("Admm: coord_sweeps must be >= 0, got " +
                                std::to_string(cfg_.coord_sweeps));
  }
  for (int d = 0; d < pb.num_demands(); ++d) max_paths_ = std::max(max_paths_, pb.num_paths(d));
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
  auto scatter = [&](std::vector<double>& acc, auto term) {
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
  auto violation = [&](std::vector<double>& load) {
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
  // One group slice per shard: x, c1, c2 and den, each max_paths_ x kGroup.
  const std::size_t slab = static_cast<std::size_t>(max_paths_) * kGroup;
  auto& group = ws.group;
  resize_unspecified(group, 4 * slab * static_cast<std::size_t>(shards.n_shards));

  for (int it = 0; it < cfg_.iterations; ++it) {
    // ---- F-update: per-demand nonnegative QP via coordinate descent,
    // fanned over the demand shards and run kGroup demands at a time. Each
    // shard touches only its own demands' x/x_sum/flow entries and its own
    // group slice, and reads the per-path sums and s1/l1 held fixed this
    // block — which is also why each path's c1, c2 and den are taken once
    // per iteration rather than once per coordinate step.
    run_sharded(shards, stats, [&](int shard, int d0, int d1) {
      double* slice = group.data() + 4 * slab * static_cast<std::size_t>(shard);
      const GroupLanes g{slice, slice + slab, slice + 2 * slab, slice + 3 * slab};
      for (int g0 = d0; g0 < d1; g0 += kGroup) {
        const int n = std::min(kGroup, d1 - g0);
        double lane_x_sum[kGroup], lane_s1[kGroup], n_paths[kGroup];
        int depth = 0;
        for (int l = 0; l < kGroup; ++l) {
          const auto di = static_cast<std::size_t>(g0 + l);
          const int count = l < n ? pb_.num_paths(g0 + l) : 0;
          depth = std::max(depth, count);
          n_paths[l] = static_cast<double>(count);
          lane_x_sum[l] = l < n ? x_sum[di] : 0.0;
          lane_s1[l] = l < n ? s1[di] : 0.0;
        }
        for (int j = 0; j < depth; ++j) {
          for (int l = 0; l < kGroup; ++l) {
            const std::size_t at = static_cast<std::size_t>(j) * kGroup + l;
            if (static_cast<double>(j) >= n_paths[l]) {
              g.x[at] = 0.0;  // an idle lane: finite operands, result discarded
              g.c1[at] = 0.0;
              g.c2[at] = 0.0;
              g.den[at] = 1.0;
              continue;
            }
            const auto di = static_cast<std::size_t>(g0 + l);
            const int p = pb_.path_begin(g0 + l) + j;
            const auto ps = static_cast<std::size_t>(p);
            const double dv = vol[di];
            const double m = static_cast<double>(pb_.path_edges(p).size());
            const double w = weighted ? cfg_.path_weight[ps] : 1.0;
            g.x[at] = x[ps];
            g.c1[at] = w * dv - l1[di] - dv * sum_l4[ps];
            g.c2[at] = rho * dv * sum_z[ps];
            g.den[at] = rho * (1.0 + dv * dv * m);
          }
        }
        sweep_group(g, lane_x_sum, lane_s1, n_paths, depth, cfg_.coord_sweeps, rho);
        for (int l = 0; l < n; ++l) {
          const auto di = static_cast<std::size_t>(g0 + l);
          x_sum[di] = lane_x_sum[l];
          for (int p = pb_.path_begin(g0 + l), j = 0; p < pb_.path_end(g0 + l); ++p, ++j) {
            const auto ps = static_cast<std::size_t>(p);
            x[ps] = g.x[static_cast<std::size_t>(j) * kGroup + l];
            flow[ps] = x[ps] * vol[di];
          }
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
