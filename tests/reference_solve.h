// reference_solve.h — ordered reference implementations of the solve's two
// edge<->path incidence passes, kept as test oracles for the streaming forms
// in src/core:
//   * reference_fine_tune — the path-major ADMM fine-tune: z/l4 indexed by
//     (path, edge-of-path), per-edge incidence lists, and every path's
//     z-range re-summed inside each coordinate sweep;
//   * reference_mean_gather — the runtime-width FlowGNN mean gather.
// Both are sequential and written for clarity, not speed. core::Admm and
// core::FlowGnn must match them bit for bit (tests/core_admm_test.cpp,
// tests/core_model_test.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/admm.h"
#include "te/problem.h"

namespace teal::reference {

inline core::Admm::Residuals reference_fine_tune(const te::Problem& pb,
                                                 const core::AdmmConfig& cfg,
                                                 const te::TrafficMatrix& tm,
                                                 const std::vector<double>& capacities,
                                                 te::Allocation& a) {
  const int nd = pb.num_demands();
  const int ne = pb.graph().num_edges();
  const int np = pb.total_paths();
  const double rho = cfg.rho;

  // z index range of path p: [z_offset[p], z_offset[p+1]); per edge, the
  // (z index, path) incidences in ascending path order.
  std::vector<int> z_offset(static_cast<std::size_t>(np) + 1, 0);
  for (int p = 0; p < np; ++p) {
    z_offset[static_cast<std::size_t>(p) + 1] =
        z_offset[static_cast<std::size_t>(p)] + static_cast<int>(pb.path_edges(p).size());
  }
  struct Incidence {
    int z_index;
    int path;
  };
  std::vector<std::vector<Incidence>> incidence(static_cast<std::size_t>(ne));
  for (int p = 0; p < np; ++p) {
    int zi = z_offset[static_cast<std::size_t>(p)];
    for (topo::EdgeId e : pb.path_edges(p)) {
      incidence[static_cast<std::size_t>(e)].push_back(Incidence{zi++, p});
    }
  }
  const auto nz = static_cast<std::size_t>(z_offset.back());

  double scale = 1e-9;
  for (double c : capacities) scale += c;
  scale /= std::max<std::size_t>(1, capacities.size());
  std::vector<double> vol(static_cast<std::size_t>(nd)), cap(static_cast<std::size_t>(ne));
  for (int d = 0; d < nd; ++d) vol[d] = tm.volume[d] / scale;
  for (int e = 0; e < ne; ++e) cap[e] = capacities[e] / scale;

  auto violation = [&](const std::vector<double>& x) {
    double v = 0.0;
    for (int d = 0; d < nd; ++d) {
      double sum = 0.0;
      for (int p = pb.path_begin(d); p < pb.path_end(d); ++p) sum += x[p];
      v += std::max(0.0, sum - 1.0);
    }
    std::vector<double> load(static_cast<std::size_t>(ne), 0.0);
    for (int p = 0; p < np; ++p) {
      const double f = x[p] * vol[pb.demand_of_path(p)];
      for (topo::EdgeId e : pb.path_edges(p)) load[e] += f;
    }
    for (int e = 0; e < ne; ++e) v += std::max(0.0, load[e] - cap[e]);
    return v;
  };

  std::vector<double> x(a.split.begin(), a.split.end());
  for (double& xv : x) xv = std::clamp(xv, 0.0, 1.0);
  core::Admm::Residuals res;
  res.before = violation(x);

  std::vector<double> z(nz), l4(nz, 0.0);
  for (int p = 0; p < np; ++p) {
    const double f = x[p] * vol[pb.demand_of_path(p)];
    for (int zi = z_offset[p]; zi < z_offset[p + 1]; ++zi) z[zi] = f;
  }
  std::vector<double> s1(static_cast<std::size_t>(nd)), l1(static_cast<std::size_t>(nd), 0.0);
  std::vector<double> x_sum(static_cast<std::size_t>(nd));
  for (int d = 0; d < nd; ++d) {
    double sum = 0.0;
    for (int p = pb.path_begin(d); p < pb.path_end(d); ++p) sum += x[p];
    x_sum[d] = sum;
    s1[d] = std::max(0.0, 1.0 - sum);
  }
  std::vector<double> z_sum(static_cast<std::size_t>(ne));
  for (int e = 0; e < ne; ++e) {
    double sum = 0.0;
    for (const auto& inc : incidence[e]) sum += z[inc.z_index];
    z_sum[e] = sum;
  }
  std::vector<double> s3(static_cast<std::size_t>(ne)), l3(static_cast<std::size_t>(ne), 0.0);
  for (int e = 0; e < ne; ++e) s3[e] = std::max(0.0, cap[e] - z_sum[e]);

  const bool weighted = !cfg.path_weight.empty();
  for (int it = 0; it < cfg.iterations; ++it) {
    // F-update: per-demand coordinate descent, re-summing each path's
    // z/l4 range in every sweep.
    for (int d = 0; d < nd; ++d) {
      const double dv = vol[d];
      for (int sweep = 0; sweep < cfg.coord_sweeps; ++sweep) {
        for (int p = pb.path_begin(d); p < pb.path_end(d); ++p) {
          const double m = static_cast<double>(pb.path_edges(p).size());
          double sum_l4 = 0.0, sum_z = 0.0;
          for (int zi = z_offset[p]; zi < z_offset[p + 1]; ++zi) {
            sum_l4 += l4[zi];
            sum_z += z[zi];
          }
          const double w = weighted ? cfg.path_weight[p] : 1.0;
          const double rest = x_sum[d] - x[p] + s1[d] - 1.0;
          const double num = w * dv - l1[d] - dv * sum_l4 - rho * rest + rho * dv * sum_z;
          const double x_new = std::clamp(num / (rho * (1.0 + dv * dv * m)), 0.0, 1.0);
          x_sum[d] += x_new - x[p];
          x[p] = x_new;
        }
      }
    }
    // Per edge: s3-update, exact z-update, l3 ascent.
    for (int e = 0; e < ne; ++e) {
      s3[e] = std::max(0.0, cap[e] - z_sum[e] - l3[e] / rho);
      const auto& incs = incidence[e];
      if (!incs.empty()) {
        const double offset = -l3[e] / rho + cap[e] - s3[e];
        double a_sum = 0.0;
        for (const auto& inc : incs) {
          const double f = x[inc.path] * vol[pb.demand_of_path(inc.path)];
          z[inc.z_index] = f + l4[inc.z_index] / rho + offset;
          a_sum += z[inc.z_index];
        }
        const double S = a_sum / (static_cast<double>(incs.size()) + 1.0);
        for (const auto& inc : incs) z[inc.z_index] -= S;
        z_sum[e] = a_sum - static_cast<double>(incs.size()) * S;
      }
      l3[e] += rho * (z_sum[e] + s3[e] - cap[e]);
    }
    // Per demand: s1-update, l1 ascent, l4 ascent over the path z-ranges.
    for (int d = 0; d < nd; ++d) {
      s1[d] = std::max(0.0, 1.0 - x_sum[d] - l1[d] / rho);
      l1[d] += rho * (x_sum[d] + s1[d] - 1.0);
      for (int p = pb.path_begin(d); p < pb.path_end(d); ++p) {
        const double f = x[p] * vol[d];
        for (int zi = z_offset[p]; zi < z_offset[p + 1]; ++zi) l4[zi] += rho * (f - z[zi]);
      }
    }
  }

  a.split.resize(static_cast<std::size_t>(np));
  for (int d = 0; d < nd; ++d) {
    const bool over = x_sum[d] > 1.0;
    for (int p = pb.path_begin(d); p < pb.path_end(d); ++p) {
      if (over) x[p] /= x_sum[d];
      a.split[p] = x[p];
    }
  }
  res.after = violation(x);  // the residual of the allocation returned
  return res;
}

// Mean of the `d`-wide rows of `src` named by `neighbors`, accumulated in
// list order through `out` (zero for an empty list).
template <typename Mat, typename T, typename List>
void reference_mean_gather(const Mat& src, const List& neighbors, T* out, int d) {
  for (int c = 0; c < d; ++c) out[c] = T(0);
  if (neighbors.empty()) return;
  for (auto n : neighbors) {
    const T* nr = src.row_ptr(static_cast<int>(n));
    for (int c = 0; c < d; ++c) out[c] += nr[c];
  }
  const T inv = T(1) / static_cast<T>(neighbors.size());
  for (int c = 0; c < d; ++c) out[c] *= inv;
}

}  // namespace teal::reference
