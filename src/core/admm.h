// admm.h — ADMM solution fine-tuning (§3.4, Appendix C).
//
// Teal's neural networks output split ratios that may violate link
// capacities. A handful of ADMM iterations, warm-started from the network
// output, pushes the solution toward the feasible region while improving the
// TE objective. Following Appendix C, the TE LP is decoupled by introducing
//   * per-(path, edge) auxiliary variables z_pe with F_p * d - z_pe = 0,
//   * slack s1_d for the demand constraints and s3_e for capacity, and
//   * multipliers lambda1_d, lambda3_e, lambda4_pe with penalty rho.
// Each ADMM iteration alternates exact minimizations of the augmented
// Lagrangian: the F-update decomposes per *demand* (a tiny nonnegative QP
// solved by coordinate descent), the z-update per *edge*, and the slack/dual
// updates are elementwise — all three embarrassingly parallel, which is why
// the paper runs ADMM on the GPU. Per §4 the iteration count is 2 for
// topologies with < 100 nodes and 5 otherwise.
//
// Used alone from a cold start, ADMM needs far too many iterations to reach
// a good solution (§3.4) — the fig14 ablation bench demonstrates exactly
// that by comparing cold- and warm-started runs.
#pragma once

#include <vector>

#include "core/shard.h"
#include "te/problem.h"
#include "util/arena.h"

namespace teal::core {

struct AdmmConfig {
  int iterations = 5;        // 2 for < 100 nodes, 5 otherwise (§4)
  double rho = 5.0;          // penalty coefficient (volumes are normalized)
  int coord_sweeps = 4;      // coordinate-descent sweeps inside F/z updates
  std::vector<double> path_weight;  // optional per-path objective weights
};

// Returns the paper's per-topology default iteration count.
int default_admm_iterations(int n_nodes);

class Admm {
 public:
  // Precomputes the edge<->path incidence index; reusable across solves on
  // the same Problem.
  explicit Admm(const te::Problem& pb, AdmmConfig cfg = {});

  // Fine-tunes `a` in place for the given matrix/capacities. Returns the
  // total constraint violation (demand + capacity + coupling residuals)
  // before and after, letting callers and tests check monotone improvement.
  struct Residuals {
    double before = 0.0;
    double after = 0.0;
  };

  // Per-solve primal/dual state. Passing the same Workspace to repeated
  // fine_tune() calls reuses every buffer (allocation-free once warm); every
  // entry is fully re-initialized per call, so reuse never changes results.
  // Distinct Workspaces make concurrent fine_tune() calls on one Admm safe.
  // Buffers are arena-aware (util::AVec): a workspace sized under a bound
  // util::Arena draws all fifteen from the arena in one cold pass.
  struct Workspace {
    util::AVec<double> vol, cap;           // normalized volumes/capacities
    util::AVec<double> x, x_sum;           // split ratios and per-demand sums
    util::AVec<double> z, l4;              // per-(path,edge) auxiliaries, edge-slot order
    util::AVec<double> z_sum;              // per-edge sum of z
    util::AVec<double> flow;               // per-path flow x * vol
    util::AVec<double> sum_l4, sum_z;      // per-path sums of l4 / z over its edges
    util::AVec<double> s1, l1, s3, l3;     // slacks and multipliers
  };

  // Auto demand-shard plan (core::auto_shard_count).
  Residuals fine_tune(const te::TrafficMatrix& tm, const std::vector<double>& capacities,
                      te::Allocation& a, Workspace& ws) const;

  // Demand-sharded fine-tune. The per-demand stages — the F-update
  // (coordinate descent over [demand_begin, demand_end)), the s1/l1 updates
  // and the gather of each path's l4/z sums — fan out over `shards`; the
  // coupled link-level stages (per-edge s3/z/l3 and the l4 dual ascent,
  // which read paths of *other* demands through the edge incidence) run as
  // per-edge pool passes, and the residual reductions run sequentially on
  // the calling thread. The resulting allocation is bit-identical for every
  // shard plan (tests/shard_test.cpp) and to the path-major reference
  // (tests/core_admm_test.cpp).
  Residuals fine_tune(const te::TrafficMatrix& tm, const std::vector<double>& capacities,
                      te::Allocation& a, Workspace& ws, const ShardPlan& shards,
                      ShardStat* stats = nullptr) const;

  // Convenience overload allocating a throwaway workspace.
  Residuals fine_tune(const te::TrafficMatrix& tm, const std::vector<double>& capacities,
                      te::Allocation& a) const;

  const AdmmConfig& config() const { return cfg_; }

 private:
  const te::Problem& pb_;
  AdmmConfig cfg_;
  // Path-major numbering of the (path, edge) incidences: path p owns
  // indices [z_offset_[p], z_offset_[p+1]), one per edge in path order.
  std::vector<int> z_offset_;
  // Edge-major CSR over the same incidences, which is the order z and l4
  // are stored in: edge e owns slots [edge_begin_[e], edge_begin_[e+1]), in
  // ascending path order; inc_path_[s] is the path of slot s, and
  // slot_[zi] the slot of path-major index zi.
  std::vector<int> edge_begin_;
  std::vector<int> inc_path_;
  std::vector<int> slot_;
};

}  // namespace teal::core
