// admm.h — ADMM solution fine-tuning (§3.4, Appendix C).
//
// Teal's neural networks output split ratios that may violate link
// capacities. A handful of ADMM iterations, warm-started from the network
// output, trade the TE objective against those constraints. At the paper's
// iteration counts the violation of the returned allocation falls, but on
// some inputs only slightly (EXPERIMENTS.md "Solve stage split"). Following
// Appendix C, the TE LP is decoupled by introducing
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
// Within one demand every coordinate step waits on the previous one through
// a division, so the F-update runs groups of 8 demands in lockstep: one
// coordinate step of 8 independent demands per vector pass over
// demand-interleaved scratch. Each demand still takes its own steps in its
// own order with the same expression, so the bits are those of the
// one-demand-at-a-time loop.
//
// Used alone from a cold start, ADMM needs far too many iterations to reach
// a good solution (§3.4) — the fig14 ablation bench demonstrates exactly
// that by comparing cold- and warm-started runs.
#pragma once

#include <vector>

#include "core/shard.h"
#include "te/problem.h"

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
  // Reads the incidence index from `pb`, which must outlive the Admm;
  // reusable across solves on the same Problem. Throws std::invalid_argument,
  // naming the field, unless cfg.rho is finite and > 0 (every update divides
  // by it), cfg.iterations >= 0, cfg.coord_sweeps >= 0 and cfg.path_weight
  // is empty or has one entry per path.
  explicit Admm(const te::Problem& pb, AdmmConfig cfg = {});

  // Fine-tunes `a` in place for the given matrix/capacities. Returns the
  // total constraint violation (demand overshoot + capacity overload) of the
  // start (split ratios clamped to [0, 1]) and of the allocation returned,
  // after the final per-demand clamp. Nothing guarantees after <= before.
  struct Residuals {
    double before = 0.0;
    double after = 0.0;
  };

  // Per-solve primal/dual state. Passing the same Workspace to repeated
  // fine_tune() calls reuses every buffer (allocation-free once warm); every
  // entry is fully re-initialized per call, so reuse never changes results.
  // Distinct Workspaces make concurrent fine_tune() calls on one Admm safe.
  // There is no per-incidence z: z is never carried across iterations, so
  // the path pass recomputes it from the path's flow and l4 and its edge's
  // offset and S.
  struct Workspace {
    std::vector<double> vol, cap;          // normalized volumes/capacities
    std::vector<double> x, x_sum;          // split ratios and per-demand sums
    std::vector<double> l4;                // per-incidence multipliers (Problem's numbering)
    std::vector<double> flow;              // per-path flow x * vol
    std::vector<double> sum_l4, sum_z;     // per-path sums of l4 / z over its edges
    std::vector<double> z_sum;             // per-edge sum of z
    std::vector<double> offset, shift;     // per-edge z-update terms: offset, S (sum of a_p first)
    std::vector<double> s1, l1, s3, l3;    // slacks and multipliers
    // F-update scratch, one slice per shard: the demand-interleaved x and
    // the hoisted per-path terms of one group of 8 demands (see fine_tune).
    std::vector<double> group;
  };

  // Auto demand-shard plan (core::auto_shard_count).
  Residuals fine_tune(const te::TrafficMatrix& tm, const std::vector<double>& capacities,
                      te::Allocation& a, Workspace& ws) const;

  // Demand-sharded fine-tune. The per-demand stages — the F-update
  // (coordinate descent over each shard's demands, 8 at a time in
  // lockstep; a group never crosses a shard boundary), the s1/l1 updates
  // and the path pass (each incidence's z and l4 ascent, and each path's
  // l4/z sums) — fan out over `shards`. The coupled link-level stages, which
  // read paths of *other* demands through the edge incidence, run on the
  // calling thread: an ordered path-major scatter of each edge's sum, then
  // elementwise per-edge s3/S/l3 loops. The residual reductions use the same
  // scatter. The resulting allocation is bit-identical for every shard plan
  // (tests/shard_test.cpp) and to the reference (tests/core_admm_test.cpp).
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
  int max_paths_ = 0;  // most paths of any demand: the F-update group depth
};

}  // namespace teal::core
