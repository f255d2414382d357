// pdhg.h — diagonally preconditioned primal-dual hybrid gradient solver for
// box-constrained packing LPs:
//
//   maximize    cᵀx
//   subject to  A x <= b,   0 <= x <= u        (A >= 0, b >= 0)
//
// This is the repository's stand-in for a commercial LP engine (Gurobi in the
// paper). Like Gurobi it is *iterative*: thousands of cheap sweeps whose count
// grows with problem size and conditioning, executed on a single thread —
// which is precisely the scaling bottleneck Teal attacks (§2.1, Figure 2).
// Its per-iteration cost is O(nnz); it terminates when a feasibility-repaired
// primal iterate and the running dual bound close to within `rel_gap_tol`
// (converged), when the primal value stalls, or at `max_iterations`.
//
// The updates follow Pock & Chambolle (2011) diagonal preconditioning:
//   x <- clamp(x + T (c - Aᵀ y), 0, u)
//   y <- max(0, y + S (A (2x' - x) - b))
// with T_j = 1/colsum_j, S_i = 1/rowsum_i (entrywise absolute sums).
#pragma once

#include <vector>

#include "lp/sparse.h"

namespace teal::lp {

struct PdhgOptions {
  int max_iterations = 50000;
  int check_every = 50;        // gap check cadence
  double rel_gap_tol = 2e-3;   // |primal - dual| / max(1, |dual|)
  double step_scale = 1.0;     // multiplies both step sizes (keep <= 1)
  // Primal-stall termination (how commercial engines stop in practice): quit
  // when the best feasible primal value improved by less than stall_rel
  // (relative) over the last stall_checks gap checks. 0 checks disables. A
  // stall stop is not convergence: the dual bound there can be vacuous.
  double stall_rel = 3e-4;
  int stall_checks = 8;
};

struct PdhgResult {
  // True only when the duality gap closed to within rel_gap_tol; false on a
  // primal-stall stop or when max_iterations ran out.
  bool converged = false;
  double objective = 0.0;          // of the repaired (feasible) primal point
  double dual_bound = 0.0;         // best dual upper bound observed
  std::vector<double> x;           // feasible primal solution
  std::vector<double> y;           // final dual iterate
  int iterations = 0;
};

PdhgResult pdhg_packing(const SparseMatrix& a, const std::vector<double>& b,
                        const std::vector<double>& c, const std::vector<double>& u,
                        const PdhgOptions& opt = {},
                        const std::vector<double>* warm_start = nullptr);

}  // namespace teal::lp
