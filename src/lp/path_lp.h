// path_lp.h — TE LP construction and solving on the path formulation.
//
// This is the layer every LP-based scheme in the repo calls — the equivalent
// of "hand the model to Gurobi" in the paper. It builds the packing LP of
// Equation (1) (optionally restricted to a demand subset, with overridden
// capacities or per-path objective weights) and solves it with the PDHG
// engine; tiny instances can be solved with the exact simplex for tests.
//
//   max  Σ_d Σ_p w_p · F_d(p) · d
//   s.t. Σ_p F_d(p) <= 1                        (demand rows)
//        Σ_{p∋e} F_d(p) · d <= c(e)             (capacity rows)
//        0 <= F_d(p) <= 1
//
// Min-MLU (§5.5) is solved by bisection on t: "can all traffic be routed with
// every link load <= t·c(e)?", each probe being one packing LP — an honest
// rendition of how iterative solvers pay per probe, and naturally slower than
// Teal's single forward pass.
#pragma once

#include <vector>

#include "lp/pdhg.h"
#include "te/problem.h"

namespace teal::lp {

struct FlowLpSpec {
  std::vector<int> demand_subset;   // empty = all demands
  std::vector<double> capacities;   // empty = problem graph capacities
  std::vector<double> path_weight;  // empty = 1.0; size pb.total_paths()
};

struct FlowLpInfo {
  double objective = 0.0;   // feasible primal objective (weighted flow)
  double dual_bound = 0.0;
  int iterations = 0;
  bool converged = false;   // duality gap closed (PdhgResult::converged)
};

// Solves the (restricted) max-weighted-flow LP; splits of demands outside the
// subset are zero. The result is feasible w.r.t. the given capacities.
te::Allocation solve_flow_lp(const te::Problem& pb, const te::TrafficMatrix& tm,
                             const FlowLpSpec& spec = {}, const PdhgOptions& opt = {},
                             FlowLpInfo* info = nullptr);

// Min-MLU by bisection. Returns the achieved MLU and writes the allocation
// (which routes all routable traffic) to *alloc if non-null.
double solve_min_mlu(const te::Problem& pb, const te::TrafficMatrix& tm,
                     const PdhgOptions& opt = {}, te::Allocation* alloc = nullptr,
                     int bisect_iters = 14);

// Per-path latency-penalty weights: w_p = max(0, 1 - penalty * lat_p / max lat)
// (the §5.5 latency-penalized objective as an LP objective vector).
std::vector<double> latency_penalty_weights(const te::Problem& pb, double penalty = 0.5);

}  // namespace teal::lp
