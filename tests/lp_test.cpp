// Unit tests for the LP substrate: sparse matrix, simplex (reference),
// PDHG-vs-simplex optimality, TE path LPs, min-MLU bisection.
#include <gtest/gtest.h>

#include <cmath>

#include "lp/path_lp.h"
#include "lp/pdhg.h"
#include "lp/simplex.h"
#include "lp/sparse.h"
#include "te/objective.h"
#include "topo/topology.h"
#include "traffic/traffic.h"
#include "util/rng.h"

namespace teal {
namespace {

TEST(Sparse, MultiplyAndTranspose) {
  // A = [1 2 0; 0 0 3]
  lp::SparseMatrix a(2, 3, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 2, 3.0}});
  std::vector<double> x = {1, 1, 1}, y;
  a.multiply(x, y);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  std::vector<double> yy = {1, 2}, xt;
  a.multiply_transpose(yy, xt);
  EXPECT_DOUBLE_EQ(xt[0], 1.0);
  EXPECT_DOUBLE_EQ(xt[1], 2.0);
  EXPECT_DOUBLE_EQ(xt[2], 6.0);
  EXPECT_DOUBLE_EQ(a.row_abs_sum(0), 3.0);
  EXPECT_DOUBLE_EQ(a.col_abs_sum(2), 3.0);
  EXPECT_EQ(a.nnz(), 3u);
}

TEST(Sparse, OutOfRangeTripletThrows) {
  EXPECT_THROW(lp::SparseMatrix(1, 1, {{1, 0, 1.0}}), std::out_of_range);
}

TEST(Simplex, SolvesTextbookLp) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> optimum 36 at (2, 6).
  auto res = lp::simplex_max({{1, 0}, {0, 2}, {3, 2}}, {4, 12, 18}, {3, 5});
  ASSERT_TRUE(res.optimal);
  EXPECT_NEAR(res.objective, 36.0, 1e-9);
  EXPECT_NEAR(res.x[0], 2.0, 1e-9);
  EXPECT_NEAR(res.x[1], 6.0, 1e-9);
}

TEST(Simplex, ZeroRhsGivesZero) {
  auto res = lp::simplex_max({{1.0}}, {0.0}, {1.0});
  ASSERT_TRUE(res.optimal);
  EXPECT_NEAR(res.objective, 0.0, 1e-12);
}

TEST(Simplex, RejectsNegativeRhs) {
  EXPECT_THROW(lp::simplex_max({{1.0}}, {-1.0}, {1.0}), std::invalid_argument);
}

TEST(Pdhg, MatchesSimplexOnRandomPackingLps) {
  // Property check: on random packing LPs the first-order solver reaches the
  // simplex optimum within its gap tolerance.
  util::Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    const int m = 5 + trial, n = 8 + trial;
    std::vector<std::vector<double>> ad(m, std::vector<double>(n, 0.0));
    std::vector<lp::Triplet> trips;
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        if (rng.uniform() < 0.4) {
          double v = rng.uniform(0.1, 2.0);
          ad[i][j] = v;
          trips.push_back({i, j, v});
        }
      }
    }
    std::vector<double> b(m), c(n), u(n, 10.0);
    for (auto& bi : b) bi = rng.uniform(1.0, 5.0);
    for (auto& cj : c) cj = rng.uniform(0.1, 1.0);

    // The simplex form has no upper bounds on x; emulate x <= u with rows.
    std::vector<std::vector<double>> a_ext = ad;
    std::vector<double> b_ext = b;
    for (int j = 0; j < n; ++j) {
      std::vector<double> row(n, 0.0);
      row[j] = 1.0;
      a_ext.push_back(row);
      b_ext.push_back(u[j]);
    }
    auto exact = lp::simplex_max(a_ext, b_ext, c);
    ASSERT_TRUE(exact.optimal);

    lp::SparseMatrix a(m, n, trips);
    lp::PdhgOptions opt;
    opt.rel_gap_tol = 1e-3;
    opt.max_iterations = 200000;
    auto approx = lp::pdhg_packing(a, b, c, u, opt);
    EXPECT_NEAR(approx.objective, exact.objective,
                5e-3 * std::max(1.0, exact.objective))
        << "trial " << trial;
    // Feasibility of the returned primal point.
    std::vector<double> ax;
    a.multiply(approx.x, ax);
    for (int i = 0; i < m; ++i) EXPECT_LE(ax[i], b[i] + 1e-9);
    // Dual bound really is an upper bound.
    EXPECT_GE(approx.dual_bound, exact.objective - 1e-6);
  }
}

TEST(Pdhg, WarmStartConverges) {
  lp::SparseMatrix a(1, 2, {{0, 0, 1.0}, {0, 1, 1.0}});
  std::vector<double> b = {1.0}, c = {1.0, 0.5}, u = {1.0, 1.0};
  std::vector<double> warm = {0.9, 0.0};
  auto res = lp::pdhg_packing(a, b, c, u, {}, &warm);
  EXPECT_NEAR(res.objective, 1.0, 1e-2);
}

TEST(Pdhg, ConvergedMeansTheGapClosed) {
  util::Rng rng(5);
  const int m = 12, n = 20;
  std::vector<lp::Triplet> trips;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      if (rng.uniform() < 0.4) trips.push_back({i, j, rng.uniform(0.1, 2.0)});
    }
  }
  std::vector<double> b(m), c(n), u(n, 10.0);
  for (auto& bi : b) bi = rng.uniform(1.0, 5.0);
  for (auto& cj : c) cj = rng.uniform(0.1, 1.0);
  lp::SparseMatrix a(m, n, trips);

  // A gap tolerance no iterate can meet and a stall test that fires at the
  // first chance: the solver stops on the stall, well before max_iterations,
  // with the gap still open — that is not convergence.
  lp::PdhgOptions stall;
  stall.rel_gap_tol = 0.0;
  stall.check_every = 5;
  stall.stall_checks = 1;
  stall.stall_rel = 1.0;
  auto stalled = lp::pdhg_packing(a, b, c, u, stall);
  EXPECT_EQ(stalled.iterations, 2 * stall.check_every);
  EXPECT_GT(stalled.dual_bound, stalled.objective);
  EXPECT_FALSE(stalled.converged);

  // Stall stop disabled: the only way out short of max_iterations is the
  // gap closing, and that run reports converged.
  lp::PdhgOptions gap;
  gap.stall_checks = 0;
  auto closed = lp::pdhg_packing(a, b, c, u, gap);
  EXPECT_LT(closed.iterations, gap.max_iterations);
  EXPECT_LE(closed.dual_bound - closed.objective,
            gap.rel_gap_tol * std::max(1.0, std::abs(closed.dual_bound)));
  EXPECT_TRUE(closed.converged);
}

te::Problem b4_problem() {
  auto g = topo::make_b4();
  return te::Problem(std::move(g), te::all_pairs_demands(topo::make_b4()), 4);
}

TEST(PathLp, FeasibleAndBeatsShortestPath) {
  auto pb = b4_problem();
  traffic::TraceConfig tcfg;
  tcfg.n_intervals = 5;
  auto trace = traffic::generate_trace(pb, tcfg);
  traffic::calibrate_capacities(pb, trace, 1.5);
  const auto& tm = trace.at(0);

  lp::FlowLpInfo info;
  auto alloc = lp::solve_flow_lp(pb, tm, {}, {}, &info);
  pb.validate_allocation(alloc);
  // Strict feasibility of intended loads.
  auto load = te::edge_loads(pb, tm, alloc);
  auto caps = pb.capacities();
  for (std::size_t e = 0; e < load.size(); ++e) EXPECT_LE(load[e], caps[e] + 1e-6);

  double lp_flow = te::total_feasible_flow(pb, tm, alloc);
  double sp_flow = te::total_feasible_flow(pb, tm, pb.shortest_path_allocation());
  EXPECT_GE(lp_flow, sp_flow - 1e-6);
  EXPECT_NEAR(lp_flow, info.objective, 1e-6 * std::max(1.0, lp_flow));
}

TEST(PathLp, SubsetOnlyAllocatesSubset) {
  auto pb = b4_problem();
  traffic::TraceConfig tcfg;
  tcfg.n_intervals = 2;
  auto trace = traffic::generate_trace(pb, tcfg);
  lp::FlowLpSpec spec;
  spec.demand_subset = {0, 5, 7};
  auto alloc = lp::solve_flow_lp(pb, trace.at(0), spec);
  for (int d = 0; d < pb.num_demands(); ++d) {
    bool in = d == 0 || d == 5 || d == 7;
    double sum = 0.0;
    for (int p = pb.path_begin(d); p < pb.path_end(d); ++p) {
      sum += alloc.split[static_cast<std::size_t>(p)];
    }
    if (!in) EXPECT_DOUBLE_EQ(sum, 0.0);
  }
}

TEST(PathLp, CapacityOverrideRespected) {
  auto pb = b4_problem();
  traffic::TraceConfig tcfg;
  tcfg.n_intervals = 2;
  auto trace = traffic::generate_trace(pb, tcfg);
  auto caps = pb.capacities();
  for (double& c : caps) c *= 0.1;
  lp::FlowLpSpec spec;
  spec.capacities = caps;
  auto alloc = lp::solve_flow_lp(pb, trace.at(0), spec);
  auto load = te::edge_loads(pb, trace.at(0), alloc);
  for (std::size_t e = 0; e < load.size(); ++e) EXPECT_LE(load[e], caps[e] + 1e-6);
}

TEST(PathLp, MatchesSimplexOptimumOnTinyInstance) {
  // Tiny 4-node problem solvable by the dense simplex for cross-validation.
  topo::Graph g("tiny");
  g.add_nodes(4);
  g.add_link(0, 1, 10, 1);
  g.add_link(1, 3, 10, 1);
  g.add_link(0, 2, 10, 1);
  g.add_link(2, 3, 10, 1);
  te::Problem pb(std::move(g), {{0, 3}, {3, 0}}, 4);
  te::TrafficMatrix tm;
  tm.volume = {30.0, 5.0};

  auto alloc = lp::solve_flow_lp(pb, tm);
  double flow = te::total_feasible_flow(pb, tm, alloc);
  // Optimum: demand 0 limited by two 10-capacity disjoint paths = 20; demand
  // 1 fully routed = 5.
  EXPECT_NEAR(flow, 25.0, 0.2);
}

TEST(MinMlu, MatchesKnownOptimumOnDiamond) {
  // Two disjoint 2-hop paths with equal latency; demand 12 vs capacity 10
  // per path: best MLU splits evenly -> 6/10.
  topo::Graph g("mlu-diamond");
  g.add_nodes(4);
  g.add_link(0, 1, 10, 1);
  g.add_link(1, 3, 10, 1);
  g.add_link(0, 2, 10, 1);
  g.add_link(2, 3, 10, 1);
  te::Problem pb(std::move(g), {{0, 3}}, 4);
  te::TrafficMatrix tm;
  tm.volume = {12.0};
  te::Allocation a;
  double mlu = lp::solve_min_mlu(pb, tm, {}, &a);
  EXPECT_NEAR(mlu, 0.6, 0.05);
  // All traffic routed.
  double sum = 0.0;
  for (int p = pb.path_begin(0); p < pb.path_end(0); ++p) {
    sum += a.split[static_cast<std::size_t>(p)];
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(MinMlu, NeverWorseThanShortestPathRouting) {
  auto pb = b4_problem();
  traffic::TraceConfig tcfg;
  tcfg.n_intervals = 3;
  auto trace = traffic::generate_trace(pb, tcfg);
  traffic::calibrate_capacities(pb, trace, 2.0);
  for (int t = 0; t < 3; ++t) {
    double sp = te::max_link_utilization(pb, trace.at(t), pb.shortest_path_allocation());
    double opt = lp::solve_min_mlu(pb, trace.at(t));
    EXPECT_LE(opt, sp + 1e-6);
  }
}

TEST(LatencyWeights, ShorterPathsWeighMore) {
  auto pb = b4_problem();
  auto w = lp::latency_penalty_weights(pb, 0.5);
  ASSERT_EQ(static_cast<int>(w.size()), pb.total_paths());
  for (int d = 0; d < pb.num_demands(); ++d) {
    for (int p = pb.path_begin(d) + 1; p < pb.path_end(d); ++p) {
      // Yen returns paths in nondecreasing latency, so weights nonincreasing.
      EXPECT_GE(w[static_cast<std::size_t>(p - 1)], w[static_cast<std::size_t>(p)] - 1e-12);
    }
  }
  for (double x : w) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

}  // namespace
}  // namespace teal
