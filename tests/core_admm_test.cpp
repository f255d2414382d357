// Tests for ADMM fine-tuning (§3.4, Appendix C): violation reduction,
// demand-constraint preservation, objective improvement from a warm start,
// the cold-start observation that motivates warm-starting, and bit-exact
// agreement with the reference (tests/reference_solve.h) across iteration
// counts, shard plans and reused workspaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/admm.h"
#include "lp/path_lp.h"
#include "reference_solve.h"
#include "te/objective.h"
#include "topo/topology.h"
#include "traffic/traffic.h"

namespace teal {
namespace {

te::Problem b4_problem(double util = 1.5, traffic::Trace* trace_out = nullptr) {
  auto g = topo::make_b4();
  te::Problem pb(std::move(g), te::all_pairs_demands(topo::make_b4()), 4);
  traffic::TraceConfig cfg;
  cfg.n_intervals = 5;
  auto trace = traffic::generate_trace(pb, cfg);
  traffic::calibrate_capacities(pb, trace, util);
  if (trace_out) *trace_out = trace;
  return pb;
}

// An intentionally violating allocation: every demand fully on its shortest
// path (overloads popular links when demand exceeds capacity).
te::Allocation violating_allocation(const te::Problem& pb) {
  return pb.shortest_path_allocation();
}

TEST(Admm, DefaultIterationCountsFollowPaper) {
  EXPECT_EQ(core::default_admm_iterations(12), 2);
  EXPECT_EQ(core::default_admm_iterations(99), 2);
  EXPECT_EQ(core::default_admm_iterations(100), 5);
  EXPECT_EQ(core::default_admm_iterations(1739), 5);
}

TEST(Admm, ReducesConstraintViolation) {
  traffic::Trace trace;
  auto pb = b4_problem(3.0, &trace);  // heavily oversubscribed
  core::AdmmConfig cfg;
  cfg.iterations = 5;
  core::Admm admm(pb, cfg);
  auto a = violating_allocation(pb);
  auto res = admm.fine_tune(trace.at(0), pb.capacities(), a);
  EXPECT_GT(res.before, 0.0);
  EXPECT_LT(res.after, res.before);
}

TEST(Admm, KeepsDemandConstraint) {
  traffic::Trace trace;
  auto pb = b4_problem(2.0, &trace);
  core::Admm admm(pb, {});
  auto a = violating_allocation(pb);
  admm.fine_tune(trace.at(0), pb.capacities(), a);
  EXPECT_NO_THROW(pb.validate_allocation(a, 1e-6));
  // The check refuses a split that is not finite, naming its path: a NaN
  // compares false against both bounds, so it needs its own test.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    auto b = a;
    b.split[5] = bad;
    try {
      pb.validate_allocation(b, 1e-6);
      ADD_FAILURE() << "split " << bad << " must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("path 5"), std::string::npos) << e.what();
    }
    std::fill(b.split.begin(), b.split.end(), bad);
    EXPECT_THROW(pb.validate_allocation(b, 1e-6), std::invalid_argument) << "all " << bad;
  }
}

TEST(Admm, RejectsPathWeightsOfTheWrongSize) {
  auto pb = b4_problem();
  core::AdmmConfig cfg;
  cfg.path_weight.assign(static_cast<std::size_t>(pb.total_paths()) - 1, 1.0);
  EXPECT_THROW({ core::Admm admm(pb, cfg); }, std::invalid_argument);
  cfg.path_weight.push_back(1.0);
  EXPECT_NO_THROW({ core::Admm admm(pb, cfg); });
}

TEST(Admm, RejectsUnusablePenaltiesAndCounts) {
  // Every update divides by rho: rho = 0 turned all of B4's splits NaN with
  // a zero residual and no error. The message names the field.
  auto pb = b4_problem();
  auto expect_rejected = [&](const core::AdmmConfig& cfg, const std::string& field) {
    try {
      core::Admm admm(pb, cfg);
      ADD_FAILURE() << field << " must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };
  for (double rho : {0.0, -0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE("rho=" + std::to_string(rho));
    core::AdmmConfig cfg;
    cfg.rho = rho;
    expect_rejected(cfg, "rho");
  }
  core::AdmmConfig iters;
  iters.iterations = -1;
  expect_rejected(iters, "iterations");
  core::AdmmConfig sweeps;
  sweeps.coord_sweeps = -1;
  expect_rejected(sweeps, "coord_sweeps");
  // Zero counts are usable (fine_tune then only clamps), and so is any
  // finite positive penalty.
  core::AdmmConfig zero;
  zero.iterations = 0;
  zero.coord_sweeps = 0;
  zero.rho = std::numeric_limits<double>::min();
  EXPECT_NO_THROW({ core::Admm admm(pb, zero); });
}

TEST(Admm, ImprovesFeasibleFlowOfOverloadedStart) {
  traffic::Trace trace;
  auto pb = b4_problem(3.0, &trace);
  core::AdmmConfig cfg;
  cfg.iterations = 5;
  core::Admm admm(pb, cfg);
  const auto& tm = trace.at(0);
  auto raw = violating_allocation(pb);
  double before = te::total_feasible_flow(pb, tm, raw);
  auto tuned = raw;
  admm.fine_tune(tm, pb.capacities(), tuned);
  double after = te::total_feasible_flow(pb, tm, tuned);
  // Rebalancing away from overloaded shortest paths must help under heavy
  // oversubscription.
  EXPECT_GT(after, before);
}

TEST(Admm, MoreIterationsNoWorseViolation) {
  traffic::Trace trace;
  auto pb = b4_problem(3.0, &trace);
  const auto& tm = trace.at(0);
  double prev = 1e18;
  for (int iters : {1, 3, 8, 20}) {
    core::AdmmConfig cfg;
    cfg.iterations = iters;
    core::Admm admm(pb, cfg);
    auto a = violating_allocation(pb);
    auto res = admm.fine_tune(tm, pb.capacities(), a);
    EXPECT_LE(res.after, prev * 1.05);  // monotone up to small numeric noise
    prev = res.after;
  }
}

TEST(Admm, ColdStartNeedsManyIterations) {
  // §3.4: "using ADMM alone does not accelerate TE optimization" — from a
  // cold (uniform) start, 5 iterations leave substantially more violation
  // than 60 iterations do. This is the motivation for warm-starting.
  traffic::Trace trace;
  auto pb = b4_problem(3.0, &trace);
  const auto& tm = trace.at(0);
  te::Allocation uniform = pb.empty_allocation();
  for (int d = 0; d < pb.num_demands(); ++d) {
    for (int p = pb.path_begin(d); p < pb.path_end(d); ++p) {
      uniform.split[static_cast<std::size_t>(p)] =
          1.0 / static_cast<double>(pb.num_paths(d));
    }
  }
  core::AdmmConfig few;
  few.iterations = 5;
  auto a_few = uniform;
  auto res_few = core::Admm(pb, few).fine_tune(tm, pb.capacities(), a_few);

  core::AdmmConfig many;
  many.iterations = 60;
  auto a_many = uniform;
  auto res_many = core::Admm(pb, many).fine_tune(tm, pb.capacities(), a_many);

  EXPECT_LT(res_many.after, res_few.after);
}

TEST(Admm, RespectsCapacityOverride) {
  traffic::Trace trace;
  auto pb = b4_problem(2.0, &trace);
  core::AdmmConfig cfg;
  cfg.iterations = 30;
  core::Admm admm(pb, cfg);
  auto caps = pb.capacities();
  caps[0] = 0.0;  // failed link
  auto a = violating_allocation(pb);
  admm.fine_tune(trace.at(0), caps, a);
  // Traffic on the failed edge should be (nearly) removed.
  auto load = te::edge_loads(pb, trace.at(0), a);
  double total = trace.at(0).total();
  EXPECT_LT(load[0], 0.05 * total);
}

TEST(Admm, NoViolationIsStable) {
  // Starting from an allocation far inside the feasible region, ADMM should
  // not introduce violations.
  traffic::Trace trace;
  auto pb = b4_problem(1.2, &trace);
  core::Admm admm(pb, {});
  auto a = pb.empty_allocation();  // route nothing
  auto res = admm.fine_tune(trace.at(0), pb.capacities(), a);
  EXPECT_DOUBLE_EQ(res.before, 0.0);
  // And it should start routing traffic (objective pressure), not stay at 0.
  double routed = 0.0;
  for (double s : a.split) routed += s;
  EXPECT_GT(routed, 0.0);
}

// ---- Oracle: the streaming path-major solve against the reference.

te::Problem sampled_problem(const std::string& topo_name, int n_demands, double util,
                            traffic::Trace* trace_out, int k = 4) {
  auto g = topo::make_topology(topo_name);
  auto demands = traffic::sample_demands(g, n_demands, /*seed=*/21);
  te::Problem pb(std::move(g), std::move(demands), k);
  traffic::TraceConfig cfg;
  cfg.n_intervals = 1;
  cfg.seed = 22;
  *trace_out = traffic::generate_trace(pb, cfg);
  traffic::calibrate_capacities(pb, *trace_out, util);
  return pb;
}

// A deterministic warm start that overloads the demand constraint on some
// demands and leaves slack on others.
te::Allocation scattered_allocation(const te::Problem& pb) {
  auto a = pb.empty_allocation();
  for (int p = 0; p < pb.total_paths(); ++p) {
    a.split[static_cast<std::size_t>(p)] = static_cast<double>((p * 37) % 11) / 20.0;
  }
  return a;
}

// fine_tune must reproduce the reference's splits byte for byte and its
// residuals exactly, for 1 and 4 demand shards on the given workspace.
void expect_matches_reference_in(core::Admm::Workspace& ws, const te::Problem& pb,
                                 const core::AdmmConfig& cfg, const te::TrafficMatrix& tm,
                                 const std::vector<double>& caps, const te::Allocation& start) {
  auto ref = start;
  const auto ref_res = reference::reference_fine_tune(pb, cfg, tm, caps, ref);
  const core::Admm admm(pb, cfg);
  for (int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto out = start;
    const auto res = admm.fine_tune(tm, caps, out, ws,
                                    core::ShardPlan::make(pb.num_demands(), shards));
    ASSERT_EQ(out.split.size(), ref.split.size());
    EXPECT_EQ(std::memcmp(out.split.data(), ref.split.data(), ref.split.size() * sizeof(double)),
              0);
    EXPECT_EQ(res.before, ref_res.before);
    EXPECT_EQ(res.after, ref_res.after);
  }
}

// The same on one workspace reused across both shard plans.
void expect_matches_reference(const te::Problem& pb, const core::AdmmConfig& cfg,
                              const te::TrafficMatrix& tm, const std::vector<double>& caps,
                              const te::Allocation& start) {
  core::Admm::Workspace ws;
  expect_matches_reference_in(ws, pb, cfg, tm, caps, start);
}

TEST(AdmmOracle, KdlLongPathsMatchReference) {
  traffic::Trace trace;
  auto pb = sampled_problem("Kdl", 150, 2.0, &trace);
  core::AdmmConfig cfg;
  cfg.iterations = core::default_admm_iterations(pb.graph().num_nodes());
  ASSERT_EQ(cfg.iterations, 5);
  expect_matches_reference(pb, cfg, trace.at(0), pb.capacities(), scattered_allocation(pb));
}

TEST(AdmmOracle, B4TwoIterationsMatchReference) {
  traffic::Trace trace;
  auto pb = b4_problem(2.0, &trace);
  core::AdmmConfig cfg;
  cfg.iterations = core::default_admm_iterations(pb.graph().num_nodes());
  ASSERT_EQ(cfg.iterations, 2);
  expect_matches_reference(pb, cfg, trace.at(0), pb.capacities(), scattered_allocation(pb));
  expect_matches_reference(pb, cfg, trace.at(1), pb.capacities(), violating_allocation(pb));
}

TEST(AdmmOracle, LatencyPenalizedWeightsMatchReference) {
  traffic::Trace trace;
  auto pb = sampled_problem("UsCarrier", 120, 1.5, &trace);
  core::AdmmConfig cfg;
  cfg.path_weight = lp::latency_penalty_weights(pb, 0.5);
  ASSERT_FALSE(cfg.path_weight.empty());
  expect_matches_reference(pb, cfg, trace.at(0), pb.capacities(), scattered_allocation(pb));
}

TEST(AdmmOracle, ZeroedLinksMatchReference) {
  traffic::Trace trace;
  auto pb = b4_problem(2.0, &trace);
  core::AdmmConfig cfg;
  cfg.iterations = 5;
  auto caps = pb.capacities();
  for (std::size_t e = 0; e < caps.size(); e += 5) caps[e] = 0.0;
  expect_matches_reference(pb, cfg, trace.at(0), caps, violating_allocation(pb));
}

TEST(AdmmOracle, UnusedEdgesMatchReference) {
  // Three demands on SWAN leave most edges on no path, so most edge ranges
  // of the incidence are empty.
  traffic::Trace trace;
  auto pb = sampled_problem("SWAN", 3, 3.0, &trace);
  int unused = 0;
  for (int e = 0; e < pb.graph().num_edges(); ++e) unused += pb.paths_on_edge(e).empty();
  ASSERT_GT(unused, 0);
  core::AdmmConfig cfg;
  cfg.iterations = 5;
  expect_matches_reference(pb, cfg, trace.at(0), pb.capacities(), scattered_allocation(pb));
}

TEST(AdmmOracle, NoPathPassIterationCountsMatchReference) {
  // At 0 iterations nothing runs but the residuals and the writeback; at 1
  // the F-update runs and the link block and path pass do not.
  traffic::Trace kdl_trace, b4_trace;
  auto kdl = sampled_problem("Kdl", 150, 2.0, &kdl_trace);
  auto b4 = b4_problem(2.0, &b4_trace);
  for (int iters : {0, 1}) {
    SCOPED_TRACE("iterations=" + std::to_string(iters));
    core::AdmmConfig cfg;
    cfg.iterations = iters;
    expect_matches_reference(kdl, cfg, kdl_trace.at(0), kdl.capacities(),
                             scattered_allocation(kdl));
    expect_matches_reference(b4, cfg, b4_trace.at(0), b4.capacities(), violating_allocation(b4));
  }
}

TEST(AdmmOracle, WorkspaceReusedAcrossProblemSizesMatchesReference) {
  // One workspace through problems that grow and shrink its per-edge and
  // per-incidence buffers, including one whose edges mostly carry no path:
  // state left from a previous problem must never reach a result.
  traffic::Trace kdl_trace, b4_trace, swan_trace;
  auto kdl = sampled_problem("Kdl", 150, 2.0, &kdl_trace);
  auto b4 = b4_problem(2.0, &b4_trace);
  auto swan = sampled_problem("SWAN", 3, 3.0, &swan_trace);
  core::AdmmConfig cfg;
  cfg.iterations = 5;
  core::Admm::Workspace ws;
  {
    SCOPED_TRACE("Kdl");
    expect_matches_reference_in(ws, kdl, cfg, kdl_trace.at(0), kdl.capacities(),
                                scattered_allocation(kdl));
  }
  {
    SCOPED_TRACE("B4");
    expect_matches_reference_in(ws, b4, cfg, b4_trace.at(0), b4.capacities(),
                                violating_allocation(b4));
  }
  {
    SCOPED_TRACE("SWAN, unused edges");
    expect_matches_reference_in(ws, swan, cfg, swan_trace.at(0), swan.capacities(),
                                scattered_allocation(swan));
  }
  {
    SCOPED_TRACE("Kdl again");
    expect_matches_reference_in(ws, kdl, cfg, kdl_trace.at(0), kdl.capacities(),
                                violating_allocation(kdl));
  }
}

TEST(AdmmOracle, InterleavedDemandGroupsMatchReference) {
  // The F-update runs 8 demands in lockstep. Groups end at a shard boundary
  // and at the last demand, lanes of demands with fewer than k paths idle
  // for the missing slots, and any k sets the group depth: none of it may
  // change a bit against the one-demand-at-a-time reference.
  struct Case {
    const char* topo;
    int demands;  // never a multiple of 8
    int k;
    bool weighted;
    bool short_demands;  // some demand has fewer than k paths
  };
  for (const Case& c : {Case{"B4", 13, 1, false, false}, Case{"B4", 21, 7, false, false},
                        Case{"SWAN", 29, 7, true, true}, Case{"UsCarrier", 45, 4, true, true},
                        Case{"Kdl", 9, 7, false, false}}) {
    SCOPED_TRACE(std::string(c.topo) + " demands=" + std::to_string(c.demands) +
                 " k=" + std::to_string(c.k) + (c.weighted ? " weighted" : ""));
    traffic::Trace trace;
    auto pb = sampled_problem(c.topo, c.demands, 2.0, &trace, c.k);
    ASSERT_NE(pb.num_demands() % 8, 0);
    int short_demands = 0;
    for (int d = 0; d < pb.num_demands(); ++d) short_demands += pb.num_paths(d) < c.k;
    ASSERT_EQ(short_demands > 0, c.short_demands) << short_demands << " short demands";
    core::AdmmConfig cfg;
    cfg.iterations = 3;
    if (c.weighted) cfg.path_weight = lp::latency_penalty_weights(pb, 0.5);
    const auto start = scattered_allocation(pb);
    auto ref = start;
    const auto ref_res = reference::reference_fine_tune(pb, cfg, trace.at(0), pb.capacities(), ref);
    const core::Admm admm(pb, cfg);
    core::Admm::Workspace ws;
    for (int shards : {1, 2, 3, 5}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      const auto plan = core::ShardPlan::make(pb.num_demands(), shards);
      if (plan.n_shards > 1) {
        bool inside_group = false;
        for (int s = 1; s < plan.n_shards; ++s) inside_group |= plan.begin(s) % 8 != 0;
        EXPECT_TRUE(inside_group) << "no shard boundary falls inside a group of 8";
      }
      auto out = start;
      const auto res = admm.fine_tune(trace.at(0), pb.capacities(), out, ws, plan);
      ASSERT_EQ(out.split.size(), ref.split.size());
      EXPECT_EQ(std::memcmp(out.split.data(), ref.split.data(),
                            ref.split.size() * sizeof(double)),
                0);
      EXPECT_EQ(res.before, ref_res.before);
      EXPECT_EQ(res.after, ref_res.after);
    }
  }
}

// The total violation of `a` (demand overshoot plus per-edge load over
// capacity) in Admm's normalisation, by a plain per-edge loop over the
// paths on each edge.
double returned_violation(const te::Problem& pb, const te::TrafficMatrix& tm,
                          const std::vector<double>& caps, const te::Allocation& a) {
  double scale = 1e-9;
  for (double c : caps) scale += c;
  scale /= static_cast<double>(caps.size());
  double v = 0.0;
  for (int d = 0; d < pb.num_demands(); ++d) {
    double sum = 0.0;
    for (int p = pb.path_begin(d); p < pb.path_end(d); ++p) {
      sum += a.split[static_cast<std::size_t>(p)];
    }
    v += std::max(0.0, sum - 1.0);
  }
  for (int e = 0; e < pb.graph().num_edges(); ++e) {
    double load = 0.0;
    for (int p : pb.paths_on_edge(e)) {
      const auto d = static_cast<std::size_t>(pb.demand_of_path(p));
      load += a.split[static_cast<std::size_t>(p)] * (tm.volume[d] / scale);
    }
    v += std::max(0.0, load - caps[static_cast<std::size_t>(e)] / scale);
  }
  return v;
}

TEST(Admm, ResidualAfterMeasuresTheReturnedAllocation) {
  // Residuals::after is the violation of the allocation fine_tune returns,
  // after the per-demand clamp, not of the last unclamped iterate.
  traffic::Trace b4_trace, kdl_trace, swan_trace;
  auto b4 = b4_problem(2.0, &b4_trace);
  auto kdl = sampled_problem("Kdl", 150, 2.0, &kdl_trace);
  auto swan = sampled_problem("SWAN", 80, 2.0, &swan_trace);
  for (auto [name, pb, tm] : {std::tuple{"B4", &b4, &b4_trace.at(0)},
                              std::tuple{"Kdl", &kdl, &kdl_trace.at(0)},
                              std::tuple{"SWAN", &swan, &swan_trace.at(0)}}) {
    SCOPED_TRACE(name);
    core::AdmmConfig cfg;
    cfg.iterations = core::default_admm_iterations(pb->graph().num_nodes());
    const core::Admm admm(*pb, cfg);
    auto a = scattered_allocation(*pb);
    const auto caps = pb->capacities();
    const auto res = admm.fine_tune(*tm, caps, a);
    const double expect = returned_violation(*pb, *tm, caps, a);
    EXPECT_GT(expect, 0.0);
    EXPECT_NEAR(res.after, expect, 1e-9 * std::max(1.0, expect));
  }
}

}  // namespace
}  // namespace teal
