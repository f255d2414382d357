// Parameterized property suites (TEST_P): invariants that must hold across
// topologies, seeds, objectives and schemes.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>

#include "baselines/lp_schemes.h"
#include "baselines/ncflow.h"
#include "baselines/pop.h"
#include "core/admm.h"
#include "core/model.h"
#include "te/objective.h"
#include "topo/topology.h"
#include "traffic/traffic.h"

namespace teal {
namespace {

struct Instance {
  std::string topo;
  int n_demands;
  double util;
  std::uint64_t seed;
};

std::string instance_name(const testing::TestParamInfo<Instance>& info) {
  return info.param.topo + "_d" + std::to_string(info.param.n_demands) + "_s" +
         std::to_string(info.param.seed);
}

struct Built {
  te::Problem pb;
  traffic::Trace trace;
};

Built build(const Instance& in) {
  auto g = topo::make_topology(in.topo, in.seed);
  auto demands = traffic::sample_demands(g, in.n_demands, in.seed + 1);
  te::Problem pb(std::move(g), std::move(demands), 4);
  traffic::TraceConfig cfg;
  cfg.n_intervals = 4;
  cfg.seed = in.seed + 2;
  auto trace = traffic::generate_trace(pb, cfg);
  traffic::calibrate_capacities(pb, trace, in.util);
  return Built{std::move(pb), std::move(trace)};
}

class SchemeProperties : public testing::TestWithParam<Instance> {};

TEST_P(SchemeProperties, ProblemStructureInvariants) {
  auto b = build(GetParam());
  const auto& pb = b.pb;
  EXPECT_GT(pb.num_demands(), 0);
  for (int d = 0; d < pb.num_demands(); ++d) {
    ASSERT_GE(pb.num_paths(d), 1);
    ASSERT_LE(pb.num_paths(d), 4);
    double prev = -1.0;
    for (int p = pb.path_begin(d); p < pb.path_end(d); ++p) {
      EXPECT_EQ(pb.demand_of_path(p), d);
      topo::validate_path(pb.graph(), pb.path_edges(p), pb.demand(d).src, pb.demand(d).dst);
      // Yen returns nondecreasing latency.
      EXPECT_GE(pb.path_latency(p), prev - 1e-12);
      prev = pb.path_latency(p);
    }
  }
  // Inverted index consistency: the edge lists are the exact transpose of
  // the path lists. Each edge list ascends strictly (the order FlowGNN's mean
  // gather and ADMM's scatter add in), and each (path, edge) incidence
  // appears exactly once on each side.
  std::size_t by_edge = 0;
  for (topo::EdgeId e = 0; e < pb.graph().num_edges(); ++e) {
    const auto on_e = pb.paths_on_edge(e);
    by_edge += on_e.size();
    EXPECT_EQ(std::adjacent_find(on_e.begin(), on_e.end(), std::greater_equal<>()), on_e.end())
        << "paths on edge " << e << " are not strictly ascending";
    for (int p : on_e) {
      bool found = false;
      for (topo::EdgeId pe : pb.path_edges(p)) found |= pe == e;
      EXPECT_TRUE(found);
    }
  }
  std::size_t by_path = 0;
  for (int p = 0; p < pb.total_paths(); ++p) {
    by_path += pb.path_edges(p).size();
    for (topo::EdgeId e : pb.path_edges(p)) {
      const auto on_e = pb.paths_on_edge(e);
      EXPECT_EQ(std::count(on_e.begin(), on_e.end(), p), 1) << "path " << p << ", edge " << e;
    }
  }
  EXPECT_EQ(by_path, by_edge);
  EXPECT_EQ(by_path, static_cast<std::size_t>(pb.num_incidences()));
}

TEST_P(SchemeProperties, LpIsFeasibleAndDominant) {
  auto b = build(GetParam());
  baselines::LpAllScheme lp_all;
  baselines::LpTopScheme lp_top;
  baselines::PopConfig pop_cfg;
  pop_cfg.k = 4;
  baselines::PopScheme pop(pop_cfg);
  const auto& tm = b.trace.at(0);
  auto a_all = lp_all.solve(b.pb, tm);
  b.pb.validate_allocation(a_all, 1e-6);
  double f_all = te::total_feasible_flow(b.pb, tm, a_all);
  for (te::Scheme* s : std::initializer_list<te::Scheme*>{&lp_top, &pop}) {
    auto a = s->solve(b.pb, tm);
    b.pb.validate_allocation(a, 1e-6);
    double f = te::total_feasible_flow(b.pb, tm, a);
    EXPECT_LE(f, f_all * 1.01) << s->name();
    EXPECT_GE(f, 0.0) << s->name();
  }
}

TEST_P(SchemeProperties, RepairAlwaysFeasible) {
  auto b = build(GetParam());
  const auto& tm = b.trace.at(0);
  // Worst-case allocation: everything on the shortest path.
  auto a = te::repair_to_feasible(b.pb, tm, b.pb.shortest_path_allocation());
  auto load = te::edge_loads(b.pb, tm, a);
  auto caps = b.pb.capacities();
  for (std::size_t e = 0; e < load.size(); ++e) {
    EXPECT_LE(load[e], caps[e] * (1.0 + 1e-9)) << "edge " << e;
  }
  b.pb.validate_allocation(a, 1e-9);
}

TEST_P(SchemeProperties, RepairedFlowNeverExceedsDelivered) {
  // Feasible repair is conservative: it can only lose intended flow, and its
  // post-repair delivered flow equals its intended flow.
  auto b = build(GetParam());
  const auto& tm = b.trace.at(0);
  auto raw = b.pb.shortest_path_allocation();
  auto fixed = te::repair_to_feasible(b.pb, tm, raw);
  double intended = 0.0;
  for (int p = 0; p < b.pb.total_paths(); ++p) {
    intended += fixed.split[static_cast<std::size_t>(p)] *
                tm.volume[static_cast<std::size_t>(b.pb.demand_of_path(p))];
  }
  EXPECT_NEAR(te::total_feasible_flow(b.pb, tm, fixed), intended, 1e-6 * (1.0 + intended));
}

TEST_P(SchemeProperties, AdmmNeverBreaksDemandConstraint) {
  auto b = build(GetParam());
  core::Admm admm(b.pb, {});
  auto a = b.pb.shortest_path_allocation();
  admm.fine_tune(b.trace.at(0), b.pb.capacities(), a);
  EXPECT_NO_THROW(b.pb.validate_allocation(a, 1e-6));
}

TEST_P(SchemeProperties, UntrainedModelStillProducesValidSplits) {
  auto b = build(GetParam());
  core::TealModel model({}, b.pb.k_paths(), GetParam().seed);
  auto fwd = model.forward(b.pb, b.trace.at(0));
  auto splits = core::splits_from_logits(fwd.logits, fwd.mask);
  auto a = core::allocation_from_splits(b.pb, splits);
  EXPECT_NO_THROW(b.pb.validate_allocation(a, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, SchemeProperties,
    testing::Values(Instance{"B4", 1 << 20, 1.5, 1}, Instance{"B4", 1 << 20, 3.0, 2},
                    Instance{"SWAN", 800, 1.8, 3}, Instance{"SWAN", 800, 1.2, 4},
                    Instance{"UsCarrier", 500, 1.8, 5}),
    instance_name);

// ---- Objective sweep: evaluation functions behave sanely for any objective.

class ObjectiveProperties
    : public testing::TestWithParam<std::tuple<te::Objective, std::uint64_t>> {};

TEST_P(ObjectiveProperties, ScoreMonotoneInCapacity) {
  auto [obj, seed] = GetParam();
  auto b = build(Instance{"B4", 1 << 20, 2.0, seed});
  const auto& tm = b.trace.at(0);
  auto a = b.pb.shortest_path_allocation();
  auto caps = b.pb.capacities();
  double base = te::objective_score(b.pb, tm, a, obj, &caps);
  // Doubling capacities can only help (or tie) every objective.
  for (double& c : caps) c *= 2.0;
  double richer = te::objective_score(b.pb, tm, a, obj, &caps);
  EXPECT_GE(richer, base - 1e-9);
}

TEST_P(ObjectiveProperties, EmptyAllocationScoresZeroFlow) {
  auto [obj, seed] = GetParam();
  auto b = build(Instance{"B4", 1 << 20, 2.0, seed});
  auto empty = b.pb.empty_allocation();
  const auto& tm = b.trace.at(0);
  if (obj == te::Objective::kMinMaxLinkUtil) {
    EXPECT_DOUBLE_EQ(te::max_link_utilization(b.pb, tm, empty), 0.0);
  } else {
    EXPECT_DOUBLE_EQ(te::objective_score(b.pb, tm, empty, obj), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Objectives, ObjectiveProperties,
    testing::Combine(testing::Values(te::Objective::kTotalFlow,
                                     te::Objective::kMinMaxLinkUtil,
                                     te::Objective::kLatencyPenalizedFlow),
                     testing::Values(11u, 12u)));

// ---- Feasibility-repair randomized sweep.

class RandomAllocationProperties : public testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomAllocationProperties, RepairHandlesArbitrarySplits) {
  auto b = build(Instance{"B4", 1 << 20, 1.5, GetParam()});
  util::Rng rng(GetParam() * 7919);
  auto a = b.pb.empty_allocation();
  for (double& s : a.split) s = rng.uniform(0.0, 1.0);
  const auto& tm = b.trace.at(0);
  auto fixed = te::repair_to_feasible(b.pb, tm, a);
  b.pb.validate_allocation(fixed, 1e-9);
  auto load = te::edge_loads(b.pb, tm, fixed);
  auto caps = b.pb.capacities();
  for (std::size_t e = 0; e < load.size(); ++e) {
    EXPECT_LE(load[e], caps[e] * (1.0 + 1e-9));
  }
}

TEST_P(RandomAllocationProperties, DeliveredNeverExceedsIntendedOrDemand) {
  auto b = build(Instance{"SWAN", 600, 1.5, GetParam()});
  util::Rng rng(GetParam() * 104729);
  auto a = b.pb.empty_allocation();
  for (int d = 0; d < b.pb.num_demands(); ++d) {
    double rest = 1.0;
    for (int p = b.pb.path_begin(d); p < b.pb.path_end(d); ++p) {
      double s = rng.uniform(0.0, rest);
      a.split[static_cast<std::size_t>(p)] = s;
      rest -= s;
    }
  }
  const auto& tm = b.trace.at(0);
  auto delivered = te::delivered_per_path(b.pb, tm, a);
  for (int p = 0; p < b.pb.total_paths(); ++p) {
    double intended = a.split[static_cast<std::size_t>(p)] *
                      tm.volume[static_cast<std::size_t>(b.pb.demand_of_path(p))];
    EXPECT_LE(delivered[static_cast<std::size_t>(p)], intended + 1e-9);
  }
  EXPECT_LE(te::total_feasible_flow(b.pb, tm, a), tm.total() + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAllocationProperties, testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace teal
