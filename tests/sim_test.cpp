// Tests for the online control-loop simulator and failure-reaction harness.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/teal_scheme.h"
#include "sim/online.h"
#include "topo/topology.h"
#include "traffic/traffic.h"

namespace teal {
namespace {

// A deterministic scheme with a configurable fake solve time: it allocates
// everything to shortest paths and reports `fake_seconds` as its cost.
class FakeScheme : public te::Scheme {
 public:
  explicit FakeScheme(double fake_seconds) : fake_(fake_seconds) {}
  std::string name() const override { return "Fake"; }
  te::Allocation solve(const te::Problem& pb, const te::TrafficMatrix&) override {
    ++n_solves;
    return pb.shortest_path_allocation();
  }
  double last_solve_seconds() const override { return fake_; }
  int n_solves = 0;

 private:
  double fake_;
};

struct Setup {
  te::Problem pb;
  traffic::Trace trace;
};

Setup b4_setup(double util = 1.5) {
  auto g = topo::make_b4();
  te::Problem pb(std::move(g), te::all_pairs_demands(topo::make_b4()), 4);
  traffic::TraceConfig cfg;
  cfg.n_intervals = 10;
  auto trace = traffic::generate_trace(pb, cfg);
  traffic::calibrate_capacities(pb, trace, util);
  return Setup{std::move(pb), std::move(trace)};
}

TEST(Online, FastSchemeSolvesEveryInterval) {
  auto s = b4_setup();
  FakeScheme fast(1.0);  // 1s << 300s
  auto res = sim::run_online(fast, s.pb, s.trace, {});
  EXPECT_EQ(fast.n_solves, s.trace.size());
  EXPECT_EQ(static_cast<int>(res.solve_times.size()), s.trace.size());
  for (const auto& iv : res.intervals) EXPECT_TRUE(iv.started_solve);
}

TEST(Online, SlowSchemeSkipsIntervals) {
  auto s = b4_setup();
  FakeScheme slow(1.0);
  sim::OnlineConfig cfg;
  cfg.time_scale = 750.0;  // 750 s per solve vs 300 s intervals
  auto res = sim::run_online(slow, s.pb, s.trace, cfg);
  // A sequential scheme keeps the lazy control loop: only the solves that
  // actually start are computed. Figure 18's phenomenon: a new allocation
  // only every third matrix.
  EXPECT_LT(slow.n_solves, s.trace.size());
  EXPECT_GE(slow.n_solves, s.trace.size() / 3);
  EXPECT_EQ(res.solve_times.size(), static_cast<std::size_t>(slow.n_solves));
}

TEST(Online, MeanIsAverageOfIntervals) {
  auto s = b4_setup();
  FakeScheme fast(0.5);
  auto res = sim::run_online(fast, s.pb, s.trace, {});
  double sum = 0.0;
  for (const auto& iv : res.intervals) sum += iv.satisfied_pct;
  EXPECT_NEAR(res.mean_satisfied_pct, sum / res.intervals.size(), 1e-9);
  for (const auto& iv : res.intervals) {
    EXPECT_GE(iv.satisfied_pct, 0.0);
    EXPECT_LE(iv.satisfied_pct, 100.0 + 1e-9);
  }
}

TEST(Online, StaleRoutesBlendInsideInterval) {
  // With solve time = half an interval, the first interval's satisfied
  // demand is a 50/50 blend of the initial routes and the new routes. Here
  // both are shortest-path, so the number must equal the pure evaluation.
  auto s = b4_setup();
  FakeScheme half(150.0);
  sim::OnlineConfig cfg;  // time_scale 1.0
  auto res = sim::run_online(half, s.pb, s.trace, cfg);
  double pure = te::satisfied_demand_pct(s.pb, s.trace.at(0), s.pb.shortest_path_allocation());
  EXPECT_NEAR(res.intervals[0].satisfied_pct, pure, 1e-9);
}

TEST(Online, TealBatchedPassMatchesSequentialSolvesAtTheSchemesSettings) {
  // A parallel-batch scheme (Teal) solves the whole trace in one
  // solve_batch fanned over the pool, at the scheme's own precision; the
  // replay over those allocations must equal the replay over sequential
  // solve() calls at the same settings. Untrained model: the contract is
  // training-independent.
  auto s = b4_setup();
  core::TealScheme teal(
      s.pb, std::make_unique<core::TealModel>(core::TealModelConfig{}, s.pb.k_paths()),
      core::TealSchemeConfig{});
  teal.set_precision(te::Precision::f32);
  teal.set_shard_count(2);  // a single-solve setting; bit-identical either way
  const auto res = sim::run_online(teal, s.pb, s.trace, {});
  ASSERT_EQ(res.solve_times.size(), static_cast<std::size_t>(s.trace.size()));

  std::vector<te::Allocation> sequential;
  for (int t = 0; t < s.trace.size(); ++t) sequential.push_back(teal.solve(s.pb, s.trace.at(t)));
  const auto ref = sim::replay_online(s.pb, s.trace, sequential, res.solve_times);
  for (std::size_t t = 0; t < res.intervals.size(); ++t) {
    EXPECT_EQ(res.intervals[t].satisfied_pct, ref.intervals[t].satisfied_pct) << "t=" << t;
  }
  EXPECT_EQ(teal.precision(), te::Precision::f32);
  EXPECT_EQ(teal.shard_count(), 2);
}

TEST(Failures, SampleFailsBothDirections) {
  auto g = topo::make_b4();
  auto failed = sim::sample_link_failures(g, 3, 5);
  EXPECT_EQ(failed.size(), 6u);  // both directions of 3 physical links
  std::set<topo::EdgeId> set(failed.begin(), failed.end());
  for (topo::EdgeId e : failed) {
    topo::EdgeId rev = g.find_edge(g.edge(e).dst, g.edge(e).src);
    EXPECT_TRUE(set.count(rev));
  }
}

TEST(Failures, ReactionRestoresTopology) {
  auto s = b4_setup();
  FakeScheme fast(1.0);
  auto caps_before = s.pb.capacities();
  auto failed = sim::sample_link_failures(s.pb.graph(), 2, 7);
  auto res = sim::eval_failure_reaction(fast, s.pb, s.trace.at(0), failed, {});
  auto caps_after = s.pb.capacities();
  for (std::size_t e = 0; e < caps_before.size(); ++e) {
    EXPECT_DOUBLE_EQ(caps_before[e], caps_after[e]);
  }
  EXPECT_GE(res.satisfied_pct, 0.0);
  EXPECT_LE(res.satisfied_pct, 100.0);
}

TEST(Failures, ReactionRestoresRepeatedEdge) {
  // A repeated id must not save the already-zeroed capacity as the original.
  auto s = b4_setup();
  FakeScheme fast(1.0);
  const auto caps_before = s.pb.capacities();
  sim::eval_failure_reaction(fast, s.pb, s.trace.at(0), {0, 0}, {});
  EXPECT_EQ(s.pb.capacities(), caps_before);
}

// Solves normally until `throw_on` solves have run, then throws: the
// post-failure recompute dies with the links still failed.
class ThrowingScheme : public te::Scheme {
 public:
  explicit ThrowingScheme(int throw_on) : throw_on_(throw_on) {}
  std::string name() const override { return "Throwing"; }
  te::Allocation solve(const te::Problem& pb, const te::TrafficMatrix&) override {
    if (++n_solves == throw_on_) throw std::runtime_error("solve failed");
    return pb.shortest_path_allocation();
  }
  double last_solve_seconds() const override { return 0.1; }
  int n_solves = 0;

 private:
  int throw_on_;
};

TEST(Failures, ReactionRestoresWhenTheRecomputeThrows) {
  auto s = b4_setup();
  ThrowingScheme scheme(/*throw_on=*/2);
  const auto caps_before = s.pb.capacities();
  auto failed = sim::sample_link_failures(s.pb.graph(), 2, 7);
  EXPECT_THROW(sim::eval_failure_reaction(scheme, s.pb, s.trace.at(0), failed, {}),
               std::runtime_error);
  EXPECT_EQ(scheme.n_solves, 2);
  EXPECT_EQ(s.pb.capacities(), caps_before);
}

TEST(Failures, ReactionRestoresAfterAnOutOfRangeEdge) {
  auto s = b4_setup();
  FakeScheme fast(1.0);
  const auto caps_before = s.pb.capacities();
  const std::vector<topo::EdgeId> failed{0, 1, s.pb.graph().num_edges()};
  EXPECT_THROW(sim::eval_failure_reaction(fast, s.pb, s.trace.at(0), failed, {}),
               std::out_of_range);
  EXPECT_EQ(s.pb.capacities(), caps_before);
}

TEST(Failures, SlowRecomputationHurts) {
  // Same allocations, but a slow scheme spends the whole interval on stale
  // routes while a fast one switches immediately: fast >= slow.
  auto s = b4_setup(2.0);
  FakeScheme fast(0.5);
  FakeScheme slow(0.5);
  sim::OnlineConfig fast_cfg;  // 0.5 s
  sim::OnlineConfig slow_cfg;
  slow_cfg.time_scale = 600.0;  // 300 s: entire interval stale
  auto failed = sim::sample_link_failures(s.pb.graph(), 2, 9);
  auto r_fast = sim::eval_failure_reaction(fast, s.pb, s.trace.at(0), failed, fast_cfg);
  auto r_slow = sim::eval_failure_reaction(slow, s.pb, s.trace.at(0), failed, slow_cfg);
  EXPECT_GE(r_fast.satisfied_pct, r_slow.satisfied_pct - 1e-9);
  // Both evaluate stale == recomputed here (same allocation), so the fast
  // one's blend weight is what matters; sanity-check weights.
  EXPECT_NEAR(r_slow.satisfied_pct, r_slow.stale_pct, 1e-9);
}

TEST(Failures, FailedLinksDropTraffic) {
  auto s = b4_setup(1.0);
  FakeScheme fast(0.1);
  // Fail every link out of node 0: all demands from node 0 lose traffic on
  // stale shortest-path routes.
  std::vector<topo::EdgeId> failed;
  for (topo::EdgeId e : s.pb.graph().out_edges(0)) failed.push_back(e);
  auto res = sim::eval_failure_reaction(fast, s.pb, s.trace.at(0), failed, {});
  EXPECT_LT(res.stale_pct, 100.0);
}

}  // namespace
}  // namespace teal
