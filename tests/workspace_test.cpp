// Tests for the workspace-based solve path: reusing a SolveWorkspace must be
// observationally pure (bit-identical allocations across repeated solves),
// solve_batch must match the sequential solve loop exactly for Teal and the
// LP baselines, a warm TealScheme::solve_into must perform zero heap
// allocations (the alloc_hook counter verifies the claim directly), and the
// in-process solve entry points refuse matrices they cannot solve.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/lp_schemes.h"
#include "core/teal_scheme.h"
#include "sim/online.h"
#include "topo/topology.h"
#include "traffic/traffic.h"
#include "util/alloc_hook.h"

namespace teal {
namespace {

struct Setup {
  te::Problem pb;
  traffic::Trace trace;
};

Setup b4_setup() {
  auto g = topo::make_b4();
  te::Problem pb(std::move(g), te::all_pairs_demands(topo::make_b4()), 4);
  traffic::TraceConfig cfg;
  cfg.n_intervals = 6;
  auto trace = traffic::generate_trace(pb, cfg);
  traffic::calibrate_capacities(pb, trace, 1.5);
  return Setup{std::move(pb), std::move(trace)};
}

// An untrained Teal pipeline: initialization is deterministic (fixed seed),
// and the workspace contract is independent of training.
core::TealScheme make_teal(const te::Problem& pb) {
  return core::TealScheme(pb,
                          std::make_unique<core::TealModel>(core::TealModelConfig{},
                                                            pb.k_paths()),
                          core::TealSchemeConfig{});
}

void expect_bit_identical(const te::Allocation& a, const te::Allocation& b) {
  ASSERT_EQ(a.split.size(), b.split.size());
  for (std::size_t i = 0; i < a.split.size(); ++i) {
    // Exact comparison on purpose: workspace reuse must not perturb a single
    // bit of the result.
    EXPECT_EQ(a.split[i], b.split[i]) << "split index " << i;
  }
}

TEST(Workspace, RepeatedSolveIsBitIdentical) {
  auto s = b4_setup();
  auto scheme = make_teal(s.pb);
  auto first = scheme.solve(s.pb, s.trace.at(0));
  auto again = scheme.solve(s.pb, s.trace.at(0));
  expect_bit_identical(first, again);
  // Solving a different matrix in between must not leak state into a repeat.
  scheme.solve(s.pb, s.trace.at(1));
  auto after_other = scheme.solve(s.pb, s.trace.at(0));
  expect_bit_identical(first, after_other);
}

TEST(Workspace, ColdAndWarmWorkspaceAgree) {
  auto s = b4_setup();
  auto scheme = make_teal(s.pb);
  auto warm = scheme.solve(s.pb, s.trace.at(2));
  scheme.reset_workspace();
  auto cold = scheme.solve(s.pb, s.trace.at(2));
  expect_bit_identical(warm, cold);
}

TEST(Workspace, SolveBatchMatchesSequentialTeal) {
  auto s = b4_setup();
  auto scheme = make_teal(s.pb);
  auto batch = scheme.solve_batch(s.pb, std::span(s.trace.matrices));
  ASSERT_EQ(static_cast<int>(batch.allocs.size()), s.trace.size());
  ASSERT_EQ(batch.solve_seconds.size(), batch.allocs.size());
  for (int t = 0; t < s.trace.size(); ++t) {
    auto seq = scheme.solve(s.pb, s.trace.at(t));
    expect_bit_identical(seq, batch.allocs[static_cast<std::size_t>(t)]);
  }
}

TEST(Workspace, SolveBatchMatchesSequentialLpAll) {
  auto s = b4_setup();
  baselines::LpAllScheme lp;
  auto batch = lp.solve_batch(s.pb, std::span(s.trace.matrices));
  ASSERT_EQ(static_cast<int>(batch.allocs.size()), s.trace.size());
  for (int t = 0; t < s.trace.size(); ++t) {
    auto seq = lp.solve(s.pb, s.trace.at(t));
    expect_bit_identical(seq, batch.allocs[static_cast<std::size_t>(t)]);
  }
}

TEST(Workspace, DefaultSolveIntoMatchesSolve) {
  auto s = b4_setup();
  baselines::LpAllScheme lp;
  auto direct = lp.solve(s.pb, s.trace.at(0));
  te::Allocation into;
  lp.solve_into(s.pb, s.trace.at(0), into);
  expect_bit_identical(direct, into);
}

TEST(Workspace, WarmSolveIntoAllocatesNothing) {
  auto s = b4_setup();
  auto scheme = make_teal(s.pb);
  te::Allocation out;
  // Two warm-up solves: the first sizes every buffer, the second catches any
  // buffer that only reaches steady state after one full pass.
  scheme.solve_into(s.pb, s.trace.at(0), out);
  scheme.solve_into(s.pb, s.trace.at(1), out);
  util::AllocCounter allocs;
  scheme.solve_into(s.pb, s.trace.at(0), out);
  EXPECT_EQ(allocs.count(), 0u)
      << "warm TealScheme::solve_into must not touch the heap";
}

// Matrices the solve boundary refuses: one short, and one each with a NaN,
// +inf and negative volume on demand 3.
std::vector<te::TrafficMatrix> bad_matrices(const te::TrafficMatrix& good) {
  std::vector<te::TrafficMatrix> bad(4, good);
  bad[0].volume.pop_back();
  bad[1].volume[3] = std::numeric_limits<double>::quiet_NaN();
  bad[2].volume[3] = std::numeric_limits<double>::infinity();
  bad[3].volume[3] = -1.0;
  return bad;
}

TEST(SolveBoundary, SolveIntoRejectsBadMatrices) {
  auto s = b4_setup();
  auto scheme = make_teal(s.pb);
  te::Allocation out;
  const auto bad = bad_matrices(s.trace.at(0));
  for (std::size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE("bad matrix " + std::to_string(i));
    EXPECT_THROW(scheme.solve_into(s.pb, bad[i], out), std::invalid_argument);
  }
  try {
    te::validate_traffic_matrix(s.pb, bad[1]);
    ADD_FAILURE() << "a NaN volume must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("demand 3"), std::string::npos) << e.what();
  }
  // The rejections left the scheme usable: a valid matrix still solves to
  // the same bits as on a fresh scheme.
  scheme.solve_into(s.pb, s.trace.at(0), out);
  expect_bit_identical(make_teal(s.pb).solve(s.pb, s.trace.at(0)), out);
}

TEST(SolveBoundary, SolveBatchRejectsBeforeSolving) {
  auto s = b4_setup();
  for (const auto& bad : bad_matrices(s.trace.at(0))) {
    auto scheme = make_teal(s.pb);
    // The bad matrix comes last, so a check made per solve would only fire
    // after the valid ones were solved.
    std::vector<te::TrafficMatrix> batch(s.trace.matrices.begin(), s.trace.matrices.end());
    batch.push_back(bad);
    EXPECT_THROW(scheme.solve_batch(s.pb, std::span(batch)), std::invalid_argument);
    EXPECT_EQ(scheme.last_solve_seconds(), 0.0) << "a solve ran before the rejection";
    auto after = scheme.solve_batch(s.pb, std::span(s.trace.matrices));
    ASSERT_EQ(after.allocs.size(), s.trace.matrices.size());
    expect_bit_identical(make_teal(s.pb).solve(s.pb, s.trace.at(0)), after.allocs[0]);
  }
}

TEST(Workspace, FreshReplicaWorkspaceMatchesAndWarmsAllocationFree) {
  // Replica spin-up: a fresh workspace's cold solve_replica is byte-equal to
  // a reference solve, and its next (warm) solve allocates nothing.
  auto s = b4_setup();
  auto scheme = make_teal(s.pb);
  te::Allocation ref, out;
  {
    core::SolveWorkspace ref_ws;
    scheme.solve_replica(ref_ws, s.pb, s.trace.at(0), ref);
  }
  core::SolveWorkspace ws;
  scheme.solve_replica(ws, s.pb, s.trace.at(0), out);
  expect_bit_identical(ref, out);
  util::AllocCounter allocs;
  scheme.solve_replica(ws, s.pb, s.trace.at(1), out);
  EXPECT_EQ(allocs.count(), 0u) << "warm solve_replica must not touch the heap";
}

TEST(Workspace, RunOnlineUsesBatchedSolves) {
  auto s = b4_setup();
  auto scheme = make_teal(s.pb);
  auto res = sim::run_online(scheme, s.pb, s.trace, {});
  ASSERT_EQ(static_cast<int>(res.intervals.size()), s.trace.size());
  // Teal is fast: every interval deploys a fresh allocation.
  for (const auto& iv : res.intervals) EXPECT_TRUE(iv.started_solve);
}

}  // namespace
}  // namespace teal
