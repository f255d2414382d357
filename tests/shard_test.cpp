// Tests for intra-solve demand sharding (core::ShardPlan).
//
// The load-bearing property is shard-count invariance: a sharded solve must
// produce a byte-identical allocation to the sequential path for *every*
// shard count on *every* bundled topology — sharding is a latency knob, not
// a semantics knob. Alongside it: ShardPlan partition properties (including
// boundaries landing on empty-demand rows), the auto-shard cost model, the
// per-shard workspace accounting, the serving-layer shard path, and the
// pool-composition guarantees (nested fan-out runs inline; submitting from a
// thread that already holds a pool slot throws instead of oversubscribing).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/shard.h"
#include "core/teal_scheme.h"
#include "sim/served.h"
#include "topo/topology.h"
#include "traffic/traffic.h"
#include "util/thread_pool.h"

namespace teal {
namespace {

struct Setup {
  te::Problem pb;
  traffic::Trace trace;
};

// A demand-capped instance of any bundled topology: every code path is
// identical to full scale (DESIGN.md substitution #5), only the demand
// sample is smaller so the five-topology sweep stays test-sized.
Setup topo_setup(const std::string& name, int n_demands = 150, int n_intervals = 3) {
  auto g = topo::make_topology(name);
  auto demands = traffic::sample_demands(g, n_demands, /*seed=*/7);
  te::Problem pb(std::move(g), std::move(demands), 4);
  traffic::TraceConfig cfg;
  cfg.n_intervals = n_intervals;
  cfg.seed = 11;
  auto trace = traffic::generate_trace(pb, cfg);
  traffic::calibrate_capacities(pb, trace, 1.5);
  return Setup{std::move(pb), std::move(trace)};
}

// Untrained Teal pipeline: deterministic init, and the sharding contract is
// independent of training (same pattern as workspace_test).
core::TealScheme make_teal(const te::Problem& pb) {
  return core::TealScheme(pb,
                          std::make_unique<core::TealModel>(core::TealModelConfig{},
                                                            pb.k_paths()),
                          core::TealSchemeConfig{});
}

void expect_bit_identical(const te::Allocation& a, const te::Allocation& b,
                          const std::string& what) {
  ASSERT_EQ(a.split.size(), b.split.size()) << what;
  // True byte comparison (not double ==, which conflates +0.0/-0.0):
  // sharding must not perturb a single bit.
  if (!a.split.empty() &&
      std::memcmp(a.split.data(), b.split.data(),
                  a.split.size() * sizeof(double)) != 0) {
    for (std::size_t i = 0; i < a.split.size(); ++i) {
      ASSERT_EQ(std::memcmp(&a.split[i], &b.split[i], sizeof(double)), 0)
          << what << ", split index " << i << " (" << a.split[i] << " vs "
          << b.split[i] << ")";
    }
  }
}

TEST(ShardPlan, PartitionsTheIndexSpace) {
  for (int n : {0, 1, 2, 5, 7, 132, 6000}) {
    for (int s : {1, 2, 3, 7, 64, n, n + 5}) {
      auto plan = core::ShardPlan::make(n, s);
      ASSERT_GE(plan.n_shards, 1);
      if (n > 0) {
        ASSERT_LE(plan.n_shards, std::max(1, std::min(s, n)));
      }
      // Contiguous cover of [0, n), every shard non-empty when n > 0.
      int expect_begin = 0;
      for (int i = 0; i < plan.n_shards; ++i) {
        EXPECT_EQ(plan.begin(i), expect_begin);
        if (n > 0) EXPECT_LT(plan.begin(i), plan.end(i)) << "empty shard " << i;
        expect_begin = plan.end(i);
      }
      EXPECT_EQ(expect_begin, std::max(0, n));
    }
  }
  // Degenerate requests clamp instead of faulting.
  EXPECT_EQ(core::ShardPlan::make(10, 0).n_shards, 1);
  EXPECT_EQ(core::ShardPlan::make(10, -3).n_shards, 1);
  EXPECT_EQ(core::ShardPlan::make(0, 8).n_shards, 1);
  EXPECT_EQ(core::ShardPlan::make(0, 8).end(0), 0);
}

TEST(ShardPlan, AutoShardCountCostModel) {
  // No threads or no demands: sequential.
  EXPECT_EQ(core::auto_shard_count(1000, 4000, 1), 1);
  EXPECT_EQ(core::auto_shard_count(1, 4, 8), 1);
  EXPECT_EQ(core::auto_shard_count(0, 0, 8), 1);
  // Too little work to amortize a barrier: sequential even with threads.
  EXPECT_EQ(core::auto_shard_count(10, 40, 8), 1);
  // Plenty of work: capped by threads...
  EXPECT_EQ(core::auto_shard_count(6000, 24000, 8), 8);
  // ...and by the demand count.
  EXPECT_EQ(core::auto_shard_count(4, 100000, 8), 4);
  // Work-limited in between.
  EXPECT_EQ(core::auto_shard_count(300, 1200, 8), 4);
}

TEST(Shard, SolveBitIdenticalAcrossShardCountsOnEveryTopology) {
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  for (const std::string& name : {"B4", "SWAN", "UsCarrier", "Kdl", "ASN"}) {
    auto s = topo_setup(name);
    auto scheme = make_teal(s.pb);
    core::SolveWorkspace ref_ws;
    te::Allocation ref;
    scheme.solve_replica(ref_ws, s.pb, s.trace.at(0), ref, nullptr, /*shard_count=*/1);
    EXPECT_EQ(ref_ws.plan.n_shards, 1);
    for (int shards : {2, 7, hw, s.pb.num_demands(), s.pb.num_demands() + 9}) {
      core::SolveWorkspace ws;
      te::Allocation got;
      scheme.solve_replica(ws, s.pb, s.trace.at(0), got, nullptr, shards);
      expect_bit_identical(ref, got, name + " @ " + std::to_string(shards) + " shards");
      // The workspace records the executed plan and per-shard accounting.
      EXPECT_EQ(ws.plan.n_shards,
                core::ShardPlan::make(s.pb.num_demands(), shards).n_shards);
      ASSERT_GE(ws.shard_stats.size(), static_cast<std::size_t>(ws.plan.n_shards));
      for (int i = 0; i < ws.plan.n_shards; ++i) {
        EXPECT_GT(ws.shard_stats[static_cast<std::size_t>(i)].stages, 0u)
            << name << " shard " << i << " never ran a stage";
      }
    }
  }
}

TEST(Shard, EmptyDemandRowsAtShardBoundaries) {
  auto s = topo_setup("B4");
  auto scheme = make_teal(s.pb);
  const int nd = s.pb.num_demands();

  // Zero out a band of demands straddling every boundary of a 7-shard plan,
  // plus the first and last row — boundary shards then start or end on
  // empty rows (zero volume ⇒ zero path features and a zero ADMM QP).
  auto plan7 = core::ShardPlan::make(nd, 7);
  te::TrafficMatrix tm = s.trace.at(0);
  tm.volume[0] = 0.0;
  tm.volume[static_cast<std::size_t>(nd - 1)] = 0.0;
  for (int sh = 1; sh < plan7.n_shards; ++sh) {
    const int b = plan7.begin(sh);
    for (int d = std::max(0, b - 1); d <= std::min(nd - 1, b + 1); ++d) {
      tm.volume[static_cast<std::size_t>(d)] = 0.0;
    }
  }

  core::SolveWorkspace ref_ws;
  te::Allocation ref;
  scheme.solve_replica(ref_ws, s.pb, tm, ref, nullptr, 1);
  s.pb.validate_allocation(ref);
  for (int shards : {2, 7, nd}) {
    core::SolveWorkspace ws;
    te::Allocation got;
    scheme.solve_replica(ws, s.pb, tm, got, nullptr, shards);
    expect_bit_identical(ref, got, "zero-band @ " + std::to_string(shards));
  }

  // The fully empty matrix is the extreme case: every shard is all empty
  // rows.
  te::TrafficMatrix zero;
  zero.volume.assign(static_cast<std::size_t>(nd), 0.0);
  core::SolveWorkspace zref_ws;
  te::Allocation zref;
  scheme.solve_replica(zref_ws, s.pb, zero, zref, nullptr, 1);
  for (int shards : {7, nd + 3}) {
    core::SolveWorkspace ws;
    te::Allocation got;
    scheme.solve_replica(ws, s.pb, zero, got, nullptr, shards);
    expect_bit_identical(zref, got, "all-zero @ " + std::to_string(shards));
  }
}

TEST(Shard, SchemeKnobAndTraits) {
  auto s = topo_setup("B4");
  auto scheme = make_teal(s.pb);
  EXPECT_EQ(scheme.shard_count(), 0) << "default is auto";

  auto auto_alloc = scheme.solve(s.pb, s.trace.at(0));
  scheme.set_shard_count(4);
  EXPECT_EQ(scheme.shard_count(), 4);
  auto sharded = scheme.solve(s.pb, s.trace.at(0));
  scheme.set_shard_count(1);
  auto sequential = scheme.solve(s.pb, s.trace.at(0));
  expect_bit_identical(sequential, auto_alloc, "auto vs sequential");
  expect_bit_identical(sequential, sharded, "4 shards vs sequential");

  // solve_batch with the knob engaged still matches the solve() loop.
  scheme.set_shard_count(3);
  auto batch = scheme.solve_batch(s.pb, std::span(s.trace.matrices));
  ASSERT_EQ(static_cast<int>(batch.allocs.size()), s.trace.size());
  for (int t = 0; t < s.trace.size(); ++t) {
    auto seq = scheme.solve(s.pb, s.trace.at(t));
    expect_bit_identical(seq, batch.allocs[static_cast<std::size_t>(t)],
                         "batch @ t=" + std::to_string(t));
  }
}

TEST(Shard, ServedShardedMatchesSequential) {
  auto s = topo_setup("B4");
  auto scheme = make_teal(s.pb);
  for (int shard_count : {0, 4}) {  // auto and explicit
    // The one replica reads the scheme's setting at construction.
    scheme.set_shard_count(shard_count);
    sim::ServedFleetConfig cfg;
    cfg.total_replicas = 1;
    cfg.serve.queue_capacity = static_cast<std::size_t>(s.trace.size());
    const auto res = sim::run_served_fleet(
        {{.name = "B4", .pb = &s.pb, .trace = &s.trace, .scheme = &scheme}}, cfg);
    EXPECT_EQ(res.stats.tenants[0].serve.shed, 0u);
    scheme.set_shard_count(1);
    for (int t = 0; t < s.trace.size(); ++t) {
      ASSERT_TRUE(res.tenants[0].accepted[static_cast<std::size_t>(t)]);
      auto seq = scheme.solve(s.pb, s.trace.at(t));
      expect_bit_identical(seq, res.tenants[0].allocs[static_cast<std::size_t>(t)],
                           "served shard_count=" + std::to_string(shard_count));
    }
  }
}

TEST(Shard, PickReplicaShardsCostModel) {
  // More than one replica: the throughput axis owns the threads.
  EXPECT_EQ(serve::pick_replica_shards(2, 6000, 24000), 1);
  EXPECT_EQ(serve::pick_replica_shards(8, 6000, 24000), 1);
  // A lone replica gets the auto work/threads trade-off (>= 1 always).
  EXPECT_GE(serve::pick_replica_shards(1, 6000, 24000), 1);
  EXPECT_EQ(serve::pick_replica_shards(1, 10, 40), 1);
}

// ---- Pool-composition regression tests (the oversubscription hazard). ----

TEST(PoolComposition, NestedParallelChunksRunsInline) {
  auto& pool = util::ThreadPool::global();
  std::atomic<int> outer_chunks{0};
  std::atomic<bool> nested_inline{true};
  pool.parallel_chunks(64, [&](std::size_t b, std::size_t e) {
    outer_chunks.fetch_add(1);
    const auto outer_thread = std::this_thread::get_id();
    // A nested region from inside a chunk must run inline on this thread,
    // as one chunk covering the whole range.
    int calls = 0;
    pool.parallel_chunks(32, [&](std::size_t nb, std::size_t ne) {
      ++calls;
      if (std::this_thread::get_id() != outer_thread) nested_inline = false;
      if (nb != 0 || ne != 32) nested_inline = false;
    });
    if (calls != 1) nested_inline = false;
    (void)b;
    (void)e;
  });
  EXPECT_GE(outer_chunks.load(), 1);
  EXPECT_TRUE(nested_inline.load());
}

TEST(PoolComposition, SubmitFromPoolSlotThrows) {
  auto& pool = util::ThreadPool::global();
  // From a worker running a submitted task.
  auto fut = pool.submit([&pool] {
    bool threw = false;
    try {
      pool.submit([] {});
    } catch (const std::logic_error&) {
      threw = true;
    }
    return threw;
  });
  EXPECT_TRUE(fut.get()) << "submit from a pool worker must throw";
  // From an inline scope (a serving replica's shape).
  {
    util::ThreadPool::ScopedInline inline_scope;
    EXPECT_TRUE(util::ThreadPool::in_pool_worker());
    EXPECT_THROW(pool.submit([] {}), std::logic_error);
    EXPECT_EQ(util::ThreadPool::available_parallelism(), 1u);
  }
  // Restored outside the scope.
  EXPECT_FALSE(util::ThreadPool::in_pool_worker());
  EXPECT_GE(util::ThreadPool::available_parallelism(), 1u);
}

TEST(PoolComposition, SolveBatchFromPoolSlotFallsBackSequentially) {
  auto s = topo_setup("B4");
  auto scheme = make_teal(s.pb);
  auto reference = scheme.solve_batch(s.pb, std::span(s.trace.matrices));
  // solve_batch invoked while this thread holds a pool slot must neither
  // deadlock nor submit (which now throws) — it falls back to the
  // sequential loop, and sharded stages run inline.
  util::ThreadPool::ScopedInline inline_scope;
  scheme.set_shard_count(4);
  auto nested = scheme.solve_batch(s.pb, std::span(s.trace.matrices));
  ASSERT_EQ(nested.allocs.size(), reference.allocs.size());
  for (std::size_t t = 0; t < nested.allocs.size(); ++t) {
    expect_bit_identical(reference.allocs[t], nested.allocs[t],
                         "nested batch @ t=" + std::to_string(t));
  }
}

}  // namespace
}  // namespace teal
