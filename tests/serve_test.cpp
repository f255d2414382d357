// Tests for the serving layer: served results must be bit-identical to
// sequential solve() over the same trace (the replica-pool commutativity
// contract), admission control must shed under overload instead of queueing
// doomed work, and the stats ledger must balance (offered == accepted + shed,
// completed == accepted after drain, histogram counts == completed). The
// util pieces the server is built from (bounded MPMC queue, latency
// histogram, thread-name helper) are covered here too.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "baselines/lp_schemes.h"
#include "core/teal_scheme.h"
#include "serve/replica.h"
#include "serve/server.h"
#include "sim/served.h"
#include "topo/topology.h"
#include "traffic/traffic.h"
#include "util/histogram.h"
#include "util/mpmc_queue.h"
#include "util/thread_name.h"

namespace teal {
namespace {

struct Setup {
  te::Problem pb;
  traffic::Trace trace;
};

Setup b4_setup(int n_intervals = 6) {
  auto g = topo::make_b4();
  te::Problem pb(std::move(g), te::all_pairs_demands(topo::make_b4()), 4);
  traffic::TraceConfig cfg;
  cfg.n_intervals = n_intervals;
  auto trace = traffic::generate_trace(pb, cfg);
  traffic::calibrate_capacities(pb, trace, 1.5);
  return Setup{std::move(pb), std::move(trace)};
}

// Untrained Teal pipeline: deterministic init, and the serving contract is
// independent of training (same as workspace_test).
core::TealScheme make_teal(const te::Problem& pb) {
  return core::TealScheme(pb,
                          std::make_unique<core::TealModel>(core::TealModelConfig{},
                                                            pb.k_paths()),
                          core::TealSchemeConfig{});
}

void expect_bit_identical(const te::Allocation& a, const te::Allocation& b) {
  ASSERT_EQ(a.split.size(), b.split.size());
  for (std::size_t i = 0; i < a.split.size(); ++i) {
    EXPECT_EQ(a.split[i], b.split[i]) << "split index " << i;
  }
}

void expect_ledger_balanced(const serve::ServeStats& s) {
  EXPECT_EQ(s.accepted + s.shed, s.offered);
  EXPECT_EQ(s.completed, s.accepted);  // after drain()
  EXPECT_EQ(s.queue_wait.count(), s.completed);
  EXPECT_EQ(s.solve.count(), s.completed);
  EXPECT_EQ(s.response.count(), s.completed);
  std::uint64_t per_replica = 0;
  for (const auto& r : s.replicas) per_replica += r.solved;
  EXPECT_EQ(per_replica, s.completed);
}

// One-tenant replay of the whole trace over `replicas` replicas, queue sized
// to the trace so nothing sheds.
sim::ServedFleetResult serve_trace(const Setup& s, te::Scheme& scheme, std::size_t replicas,
                                   serve::SchemeFactory factory = nullptr) {
  sim::ServedFleetConfig cfg;
  cfg.total_replicas = replicas;
  cfg.serve.queue_capacity = static_cast<std::size_t>(s.trace.size());
  return sim::run_served_fleet(
      {{.name = "B4", .pb = &s.pb, .trace = &s.trace, .scheme = &scheme,
        .factory = std::move(factory)}},
      cfg);
}

TEST(Serve, ServedResultsMatchSequentialTeal) {
  auto s = b4_setup();
  auto scheme = make_teal(s.pb);
  const auto res = serve_trace(s, scheme, 3);
  const auto& allocs = res.tenants[0].allocs;
  const auto& stats = res.stats.tenants[0].serve;
  ASSERT_EQ(static_cast<int>(allocs.size()), s.trace.size());
  expect_ledger_balanced(stats);
  EXPECT_EQ(stats.shed, 0u);
  ASSERT_EQ(stats.replicas.size(), 3u);
  for (int t = 0; t < s.trace.size(); ++t) {
    EXPECT_TRUE(res.tenants[0].accepted[static_cast<std::size_t>(t)]);
    auto seq = scheme.solve(s.pb, s.trace.at(t));
    expect_bit_identical(seq, allocs[static_cast<std::size_t>(t)]);
  }
}

TEST(Serve, ServedResultsMatchSequentialLpViaFactory) {
  auto s = b4_setup();
  baselines::LpAllScheme reference;
  const auto res = serve_trace(s, reference, 2,
                               [] { return std::make_unique<baselines::LpAllScheme>(); });
  const auto& stats = res.stats.tenants[0].serve;
  expect_ledger_balanced(stats);
  EXPECT_EQ(stats.shed, 0u);
  ASSERT_EQ(stats.replicas.size(), 2u);
  for (int t = 0; t < s.trace.size(); ++t) {
    auto seq = reference.solve(s.pb, s.trace.at(t));
    expect_bit_identical(seq, res.tenants[0].allocs[static_cast<std::size_t>(t)]);
  }
}

TEST(Serve, MakeReplicasRequiresFactoryForSequentialSchemes) {
  baselines::LpAllScheme lp;
  EXPECT_THROW(serve::make_replicas(lp, 2), std::invalid_argument);
}

TEST(Serve, ServerRequiresAtLeastOneReplica) {
  auto s = b4_setup(1);
  EXPECT_THROW(serve::Server(s.pb, std::vector<serve::ReplicaPtr>{}, serve::ServeConfig{}),
               std::invalid_argument);
}

// A replica that takes a fixed (wall-clock) time per solve, so overload and
// admission behaviour are controllable independent of any real scheme.
class SlowReplica final : public serve::Replica {
 public:
  explicit SlowReplica(double seconds) : seconds_(seconds) {}
  void solve(const te::Problem&, const te::TrafficMatrix& tm, te::Allocation& out,
             double* seconds) override {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds_));
    out.split.assign(1, tm.volume.empty() ? 0.0 : tm.volume[0]);
    if (seconds != nullptr) *seconds = seconds_;
  }

 private:
  double seconds_;
};

TEST(Serve, AdmissionControlShedsUnderOverload) {
  auto s = b4_setup(2);
  std::vector<serve::ReplicaPtr> replicas;
  replicas.push_back(std::make_unique<SlowReplica>(0.003));
  serve::ServeConfig cfg;
  cfg.queue_capacity = 64;
  // Deadline buys exactly one expected solve: the depth bound is 1, so a
  // request is admitted only when the queue is empty.
  cfg.deadline_seconds = 1.0;
  cfg.expected_solve_seconds = 1.0;
  serve::Server server(s.pb, std::move(replicas), cfg);
  EXPECT_EQ(server.admission_depth_bound(), 1u);

  const int n_requests = 32;
  std::vector<te::Allocation> out(n_requests);
  int accepted = 0;
  for (int i = 0; i < n_requests; ++i) {
    if (server.submit(s.trace.at(0), out[static_cast<std::size_t>(i)])) ++accepted;
  }
  server.drain();
  auto stats = server.stop();
  expect_ledger_balanced(stats);
  EXPECT_EQ(stats.offered, static_cast<std::uint64_t>(n_requests));
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(accepted));
  EXPECT_GE(stats.accepted, 1u);  // an idle server always admits
  EXPECT_GT(stats.shed, 0u);      // a burst against depth bound 1 must shed
}

TEST(Serve, QueueBoundShedsWithoutDeadline) {
  auto s = b4_setup(2);
  std::vector<serve::ReplicaPtr> replicas;
  replicas.push_back(std::make_unique<SlowReplica>(0.005));
  serve::ServeConfig cfg;
  cfg.queue_capacity = 2;  // no deadline: only the queue bound sheds
  serve::Server server(s.pb, std::move(replicas), cfg);
  EXPECT_EQ(server.admission_depth_bound(), 0u);
  std::vector<te::Allocation> out(16);
  for (std::size_t i = 0; i < out.size(); ++i) server.submit(s.trace.at(0), out[i]);
  server.drain();
  auto stats = server.stop();
  expect_ledger_balanced(stats);
  EXPECT_GT(stats.shed, 0u);
  EXPECT_LE(stats.accepted, stats.offered);
}

TEST(Serve, SubmitAfterStopIsShed) {
  auto s = b4_setup(2);
  std::vector<serve::ReplicaPtr> replicas;
  replicas.push_back(std::make_unique<SlowReplica>(0.0));
  serve::Server server(s.pb, std::move(replicas), {});
  server.stop();
  te::Allocation out;
  EXPECT_FALSE(server.submit(s.trace.at(0), out));
  // And the refusal names its true cause — not a guessed admission/queue
  // shed — which is what the net layer forwards to clients.
  EXPECT_EQ(server.submit(s.trace.at(0), out, nullptr),
            serve::SubmitResult::kShedStopping);
  auto stats = server.stop();  // idempotent; stats from the first stop()
  EXPECT_EQ(stats.completed, 0u);
}

// Regression test for the shutdown race: stop() used to flip a plain bool and
// join threads without serializing against concurrent stop() callers or
// against submitters mid-flight between the offered++ and the accepted/shed
// increments, so two racing stoppers could double-join and the published
// ledger could be caught unbalanced. Now stop() is mutex-serialized,
// idempotent (every caller gets the same stats), and spins until the counter
// ledger balances before publishing it.
TEST(Serve, ConcurrentStopAndSubmitIsSafe) {
  auto s = b4_setup(1);
  const int n_submitters = 4;
  const int n_per_submitter = 50;
  for (int round = 0; round < 10; ++round) {
    // Output buffers outlive the server (the submit contract: `out` must stay
    // valid until the request completes, and a stop() racing the submitters
    // decides which requests complete).
    std::vector<std::vector<te::Allocation>> outs(
        n_submitters, std::vector<te::Allocation>(n_per_submitter));
    std::vector<serve::ReplicaPtr> replicas;
    replicas.push_back(std::make_unique<SlowReplica>(0.0));
    serve::Server server(s.pb, std::move(replicas), {});

    std::atomic<bool> go{false};
    std::vector<std::thread> submitters;
    for (int t = 0; t < n_submitters; ++t) {
      submitters.emplace_back([&server, &s, &go, &slots = outs[static_cast<std::size_t>(t)]] {
        while (!go.load(std::memory_order_acquire)) {}
        for (int i = 0; i < n_per_submitter; ++i) {
          server.submit(s.trace.at(0), slots[static_cast<std::size_t>(i)]);
        }
      });
    }
    serve::ServeStats from_a, from_b;
    std::thread stop_a([&] {
      while (!go.load(std::memory_order_acquire)) {}
      from_a = server.stop();
    });
    std::thread stop_b([&] {
      while (!go.load(std::memory_order_acquire)) {}
      from_b = server.stop();
    });
    go.store(true, std::memory_order_release);
    for (auto& t : submitters) t.join();
    stop_a.join();
    stop_b.join();

    // Both stoppers observed the same final stats, and the ledger balances no
    // matter where the race landed. (Submits racing past stop() are shed, so
    // offered keeps counting; completed == accepted only covers work that was
    // admitted before the queue closed.)
    EXPECT_EQ(from_a.offered, from_b.offered);
    EXPECT_EQ(from_a.accepted, from_b.accepted);
    EXPECT_EQ(from_a.shed, from_b.shed);
    auto final_stats = server.stop();
    EXPECT_EQ(final_stats.accepted + final_stats.shed, final_stats.offered);
    EXPECT_EQ(final_stats.completed, final_stats.accepted);
  }
}

TEST(Serve, SubmitDoneCallbackRunsOnceWithSolveSeconds) {
  auto s = b4_setup(1);
  std::vector<serve::ReplicaPtr> replicas;
  replicas.push_back(std::make_unique<SlowReplica>(0.001));
  serve::Server server(s.pb, std::move(replicas), {});
  std::atomic<int> calls{0};
  std::atomic<double> seen{-1.0};
  te::Allocation out;
  ASSERT_EQ(server.submit(s.trace.at(0), out,
                          [&](double solve_s) {
                            seen.store(solve_s, std::memory_order_relaxed);
                            calls.fetch_add(1, std::memory_order_relaxed);
                          }),
            serve::SubmitResult::kAccepted);
  server.drain();
  // drain() returning implies the callback already ran (it fires before the
  // completion count the drain waits on).
  EXPECT_EQ(calls.load(), 1);
  EXPECT_DOUBLE_EQ(seen.load(), 0.001);  // SlowReplica reports its configured time
  auto stats = server.stop();
  expect_ledger_balanced(stats);
}

TEST(MpmcQueue, BoundedFifoAndCloseSemantics) {
  util::MpmcQueue<int> q(3);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_FALSE(q.try_push(4)) << "bounded queue must reject when full";
  int v = 0;
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 1);
  q.close();
  EXPECT_FALSE(q.try_push(5)) << "closed queue must reject pushes";
  // Items queued before close() still drain, in FIFO order.
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 3);
  EXPECT_FALSE(q.pop(v)) << "closed and drained queue must return false";
}

TEST(MpmcQueue, CloseWakesBlockedConsumer) {
  util::MpmcQueue<int> q(1);
  std::thread consumer([&] {
    int v;
    EXPECT_FALSE(q.pop(v));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  consumer.join();
}

TEST(LatencyHistogram, PercentilesWithinBucketResolution) {
  util::LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i) * 1e-3);  // 1ms..1s
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min_seconds(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 1.0);
  // Geometric buckets at ratio 2^(1/4) ≈ 19% resolution; allow 25%.
  EXPECT_NEAR(h.percentile(50.0), 0.5, 0.5 * 0.25);
  EXPECT_NEAR(h.percentile(99.0), 0.99, 0.99 * 0.25);
  EXPECT_LE(h.percentile(100.0), h.max_seconds());
  EXPECT_GE(h.percentile(0.0), h.min_seconds());
}

TEST(LatencyHistogram, MergeAccumulates) {
  util::LatencyHistogram a, b;
  a.record(0.001);
  a.record(0.002);
  b.record(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.max_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(a.min_seconds(), 0.001);
  EXPECT_NEAR(a.sum_seconds(), 1.003, 1e-12);
}

TEST(ThreadName, HelperRoundTripsAndServesReplicas) {
  std::thread t([] {
    util::set_current_thread_name("teal-serve", 7);
    EXPECT_EQ(util::current_thread_name(), "teal-serve/7");
  });
  t.join();
}

}  // namespace
}  // namespace teal
