// Unit tests for the util substrate: thread pool, RNG, statistics, tables.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>

#include "util/alloc_hook.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace teal {
namespace {

TEST(ThreadPool, RunsAllIndices) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ChunksCoverRangeExactlyOnce) {
  util::ThreadPool pool(7);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_chunks(12345, [&](std::size_t b, std::size_t e) {
    std::int64_t local = 0;
    for (std::size_t i = b; i < e; ++i) local += static_cast<std::int64_t>(i);
    sum += local;
  });
  EXPECT_EQ(sum.load(), 12345LL * 12344 / 2);
}

TEST(ThreadPool, RegionRethrowsChunkErrorAfterEveryChunkRan) {
  util::ThreadPool pool(4);
  // Five chunks of one index (four workers + the caller). Chunk 2 throws at
  // once; the others finish later, so a rethrow before the join would see
  // fewer than four of them done.
  std::atomic<int> finished{0};
  bool caught = false;
  try {
    pool.parallel_chunks(5, [&](std::size_t b, std::size_t e) {
      ASSERT_EQ(e, b + 1);
      if (b == 2) throw std::runtime_error("chunk 2");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished.fetch_add(1);
    });
  } catch (const std::runtime_error& err) {
    caught = true;
    EXPECT_STREQ(err.what(), "chunk 2");
    EXPECT_EQ(finished.load(), 4);
  }
  EXPECT_TRUE(caught);
  EXPECT_FALSE(util::ThreadPool::in_pool_worker());
  // The pool runs the next region normally.
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroAndOneElementRanges) {
  util::ThreadPool pool(3);
  int count = 0;
  pool.parallel_for(0, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  pool.parallel_for(1, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPool, EnvOverrideParsesValidValues) {
  EXPECT_EQ(util::pool_threads_from_env("1"), 1u);
  EXPECT_EQ(util::pool_threads_from_env("8"), 8u);
  EXPECT_EQ(util::pool_threads_from_env("  8"), 8u);   // leading whitespace (strtoll)
  EXPECT_EQ(util::pool_threads_from_env("8 "), 8u);    // trailing whitespace (shell export)
  EXPECT_EQ(util::pool_threads_from_env("+4"), 4u);
  EXPECT_EQ(util::pool_threads_from_env("1024"), 1024u);  // at the ceiling
}

TEST(ThreadPool, EnvOverrideRejectsGarbage) {
  // 0 is the ThreadPool constructor's "size to the hardware" sentinel — the
  // fallback available_parallelism() resolves to.
  EXPECT_EQ(util::pool_threads_from_env(nullptr), 0u);
  EXPECT_EQ(util::pool_threads_from_env(""), 0u);
  EXPECT_EQ(util::pool_threads_from_env("abc"), 0u);
  EXPECT_EQ(util::pool_threads_from_env("8x"), 0u);          // trailing garbage
  EXPECT_EQ(util::pool_threads_from_env("4 workers"), 0u);   // ditto
  EXPECT_EQ(util::pool_threads_from_env("3.5"), 0u);         // not an integer
  EXPECT_EQ(util::pool_threads_from_env(" "), 0u);
}

TEST(ThreadPool, EnvOverrideRejectsNonPositiveAndOverflow) {
  EXPECT_EQ(util::pool_threads_from_env("0"), 0u);
  EXPECT_EQ(util::pool_threads_from_env("-3"), 0u);
  EXPECT_EQ(util::pool_threads_from_env("-9999999999999999999"), 0u);
  // Above the sanity ceiling: would otherwise ask the OS for that many
  // threads at static-init time.
  EXPECT_EQ(util::pool_threads_from_env("1025"), 0u);
  EXPECT_EQ(util::pool_threads_from_env("1000000"), 0u);
  // Overflows long long entirely (strtoll saturates + ERANGE).
  EXPECT_EQ(util::pool_threads_from_env("99999999999999999999999999"), 0u);
}

TEST(Rng, Deterministic) {
  util::Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, ForkDecorrelates) {
  util::Rng root(7);
  util::Rng a = root.fork(1);
  util::Rng b = root.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformIntBounds) {
  util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_int(-2, 5);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, CategoricalRespectsWeights) {
  util::Rng rng(9);
  std::vector<double> w = {0.0, 10.0, 0.0};
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.categorical(w), 1u);
}

TEST(Rng, CategoricalEmptyThrows) {
  util::Rng rng(9);
  EXPECT_THROW(rng.categorical({}), std::invalid_argument);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  util::Rng rng(11);
  auto s = rng.sample_without_replacement(50, 20);
  std::set<std::size_t> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 20u);
  for (auto v : s) EXPECT_LT(v, 50u);
}

TEST(Rng, NormalMoments) {
  util::Rng rng(13);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.normal(2.0, 3.0);
  EXPECT_NEAR(util::mean(xs), 2.0, 0.1);
  EXPECT_NEAR(util::stddev(xs), 3.0, 0.1);
}

TEST(Stats, PercentileInterpolation) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(util::percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(util::percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(util::percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(util::percentile(xs, 25), 2.0);
}

TEST(Stats, CdfMonotone) {
  auto cdf = util::make_cdf({3.0, 1.0, 2.0, 2.0});
  ASSERT_EQ(cdf.values.size(), 4u);
  EXPECT_TRUE(std::is_sorted(cdf.values.begin(), cdf.values.end()));
  EXPECT_DOUBLE_EQ(cdf.probs.back(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.prob_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.prob_at(2.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.prob_at(10.0), 1.0);
}

TEST(Stats, EmptyThrows) {
  EXPECT_THROW(util::mean({}), std::invalid_argument);
  EXPECT_THROW(util::percentile({}, 50), std::invalid_argument);
}

TEST(Table, RendersAndWritesCsv) {
  util::Table t({"scheme", "time"});
  t.add_row({"Teal", "0.97"});
  t.add_row({"LP-all", "585"});
  std::string s = t.to_string();
  EXPECT_NE(s.find("Teal"), std::string::npos);
  EXPECT_NE(s.find("585"), std::string::npos);

  auto path = std::filesystem::temp_directory_path() / "teal_table_test.csv";
  t.write_csv(path.string());
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "scheme,time");
  std::filesystem::remove(path);
}

TEST(Table, RowSizeMismatchThrows) {
  util::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(CounterRng, DeterministicAndSeedSeparated) {
  util::CounterRng a(42), b(42), c(43);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t x = a.next_u64();
    EXPECT_EQ(x, b.next_u64());
    if (x != c.next_u64()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(CounterRng, UniformInUnitInterval) {
  util::CounterRng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(CounterRng, NormalMoments) {
  util::CounterRng rng(99);
  const int n = 100000;
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.normal(2.0, 3.0);
  EXPECT_NEAR(util::mean(xs), 2.0, 0.05);
  EXPECT_NEAR(util::stddev(xs), 3.0, 0.05);
}

TEST(CounterRng, AdjacentSeedsUncorrelated) {
  // The draw sites key one CounterRng per (epoch, rollout, demand, phase)
  // tag, so mixed seeds differing by one must yield independent streams.
  const int n = 10000;
  std::vector<double> xs(n), ys(n);
  util::CounterRng a(1000), b(1001);
  for (int i = 0; i < n; ++i) {
    xs[static_cast<std::size_t>(i)] = a.normal();
    ys[static_cast<std::size_t>(i)] = b.normal();
  }
  const double mx = util::mean(xs), my = util::mean(ys);
  double cov = 0.0;
  for (int i = 0; i < n; ++i) {
    cov += (xs[static_cast<std::size_t>(i)] - mx) * (ys[static_cast<std::size_t>(i)] - my);
  }
  cov /= n;
  const double corr = cov / (util::stddev(xs) * util::stddev(ys));
  EXPECT_LT(std::abs(corr), 0.05);
}

TEST(Rng, NormalVaryingParamsMatchesScaledUnit) {
  // normal(mean, stddev) must be exactly mean + stddev * (a unit draw from
  // the same underlying stream): the spare caching may never leak one
  // call's parameters into the next.
  util::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    const double mean = i * 0.5, sd = 1.0 + i * 0.25;
    EXPECT_DOUBLE_EQ(a.normal(mean, sd), mean + sd * b.normal());
  }
}

TEST(Timer, MeasuresElapsed) {
  util::Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GE(t.seconds(), 0.0);
}

TEST(StopWatch, Accumulates) {
  util::StopWatch sw;
  sw.start();
  sw.stop();
  sw.start();
  sw.stop();
  EXPECT_GE(sw.total_seconds(), 0.0);
  sw.clear();
  EXPECT_EQ(sw.total_seconds(), 0.0);
}

}  // namespace
}  // namespace teal
