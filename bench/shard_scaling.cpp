// shard_scaling — demand-shard sweep of a single solve on the largest
// bundled topology (ASN).
//
// Not a paper figure: this bench measures the repo's own intra-solve
// sharding (core::ShardPlan), the third parallelism axis after solve_batch
// (PR 1) and serving replicas (PR 2). Batching raises throughput across
// matrices; sharding is the only axis that cuts the *latency* of one huge
// solve — the paper obtains the same effect by running the per-demand
// kernels data-parallel on a GPU. Because every shard count produces a
// bit-identical allocation (verified here against the sequential path on
// every sweep point), the sweep isolates pure scheduling cost: wall-clock
// per solve as shards go 1 → threads.
//
// Output: one table (bench::record) — stdout, bench_out/shard_scaling.csv
// and, when run from the repo root, the EXPERIMENTS.md "Shard scaling
// ledger". On a single-core machine the sweep degenerates (shards inline);
// set TEAL_POOL_THREADS to exercise the fan-out paths anyway.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/shard.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace teal;

int main() {
  bench::print_header("Shard scaling",
                      "intra-solve demand sharding, single-solve latency on ASN");
  auto inst = bench::make_instance("ASN");
  auto teal = bench::make_teal(*inst);
  const te::TrafficMatrix& tm = inst->split.test.at(0);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t pool_threads = util::ThreadPool::global().size() + 1;
  const int repeats = bench::fast_mode() ? 5 : 21;

  // Sequential reference (also warms the reference workspace).
  core::SolveWorkspace ref_ws;
  te::Allocation ref;
  teal->solve_replica(ref_ws, inst->pb, tm, ref, nullptr, /*shard_count=*/1);

  // Sweep: 1, 2, 4, 8, ... up to the pool width, the pool width itself, and
  // the auto cost model (requested 0).
  std::vector<int> sweep{1};
  for (int s = 2; s < static_cast<int>(pool_threads); s *= 2) sweep.push_back(s);
  if (pool_threads > 1) sweep.push_back(static_cast<int>(pool_threads));
  sweep.push_back(0);  // auto

  util::Table table({"shards", "plan shards", "solve p50 (ms)", "speedup (x)", "balance",
                     "bit-identical"});
  double base_ms = 0.0, speedup_at_4 = 0.0;
  bool all_identical = true;
  for (int requested : sweep) {
    core::SolveWorkspace ws;
    te::Allocation out;
    teal->solve_replica(ws, inst->pb, tm, out, nullptr, requested);  // warm-up
    std::vector<double> ms;
    ms.reserve(static_cast<std::size_t>(repeats));
    for (int i = 0; i < repeats; ++i) {
      double s = 0.0;
      teal->solve_replica(ws, inst->pb, tm, out, &s, requested);
      ms.push_back(s * 1e3);
    }
    const double median_ms = util::median(ms);
    if (requested == 1) base_ms = median_ms;
    const double speedup = median_ms > 0.0 && base_ms > 0.0 ? base_ms / median_ms : 0.0;
    if (requested == 4) speedup_at_4 = speedup;
    double busy_min = 1e300, busy_max = 0.0;
    for (int s = 0; s < ws.plan.n_shards; ++s) {
      busy_min = std::min(busy_min, ws.shard_stats[static_cast<std::size_t>(s)].busy_seconds);
      busy_max = std::max(busy_max, ws.shard_stats[static_cast<std::size_t>(s)].busy_seconds);
    }
    // min/max per-shard busy time (1.0 = perfect).
    const double balance = busy_max > 0.0 ? busy_min / busy_max : 1.0;
    // True byte comparison (not double ==, which conflates +0.0/-0.0).
    const bool identical =
        out.split.size() == ref.split.size() &&
        (ref.split.empty() ||
         std::memcmp(out.split.data(), ref.split.data(),
                     ref.split.size() * sizeof(double)) == 0);
    all_identical = all_identical && identical;
    table.add_row({requested == 0 ? "auto" : std::to_string(requested),
                   std::to_string(ws.plan.n_shards), util::fmt(median_ms, 4),
                   util::fmt(speedup, 3), util::fmt(balance, 3), identical ? "yes" : "NO"});
  }
  bench::record(table, "shard_scaling",
                "ASN, " + std::to_string(inst->pb.num_demands()) + " demands, pool " +
                    std::to_string(pool_threads) + " threads on " + std::to_string(hw) +
                    " hardware");
  std::printf("  bit-identical to the sequential solve at every shard count: %s\n",
              all_identical ? "yes" : "NO");
  if (speedup_at_4 > 0.0) {
    std::printf("  single-solve speedup at 4 shards: %.2fx (acceptance target > 1.5x on\n"
                "  >= 4 hardware threads)\n", speedup_at_4);
  } else {
    std::printf("  4-shard point not reached (pool %zu threads); run on >= 4 cores for\n"
                "  the acceptance sweep\n", pool_threads);
  }
  return all_identical ? 0 : 1;
}
