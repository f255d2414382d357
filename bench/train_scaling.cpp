// train_scaling — worker sweep of the workspace-batched training pipeline.
//
// Not a paper figure: this bench measures the repo's own batched training
// (core::TrainContext), the fourth parallelism axis after solve_batch,
// serving replicas and demand shards. The fig06 model-training step is the
// workload: COMA* epochs over a SWAN-scale instance, rollout batches fanned
// over 1 → pool-width workers, with the bit-identity contract (parameters
// byte-equal to the 1-worker run at every sweep point) checked alongside the
// throughput numbers. The paper trains on a GPU for days (§5.1); what this
// sweep demonstrates is that the CPU reproduction's training step scales
// with cores without changing a single trained bit.
//
// Output: one table (bench::record) — stdout, bench_out/train_scaling.csv
// and, when run from the repo root, the EXPERIMENTS.md "Training scaling
// ledger". On a single-core machine the sweep degenerates (workers inline);
// set TEAL_POOL_THREADS to exercise the fan-out paths anyway.
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/coma.h"
#include "core/model.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace teal;

namespace {

std::vector<std::vector<double>> snapshot_params(core::Model& model) {
  std::vector<std::vector<double>> out;
  for (auto* p : model.params()) {
    const auto& w = p->w.data();
    out.emplace_back(w.begin(), w.end());
  }
  return out;
}

bool params_equal(const std::vector<std::vector<double>>& a,
                  const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::print_header("Training scaling",
                      "workspace-batched COMA* training, worker sweep on SWAN");
  auto inst = bench::make_instance("SWAN");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t pool_threads = util::ThreadPool::global().size() + 1;

  core::ComaConfig cfg;
  cfg.epochs = bench::fast_mode() ? 1 : 3;
  cfg.lr = 3e-3;
  cfg.rollout_batch = static_cast<int>(pool_threads);

  // Sweep: 1, 2, 4, ... up to the pool width, the pool width itself, auto.
  std::vector<int> sweep{1};
  for (int w = 2; w < static_cast<int>(pool_threads); w *= 2) sweep.push_back(w);
  if (pool_threads > 1) sweep.push_back(static_cast<int>(pool_threads));
  sweep.push_back(0);  // auto

  util::Table table({"workers", "train wall (s)", "speedup (x)", "warm-step allocs",
                     "bit-identical"});
  std::vector<std::vector<double>> ref_params;
  double base_s = 0.0, speedup_at_4 = 0.0;
  bool all_identical = true, allocs_clean = true;
  for (int requested : sweep) {
    // Fresh deterministic model per point: training itself is the workload.
    core::TealModel model(core::TealModelConfig{}, inst->pb.k_paths(), /*seed=*/3);
    cfg.workers = requested;
    util::Timer timer;
    auto stats =
        core::train_coma(model, inst->pb, inst->split.train, te::Objective::kTotalFlow, cfg);
    const double seconds = timer.seconds();
    if (requested == 1) {
      base_s = seconds;
      ref_params = snapshot_params(model);
    }
    const double speedup = seconds > 0.0 && base_s > 0.0 ? base_s / seconds : 0.0;
    if (requested == 4) speedup_at_4 = speedup;
    const bool identical = params_equal(ref_params, snapshot_params(model));
    all_identical = all_identical && identical;
    allocs_clean = allocs_clean && stats.warm_step_allocs == 0;
    table.add_row({requested == 0 ? "auto" : std::to_string(requested), util::fmt(seconds, 4),
                   util::fmt(speedup, 3), std::to_string(stats.warm_step_allocs),
                   identical ? "yes" : "NO"});
  }
  bench::record(table, "train_scaling",
                "SWAN, " + std::to_string(inst->pb.num_demands()) + " demands, rollout batch " +
                    std::to_string(cfg.rollout_batch) + ", pool " +
                    std::to_string(pool_threads) + " threads on " + std::to_string(hw) +
                    " hardware");
  std::printf("  parameters bit-identical to the 1-worker run at every sweep point: %s\n",
              all_identical ? "yes" : "NO");
  std::printf("  warm training steps allocation-free at every sweep point: %s\n",
              allocs_clean ? "yes" : "NO");
  if (speedup_at_4 > 0.0) {
    std::printf("  training speedup at 4 workers: %.2fx (meaningful only on >= 4\n"
                "  hardware threads)\n", speedup_at_4);
  } else {
    std::printf("  4-worker point not reached (pool %zu threads); run on >= 4 cores\n"
                "  for the full sweep\n", pool_threads);
  }
  return all_identical && allocs_clean ? 0 : 1;
}
