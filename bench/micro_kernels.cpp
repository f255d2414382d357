// micro_kernels — google-benchmark microbenchmarks of the computational
// kernels behind Teal's speed claims: FlowGNN forward pass, one ADMM
// iteration, one PDHG sweep, Kdl's Yen path precompute, and feasibility repair.
//
// These quantify the per-iteration asymmetry the paper exploits: the
// NN + ADMM kernels are batched/parallel and take microseconds-to-
// milliseconds, while the LP engine needs thousands of its (cheap) sweeps.
#include <benchmark/benchmark.h>

#include "bench/common.h"
#include "core/admm.h"
#include "core/model.h"
#include "core/teal_scheme.h"
#include "lp/path_lp.h"
#include "nn/mat.h"
#include "util/rng.h"
#include "te/objective.h"
#include "topo/topology.h"
#include "traffic/traffic.h"
#include "util/alloc_hook.h"

using namespace teal;

namespace {

struct Fixture {
  std::unique_ptr<te::Problem> pb;
  traffic::Trace trace;

  explicit Fixture(const std::string& topo, int n_demands) {
    auto g = topo::make_topology(topo);
    auto demands = traffic::sample_demands(g, n_demands, 7);
    pb = std::make_unique<te::Problem>(std::move(g), std::move(demands), 4);
    traffic::TraceConfig cfg;
    cfg.n_intervals = 3;
    trace = traffic::generate_trace(*pb, cfg);
    traffic::calibrate_capacities(*pb, trace, 1.6);
  }
};

Fixture& swan() {
  static Fixture f("SWAN", 2000);
  return f;
}

void BM_FlowGnnForward(benchmark::State& state) {
  auto& f = swan();
  core::TealModel model({}, f.pb->k_paths());
  for (auto _ : state) {
    auto fwd = model.forward(*f.pb, f.trace.at(0));
    benchmark::DoNotOptimize(fwd.logits.data().data());
  }
}
BENCHMARK(BM_FlowGnnForward)->Unit(benchmark::kMillisecond);

// Workspace-reuse microbenchmark: the full TealScheme::solve pipeline with a
// cold workspace every iteration vs. a warm (reused) one. The gap is the
// allocation cost the SolveWorkspace refactor removed from the hot loop, and
// `allocs_per_iter` regression-guards it: warm must report 0.
core::TealScheme make_untrained_teal(const te::Problem& pb) {
  return core::TealScheme(pb, std::make_unique<core::TealModel>(core::TealModelConfig{},
                                                                pb.k_paths()),
                          core::TealSchemeConfig{});
}

void BM_TealSolveColdWorkspace(benchmark::State& state) {
  auto& f = swan();
  auto scheme = make_untrained_teal(*f.pb);
  te::Allocation out;
  scheme.solve_into(*f.pb, f.trace.at(0), out);  // outside the alloc window
  util::AllocCounter allocs;
  for (auto _ : state) {
    scheme.reset_workspace();
    out = te::Allocation{};
    scheme.solve_into(*f.pb, f.trace.at(0), out);
    benchmark::DoNotOptimize(out.split.data());
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(allocs.count()), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_TealSolveColdWorkspace)->Unit(benchmark::kMillisecond);

void BM_TealSolveWarmWorkspace(benchmark::State& state) {
  auto& f = swan();
  auto scheme = make_untrained_teal(*f.pb);
  te::Allocation out;
  scheme.solve_into(*f.pb, f.trace.at(0), out);  // warm up workspace + out
  util::AllocCounter allocs;
  for (auto _ : state) {
    scheme.solve_into(*f.pb, f.trace.at(0), out);
    benchmark::DoNotOptimize(out.split.data());
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(allocs.count()), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_TealSolveWarmWorkspace)->Unit(benchmark::kMillisecond);

// Batched linear-forward kernels, the hot inner loop of the FlowGNN/policy
// forward (bench::LinearKernelFixture / bench::PackedKernelFixture — the
// same shape/seed bench_precision_simd ledgers). The F64 variant is the
// packed-panel kernel every f64 solve-path Linear forward runs (4-lane
// panels, no-FMA ISA clones, the bits of the ordered scalar loop); the F32
// variant is the unblocked narrowed path; the BlockedF32 variant runs the
// 8-lane f32 panels the narrowed solve uses. Ratios of interest: F64/F32
// (narrowing), F32/BlockedF32 (layout, CI-asserted >= 1x).
//
// All three run a pinned iteration count after an explicit warm-up pass so
// run-to-run numbers stay comparable (google-benchmark's adaptive iteration
// search was the source of the ledger's f64-baseline jitter: different
// builds settled on different counts, shifting cache residency).
constexpr int kLinearKernelIters = 200;

template <typename Fx, typename T>
void run_linear_kernel_bench(benchmark::State& state, Fx& fx, nn::BasicMat<T>& y) {
  for (int i = 0; i < 3; ++i) fx.run();  // explicit warm-up, outside timing
  for (auto _ : state) {
    fx.run();
    benchmark::DoNotOptimize(y.data().data());
  }
  state.counters["simd"] = nn::simd_enabled() ? 1 : 0;
}

void BM_LinearForwardBatchedF64(benchmark::State& state) {
  bench::PackedKernelFixture<double> fx;
  run_linear_kernel_bench(state, fx, fx.base.y);
}
BENCHMARK(BM_LinearForwardBatchedF64)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(kLinearKernelIters);

void BM_LinearForwardBatchedF32(benchmark::State& state) {
  bench::LinearKernelFixture<float> fx;
  run_linear_kernel_bench(state, fx, fx.y);
}
BENCHMARK(BM_LinearForwardBatchedF32)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(kLinearKernelIters);

void BM_LinearForwardBlockedF32(benchmark::State& state) {
  bench::PackedKernelFixture<float> fx;
  run_linear_kernel_bench(state, fx, fx.base.y);
}
BENCHMARK(BM_LinearForwardBlockedF32)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(kLinearKernelIters);

void BM_TealSolveF32WarmWorkspace(benchmark::State& state) {
  // The warm workspace solve with the narrowed forward — directly comparable
  // to BM_TealSolveWarmWorkspace above (same instance, same pipeline, only
  // the NN precision differs).
  auto& f = swan();
  auto scheme = make_untrained_teal(*f.pb);
  scheme.set_precision(te::Precision::f32);
  te::Allocation out;
  scheme.solve_into(*f.pb, f.trace.at(0), out);  // warm up workspace + out
  for (auto _ : state) {
    scheme.solve_into(*f.pb, f.trace.at(0), out);
    benchmark::DoNotOptimize(out.split.data());
  }
  state.counters["simd"] = nn::simd_enabled() ? 1 : 0;
}
BENCHMARK(BM_TealSolveF32WarmWorkspace)->Unit(benchmark::kMillisecond);

void BM_AdmmFineTune5Iters(benchmark::State& state) {
  auto& f = swan();
  core::AdmmConfig cfg;
  cfg.iterations = 5;
  core::Admm admm(*f.pb, cfg);
  auto caps = f.pb->capacities();
  for (auto _ : state) {
    auto a = f.pb->shortest_path_allocation();
    admm.fine_tune(f.trace.at(0), caps, a);
    benchmark::DoNotOptimize(a.split.data());
  }
}
BENCHMARK(BM_AdmmFineTune5Iters)->Unit(benchmark::kMillisecond);

void BM_PdhgHundredSweeps(benchmark::State& state) {
  auto& f = swan();
  for (auto _ : state) {
    lp::PdhgOptions opt;
    opt.max_iterations = 100;
    opt.check_every = 1000;  // no early exit: measure raw sweep cost
    lp::FlowLpInfo info;
    auto a = lp::solve_flow_lp(*f.pb, f.trace.at(0), {}, opt, &info);
    benchmark::DoNotOptimize(a.split.data());
  }
}
BENCHMARK(BM_PdhgHundredSweeps)->Unit(benchmark::kMillisecond);

// The set-up cost Yen's k-shortest paths puts on a real instance: building
// Kdl's 3000-demand te::Problem (4 paths per demand, on the pool) is almost
// all path precompute.
void BM_KdlProblemPathPrecompute(benchmark::State& state) {
  const auto g = topo::make_topology("Kdl");
  const auto demands = traffic::sample_demands(g, 3000, 7);
  for (auto _ : state) {
    te::Problem pb(g, demands, 4);
    benchmark::DoNotOptimize(pb.total_paths());
  }
}
BENCHMARK(BM_KdlProblemPathPrecompute)->Unit(benchmark::kMillisecond);

// The same on the repo benchmark's ASN instance (seed-1 topology, 6000
// demands sampled with seed 2): the precompute behind asn-latency's setup_s.
void BM_AsnProblemPathPrecompute(benchmark::State& state) {
  const auto g = topo::make_topology("ASN", 1);
  const auto demands = traffic::sample_demands(g, 6000, 2);
  for (auto _ : state) {
    te::Problem pb(g, demands, 4);
    benchmark::DoNotOptimize(pb.total_paths());
  }
}
BENCHMARK(BM_AsnProblemPathPrecompute)->Unit(benchmark::kMillisecond);

void BM_FeasibilityRepair(benchmark::State& state) {
  auto& f = swan();
  auto sp = f.pb->shortest_path_allocation();
  for (auto _ : state) {
    auto a = te::repair_to_feasible(*f.pb, f.trace.at(0), sp);
    benchmark::DoNotOptimize(a.split.data());
  }
}
BENCHMARK(BM_FeasibilityRepair)->Unit(benchmark::kMillisecond);

void BM_TotalFeasibleFlow(benchmark::State& state) {
  auto& f = swan();
  auto sp = f.pb->shortest_path_allocation();
  for (auto _ : state) {
    benchmark::DoNotOptimize(te::total_feasible_flow(*f.pb, f.trace.at(0), sp));
  }
}
BENCHMARK(BM_TotalFeasibleFlow)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
