// precision_simd — precision/layout backend sweep: kernel-level speedup of
// the batched linear forward (the f64 packed-panel kernel the reference
// solve runs vs the unblocked f32 path vs the blocked-panel f32 kernel the
// narrowed solve runs),
// end-to-end warm-solve latency at both precisions, and the f32-vs-f64
// flow-allocation error per topology.
//
// Not a paper figure: this bench quantifies the repo's own precision knob
// (core::TealScheme::set_precision), the CPU analogue of the paper's fp32 GPU
// inference. The f64 path is the bit-stable reference under every build
// flag: its packed panels dispatch to no-FMA clones in every build, so the
// f64/f32 kernel ratio reported here is what narrowing alone buys over the
// kernel the reference solve really runs, and the f32/blocked-f32 ratio is
// the layout speedup (CI-asserted >= 1x via TEAL_BENCH_ASSERT_BLOCKED=1).
//
// Jitter control: all kernel fixtures are timed with interleaved
// round-robin samples (one timed run of each fixture per sweep, repeated a
// pinned odd number of times, median reported). Back-to-back per-fixture
// loops let slow drift (frequency scaling, cache warm-up, a noisy
// neighbor) land entirely on whichever fixture ran last, which is exactly
// the f64-baseline wobble the earlier ledger entries show; interleaving
// spreads any drift evenly across all fixtures so the *ratios* stay
// comparable run-to-run.
//
// Output: two tables through bench::record — the per-topology solve table
// (bench_out/precision_simd.csv, EXPERIMENTS.md "Precision/SIMD ledger") and
// the kernel table (bench_out/precision_simd_blocked-layout.csv, "Blocked
// layout ledger"); the ledgers are written when run from the repo root.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.h"
#include "nn/mat.h"
#include "nn/packed.h"
#include "te/objective.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace teal;

namespace {

// Scientific notation for the error columns: the f32-vs-f64 deltas are
// ~1e-6, invisible in fixed-point.
std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2e", v);
  return buf;
}

std::string kernel_shape() {
  using Fx = bench::LinearKernelFixture<double>;
  return std::to_string(Fx::kRows) + "x" + std::to_string(Fx::kIn) + " -> " +
         std::to_string(Fx::kOut);
}

struct KernelResult {
  double f64_ms = 0.0;           // f64 packed panels, the reference solve's kernel
  double f32_ms = 0.0;           // unblocked row-major f32
  double blocked_f32_ms = 0.0;   // lane-panel broadcast-FMA kernel
  double narrow_speedup = 0.0;   // f64 / f32
};

// Times all three kernel fixtures with interleaved round-robin sampling (see
// header comment) at a pinned sample count.
KernelResult time_kernels(int samples) {
  bench::PackedKernelFixture<double> f64;
  bench::LinearKernelFixture<float> f32;
  bench::PackedKernelFixture<float> bl32;
  for (int i = 0; i < 3; ++i) {  // explicit warm-up sweeps, untimed
    f64.run();
    f32.run();
    bl32.run();
  }
  std::vector<double> ms64, ms32, msb32;
  auto sample = [](auto& fx, std::vector<double>& out) {
    util::Timer t;
    fx.run();
    out.push_back(t.seconds() * 1e3);
  };
  for (int i = 0; i < samples; ++i) {
    sample(f64, ms64);
    sample(f32, ms32);
    sample(bl32, msb32);
  }
  KernelResult k;
  k.f64_ms = util::median(ms64);
  k.f32_ms = util::median(ms32);
  k.blocked_f32_ms = util::median(msb32);
  k.narrow_speedup = k.f32_ms > 0.0 ? k.f64_ms / k.f32_ms : 0.0;
  return k;
}

// The kernel sweep as one table: each fixture's median and its ratio to the
// f64 solve kernel and to the unblocked f32 kernel.
util::Table kernel_table(const KernelResult& kern) {
  util::Table table({"kernel", "median (ms)", "vs f64 (x)", "vs unblocked f32 (x)"});
  auto add = [&](const char* name, double ms) {
    table.add_row({name, util::fmt(ms, 3), util::fmt(kern.f64_ms / ms, 2),
                   util::fmt(kern.f32_ms / ms, 2)});
  };
  add("f64 blocked panels (reference solve)", kern.f64_ms);
  add("f32 row-major (unblocked)", kern.f32_ms);
  add("f32 blocked panels", kern.blocked_f32_ms);
  return table;
}

}  // namespace

int main() {
  bench::print_header("Precision/SIMD",
                      "narrowed forwards (f32, blocked f32) vs f64 reference: "
                      "kernel speedups and allocation error");
  const int repeats = bench::fast_mode() ? 9 : 31;

  const KernelResult kern = time_kernels(repeats);
  const std::string simd = std::string("SIMD ") + (nn::simd_enabled() ? "ON" : "OFF");

  // End-to-end: untrained Teal (deterministic weights; precision error is a
  // property of the arithmetic, not the training state) at both precisions.
  const std::vector<std::string> topos =
      bench::fast_mode() ? std::vector<std::string>{"B4", "SWAN"}
                         : std::vector<std::string>{"B4", "SWAN", "UsCarrier", "Kdl", "ASN"};
  util::Table table({"topology", "solve f64 p50 (ms)", "solve f32 p50 (ms)",
                     "f32 speedup (x)", "max split err", "objective rel err"});
  for (const auto& name : topos) {
    auto inst = bench::make_instance(name);
    core::TealScheme scheme(inst->pb,
                            std::make_unique<core::TealModel>(core::TealModelConfig{},
                                                              inst->pb.k_paths()),
                            core::TealSchemeConfig{});
    const te::TrafficMatrix& tm = inst->split.test.at(0);
    te::Allocation a64, a32;

    auto time_precision = [&](te::Precision p, te::Allocation& out) {
      scheme.set_precision(p);
      scheme.solve_into(inst->pb, tm, out);  // warm-up
      std::vector<double> ms;
      ms.reserve(static_cast<std::size_t>(repeats));
      for (int i = 0; i < repeats; ++i) {
        scheme.solve_into(inst->pb, tm, out);
        ms.push_back(scheme.last_solve_seconds() * 1e3);
      }
      return util::median(ms);
    };

    const double f64_ms = time_precision(te::Precision::f64, a64);
    const double f32_ms = time_precision(te::Precision::f32, a32);
    double split_err = 0.0;
    for (std::size_t i = 0; i < a64.split.size(); ++i) {
      split_err = std::max(split_err, std::abs(a64.split[i] - a32.split[i]));
    }
    const double obj64 = te::total_feasible_flow(inst->pb, tm, a64);
    const double obj_err =
        obj64 > 0.0 ? std::abs(obj64 - te::total_feasible_flow(inst->pb, tm, a32)) / obj64
                    : 0.0;
    table.add_row({name, util::fmt(f64_ms, 4), util::fmt(f32_ms, 4),
                   util::fmt(f32_ms > 0.0 ? f64_ms / f32_ms : 0.0, 3), sci(split_err),
                   sci(obj_err)});
  }
  bench::record(table, "precision_simd",
                simd + "; batched linear forward " + kernel_shape() +
                    " (interleaved medians): f64 panels " + util::fmt(kern.f64_ms, 3) + " ms, f32 " +
                    util::fmt(kern.f32_ms, 3) + " ms, narrowing speedup " +
                    util::fmt(kern.narrow_speedup, 2) + "x");
  bench::record(kernel_table(kern), "precision_simd",
                simd + "; kernel " + kernel_shape() + ", interleaved round-robin medians",
                "blocked-layout");

  // CI smoke (TEAL_BENCH_ASSERT_BLOCKED=1): the blocked f32 kernel must not
  // be slower than the unblocked one — the layout exists purely for speed,
  // so a regression here means the panel kernel stopped paying for itself.
  // 5% tolerance absorbs timer noise on a loaded CI runner.
  const char* assert_env = std::getenv("TEAL_BENCH_ASSERT_BLOCKED");
  if (assert_env != nullptr && assert_env[0] == '1') {
    if (kern.blocked_f32_ms > kern.f32_ms * 1.05) {
      std::fprintf(stderr,
                   "FAIL: blocked f32 kernel (%.3f ms) slower than unblocked f32 "
                   "(%.3f ms)\n",
                   kern.blocked_f32_ms, kern.f32_ms);
      return 1;
    }
    std::printf("  TEAL_BENCH_ASSERT_BLOCKED: blocked f32 (%.3f ms) <= unblocked f32 "
                "(%.3f ms) — OK\n",
                kern.blocked_f32_ms, kern.f32_ms);
  }
  return 0;
}
