// precision_simd — precision/layout backend sweep: kernel-level speedup of
// the batched linear forward (f64 scalar reference vs the unblocked f32
// path vs the blocked-panel f32/bf16 kernels the solve path runs),
// end-to-end warm-solve latency at every precision, and the narrowed-vs-f64
// flow-allocation error per topology.
//
// Not a paper figure: this bench quantifies the repo's own precision knob
// (core::TealScheme::set_precision), the CPU analogue of the paper's fp32 GPU
// inference. The f64 path is the bit-stable reference under every build
// flag; the narrowed kernels vectorize under TEAL_SIMD, so the f64/f32
// kernel ratio reported here is the honest speedup of narrowing + SIMD on
// this machine (acceptance target >= 1.5x with TEAL_SIMD=ON on a
// >= 4-lane-vector unit; a scalar build records its own number), and the
// f32/blocked-f32 ratio is the layout speedup (CI-asserted >= 1x via
// TEAL_BENCH_ASSERT_BLOCKED=1).
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
// Output: a table on stdout, bench_out/precision_simd.csv, and — when run
// from the repo root — inserted entries in the EXPERIMENTS.md
// "Precision/SIMD ledger" and "Blocked layout ledger".
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

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

// Scientific notation for the error columns: the narrowed-vs-f64 deltas are
// ~1e-6 (f32) / ~1e-3 (bf16), invisible in fixed-point.
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
  double f64_ms = 0.0;
  double f32_ms = 0.0;           // unblocked row-major f32
  double blocked_f32_ms = 0.0;   // lane-panel broadcast-FMA kernel
  double blocked_bf16_ms = 0.0;  // same kernel, bf16-storage weights
  double narrow_speedup = 0.0;   // f64 / f32 (narrowing + SIMD)
  double layout_speedup = 0.0;   // f32 / blocked f32 (layout alone)
};

// Times all four kernel fixtures with interleaved round-robin sampling (see
// header comment) at a pinned sample count.
KernelResult time_kernels(int samples) {
  bench::LinearKernelFixture<double> f64;
  bench::LinearKernelFixture<float> f32;
  bench::PackedKernelFixture<float> bl32;
  bench::PackedKernelFixture<nn::bf16> bl16;
  for (int i = 0; i < 3; ++i) {  // explicit warm-up sweeps, untimed
    f64.run();
    f32.run();
    bl32.run();
    bl16.run();
  }
  std::vector<double> ms64, ms32, msb32, msb16;
  auto sample = [](auto& fx, std::vector<double>& out) {
    util::Timer t;
    fx.run();
    out.push_back(t.seconds() * 1e3);
  };
  for (int i = 0; i < samples; ++i) {
    sample(f64, ms64);
    sample(f32, ms32);
    sample(bl32, msb32);
    sample(bl16, msb16);
  }
  KernelResult k;
  k.f64_ms = median(ms64);
  k.f32_ms = median(ms32);
  k.blocked_f32_ms = median(msb32);
  k.blocked_bf16_ms = median(msb16);
  k.narrow_speedup = k.f32_ms > 0.0 ? k.f64_ms / k.f32_ms : 0.0;
  k.layout_speedup = k.blocked_f32_ms > 0.0 ? k.f32_ms / k.blocked_f32_ms : 0.0;
  return k;
}

struct TopoRow {
  std::string name;
  double f64_ms = 0.0;
  double f32_ms = 0.0;
  double bf16_ms = 0.0;
  double speedup = 0.0;             // f64 / f32
  double max_split_err = 0.0;       // max |split_f64 - split_f32| over all paths
  double obj_rel_err = 0.0;         // |obj_f64 - obj_f32| / obj_f64
  double bf16_max_split_err = 0.0;  // same deltas for the bf16 solve
  double bf16_obj_rel_err = 0.0;
};

void append_experiments_ledger(const KernelResult& kern, const std::vector<TopoRow>& rows) {
  std::string entry;
  entry += "\n\n### Run " + bench::ledger_stamp();
  entry += std::string(" — SIMD ") + (nn::simd_enabled() ? "ON" : "OFF") +
           (bench::fast_mode() ? " (fast mode)" : "") + "\n\n";
  entry += "Batched linear forward (" + kernel_shape() + ", interleaved median): f64 " +
           util::fmt(kern.f64_ms, 3) + " ms, f32 " + util::fmt(kern.f32_ms, 3) +
           " ms, speedup " + util::fmt(kern.narrow_speedup, 2) + "x\n\n";
  entry += "| topology | solve f64 p50 (ms) | solve f32 p50 (ms) | speedup | max split err | objective rel err | bf16 p50 (ms) | bf16 max split err | bf16 obj rel err |\n";
  entry += "|---|---|---|---|---|---|---|---|---|\n";
  for (const auto& r : rows) {
    entry += "| " + r.name + " | " + util::fmt(r.f64_ms, 3) + " | " + util::fmt(r.f32_ms, 3) +
             " | " + util::fmt(r.speedup, 2) + "x | " + sci(r.max_split_err) + " | " +
             sci(r.obj_rel_err) + " | " + util::fmt(r.bf16_ms, 3) + " | " +
             sci(r.bf16_max_split_err) + " | " + sci(r.bf16_obj_rel_err) + " |\n";
  }
  bench::insert_ledger_entry("<!-- bench_precision_simd inserts runs below this line -->",
                             entry);
}

void append_blocked_ledger(const KernelResult& kern) {
  std::string entry;
  entry += "\n\n### Run " + bench::ledger_stamp();
  entry += std::string(" — SIMD ") + (nn::simd_enabled() ? "ON" : "OFF") +
           (bench::fast_mode() ? " (fast mode)" : "") + "\n\n";
  entry += "Kernel " + kernel_shape() + ", interleaved round-robin medians:\n\n";
  entry += "| kernel | median (ms) | vs f64 | vs unblocked f32 |\n";
  entry += "|---|---|---|---|\n";
  auto ratio = [](double base, double v) {
    return v > 0.0 ? util::fmt(base / v, 2) + "x" : std::string("-");
  };
  entry += "| f64 row-major (reference) | " + util::fmt(kern.f64_ms, 3) + " | 1.00x | - |\n";
  entry += "| f32 row-major (unblocked) | " + util::fmt(kern.f32_ms, 3) + " | " +
           ratio(kern.f64_ms, kern.f32_ms) + " | 1.00x |\n";
  entry += "| f32 blocked panels | " + util::fmt(kern.blocked_f32_ms, 3) + " | " +
           ratio(kern.f64_ms, kern.blocked_f32_ms) + " | " +
           ratio(kern.f32_ms, kern.blocked_f32_ms) + " |\n";
  entry += "| bf16-storage blocked panels | " + util::fmt(kern.blocked_bf16_ms, 3) + " | " +
           ratio(kern.f64_ms, kern.blocked_bf16_ms) + " | " +
           ratio(kern.f32_ms, kern.blocked_bf16_ms) + " |\n";
  bench::insert_ledger_entry(
      "<!-- bench_precision_simd inserts blocked-layout runs below this line -->", entry);
}

}  // namespace

int main() {
  bench::print_header("Precision/SIMD",
                      "narrowed forwards (f32, blocked f32, bf16 storage) vs f64 "
                      "reference: kernel speedups and allocation error");
  const int repeats = bench::fast_mode() ? 9 : 31;

  const KernelResult kern = time_kernels(repeats);
  std::printf("  batched linear forward (%s), SIMD %s, interleaved medians:\n"
              "    f64 %.3f ms   f32 %.3f ms   blocked f32 %.3f ms   blocked bf16 %.3f ms\n"
              "    narrowing speedup (f64/f32) %.2fx (target >= 1.5x with TEAL_SIMD=ON\n"
              "    on a >= 4-lane-vector machine)   layout speedup (f32/blocked) %.2fx\n",
              kernel_shape().c_str(), nn::simd_enabled() ? "ON" : "OFF", kern.f64_ms,
              kern.f32_ms, kern.blocked_f32_ms, kern.blocked_bf16_ms, kern.narrow_speedup,
              kern.layout_speedup);

  // End-to-end: untrained Teal (deterministic weights; precision error is a
  // property of the arithmetic, not the training state) at every precision.
  const std::vector<std::string> topos =
      bench::fast_mode() ? std::vector<std::string>{"B4", "SWAN"}
                         : std::vector<std::string>{"B4", "SWAN", "UsCarrier", "Kdl", "ASN"};
  util::Table table({"topology", "f64 p50 ms", "f32 p50 ms", "speedup", "max split err",
                     "obj rel err", "bf16 p50 ms", "bf16 split err", "bf16 obj err"});
  util::Table csv({"topology", "f64_p50_ms", "f32_p50_ms", "speedup", "max_split_err",
                   "obj_rel_err", "bf16_p50_ms", "bf16_max_split_err", "bf16_obj_rel_err",
                   "simd"});
  std::vector<TopoRow> rows;
  for (const auto& name : topos) {
    auto inst = bench::make_instance(name);
    core::TealScheme scheme(inst->pb,
                            std::make_unique<core::TealModel>(core::TealModelConfig{},
                                                              inst->pb.k_paths()),
                            core::TealSchemeConfig{});
    const te::TrafficMatrix& tm = inst->split.test.at(0);
    te::Allocation a64, a32, a16;

    auto time_precision = [&](te::Precision p, te::Allocation& out) {
      scheme.set_precision(p);
      scheme.solve_into(inst->pb, tm, out);  // warm-up
      std::vector<double> ms;
      ms.reserve(static_cast<std::size_t>(repeats));
      for (int i = 0; i < repeats; ++i) {
        scheme.solve_into(inst->pb, tm, out);
        ms.push_back(scheme.last_solve_seconds() * 1e3);
      }
      return median(ms);
    };

    TopoRow row;
    row.name = name;
    row.f64_ms = time_precision(te::Precision::f64, a64);
    row.f32_ms = time_precision(te::Precision::f32, a32);
    row.bf16_ms = time_precision(te::Precision::bf16, a16);
    row.speedup = row.f32_ms > 0.0 ? row.f64_ms / row.f32_ms : 0.0;
    for (std::size_t i = 0; i < a64.split.size(); ++i) {
      row.max_split_err = std::max(row.max_split_err, std::abs(a64.split[i] - a32.split[i]));
      row.bf16_max_split_err =
          std::max(row.bf16_max_split_err, std::abs(a64.split[i] - a16.split[i]));
    }
    const double obj64 = te::total_feasible_flow(inst->pb, tm, a64);
    const double obj32 = te::total_feasible_flow(inst->pb, tm, a32);
    const double obj16 = te::total_feasible_flow(inst->pb, tm, a16);
    row.obj_rel_err = obj64 > 0.0 ? std::abs(obj64 - obj32) / obj64 : 0.0;
    row.bf16_obj_rel_err = obj64 > 0.0 ? std::abs(obj64 - obj16) / obj64 : 0.0;
    rows.push_back(row);
    table.add_row({row.name, util::fmt(row.f64_ms, 3), util::fmt(row.f32_ms, 3),
                   util::fmt(row.speedup, 2), sci(row.max_split_err), sci(row.obj_rel_err),
                   util::fmt(row.bf16_ms, 3), sci(row.bf16_max_split_err),
                   sci(row.bf16_obj_rel_err)});
    csv.add_row({row.name, util::fmt(row.f64_ms, 4), util::fmt(row.f32_ms, 4),
                 util::fmt(row.speedup, 3), sci(row.max_split_err), sci(row.obj_rel_err),
                 util::fmt(row.bf16_ms, 4), sci(row.bf16_max_split_err),
                 sci(row.bf16_obj_rel_err), nn::simd_enabled() ? "1" : "0"});
  }
  std::printf("%s", table.to_string().c_str());

  csv.write_csv(bench::out_dir() + "/precision_simd.csv");
  append_experiments_ledger(kern, rows);
  append_blocked_ledger(kern);

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
