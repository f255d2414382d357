// common.h — shared setup for the per-figure bench binaries.
//
// Every bench regenerates one table/figure of the paper. They share:
//  * scaled-down problem instances per topology (DESIGN.md substitution #5:
//    demand-set caps and shorter traces keep the full sweep runnable on one
//    machine; every code path is identical to full scale),
//  * capacity calibration so the optimum satisfies ~90% of demand (§5.1),
//  * Teal model training with on-disk caching (models/<topo>_<objective>.bin)
//    so later figures reuse the models the fig06 bench trains,
//  * the paper-anchored time scaling for the online setting: measured solve
//    times are mapped so that the anchor scheme's median equals the paper's
//    reported time on that topology, placing the LP baselines in the same
//    budget regime as the paper's testbed (documented in the repo-root
//    EXPERIMENTS.md ledger, which also records raw vs. paper-anchored
//    numbers per figure; scripts/check_docs.sh keeps it consistent).
#pragma once

#include <concepts>
#include <memory>
#include <string>
#include <vector>

#include "baselines/lp_schemes.h"
#include "baselines/ncflow.h"
#include "baselines/pop.h"
#include "baselines/teavar.h"
#include "core/teal_scheme.h"
#include "nn/mat.h"
#include "nn/packed.h"
#include "sim/online.h"
#include "te/scheme.h"
#include "topo/topology.h"
#include "traffic/traffic.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/stats.h"

namespace teal::bench {

struct TopoScale {
  int n_demands;          // demand-set cap (gravity-weighted sample)
  int n_intervals;        // trace length (split 70/10/20)
  double target_sp_sat;   // capacity calibration: shortest-path satisfied %
};

// Default scaled-down sizes per topology (override with env TEAL_BENCH_FAST=1
// for a quick smoke run).
TopoScale default_scale(const std::string& topo);

struct Instance {
  std::string name;
  te::Problem pb;
  traffic::TraceSplit split;
  TopoScale scale;

  Instance(std::string n, te::Problem p, traffic::TraceSplit s, TopoScale sc)
      : name(std::move(n)), pb(std::move(p)), split(std::move(s)), scale(sc) {}
};

// Builds topology + demands + calibrated trace. Deterministic per (topo, seed).
std::unique_ptr<Instance> make_instance(const std::string& topo, std::uint64_t seed = 1);

// Returns a trained Teal scheme for the instance, using the on-disk model
// cache under models/. Training parameters are scaled to the bench budget.
std::unique_ptr<core::TealScheme> make_teal(Instance& inst,
                                            te::Objective obj = te::Objective::kTotalFlow,
                                            bool use_admm = true);

// Baseline factory by name: "LP-all", "LP-top", "NCFlow", "POP", "TEAVAR*".
std::unique_ptr<te::Scheme> make_baseline(const std::string& name, Instance& inst,
                                          te::Objective obj = te::Objective::kTotalFlow);

// Runs `scheme` offline over a trace through the *sequential* batched loop
// (te::solve_batch_sequential), after an untimed warmup for warm-state
// schemes: per-matrix satisfied demand, standalone per-solve seconds
// directly comparable across schemes and to the paper's computation-time
// axis, and the allocations themselves. Benches that want Teal's parallel
// amortization instead (and median-anchor the times, see te/scheme.h) call
// solve_batch() directly, as fig18 does.
struct OfflineSeries {
  std::vector<double> satisfied_pct;
  std::vector<double> solve_seconds;
  std::vector<te::Allocation> allocs;
  double mean_satisfied() const;
  double mean_seconds() const;
};
OfflineSeries run_offline(te::Scheme& scheme, const Instance& inst,
                          const traffic::Trace& trace);

// The paper's reported computation time of `scheme` on `topo` (Figure 6a,
// Figure 7a, §5.2/§5.3 text; LP-all on ASN is its quoted 5.5 h). Returns 0
// when the paper gives no number for the pair.
//
// Why this exists: our instances are scaled down (DESIGN.md #5), and the
// schemes' times shrink by *different* factors (LP-top's subproblem shrinks
// with the demand cap, Teal's forward with the path count), so no single
// time_scale maps our measurements onto the paper's time axis. The online
// staleness simulation therefore uses the paper's full-scale times per
// scheme, while our raw measured times are reported alongside.
double paper_seconds(const std::string& scheme, const std::string& topo);

// time_scale for sim::OnlineConfig: maps this scheme's measured median onto
// the paper's full-scale time (identity when the paper gives no number).
// Median anchoring also neutralizes the uniform per-solve inflation a
// parallel solve_batch introduces (see the BatchSolve note in te/scheme.h):
// scaled replay times depend only on each solve's time *relative to the
// median*, not on the absolute measurement regime.
double scheme_time_scale(const std::string& scheme, const std::string& topo,
                         double measured_median);

// Shared fixture for the Precision/SIMD ledger's batched linear-forward
// kernel: n rows through a (24 -> 24) dense layer at the pipeline's own
// shape class. bench_micro_kernels and bench_precision_simd both report this
// kernel's ratios, so the shape, seed and fill are defined once here —
// retuning it in one binary cannot silently diverge from the other. run()
// times the unblocked row-major kernel, which only f32 has.
template <typename T>
struct LinearKernelFixture {
  static constexpr int kRows = 20000, kIn = 24, kOut = 24;
  nn::BasicMat<T> x{kRows, kIn}, w{kOut, kIn}, y{kRows, kOut};
  std::vector<T> b = std::vector<T>(kOut);

  LinearKernelFixture() {
    util::Rng rng(3);
    for (auto& v : x.data()) v = static_cast<T>(rng.normal());
    for (auto& v : w.data()) v = static_cast<T>(rng.normal());
    for (auto& v : b) v = static_cast<T>(rng.normal());
  }
  void run()
    requires std::same_as<T, float>
  {
    nn::linear_forward_rows(x, w, b, y, 0, kRows);
  }
};

// Blocked-layout variant of the same kernel: identical shape, seed and fill
// (it packs LinearKernelFixture<T>'s weights), so the blocked-vs-unblocked
// ratio is apples-to-apples. PackedKernelFixture<double> is the kernel every
// f64 solve-path Linear forward runs.
template <typename T>
struct PackedKernelFixture {
  LinearKernelFixture<T> base;
  nn::BasicPackedMat<T> wp;

  PackedKernelFixture() { nn::pack_weights(base.w, wp); }
  void run() { nn::linear_forward_rows_blocked(base.x, wp, base.b, base.y, 0, base.kRows); }
};

// Where bench CSV outputs go (created on demand).
std::string out_dir();

// Model cache path for (topology, objective).
std::string model_cache_path(const std::string& topo, te::Objective obj);

// True when TEAL_BENCH_FAST=1: tiny sizes for smoke-testing the harness.
bool fast_mode();

// The one writer for a bench result: each result is one util::Table whose
// cells are formatted once. report() prints it (a table over 100 rows prints
// its first 20 and points at the CSV) and writes bench_out/<stem>.csv.
void report(const util::Table& table, const std::string& stem);

// report() for a ledger bench (`name` = the bench name without its bench_
// prefix): also inserts "### Run <stamp> — <context>[ (fast mode)]" and the
// table into EXPERIMENTS.md directly below the marker
// "<!-- bench_<name> inserts [<label> ]runs below this line -->", newest run
// first (a blind EOF append would land inside whichever ledger section
// happens to be last). The CSV is bench_out/<name>[_<label>].csv. Outside
// the repo root (no EXPERIMENTS.md in the cwd) the ledger entry is skipped
// with a notice; a missing marker or a failed rewrite exits the process
// nonzero, so a bench cannot silently lose its ledger.
void record(const util::Table& table, const std::string& name, const std::string& context,
            const std::string& label = "");

// Prints a section header so the combined bench log reads like the paper.
void print_header(const std::string& figure, const std::string& caption);

}  // namespace teal::bench
