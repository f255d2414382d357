// Precision suite for the f32/SIMD compute backend: tolerance comparison of
// f32 vs f64 solves on all five bundled topologies (flow-allocation error
// bound + objective delta), determinism and shard-invariance of the narrowed
// path, knob semantics, and bit-stability of the f64 reference kernels
// against strictly ordered scalar re-implementations (which is what pins the
// f64 path to the seed arithmetic under TEAL_SIMD=ON).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/teal_scheme.h"
#include "core/variants.h"
#include "nn/mat.h"
#include "nn/packed.h"
#include "sim/served.h"
#include "te/objective.h"
#include "topo/topology.h"
#include "traffic/traffic.h"
#include "util/alloc_hook.h"

namespace teal {
namespace {

// Error bounds for the f32 narrowed forward. The solve's split ratios come
// out of an f64 softmax over f32-rounded logits, then ADMM (all f64) pulls
// them toward feasibility, so per-path split perturbations stay within a few
// float ulps of the logit scale. The bounds are deliberately slack (10-100x
// the observed error, recorded in the EXPERIMENTS.md Precision/SIMD ledger)
// so the test pins the *contract*, not one compiler's rounding.
constexpr double kSplitAbsBound = 5e-3;
constexpr double kObjectiveRelBound = 2e-3;

struct SmallInstance {
  std::string name;
  te::Problem pb;
  te::TrafficMatrix tm;
};

SmallInstance make_small(const std::string& topo, int n_demands) {
  auto g = topo::make_topology(topo);
  auto demands = traffic::sample_demands(g, n_demands, 7);
  te::Problem pb(std::move(g), std::move(demands), 4);
  traffic::TraceConfig tc;
  tc.n_intervals = 1;
  auto trace = traffic::generate_trace(pb, tc);
  traffic::calibrate_capacities(pb, trace, 1.6);
  return {topo, std::move(pb), trace.at(0)};
}

core::TealScheme make_untrained(const te::Problem& pb, std::uint64_t seed = 42) {
  return core::TealScheme(
      pb, std::make_unique<core::TealModel>(core::TealModelConfig{}, pb.k_paths(), seed),
      core::TealSchemeConfig{});
}

bool bytes_equal(const te::Allocation& a, const te::Allocation& b) {
  return a.split.size() == b.split.size() &&
         (a.split.empty() ||
          std::memcmp(a.split.data(), b.split.data(),
                      a.split.size() * sizeof(double)) == 0);
}

TEST(Precision, F32WithinBoundsOnAllTopologies) {
  // The five bundled WANs (Table 1), scaled to small demand sets so the
  // whole suite stays fast; every code path matches full scale.
  const std::vector<std::pair<std::string, int>> topos = {
      {"B4", 40}, {"SWAN", 80}, {"UsCarrier", 80}, {"Kdl", 50}, {"ASN", 50}};
  for (const auto& [name, nd] : topos) {
    SCOPED_TRACE(name);
    auto inst = make_small(name, nd);
    auto scheme = make_untrained(inst.pb);

    te::Allocation a64 = scheme.solve(inst.pb, inst.tm);
    scheme.set_precision(te::Precision::f32);
    ASSERT_EQ(scheme.precision(), te::Precision::f32);
    te::Allocation a32 = scheme.solve(inst.pb, inst.tm);

    ASSERT_EQ(a32.split.size(), a64.split.size());
    double max_abs = 0.0;
    for (std::size_t i = 0; i < a64.split.size(); ++i) {
      max_abs = std::max(max_abs, std::abs(a64.split[i] - a32.split[i]));
    }
    EXPECT_LE(max_abs, kSplitAbsBound) << "max split error " << max_abs;

    const double f64_obj = te::total_feasible_flow(inst.pb, inst.tm, a64);
    const double f32_obj = te::total_feasible_flow(inst.pb, inst.tm, a32);
    ASSERT_GT(f64_obj, 0.0);
    EXPECT_LE(std::abs(f64_obj - f32_obj) / f64_obj, kObjectiveRelBound)
        << "f64 " << f64_obj << " vs f32 " << f32_obj;

    // Switching back restores the reference path bit-for-bit: the f32 run
    // must not have perturbed any f64 state.
    scheme.set_precision(te::Precision::f64);
    te::Allocation again = scheme.solve(inst.pb, inst.tm);
    EXPECT_TRUE(bytes_equal(a64, again));
  }
}

TEST(Precision, F32SolveDeterministicAndShardInvariant) {
  auto inst = make_small("SWAN", 80);
  auto scheme = make_untrained(inst.pb);
  scheme.set_precision(te::Precision::f32);

  scheme.set_shard_count(1);
  te::Allocation seq = scheme.solve(inst.pb, inst.tm);
  te::Allocation seq2 = scheme.solve(inst.pb, inst.tm);
  EXPECT_TRUE(bytes_equal(seq, seq2)) << "f32 solve must be deterministic";

  // The sharding bit-identity contract extends to the narrowed path: shards
  // write disjoint rows and reductions stay sequential, in f32 exactly as in
  // f64.
  for (int shards : {2, 3, 5}) {
    SCOPED_TRACE(shards);
    scheme.set_shard_count(shards);
    te::Allocation sharded = scheme.solve(inst.pb, inst.tm);
    EXPECT_TRUE(bytes_equal(seq, sharded));
  }
}

TEST(Precision, F32ActuallyDiffersFromF64) {
  // Guard against the f32 path silently degrading to f64 (e.g. a future
  // refactor dropping the narrowed kernels): logits pass through float
  // rounding, so on a real topology at least one split must move.
  auto inst = make_small("SWAN", 80);
  auto scheme = make_untrained(inst.pb);
  te::Allocation a64 = scheme.solve(inst.pb, inst.tm);
  scheme.set_precision(te::Precision::f32);
  te::Allocation a32 = scheme.solve(inst.pb, inst.tm);
  EXPECT_FALSE(bytes_equal(a64, a32));
}

TEST(Precision, KnobSemantics) {
  auto inst = make_small("B4", 30);
  auto scheme = make_untrained(inst.pb);
  EXPECT_TRUE(scheme.supports_precision(te::Precision::f64));
  EXPECT_TRUE(scheme.supports_precision(te::Precision::f32));
  EXPECT_EQ(scheme.precision(), te::Precision::f64);

  EXPECT_STREQ(te::precision_name(te::Precision::f32), "f32");
  EXPECT_STREQ(te::precision_name(te::Precision::f64), "f64");
}

TEST(Precision, SchemeOverVariantModelReportsNoF32) {
  // Regression: a TealScheme wrapping a Figure 14 ablation model (no
  // narrowed forward) must not claim f32 support — otherwise an f32-vs-f64
  // comparison against it would silently measure f64 twice. Asked for a
  // precision its model cannot run, set_precision throws (as publish_model
  // does for the same mismatch) and precision() stays honest about what
  // solves actually run.
  auto inst = make_small("B4", 30);
  core::TealScheme scheme(
      inst.pb, std::make_unique<core::NaiveDnnModel>(core::NaiveDnnConfig{}, inst.pb),
      core::TealSchemeConfig{}, "Teal-DNN");
  EXPECT_FALSE(scheme.supports_precision(te::Precision::f32));
  EXPECT_THROW(scheme.set_precision(te::Precision::f32), std::invalid_argument);
  EXPECT_EQ(scheme.precision(), te::Precision::f64);
  EXPECT_NO_THROW(scheme.solve(inst.pb, inst.tm));
}

TEST(Precision, FleetTenantsServeAtTheirOwnSchemesPrecision) {
  // Precision is a per-scheme setting, so two tenants of one fleet replay
  // can run at different precisions: B4 at f32 beside SWAN at f64. Each
  // tenant's served allocations must be byte-equal to its own scheme's
  // direct solve at that precision (same path through a replica workspace)
  // and differ from a direct solve at the other tenant's precision.
  auto trace_of = [](const te::Problem& pb) {
    traffic::TraceConfig tc;
    tc.n_intervals = 4;
    return traffic::generate_trace(pb, tc);
  };
  auto b4 = make_small("B4", 30);
  auto swan = make_small("SWAN", 60);
  const traffic::Trace b4_trace = trace_of(b4.pb);
  const traffic::Trace swan_trace = trace_of(swan.pb);
  auto b4_scheme = make_untrained(b4.pb);
  auto swan_scheme = make_untrained(swan.pb);
  b4_scheme.set_precision(te::Precision::f32);

  sim::ServedFleetConfig cfg;
  cfg.total_replicas = 2;
  cfg.serve.queue_capacity = 8;
  const auto res = sim::run_served_fleet(
      {{.name = "B4", .pb = &b4.pb, .trace = &b4_trace, .scheme = &b4_scheme},
       {.name = "SWAN", .pb = &swan.pb, .trace = &swan_trace, .scheme = &swan_scheme}},
      cfg);
  ASSERT_EQ(res.tenants.size(), 2u);

  auto expect_served_at = [&](te::Precision served, te::Precision other, std::size_t i,
                              core::TealScheme& scheme, const te::Problem& pb,
                              const traffic::Trace& trace) {
    SCOPED_TRACE(res.stats.tenants[i].name);
    ASSERT_EQ(scheme.precision(), served) << "the replay changed the scheme's setting";
    EXPECT_EQ(res.stats.tenants[i].serve.completed, res.stats.tenants[i].serve.accepted);
    bool differs_from_other = false;
    for (int t = 0; t < trace.size(); ++t) {
      const auto k = static_cast<std::size_t>(t);
      ASSERT_TRUE(res.tenants[i].accepted[k]);  // queue holds the trace: no shed
      EXPECT_TRUE(bytes_equal(scheme.solve(pb, trace.at(t)), res.tenants[i].allocs[k]));
      scheme.set_precision(other);
      differs_from_other |=
          !bytes_equal(scheme.solve(pb, trace.at(t)), res.tenants[i].allocs[k]);
      scheme.set_precision(served);
    }
    EXPECT_TRUE(differs_from_other) << "tenant served " << te::precision_name(other)
                                    << ", not " << te::precision_name(served);
  };
  expect_served_at(te::Precision::f32, te::Precision::f64, 0, b4_scheme, b4.pb, b4_trace);
  expect_served_at(te::Precision::f64, te::Precision::f32, 1, swan_scheme, swan.pb, swan_trace);
}

TEST(Precision, WarmNarrowedSolvesAllocateNothing) {
  // The blocked kernels and the packed panels live inside the workspace
  // allocation contract: once warm, f32 solves must not touch the heap at
  // all (panels are model-side snapshots built at set_precision time,
  // outside any solve).
  auto inst = make_small("B4", 30);
  auto scheme = make_untrained(inst.pb);
  te::Allocation out;
  scheme.set_precision(te::Precision::f32);
  scheme.solve_into(inst.pb, inst.tm, out);
  scheme.solve_into(inst.pb, inst.tm, out);  // second pass: steady state
  util::AllocCounter allocs;
  scheme.solve_into(inst.pb, inst.tm, out);
  EXPECT_EQ(allocs.count(), 0u) << "warm narrowed solve_into must not touch the heap";
}

TEST(Precision, FreshReplicaNarrowedSolveMatchesAndWarmsAllocationFree) {
  // Replica spin-up with the narrowed forward: a fresh workspace's cold f32
  // solve_replica is byte-equal to a reference solve, and the next warm one
  // allocates nothing. set_precision runs before both: weight packing is a
  // model-side, once-per-process cost, not a replica cost.
  auto inst = make_small("B4", 30);
  auto scheme = make_untrained(inst.pb);
  scheme.set_precision(te::Precision::f32);
  te::Allocation ref, out;
  {
    core::SolveWorkspace ref_ws;
    scheme.solve_replica(ref_ws, inst.pb, inst.tm, ref);
  }
  core::SolveWorkspace ws;
  scheme.solve_replica(ws, inst.pb, inst.tm, out);
  EXPECT_TRUE(bytes_equal(ref, out)) << "a fresh workspace must reproduce the reference";
  util::AllocCounter allocs;
  scheme.solve_replica(ws, inst.pb, inst.tm, out);
  EXPECT_EQ(allocs.count(), 0u) << "warm narrowed solve_replica must not touch the heap";
}

TEST(Precision, ForwardF32RequiresPreparedWeights) {
  auto inst = make_small("B4", 30);
  core::TealModel model({}, inst.pb.k_paths(), 42);
  core::ModelForward fwd;
  const core::ShardPlan plan = core::ShardPlan::sequential(inst.pb.num_demands());
  EXPECT_THROW(
      model.forward_ws(inst.pb, inst.tm, nullptr, fwd, plan, nullptr, te::Precision::f32),
      std::logic_error);
  model.prepare(te::Precision::f32);
  EXPECT_NO_THROW(
      model.forward_ws(inst.pb, inst.tm, nullptr, fwd, plan, nullptr, te::Precision::f32));
}

TEST(Precision, F32LogitsTrackF64Logits) {
  auto inst = make_small("B4", 30);
  core::TealModel model({}, inst.pb.k_paths(), 42);
  model.prepare(te::Precision::f32);
  const core::ShardPlan plan = core::ShardPlan::sequential(inst.pb.num_demands());
  core::ModelForward f64fwd, f32fwd;
  model.forward_ws(inst.pb, inst.tm, nullptr, f64fwd, plan);
  model.forward_ws(inst.pb, inst.tm, nullptr, f32fwd, plan, nullptr, te::Precision::f32);
  ASSERT_EQ(f32fwd.logits.rows(), f64fwd.logits.rows());
  ASSERT_EQ(f32fwd.logits.cols(), f64fwd.logits.cols());
  for (std::size_t i = 0; i < f64fwd.logits.data().size(); ++i) {
    EXPECT_NEAR(f32fwd.logits.data()[i], f64fwd.logits.data()[i], 1e-3);
  }
  // The mask is precision-oblivious: identical bytes.
  ASSERT_EQ(f32fwd.mask.data().size(), f64fwd.mask.data().size());
  EXPECT_EQ(0, std::memcmp(f32fwd.mask.data().data(), f64fwd.mask.data().data(),
                           f64fwd.mask.data().size() * sizeof(double)));
}

TEST(Precision, BackwardRejectsF32Cache) {
  // An f32 inference cache holds float activations; back-propagating through
  // it would reinterpret garbage. The boundary throws instead.
  auto inst = make_small("B4", 30);
  core::TealModel model({}, inst.pb.k_paths(), 42);
  model.prepare(te::Precision::f32);
  core::ModelForward fwd;
  model.forward_ws(inst.pb, inst.tm, nullptr, fwd,
                   core::ShardPlan::sequential(inst.pb.num_demands()), nullptr,
                   te::Precision::f32);
  nn::Mat grad(fwd.logits.rows(), fwd.logits.cols(), 1.0);
  nn::GradAccum acc;
  acc.prepare(model.params());
  core::TrainBackward bws;
  EXPECT_THROW(model.backward_ws(inst.pb, fwd, grad, bws, acc.refs()), std::logic_error);
}

TEST(Precision, VariantRejectsNarrowedForward) {
  // A model asked for a precision it does not support throws instead of
  // silently running f64 — for prepare() and for the forward itself.
  auto inst = make_small("B4", 30);
  core::NaiveDnnModel model(core::NaiveDnnConfig{}, inst.pb);
  EXPECT_TRUE(model.supports(te::Precision::f64));
  core::ModelForward fwd;
  const core::ShardPlan plan = core::ShardPlan::sequential(inst.pb.num_demands());
  EXPECT_FALSE(model.supports(te::Precision::f32));
  EXPECT_THROW(model.prepare(te::Precision::f32), std::logic_error);
  EXPECT_THROW(
      model.forward_ws(inst.pb, inst.tm, nullptr, fwd, plan, nullptr, te::Precision::f32),
      std::logic_error);
  EXPECT_NO_THROW(model.forward_ws(inst.pb, inst.tm, nullptr, fwd, plan));
}

// ---- f64 kernel bit-stability (the TEAL_SIMD=ON identity guard) ----------

// Strictly ordered scalar references, written independently of mat.cpp. The
// f64 kernels must match them to the bit under every build flag — this is
// what "TEAL_SIMD only vectorizes f32 reductions" means operationally.
void ref_linear_forward(const nn::Mat& x, const nn::Mat& w, const std::vector<double>& b,
                        nn::Mat& y) {
  y.resize(x.rows(), w.rows());
  for (int r = 0; r < x.rows(); ++r) {
    for (int o = 0; o < w.rows(); ++o) {
      double acc = b[static_cast<std::size_t>(o)];
      for (int i = 0; i < x.cols(); ++i) acc += x.at(r, i) * w.at(o, i);
      y.at(r, o) = acc;
    }
  }
}

TEST(Precision, F64LinearForwardBitIdenticalToOrderedReference) {
  util::Rng rng(17);
  const int n = 600, in = 24, out = 24;  // above the pool-parallel threshold
  nn::Mat x(n, in), w(out, in);
  std::vector<double> b(out);
  for (auto& v : x.data()) v = rng.normal();
  for (auto& v : w.data()) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  nn::Mat y, ref;
  nn::linear_forward(x, w, b, y);
  ref_linear_forward(x, w, b, ref);
  ASSERT_EQ(y.data().size(), ref.data().size());
  EXPECT_EQ(0, std::memcmp(y.data().data(), ref.data().data(),
                           y.data().size() * sizeof(double)));
}

void fill_normal(util::Rng& rng, std::span<double> v) {
  for (double& e : v) e = rng.normal();
}

bool same_bytes(const nn::Mat& a, const nn::Mat& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(double)) == 0;
}

TEST(Precision, F64BlockedKernelBitIdenticalToOrderedReferenceAtEveryShape) {
  // The solve path's one f64 linear kernel (4-lane panels, dispatched to a
  // no-FMA clone) against the ordered scalar loop, byte for byte: widths
  // below, at and above one panel and one register block, 13 rows (not a
  // multiple of the 4-row block) computed in ranges that start and end
  // inside a block. The undispatched baseline body runs the same ranges, so
  // the "default" clone's body is covered on an AVX2 host too.
  util::Rng rng(37);
  const int n = 13;
  const std::vector<std::pair<int, int>> ranges = {{0, 3}, {3, 6}, {6, 11}, {11, 13}};
  for (int in : {1, 2, 3, 4, 5, 7, 8, 9, 24, 96}) {
    for (int out : {1, 2, 3, 4, 5, 7, 8, 9, 24, 96}) {
      SCOPED_TRACE("in=" + std::to_string(in) + " out=" + std::to_string(out));
      nn::Mat x(n, in), w(out, in);
      std::vector<double> b(static_cast<std::size_t>(out));
      fill_normal(rng, x.data());
      fill_normal(rng, w.data());
      fill_normal(rng, b);
      nn::Mat ref;
      ref_linear_forward(x, w, b, ref);
      nn::PackedMat p;
      nn::pack_weights(w, p);
      // Padding lanes (out..panels*4) pack to exact zero.
      constexpr int L = nn::PackedMat::kLanes;
      ASSERT_EQ(L, 4);
      for (int o = out; o < p.panels() * L; ++o) {
        for (int i = 0; i < in; ++i) {
          EXPECT_EQ(p.panel_ptr(o / L)[i * L + o % L], 0.0) << "padding lane " << o;
        }
      }
      nn::Mat y(n, out), base(n, out);
      for (auto [r0, r1] : ranges) {
        nn::linear_forward_rows_blocked(x, p, b, y, r0, r1);
        nn::linear_forward_rows_blocked_baseline(x, p, b, base, r0, r1);
      }
      EXPECT_TRUE(same_bytes(y, ref)) << "dispatched kernel";
      EXPECT_TRUE(same_bytes(base, ref)) << "baseline body";
    }
  }
}

TEST(Precision, F64BlockedKernelRoundsMultiplyAndAddSeparately) {
  // x = 1 + 2^-30 and w = 1 - 2^-30 multiply to 1 - 2^-60, which rounds to
  // 1, so with bias -1 each output is 0 exactly. A fused multiply-add skips
  // that rounding and gives -2^-60: any FMA-capable body fails here.
  const double x_val = 1.0 + std::ldexp(1.0, -30);
  const double w_val = 1.0 - std::ldexp(1.0, -30);
  for (int out : {1, 4, 5, 24}) {
    SCOPED_TRACE("out=" + std::to_string(out));
    const int n = 6;
    nn::Mat x(n, 1, x_val), w(out, 1, w_val);
    const std::vector<double> b(static_cast<std::size_t>(out), -1.0);
    nn::PackedMat p;
    nn::pack_weights(w, p);
    nn::Mat y(n, out), base(n, out), full;
    nn::linear_forward_rows_blocked(x, p, b, y, 0, n);
    nn::linear_forward_rows_blocked_baseline(x, p, b, base, 0, n);
    nn::linear_forward(x, w, b, full);
    for (const nn::Mat* m : {&y, &base, &full}) {
      for (double v : m->data()) {
        EXPECT_EQ(v, 0.0) << (v == -std::ldexp(1.0, -60) ? "fused multiply-add" : "");
        EXPECT_FALSE(std::signbit(v));
      }
    }
  }
}

TEST(Precision, F64LeakyReluBitIdenticalToOrderedReference) {
  util::Rng rng(19);
  nn::Mat x(64, 48);
  for (auto& v : x.data()) v = rng.normal();
  nn::Mat y;
  nn::leaky_relu_forward(x, y, 0.01);
  for (std::size_t i = 0; i < x.data().size(); ++i) {
    const double expect = x.data()[i] >= 0.0 ? x.data()[i] : 0.01 * x.data()[i];
    EXPECT_EQ(y.data()[i], expect);
  }
}

TEST(Precision, F64SoftmaxBitIdenticalToOrderedReference) {
  util::Rng rng(23);
  const int n = 40, k = 4;
  nn::Mat logits(n, k), mask(n, k, 1.0);
  for (auto& v : logits.data()) v = rng.normal();
  mask.at(3, 1) = 0.0;
  nn::Mat probs;
  nn::softmax_rows(logits, mask, probs);
  for (int r = 0; r < n; ++r) {
    double mx = std::numeric_limits<double>::lowest();
    for (int c = 0; c < k; ++c) {
      if (mask.at(r, c) != 0.0) mx = std::max(mx, logits.at(r, c));
    }
    double denom = 0.0;
    std::vector<double> e(static_cast<std::size_t>(k), 0.0);
    for (int c = 0; c < k; ++c) {
      if (mask.at(r, c) != 0.0) {
        e[static_cast<std::size_t>(c)] = std::exp(logits.at(r, c) - mx);
        denom += e[static_cast<std::size_t>(c)];
      }
    }
    for (int c = 0; c < k; ++c) {
      EXPECT_EQ(probs.at(r, c), denom > 0.0 ? e[static_cast<std::size_t>(c)] / denom : 0.0);
    }
  }
}

// ---- f32 kernels ---------------------------------------------------------

TEST(Precision, F32LinearForwardMatchesF64WithinTolerance) {
  util::Rng rng(29);
  const int n = 600, in = 24, out = 24;
  nn::Mat x(n, in), w(out, in);
  std::vector<double> b(out);
  for (auto& v : x.data()) v = rng.normal();
  for (auto& v : w.data()) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  nn::MatF xf(n, in), wf(out, in);
  std::vector<float> bf(b.size());
  for (std::size_t i = 0; i < x.data().size(); ++i) xf.data()[i] = static_cast<float>(x.data()[i]);
  for (std::size_t i = 0; i < w.data().size(); ++i) wf.data()[i] = static_cast<float>(w.data()[i]);
  for (std::size_t i = 0; i < b.size(); ++i) bf[i] = static_cast<float>(b[i]);
  nn::Mat y;
  nn::MatF yf;
  nn::linear_forward(x, w, b, y);
  nn::linear_forward(xf, wf, bf, yf);
  for (std::size_t i = 0; i < y.data().size(); ++i) {
    EXPECT_NEAR(static_cast<double>(yf.data()[i]), y.data()[i], 1e-4)
        << "i=" << i;
  }
}

TEST(Precision, F32RowRangeKernelsMatchFullKernels) {
  // Row-partition invariance of the f32 kernels (the property the sharded
  // narrowed forward rests on): computing [0,n) in two ranges must equal the
  // full-kernel bytes.
  util::Rng rng(31);
  const int n = 101, in = 16, out = 8;
  nn::MatF x(n, in), w(out, in);
  std::vector<float> b(out);
  for (auto& v : x.data()) v = static_cast<float>(rng.normal());
  for (auto& v : w.data()) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  nn::MatF full, ranged(n, out);
  nn::linear_forward(x, w, b, full);
  nn::linear_forward_rows(x, w, b, ranged, 0, 37);
  nn::linear_forward_rows(x, w, b, ranged, 37, n);
  EXPECT_EQ(0, std::memcmp(full.data().data(), ranged.data().data(),
                           full.data().size() * sizeof(float)));
}

}  // namespace
}  // namespace teal
