// Tests for the workspace-batched training pipeline (core::TrainContext).
//
// Three load-bearing properties:
//   1. Fidelity: with one worker and the default rollout batch of 1, the
//      workspace path (forward_ws / backward_ws / per-slot accumulators)
//      trains parameters byte-identical to a reference trainer that drives
//      the typed TealModel::forward / backward API (allocating, accumulating
//      straight into Param::g) with the same, documented semantics. The
//      references below ARE that contract.
//   2. Worker-count invariance: the `workers` knob is pure throughput —
//      byte-identical parameters for 1/2/4 workers on multiple bundled
//      topologies (the per-(rollout, demand) noise keying plus the ordered
//      sequential gradient reduction; same contract as core::ShardPlan).
//   3. Allocation-freedom: optimizer steps after the first perform zero heap
//      allocations on the workspace path (TrainStats::warm_step_allocs,
//      measured by the trainers themselves via util::alloc_hook).
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/coma.h"
#include "core/direct_loss.h"
#include "core/model.h"
#include "core/reward.h"
#include "core/train_context.h"
#include "core/variants.h"
#include "lp/path_lp.h"
#include "nn/module.h"
#include "te/objective.h"
#include "topo/topology.h"
#include "traffic/traffic.h"
#include "util/alloc_hook.h"
#include "util/rng.h"

namespace teal {
namespace {

struct Setup {
  te::Problem pb;
  traffic::Trace trace;
};

// Demand-capped instance of any bundled topology (same pattern as
// shard_test): every code path is full-scale, only the demand sample is
// test-sized.
Setup topo_setup(const std::string& name, int n_demands = 120, int n_intervals = 6) {
  auto g = topo::make_topology(name);
  auto demands = traffic::sample_demands(g, n_demands, /*seed=*/7);
  te::Problem pb(std::move(g), std::move(demands), 4);
  traffic::TraceConfig cfg;
  cfg.n_intervals = n_intervals;
  cfg.seed = 11;
  auto trace = traffic::generate_trace(pb, cfg);
  traffic::calibrate_capacities(pb, trace, 2.0);
  return Setup{std::move(pb), std::move(trace)};
}

core::TealModel make_model(const te::Problem& pb) {
  return core::TealModel(core::TealModelConfig{}, pb.k_paths(), /*seed=*/3);
}

void expect_params_bit_identical(core::Model& a, core::Model& b, const std::string& what) {
  auto pa = a.params();
  auto pb_ = b.params();
  ASSERT_EQ(pa.size(), pb_.size()) << what;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->w.size(), pb_[i]->w.size()) << what << " param " << i;
    EXPECT_EQ(std::memcmp(pa[i]->w.data().data(), pb_[i]->w.data().data(),
                          pa[i]->w.size() * sizeof(double)),
              0)
        << what << ": param " << i << " differs";
  }
}

// Test-local copy of the trainers' masked row softmax.
void row_softmax(const double* z, const double* mask, int k, double* out) {
  double mx = -1e300;
  for (int c = 0; c < k; ++c) {
    if (mask[c] != 0.0) mx = std::max(mx, z[c]);
  }
  double denom = 0.0;
  for (int c = 0; c < k; ++c) {
    if (mask[c] != 0.0) {
      out[c] = std::exp(z[c] - mx);
      denom += out[c];
    } else {
      out[c] = 0.0;
    }
  }
  if (denom > 0.0) {
    for (int c = 0; c < k; ++c) out[c] /= denom;
  }
}

// Reference COMA* trainer over the typed TealModel API: per-matrix Adam
// steps, exploration streams keyed by core::coma_noise_seed exactly as
// documented in coma.h. train_coma with workers = 1, rollout_batch = 1 must
// match this byte for byte.
void reference_coma(core::TealModel& model, const te::Problem& pb, const traffic::Trace& train,
                    const core::ComaConfig& cfg) {
  const int k = model.k_paths();
  const int nd = pb.num_demands();
  nn::Adam adam(model.params(), cfg.lr);
  core::RewardSimulator sim(pb, te::Objective::kTotalFlow);
  auto scratch = sim.make_scratch();
  const std::vector<double> caps = pb.capacities();
  std::vector<double> zc(static_cast<std::size_t>(k)), cand(static_cast<std::size_t>(k));
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    for (int t = 0; t < train.size(); ++t) {
      const te::TrafficMatrix& tm = train.at(t);
      auto fwd = model.forward(pb, tm, &caps);
      nn::Mat z(nd, k), splits(nd, k);
      for (int d = 0; d < nd; ++d) {
        util::CounterRng rng(
            core::coma_noise_seed(cfg.seed, epoch, t, 2 * static_cast<std::uint64_t>(d)));
        for (int c = 0; c < k; ++c) {
          z.at(d, c) = fwd.logits.at(d, c) +
                       (fwd.mask.at(d, c) != 0.0 ? cfg.sigma * rng.normal() : 0.0);
        }
        row_softmax(z.row_ptr(d), fwd.mask.row_ptr(d), k, splits.row_ptr(d));
      }
      sim.set_state(tm, caps, splits);
      std::vector<double> advantage(static_cast<std::size_t>(nd), 0.0);
      for (int d = 0; d < nd; ++d) {
        util::CounterRng rng(core::coma_noise_seed(cfg.seed, epoch, t,
                                            2 * static_cast<std::uint64_t>(d) + 1));
        const double base = sim.value_of(d, splits.row_ptr(d), scratch);
        double baseline = 0.0;
        for (int m = 0; m < cfg.mc_samples; ++m) {
          for (int c = 0; c < k; ++c) {
            zc[static_cast<std::size_t>(c)] =
                fwd.logits.at(d, c) +
                (fwd.mask.at(d, c) != 0.0 ? cfg.sigma * rng.normal() : 0.0);
          }
          row_softmax(zc.data(), fwd.mask.row_ptr(d), k, cand.data());
          baseline += sim.value_of(d, cand.data(), scratch);
        }
        baseline /= std::max(1, cfg.mc_samples);
        advantage[static_cast<std::size_t>(d)] = base - baseline;
      }
      double sq = 0.0;
      for (double a : advantage) sq += a * a;
      const double scale = 1.0 / (std::sqrt(sq / std::max(1, nd)) + cfg.adv_norm_eps);
      nn::Mat grad_logits(nd, k);
      const double inv_var = 1.0 / (cfg.sigma * cfg.sigma);
      for (int d = 0; d < nd; ++d) {
        const double a = advantage[static_cast<std::size_t>(d)] * scale;
        for (int c = 0; c < k; ++c) {
          if (fwd.mask.at(d, c) != 0.0) {
            grad_logits.at(d, c) = -a * (z.at(d, c) - fwd.logits.at(d, c)) * inv_var;
          }
        }
      }
      adam.zero_grad();
      model.backward(pb, fwd, grad_logits);
      adam.clip_grad_norm(cfg.grad_clip);
      adam.step();
    }
  }
}

// Reference direct-loss trainer over the typed TealModel API (the seed
// semantics: per-matrix steps, surrogate gradient through the softmax).
void reference_direct_loss(core::TealModel& model, const te::Problem& pb,
                           const traffic::Trace& train, const core::DirectLossConfig& cfg) {
  const int k = model.k_paths();
  const int nd = pb.num_demands();
  nn::Adam adam(model.params(), cfg.lr);
  const std::vector<double> caps = pb.capacities();
  std::vector<double> weight(static_cast<std::size_t>(pb.total_paths()), 1.0);
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    for (int t = 0; t < train.size(); ++t) {
      const te::TrafficMatrix& tm = train.at(t);
      auto fwd = model.forward(pb, tm, &caps);
      nn::Mat splits = core::splits_from_logits(fwd.logits, fwd.mask);
      te::Allocation a = core::allocation_from_splits(pb, splits);
      auto load = te::edge_loads(pb, tm, a);
      std::vector<char> violated(load.size(), 0);
      for (std::size_t e = 0; e < load.size(); ++e) {
        violated[e] = load[e] > caps[e] ? 1 : 0;
      }
      nn::Mat grad_splits(nd, k);
      for (int d = 0; d < nd; ++d) {
        const double vol = tm.volume[static_cast<std::size_t>(d)];
        int slot = 0;
        for (int p = pb.path_begin(d); p < pb.path_end(d) && slot < k; ++p, ++slot) {
          int n_viol = 0;
          for (topo::EdgeId e : pb.path_edges(p)) {
            n_viol += violated[static_cast<std::size_t>(e)];
          }
          grad_splits.at(d, slot) =
              -vol * (weight[static_cast<std::size_t>(p)] - static_cast<double>(n_viol));
        }
      }
      nn::Mat grad_logits;
      nn::softmax_rows_backward(splits, grad_splits, grad_logits);
      adam.zero_grad();
      model.backward(pb, fwd, grad_logits);
      adam.clip_grad_norm(cfg.grad_clip);
      adam.step();
    }
  }
}

TEST(TrainWorkspace, ComaMatchesReferenceSingleWorker) {
  auto s = topo_setup("B4");
  auto ws_model = make_model(s.pb);
  auto ref_model = make_model(s.pb);
  core::ComaConfig cfg;
  cfg.epochs = 2;
  cfg.workers = 1;
  cfg.rollout_batch = 1;
  core::train_coma(ws_model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
  reference_coma(ref_model, s.pb, s.trace, cfg);
  expect_params_bit_identical(ws_model, ref_model, "coma ws-vs-reference");
}

TEST(TrainWorkspace, DirectLossMatchesReferenceSingleWorker) {
  auto s = topo_setup("B4");
  auto ws_model = make_model(s.pb);
  auto ref_model = make_model(s.pb);
  core::DirectLossConfig cfg;
  cfg.epochs = 2;
  cfg.workers = 1;
  cfg.rollout_batch = 1;
  core::train_direct_loss(ws_model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
  reference_direct_loss(ref_model, s.pb, s.trace, cfg);
  expect_params_bit_identical(ws_model, ref_model, "direct-loss ws-vs-reference");
}

// The worker knob must be pure throughput: byte-identical trained parameters
// for every worker count, on multiple bundled topologies, for both trainers.
TEST(TrainWorkspace, ComaWorkerCountInvariance) {
  for (const std::string topo : {"B4", "SWAN"}) {
    auto s = topo_setup(topo);
    auto baseline = make_model(s.pb);
    core::ComaConfig cfg;
    cfg.epochs = 2;
    cfg.rollout_batch = 4;
    cfg.workers = 1;
    core::train_coma(baseline, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
    for (int workers : {2, 4}) {
      auto model = make_model(s.pb);
      cfg.workers = workers;
      core::train_coma(model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
      expect_params_bit_identical(model, baseline,
                                  topo + " coma workers=" + std::to_string(workers));
    }
  }
}

TEST(TrainWorkspace, DirectLossWorkerCountInvariance) {
  for (const std::string topo : {"B4", "SWAN"}) {
    auto s = topo_setup(topo);
    auto baseline = make_model(s.pb);
    core::DirectLossConfig cfg;
    cfg.epochs = 2;
    cfg.rollout_batch = 4;
    cfg.workers = 1;
    core::train_direct_loss(baseline, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
    for (int workers : {2, 4}) {
      auto model = make_model(s.pb);
      cfg.workers = workers;
      core::train_direct_loss(model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
      expect_params_bit_identical(model, baseline,
                                  topo + " direct workers=" + std::to_string(workers));
    }
  }
}

// Rollout batching changes step granularity, never rollout math: the auto
// worker count (0) must match the explicit sequential run too.
TEST(TrainWorkspace, AutoWorkersMatchSequential) {
  auto s = topo_setup("B4");
  auto baseline = make_model(s.pb);
  auto model = make_model(s.pb);
  core::ComaConfig cfg;
  cfg.epochs = 1;
  cfg.rollout_batch = 3;
  cfg.workers = 1;
  core::train_coma(baseline, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
  cfg.workers = 0;  // auto
  core::train_coma(model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
  expect_params_bit_identical(model, baseline, "coma auto workers");
}

// Warm optimizer steps on the workspace path are allocation-free — the
// trainers measure it themselves (steps after the first, validation and
// epoch accounting excluded).
TEST(TrainWorkspace, ComaWarmStepsAllocationFree) {
  auto s = topo_setup("B4");
  auto model = make_model(s.pb);
  core::ComaConfig cfg;
  cfg.epochs = 2;
  cfg.rollout_batch = 2;
  core::TrainStats stats =
      core::train_coma(model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
  EXPECT_EQ(stats.warm_step_allocs, 0u)
      << "warm COMA* training steps must not allocate";
}

TEST(TrainWorkspace, DirectLossWarmStepsAllocationFree) {
  auto s = topo_setup("B4");
  auto model = make_model(s.pb);
  core::DirectLossConfig cfg;
  cfg.epochs = 2;
  cfg.rollout_batch = 2;
  core::DirectLossStats stats =
      core::train_direct_loss(model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
  EXPECT_EQ(stats.warm_step_allocs, 0u)
      << "warm direct-loss training steps must not allocate";
}

// Cold-start contract: TrainContext::prepare bump-allocates the slot array,
// every per-slot gradient accumulator and the backward scratch out of the
// context's own arenas — O(1) heap allocations for the spin-up, and again
// for a re-prepare (which re-bumps the retained chunks).
TEST(TrainWorkspace, ContextPrepareIsO1Allocations) {
  auto s = topo_setup("B4", 60, 4);
  auto model = make_model(s.pb);
  core::TrainContext ctx;
  {
    util::AllocCounter allocs;
    ctx.prepare(model, /*rollout_batch=*/4, /*workers=*/2);
    EXPECT_LE(allocs.count(), 5u)
        << "TrainContext spin-up must stay O(1) heap allocations";
  }
  EXPECT_EQ(ctx.rollout_batch(), 4);
  {
    util::AllocCounter allocs;
    ctx.prepare(model, /*rollout_batch=*/4, /*workers=*/2);
    EXPECT_LE(allocs.count(), 5u)
        << "re-prepare must re-bump retained chunks, not re-malloc";
  }
}

// The Figure 14 ablation variants train through the same workspace seam as
// Teal, so the worker knob is pure throughput for them too: a prepared
// context really fans out, and workers = 4 trains byte-identical parameters
// to workers = 1.
TEST(TrainWorkspace, VariantsAreWorkerInvariant) {
  auto s = topo_setup("B4", 60, 4);
  core::GlobalPolicyConfig gp;
  gp.hidden_dim = 32;
  const std::vector<std::pair<std::string, std::function<std::unique_ptr<core::Model>()>>>
      variants = {
          {"NaiveDnn", [&] { return std::make_unique<core::NaiveDnnModel>(
                                 core::NaiveDnnConfig{}, s.pb, 3); }},
          {"NaiveGnn", [&] { return std::make_unique<core::NaiveGnnModel>(
                                 core::NaiveGnnConfig{}, s.pb, 3); }},
          {"GlobalPolicy",
           [&] { return std::make_unique<core::GlobalPolicyModel>(gp, s.pb, 3); }},
      };
  for (const auto& [name, make] : variants) {
    auto baseline = make();
    auto model = make();
    core::TrainContext ctx;
    ctx.prepare(*model, /*rollout_batch=*/2, /*workers=*/4);
    EXPECT_GT(ctx.workers(), 1) << name;
    core::ComaConfig cfg;
    cfg.epochs = 1;
    cfg.rollout_batch = 2;
    cfg.workers = 1;
    core::train_coma(*baseline, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
    cfg.workers = 4;
    core::train_coma(*model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
    expect_params_bit_identical(*model, *baseline, name + " workers=4");
  }
}

// Unit seam check: backward_acc accumulates the same values into external
// buffers that backward() accumulates into Param::g.
TEST(TrainWorkspace, LinearBackwardAccMatchesBackward) {
  util::Rng rng(5);
  nn::Linear lin(6, 4, rng);
  nn::Mat x(8, 6), gy(8, 4);
  for (auto& v : x.data()) v = rng.normal();
  for (auto& v : gy.data()) v = rng.normal();

  nn::Mat gx_ref;
  for (auto* p : lin.params()) p->zero_grad();
  lin.backward(x, gy, gx_ref);

  nn::Mat gx(0, 0), gw(4, 6), gb(1, 4);
  lin.backward_acc(x, gy, gx, gw, gb);

  auto params = lin.params();
  EXPECT_EQ(std::memcmp(gw.data().data(), params[0]->g.data().data(),
                        gw.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(gb.data().data(), params[1]->g.data().data(),
                        gb.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(gx.data().data(), gx_ref.data().data(),
                        gx.size() * sizeof(double)),
            0);
}

// GradAccum reduction: Param::g after reduce_into equals direct accumulation
// (zero + one set), and per-set refs address the right shapes.
TEST(TrainWorkspace, GradAccumReduceMatchesDirect) {
  util::Rng rng(9);
  nn::Linear lin(5, 3, rng);
  auto params = lin.params();
  nn::GradAccum acc;
  acc.prepare(params);
  auto refs = acc.refs();
  ASSERT_EQ(refs.size(), params.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    ASSERT_TRUE(refs[i]->same_shape(params[i]->g));
    for (auto& v : refs[i]->data()) v = rng.normal();
  }
  for (auto* p : params) p->zero_grad();
  acc.reduce_into(params);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ(std::memcmp(params[i]->g.data().data(), refs[i]->data().data(),
                          refs[i]->size() * sizeof(double)),
              0);
  }
}

}  // namespace
}  // namespace teal
