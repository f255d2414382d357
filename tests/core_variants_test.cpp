// Tests for the Figure 14 ablation models: shapes, gradient flow (training
// reduces loss, finite-difference checks of backward_ws), forward-cache
// provenance, and the global policy's memory-budget failure on large
// problems (the paper's "memory errors" on ASN).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include "core/direct_loss.h"
#include "core/teal_scheme.h"
#include "core/variants.h"
#include "topo/topology.h"
#include "traffic/traffic.h"

namespace teal {
namespace {

struct Setup {
  te::Problem pb;
  traffic::Trace trace;
};

Setup b4_setup() {
  auto g = topo::make_b4();
  te::Problem pb(std::move(g), te::all_pairs_demands(topo::make_b4()), 4);
  traffic::TraceConfig cfg;
  cfg.n_intervals = 10;
  auto trace = traffic::generate_trace(pb, cfg);
  traffic::calibrate_capacities(pb, trace, 2.2);
  return Setup{std::move(pb), std::move(trace)};
}

// One sequential f64 forward through the Model seam.
core::ModelForward run_forward(const core::Model& model, const te::Problem& pb,
                               const te::TrafficMatrix& tm,
                               const std::vector<double>* caps = nullptr) {
  core::ModelForward fwd;
  model.forward_ws(pb, tm, caps, fwd, core::ShardPlan::sequential(pb.num_demands()));
  return fwd;
}

TEST(NaiveDnn, ForwardShapesAndMask) {
  auto s = b4_setup();
  core::NaiveDnnModel model({}, s.pb, 3);
  auto fwd = run_forward(model, s.pb, s.trace.at(0));
  EXPECT_EQ(fwd.logits.rows(), s.pb.num_demands());
  EXPECT_EQ(fwd.logits.cols(), 4);
  EXPECT_EQ(fwd.mask.rows(), s.pb.num_demands());
}

TEST(NaiveDnn, TrainsWithDirectLoss) {
  auto s = b4_setup();
  core::NaiveDnnModel model({}, s.pb, 3);
  core::DirectLossConfig cfg;
  cfg.epochs = 6;
  cfg.lr = 3e-3;
  auto stats = core::train_direct_loss(model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
  EXPECT_GT(stats.epoch_surrogate.back(), stats.epoch_surrogate.front());
}

TEST(NaiveDnn, RejectsMismatchedProblem) {
  auto s = b4_setup();
  core::NaiveDnnModel model({}, s.pb, 3);
  auto g2 = topo::make_b4();
  te::Problem other(std::move(g2), {{0, 1}}, 4);
  te::TrafficMatrix tm;
  tm.volume = {1.0};
  EXPECT_THROW(run_forward(model, other, tm), std::invalid_argument);
}

TEST(NaiveGnn, ForwardDependsOnTopologyFeatures) {
  auto s = b4_setup();
  core::NaiveGnnModel model({}, s.pb, 3);
  auto caps = s.pb.capacities();
  auto f1 = run_forward(model, s.pb, s.trace.at(0), &caps);
  caps[0] *= 0.01;
  auto f2 = run_forward(model, s.pb, s.trace.at(0), &caps);
  double diff = 0.0;
  for (std::size_t i = 0; i < f1.logits.data().size(); ++i) {
    diff += std::abs(f1.logits.data()[i] - f2.logits.data()[i]);
  }
  EXPECT_GT(diff, 1e-9);
}

TEST(NaiveGnn, TrainsWithDirectLoss) {
  auto s = b4_setup();
  core::NaiveGnnModel model({}, s.pb, 3);
  core::DirectLossConfig cfg;
  cfg.epochs = 6;
  cfg.lr = 3e-3;
  auto stats = core::train_direct_loss(model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
  EXPECT_GT(stats.epoch_surrogate.back(), stats.epoch_surrogate.front());
}

TEST(GlobalPolicy, WorksOnSmallProblem) {
  auto s = b4_setup();
  core::GlobalPolicyConfig cfg;
  cfg.hidden_dim = 32;
  core::GlobalPolicyModel model(cfg, s.pb, 3);
  auto fwd = run_forward(model, s.pb, s.trace.at(0));
  EXPECT_EQ(fwd.logits.rows(), s.pb.num_demands());
  auto splits = core::splits_from_logits(fwd.logits, fwd.mask);
  auto alloc = core::allocation_from_splits(s.pb, splits);
  EXPECT_NO_THROW(s.pb.validate_allocation(alloc));
}

TEST(GlobalPolicy, MemoryBudgetThrowsOnLargeProblems) {
  // Reproduces the §5.7 finding that the global policy has "memory errors"
  // at scale: a tiny budget makes even B4 refuse.
  auto s = b4_setup();
  core::GlobalPolicyConfig cfg;
  cfg.max_params = 1000;
  EXPECT_THROW(core::GlobalPolicyModel(cfg, s.pb, 3), std::length_error);
}

TEST(Variants, PlugIntoTealScheme) {
  auto s = b4_setup();
  core::TealSchemeConfig scfg;
  auto model = std::make_unique<core::NaiveDnnModel>(core::NaiveDnnConfig{}, s.pb, 3);
  core::TealScheme scheme(s.pb, std::move(model), scfg, "Teal w/ naive DNN");
  EXPECT_EQ(scheme.name(), "Teal w/ naive DNN");
  auto alloc = scheme.solve(s.pb, s.trace.at(0));
  EXPECT_NO_THROW(s.pb.validate_allocation(alloc));
}

TEST(Variants, ComaTrainsNaiveGnn) {
  auto s = b4_setup();
  core::NaiveGnnModel model({}, s.pb, 3);
  core::ComaConfig cfg;
  cfg.epochs = 3;
  cfg.lr = 3e-3;
  auto stats = core::train_coma(model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
  EXPECT_EQ(static_cast<int>(stats.epoch_reward.size()), 3);
}

// ---- Per-variant seam checks ---------------------------------------------

struct VariantCase {
  std::string name;
  std::function<std::unique_ptr<core::Model>(const te::Problem&)> make;
};

std::string variant_name(const testing::TestParamInfo<VariantCase>& info) {
  return info.param.name;
}

void PrintTo(const VariantCase& c, std::ostream* os) { *os << c.name; }

class VariantSeam : public testing::TestWithParam<VariantCase> {};

// Finite-difference check of backward_ws for a random linear loss on the
// logits (same shape as TealModel.EndToEndGradCheck): the gradients it
// accumulates into the caller's GradAccum match central differences.
TEST_P(VariantSeam, BackwardWsGradCheck) {
  auto s = b4_setup();
  auto model = GetParam().make(s.pb);
  const te::TrafficMatrix& tm = s.trace.at(0);

  util::Rng rng(3);
  nn::Mat coef(s.pb.num_demands(), s.pb.k_paths());
  for (auto& v : coef.data()) v = rng.normal();
  auto eval = [&] {
    const auto fwd = run_forward(*model, s.pb, tm);
    double sum = 0.0;
    for (std::size_t i = 0; i < fwd.logits.data().size(); ++i) {
      sum += fwd.logits.data()[i] * coef.data()[i];
    }
    return sum;
  };

  const auto params = model->params();
  nn::GradAccum acc;
  acc.prepare(params);
  core::TrainBackward bws;
  const auto fwd = run_forward(*model, s.pb, tm);
  model->backward_ws(s.pb, fwd, coef, bws, acc.refs());

  const double eps = 1e-6;
  int checked = 0;
  for (std::size_t j = 0; j < params.size(); ++j) {
    nn::Param* p = params[j];
    const nn::Mat& g = *acc.refs()[j];
    const std::size_t n = p->w.data().size();
    // Spot-check a handful of entries per parameter to keep runtime sane.
    for (std::size_t i = 0; i < n; i += std::max<std::size_t>(1, n / 4)) {
      const double orig = p->w.data()[i];
      p->w.data()[i] = orig + eps;
      const double up = eval();
      p->w.data()[i] = orig - eps;
      const double down = eval();
      p->w.data()[i] = orig;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(g.data()[i], numeric, 1e-4 * std::max(1.0, std::abs(numeric)))
          << GetParam().name << " param " << j << " entry " << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, 20);
}

// Cache provenance: backward_ws refuses any forward cache this variant did
// not produce — TealModel's f64 cache and its narrowed f32 cache alike —
// and forward_ws replaces a foreign or shared cache instead of
// reinterpreting or overwriting it.
TEST_P(VariantSeam, RejectsForeignForwardCache) {
  auto s = b4_setup();
  auto model = GetParam().make(s.pb);
  const te::TrafficMatrix& tm = s.trace.at(0);
  const core::ShardPlan plan = core::ShardPlan::sequential(s.pb.num_demands());
  core::TealModel teal({}, s.pb.k_paths(), 42);
  teal.prepare(te::Precision::f32);

  nn::GradAccum acc;
  acc.prepare(model->params());
  core::TrainBackward bws;
  const nn::Mat grad(s.pb.num_demands(), s.pb.k_paths(), 1.0);
  for (te::Precision p : {te::Precision::f64, te::Precision::f32}) {
    core::ModelForward fwd;
    teal.forward_ws(s.pb, tm, nullptr, fwd, plan, nullptr, p);
    EXPECT_THROW(model->backward_ws(s.pb, fwd, grad, bws, acc.refs()), std::logic_error)
        << GetParam().name << " on a TealModel " << te::precision_name(p) << " cache";

    // Re-running the variant into the same object re-keys the cache to it.
    model->forward_ws(s.pb, tm, nullptr, fwd, plan);
    EXPECT_EQ(fwd.owner, model.get());
    EXPECT_NO_THROW(model->backward_ws(s.pb, fwd, grad, bws, acc.refs()));
  }

  // A cache still shared with another ModelForward is not written in place.
  core::ModelForward fwd = run_forward(*model, s.pb, tm);
  const core::ModelForward held = fwd;
  model->forward_ws(s.pb, tm, nullptr, fwd, plan);
  EXPECT_NE(fwd.cache.get(), held.cache.get());
}

INSTANTIATE_TEST_SUITE_P(
    Variants, VariantSeam,
    testing::Values(
        VariantCase{"NaiveDnn",
                    [](const te::Problem& pb) -> std::unique_ptr<core::Model> {
                      return std::make_unique<core::NaiveDnnModel>(core::NaiveDnnConfig{},
                                                                   pb, 3);
                    }},
        VariantCase{"NaiveGnn",
                    [](const te::Problem& pb) -> std::unique_ptr<core::Model> {
                      return std::make_unique<core::NaiveGnnModel>(core::NaiveGnnConfig{},
                                                                   pb, 3);
                    }},
        VariantCase{"GlobalPolicy",
                    [](const te::Problem& pb) -> std::unique_ptr<core::Model> {
                      core::GlobalPolicyConfig cfg;
                      cfg.hidden_dim = 32;
                      return std::make_unique<core::GlobalPolicyModel>(cfg, pb, 3);
                    }}),
    variant_name);

}  // namespace
}  // namespace teal
