// Tests for FlowGNN, the policy network, and the end-to-end TealModel —
// including a full finite-difference gradient check through message passing,
// DNN coordination layers, widening, and the policy head, and bit-exact
// agreement of the message-passing gathers with the runtime-width reference
// (tests/reference_solve.h).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/model.h"
#include "reference_solve.h"
#include "core/teal_scheme.h"
#include "topo/topology.h"
#include "traffic/traffic.h"
#include "util/thread_pool.h"

namespace teal {
namespace {

te::Problem tiny_problem() {
  topo::Graph g("tiny");
  g.add_nodes(4);
  g.add_link(0, 1, 10, 1.0);
  g.add_link(1, 3, 12, 1.0);
  g.add_link(0, 2, 8, 1.2);
  g.add_link(2, 3, 9, 1.1);
  g.add_link(1, 2, 7, 0.9);
  return te::Problem(std::move(g), {{0, 3}, {3, 0}, {1, 2}}, 4);
}

te::TrafficMatrix tiny_tm() {
  te::TrafficMatrix tm;
  tm.volume = {5.0, 3.0, 2.0};
  return tm;
}

TEST(FlowGnn, ForwardShapes) {
  auto pb = tiny_problem();
  util::Rng rng(1);
  core::FlowGnnConfig cfg;
  cfg.n_blocks = 6;
  core::FlowGnn gnn(cfg, 4, rng);
  auto fwd = gnn.forward(pb, tiny_tm());
  EXPECT_EQ(fwd.final_paths.rows(), pb.total_paths());
  EXPECT_EQ(fwd.final_paths.cols(), 6);
  EXPECT_EQ(static_cast<int>(fwd.blocks.size()), 6);
  // Block l works at dim l+1.
  for (int l = 0; l < 6; ++l) {
    EXPECT_EQ(fwd.blocks[static_cast<std::size_t>(l)].path_in.cols(), l + 1);
  }
}

TEST(FlowGnn, EmbeddingsDependOnDemandVolume) {
  auto pb = tiny_problem();
  util::Rng rng(1);
  core::FlowGnn gnn({}, 4, rng);
  auto tm1 = tiny_tm();
  auto f1 = gnn.forward(pb, tm1);
  auto tm2 = tiny_tm();
  tm2.volume[0] *= 3.0;
  auto f2 = gnn.forward(pb, tm2);
  double diff = 0.0;
  for (std::size_t i = 0; i < f1.final_paths.data().size(); ++i) {
    diff += std::abs(f1.final_paths.data()[i] - f2.final_paths.data()[i]);
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(FlowGnn, EmbeddingsDependOnCapacities) {
  auto pb = tiny_problem();
  util::Rng rng(1);
  core::FlowGnn gnn({}, 4, rng);
  auto caps = pb.capacities();
  auto f1 = gnn.forward(pb, tiny_tm(), &caps);
  caps[0] = 0.0;  // fail a link
  auto f2 = gnn.forward(pb, tiny_tm(), &caps);
  double diff = 0.0;
  for (std::size_t i = 0; i < f1.final_paths.data().size(); ++i) {
    diff += std::abs(f1.final_paths.data()[i] - f2.final_paths.data()[i]);
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(TealModel, EndToEndGradCheck) {
  // Full finite-difference check of d(loss)/d(theta) for a random linear
  // loss on the logits, through policy net + FlowGNN.
  auto pb = tiny_problem();
  core::TealModelConfig cfg;
  cfg.gnn.n_blocks = 3;  // smaller model keeps the check fast
  cfg.policy.hidden_dim = 8;
  core::TealModel model(cfg, pb.k_paths(), 7);
  auto tm = tiny_tm();

  util::Rng rng(3);
  nn::Mat coef(pb.num_demands(), pb.k_paths());
  for (auto& v : coef.data()) v = rng.normal();

  auto eval = [&] {
    auto fwd = model.forward(pb, tm);
    double s = 0.0;
    for (std::size_t i = 0; i < fwd.logits.data().size(); ++i) {
      s += fwd.logits.data()[i] * coef.data()[i];
    }
    return s;
  };

  auto fwd = model.forward(pb, tm);
  for (auto* p : model.params()) p->zero_grad();
  model.backward(pb, fwd, coef);

  const double eps = 1e-6;
  int checked = 0;
  for (auto* p : model.params()) {
    // Spot-check a handful of entries per parameter to keep runtime sane.
    for (std::size_t i = 0; i < p->w.data().size(); i += std::max<std::size_t>(1, p->w.data().size() / 4)) {
      double orig = p->w.data()[i];
      p->w.data()[i] = orig + eps;
      double up = eval();
      p->w.data()[i] = orig - eps;
      double down = eval();
      p->w.data()[i] = orig;
      double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(p->g.data()[i], numeric, 1e-4 * std::max(1.0, std::abs(numeric)));
      ++checked;
    }
  }
  EXPECT_GT(checked, 20);
}

TEST(TealModel, MaskZeroesMissingPaths) {
  // A demand pair with fewer than 4 simple paths must get zero splits there.
  topo::Graph g("line");
  g.add_nodes(3);
  g.add_link(0, 1, 10, 1.0);
  g.add_link(1, 2, 10, 1.0);
  te::Problem pb(std::move(g), {{0, 2}}, 4);
  ASSERT_EQ(pb.num_paths(0), 1);  // only one simple path exists
  core::TealModel model({}, pb.k_paths(), 5);
  te::TrafficMatrix tm;
  tm.volume = {1.0};
  auto fwd = model.forward(pb, tm);
  auto splits = core::splits_from_logits(fwd.logits, fwd.mask);
  EXPECT_NEAR(splits.at(0, 0), 1.0, 1e-12);
  for (int c = 1; c < 4; ++c) EXPECT_DOUBLE_EQ(splits.at(0, c), 0.0);
}

TEST(TealModel, SplitsFormValidAllocation) {
  auto pb = tiny_problem();
  core::TealModel model({}, pb.k_paths(), 11);
  auto fwd = model.forward(pb, tiny_tm());
  auto splits = core::splits_from_logits(fwd.logits, fwd.mask);
  auto alloc = core::allocation_from_splits(pb, splits);
  EXPECT_NO_THROW(pb.validate_allocation(alloc));
  // Softmax routes everything: per-demand sums are exactly 1.
  for (int d = 0; d < pb.num_demands(); ++d) {
    double sum = 0.0;
    for (int p = pb.path_begin(d); p < pb.path_end(d); ++p) {
      sum += alloc.split[static_cast<std::size_t>(p)];
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(TealModel, SaveLoadPreservesOutputs) {
  auto pb = tiny_problem();
  core::TealModel a({}, pb.k_paths(), 21);
  auto path = (std::filesystem::temp_directory_path() / "teal_model_test.bin").string();
  a.save(path);
  core::TealModel b({}, pb.k_paths(), 99);  // different init
  ASSERT_TRUE(b.load(path));
  auto fa = a.forward(pb, tiny_tm());
  auto fb = b.forward(pb, tiny_tm());
  for (std::size_t i = 0; i < fa.logits.data().size(); ++i) {
    EXPECT_DOUBLE_EQ(fa.logits.data()[i], fb.logits.data()[i]);
  }
  std::filesystem::remove(path);
}

TEST(PolicyNet, LayerCountConfigurable) {
  util::Rng rng(31);
  for (int layers : {1, 2, 4}) {
    core::PolicyConfig pc;
    pc.n_hidden_layers = layers;
    core::PolicyNet net(pc, 24, 4, rng);
    nn::Mat x(5, 24, 0.1);
    auto fwd = net.forward(x);
    EXPECT_EQ(fwd.logits.rows(), 5);
    EXPECT_EQ(fwd.logits.cols(), 4);
  }
}

TEST(MaskGuard, FullyMaskedRowWithPathsThrows) {
  // The policy-boundary contract: a demand that owns paths must keep at
  // least one nonzero mask entry, otherwise the masked softmax emits an
  // all-zero split row that downstream ADMM consumes silently.
  auto pb = tiny_problem();
  nn::Mat mask(pb.num_demands(), pb.k_paths(), 1.0);
  EXPECT_NO_THROW(core::check_policy_mask_rows(pb, mask, 0, pb.num_demands()));
  for (int c = 0; c < pb.k_paths(); ++c) mask.at(1, c) = 0.0;
  EXPECT_THROW(core::check_policy_mask_rows(pb, mask, 0, pb.num_demands()),
               std::logic_error);
  // A slice that does not cover the offending demand stays clean (the solve
  // path checks per shard slice).
  EXPECT_NO_THROW(core::check_policy_mask_rows(pb, mask, 2, pb.num_demands()));
}

// A model that zeroes the mask row of demand 0 — which does have paths —
// mimicking a buggy masked-variant or corrupted path structure.
class ZeroMaskModel : public core::TealModel {
 public:
  using core::TealModel::TealModel;
  void forward_ws(const te::Problem& pb, const te::TrafficMatrix& tm,
                  const std::vector<double>* capacities, core::ModelForward& fwd,
                  const core::ShardPlan& shards, core::ShardStat* stats,
                  te::Precision precision) const override {
    core::TealModel::forward_ws(pb, tm, capacities, fwd, shards, stats, precision);
    for (int c = 0; c < fwd.mask.cols(); ++c) fwd.mask.at(0, c) = 0.0;
  }
};

TEST(MaskGuard, SchemeSolveRejectsFullyMaskedDemand) {
  // Regression for the silent-zero-allocation bug: the solve must throw at
  // the policy boundary instead of handing ADMM an all-zero split row.
  auto pb = tiny_problem();
  core::TealScheme scheme(
      pb, std::make_unique<ZeroMaskModel>(core::TealModelConfig{}, pb.k_paths(), 5),
      core::TealSchemeConfig{});
  EXPECT_THROW(scheme.solve(pb, tiny_tm()), std::logic_error);

  // The same throw from inside solve_batch's fan-out: with two matrices per
  // region chunk every chunk throws, and the error must leave the fan-out at
  // this thread once every chunk finished.
  const std::size_t n = 2 * (util::ThreadPool::global().size() + 1);
  std::vector<te::TrafficMatrix> tms(n, tiny_tm());
  for (std::size_t t = 0; t < n; ++t) {
    for (double& v : tms[t].volume) v *= 1.0 + 0.25 * static_cast<double>(t);
  }
  EXPECT_THROW(scheme.solve_batch(pb, std::span(tms)), std::logic_error);

  // The pool is usable afterwards: a healthy scheme's batch still matches
  // its sequential solve loop byte for byte.
  core::TealScheme healthy(
      pb, std::make_unique<core::TealModel>(core::TealModelConfig{}, pb.k_paths(), 5),
      core::TealSchemeConfig{});
  const te::BatchSolve batch = healthy.solve_batch(pb, std::span(tms));
  ASSERT_EQ(batch.allocs.size(), n);
  for (std::size_t t = 0; t < n; ++t) {
    const te::Allocation ref = healthy.solve(pb, tms[t]);
    ASSERT_EQ(batch.allocs[t].split.size(), ref.split.size());
    EXPECT_EQ(std::memcmp(batch.allocs[t].split.data(), ref.split.data(),
                          ref.split.size() * sizeof(double)),
              0)
        << "matrix " << t;
  }
}

TEST(MaskGuard, ValidModelSolvesClean) {
  // The guard must not fire on the healthy pipeline (every demand here has
  // at least one path, so every mask row has a nonzero entry).
  auto pb = tiny_problem();
  core::TealScheme scheme(
      pb, std::make_unique<core::TealModel>(core::TealModelConfig{}, pb.k_paths(), 5),
      core::TealSchemeConfig{});
  EXPECT_NO_THROW(scheme.solve(pb, tiny_tm()));
}

TEST(FlowGnn, ComputationIndependentOfTrafficValues) {
  // §5.2: Teal's flop count does not depend on the traffic matrix values —
  // identical shapes in, identical shapes out, no data-dependent branching.
  auto pb = tiny_problem();
  util::Rng rng(1);
  core::FlowGnn gnn({}, 4, rng);
  auto tm_small = tiny_tm();
  auto tm_large = tiny_tm();
  for (auto& v : tm_large.volume) v *= 1000.0;
  auto f1 = gnn.forward(pb, tm_small);
  auto f2 = gnn.forward(pb, tm_large);
  EXPECT_TRUE(f1.final_paths.same_shape(f2.final_paths));
}

// Every block's GNN-layer inputs must be [self | mean of neighbors] with the
// mean bit-equal to the runtime-width reference gather over the block's own
// inputs. Blocks feed each other, so this pins the whole forward.
template <typename T>
void expect_gathers_match_reference(const te::Problem& pb, const core::FlowGnn& gnn,
                                    const core::FlowGnn::ForwardT<T>& fwd) {
  ASSERT_EQ(static_cast<int>(fwd.blocks.size()), gnn.config().n_blocks);
  std::vector<T> ref;
  for (int l = 0; l < gnn.config().n_blocks; ++l) {
    SCOPED_TRACE("block " + std::to_string(l));
    const auto& blk = fwd.blocks[static_cast<std::size_t>(l)];
    const int d = gnn.block_dim(l);
    const auto bytes = static_cast<std::size_t>(d) * sizeof(T);
    ASSERT_EQ(blk.edge_cat.cols(), 2 * d);
    ASSERT_EQ(blk.path_cat.cols(), 2 * d);
    ref.resize(static_cast<std::size_t>(d));
    int mismatched_rows = 0;
    for (int e = 0; e < pb.graph().num_edges(); ++e) {
      reference::reference_mean_gather(blk.path_in, pb.paths_on_edge(e), ref.data(), d);
      const T* row = blk.edge_cat.row_ptr(e);
      mismatched_rows += std::memcmp(row, blk.edge_in.row_ptr(e), bytes) != 0 ||
                         std::memcmp(row + d, ref.data(), bytes) != 0;
    }
    for (int p = 0; p < pb.total_paths(); ++p) {
      reference::reference_mean_gather(blk.edge_in, pb.path_edges(p), ref.data(), d);
      const T* row = blk.path_cat.row_ptr(p);
      mismatched_rows += std::memcmp(row, blk.path_in.row_ptr(p), bytes) != 0 ||
                         std::memcmp(row + d, ref.data(), bytes) != 0;
    }
    EXPECT_EQ(mismatched_rows, 0);
  }
}

TEST(FlowGnnOracle, GathersMatchReferenceAtEveryWidth) {
  // The default config runs widths 1..6 (fixed-width gathers); final_dim 12
  // runs 1, 3, 5, 8 and then 10, 12 through the runtime-width fallback. Few
  // demands on SWAN leave some edges on no path (empty neighbor lists).
  auto g = topo::make_topology("SWAN");
  auto demands = traffic::sample_demands(g, 40, /*seed=*/31);
  te::Problem pb(std::move(g), std::move(demands), 4);
  traffic::TraceConfig tc;
  tc.n_intervals = 1;
  tc.seed = 32;
  const auto trace = traffic::generate_trace(pb, tc);
  int unused = 0;
  for (int e = 0; e < pb.graph().num_edges(); ++e) unused += pb.paths_on_edge(e).empty();
  ASSERT_GT(unused, 0);
  for (int final_dim : {0, 12}) {
    SCOPED_TRACE("final_dim " + std::to_string(final_dim));
    core::FlowGnnConfig cfg;
    cfg.final_dim = final_dim;
    util::Rng rng(5);
    core::FlowGnn gnn(cfg, pb.k_paths(), rng);
    if (final_dim == 12) {
      ASSERT_GT(gnn.final_dim(), 8);
    }
    for (int shards : {1, 3}) {
      const auto plan = core::ShardPlan::make(pb.num_demands(), shards);
      core::FlowGnn::Forward fwd;
      gnn.forward(pb, trace.at(0), nullptr, fwd, plan);
      expect_gathers_match_reference(pb, gnn, fwd);
      gnn.prepare_f32();
      core::FlowGnn::ForwardF fwd32;
      gnn.forward_f32(pb, trace.at(0), nullptr, fwd32, plan);
      expect_gathers_match_reference(pb, gnn, fwd32);
    }
  }
}

}  // namespace
}  // namespace teal
