// Golden digests of the f64 Teal solve, of training and of the precomputed
// paths. Each solve case hashes (FNV-1a over the raw split bytes) the
// allocations an untrained TealModel (seed 42) produces through
// TealScheme::solve_into at fixed instance seeds. Each training case hashes
// the parameters one trainer epoch leaves behind (plus the epoch's reported
// reward/validation scores), for TealModel and every Figure 14 ablation
// variant. Each path case hashes the Yen paths te::Problem precomputes. A
// refactor of the solve, training or path precompute must leave every digest
// unchanged; an intentional numeric change updates the digest together with
// a CHANGES.md line saying why.
//
// The digests pin bits, so they also pin the toolchain: they were computed
// with GCC 12 on x86-64 under ISO C++20 (no GNU extensions, so
// -ffp-contract=off), and the masked softmax's std::exp ties them to the
// platform libm as well.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <ios>
#include <memory>
#include <string>

#include "core/teal_scheme.h"
#include "core/variants.h"
#include "scenario/generators.h"
#include "topo/topology.h"
#include "traffic/traffic.h"

namespace teal {
namespace {

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct GoldenCase {
  std::string name;
  std::function<topo::Graph()> graph;
  int n_demands;
  std::uint64_t digest;
};

// Digest of `n_matrices` consecutive solves on one instance: demands,
// trace and capacity calibration are all seeded, so the instance is fixed.
std::uint64_t solve_digest(const GoldenCase& c, int n_matrices) {
  auto g = c.graph();
  auto demands = traffic::sample_demands(g, c.n_demands, /*seed=*/11);
  te::Problem pb(std::move(g), std::move(demands), 4);
  traffic::TraceConfig tc;
  tc.n_intervals = n_matrices;
  tc.seed = 12;
  auto trace = traffic::generate_trace(pb, tc);
  traffic::calibrate_capacities(pb, trace, 1.5);
  const core::TealSchemeConfig cfg;
  core::TealScheme scheme(pb, std::make_unique<core::TealModel>(cfg.model, pb.k_paths(), 42),
                          cfg);
  std::uint64_t h = 1469598103934665603ull;
  te::Allocation out;
  for (int m = 0; m < n_matrices; ++m) {
    scheme.solve_into(pb, trace.at(m), out);
    h = fnv1a(out.split.data(), out.split.size() * sizeof(double), h);
  }
  return h;
}

TEST(Golden, F64SolveDigestsAreUnchanged) {
  const std::vector<GoldenCase> cases = {
      {"B4", [] { return topo::make_topology("B4"); }, 132, 0xff131ad0b5f8cb70ull},
      {"SWAN", [] { return topo::make_topology("SWAN"); }, 300, 0xc6178a662ba47733ull},
      {"UsCarrier", [] { return topo::make_topology("UsCarrier"); }, 300, 0x508ad84dc53f2906ull},
      {"Kdl", [] { return topo::make_topology("Kdl"); }, 300, 0x74a5f5d0d6f7b906ull},
      {"ASN", [] { return topo::make_topology("ASN"); }, 300, 0x4a507dabc74dd9f4ull},
      {"power-law-150",
       [] {
         scenario::PowerLawConfig pc;
         pc.n_nodes = 150;
         pc.m = 2;
         pc.seed = 7;
         return scenario::make_power_law(pc);
       },
       300, 0x486c6257db43b9c4ull},
  };
  for (const auto& c : cases) {
    const std::uint64_t h = solve_digest(c, 2);
    EXPECT_EQ(h, c.digest) << c.name << ": observed digest 0x" << std::hex << h;
  }
}

// Digest of every path te::Problem precomputes (Yen, k = 4): FNV-1a over
// each path's int32 edge ids, with a '|' byte after each path and a '#' byte
// after each demand. It pins the paths bit for bit, in order, so any rewrite
// of the path precompute must reproduce them exactly. The demand counts stay
// small enough for the sanitizer legs.
std::uint64_t path_digest(const te::Problem& pb) {
  std::uint64_t h = 1469598103934665603ull;
  const char path_end = '|', demand_end = '#';
  for (int d = 0; d < pb.num_demands(); ++d) {
    for (int p = pb.path_begin(d); p < pb.path_end(d); ++p) {
      const auto edges = pb.path_edges(p);
      h = fnv1a(edges.data(), edges.size() * sizeof(topo::EdgeId), h);
      h = fnv1a(&path_end, 1, h);
    }
    h = fnv1a(&demand_end, 1, h);
  }
  return h;
}

TEST(Golden, PathDigestsAreUnchanged) {
  const std::vector<GoldenCase> cases = {
      {"B4", [] { return topo::make_topology("B4"); }, 132, 0x012cbb1cc47458c7ull},
      {"SWAN", [] { return topo::make_topology("SWAN"); }, 1500, 0x8dece9258eb4ea8eull},
      {"UsCarrier", [] { return topo::make_topology("UsCarrier"); }, 1500, 0x4f3e021ab31dfd6bull},
      {"Kdl", [] { return topo::make_topology("Kdl"); }, 1000, 0x9d403cd64e0c8f54ull},
      {"ASN", [] { return topo::make_topology("ASN"); }, 1000, 0x290b2cdf5e035681ull},
      {"waxman-200",
       [] {
         scenario::WaxmanConfig wc;
         wc.n_nodes = 200;
         wc.seed = 5;
         return scenario::make_waxman(wc);
       },
       1500, 0xc74c870a0c003577ull},
      {"power-law-300",
       [] {
         scenario::PowerLawConfig pc;
         pc.n_nodes = 300;
         pc.m = 2;
         pc.seed = 7;
         return scenario::make_power_law(pc);
       },
       1500, 0xa1ca86301fbfcec8ull},
  };
  for (const auto& c : cases) {
    auto g = c.graph();
    auto demands = traffic::sample_demands(g, c.n_demands, /*seed=*/11);
    const te::Problem pb(std::move(g), std::move(demands), 4);
    const std::uint64_t h = path_digest(pb);
    EXPECT_EQ(h, c.digest) << c.name << ": observed digest 0x" << std::hex << h;
  }
}

// One-epoch training digests on B4 at rollout_batch = 1 and workers = 1 (the
// trainer defaults the Figure 14 bench trains with). The digest covers every
// trained parameter byte plus the epoch statistics, so it pins the forward,
// the backward, the optimizer and evaluate_model (the COMA* cases validate).
struct TrainInstance {
  te::Problem pb;
  traffic::Trace train, validation;
};

TrainInstance train_instance() {
  auto g = topo::make_topology("B4");
  auto demands = traffic::sample_demands(g, 132, /*seed=*/11);
  te::Problem pb(std::move(g), std::move(demands), 4);
  traffic::TraceConfig tc;
  tc.n_intervals = 6;
  tc.seed = 12;
  auto trace = traffic::generate_trace(pb, tc);
  traffic::calibrate_capacities(pb, trace, 1.5);
  traffic::Trace train, validation;
  for (int t = 0; t < trace.size(); ++t) {
    (t < 4 ? train : validation).matrices.push_back(trace.at(t));
  }
  return TrainInstance{std::move(pb), std::move(train), std::move(validation)};
}

std::uint64_t params_digest(core::Model& model, const std::vector<double>& stats) {
  std::uint64_t h = 1469598103934665603ull;
  for (const nn::Param* p : model.params()) {
    h = fnv1a(p->w.data().data(), p->w.size() * sizeof(double), h);
  }
  return fnv1a(stats.data(), stats.size() * sizeof(double), h);
}

std::uint64_t coma_digest(core::Model& model, const TrainInstance& inst) {
  core::ComaConfig cfg;
  cfg.epochs = 1;
  cfg.rollout_batch = 1;
  cfg.workers = 1;
  cfg.validation = &inst.validation;
  const core::TrainStats st =
      core::train_coma(model, inst.pb, inst.train, te::Objective::kTotalFlow, cfg);
  std::vector<double> stats = st.epoch_reward;
  stats.insert(stats.end(), st.epoch_validation.begin(), st.epoch_validation.end());
  return params_digest(model, stats);
}

TEST(Golden, TrainingDigestsAreUnchanged) {
  const TrainInstance inst = train_instance();
  const int k = inst.pb.k_paths();
  struct TrainCase {
    std::string name;
    std::function<std::uint64_t()> run;
    std::uint64_t digest;
  };
  const std::vector<TrainCase> cases = {
      {"TealModel/coma",
       [&] {
         core::TealModel m({}, k, 42);
         return coma_digest(m, inst);
       },
       0x1b14d605bedc4738ull},
      {"TealModel/direct",
       [&] {
         core::TealModel m({}, k, 42);
         core::DirectLossConfig cfg;
         cfg.epochs = 1;
         cfg.rollout_batch = 1;
         cfg.workers = 1;
         const core::DirectLossStats st = core::train_direct_loss(
             m, inst.pb, inst.train, te::Objective::kTotalFlow, cfg);
         return params_digest(m, st.epoch_surrogate);
       },
       0xd631b663a361f13full},
      {"NaiveDnn/coma",
       [&] {
         core::NaiveDnnModel m({}, inst.pb, 42);
         return coma_digest(m, inst);
       },
       0xa7d676d1a3b93f2ull},
      {"NaiveGnn/coma",
       [&] {
         core::NaiveGnnModel m({}, inst.pb, 42);
         return coma_digest(m, inst);
       },
       0x17eaad45a4a8d777ull},
      {"GlobalPolicy/coma",
       [&] {
         core::GlobalPolicyConfig gc;
         gc.hidden_dim = 32;
         core::GlobalPolicyModel m(gc, inst.pb, 42);
         return coma_digest(m, inst);
       },
       0x9f05f96f4ba059eull},
  };
  for (const auto& c : cases) {
    const std::uint64_t h = c.run();
    EXPECT_EQ(h, c.digest) << c.name << ": observed digest 0x" << std::hex << h;
  }
}

}  // namespace
}  // namespace teal
