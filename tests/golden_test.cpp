// Golden digests of the f64 Teal solve. Each case hashes (FNV-1a over the
// raw split bytes) the allocations an untrained TealModel (seed 42) produces
// through TealScheme::solve_into at fixed instance seeds. A refactor of the
// solve path must leave every digest unchanged; an intentional numeric
// change updates the digest together with a CHANGES.md line saying why.
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

}  // namespace
}  // namespace teal
