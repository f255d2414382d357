// generators.h — synthetic WAN topology generators (scenario factory, part a).
//
// The five bundled topologies (topo/topology.h) are structure-matched to
// Table 1; everything beyond them comes from here. Two classic random-WAN
// families, parameterized by node/edge count up to ~10× ASN's size:
//
//  * make_waxman    — Waxman (1988) geometric random graph: nodes placed
//                     uniformly in an elongated rectangle, links sampled with
//                     probability alpha * exp(-d / (beta * L)) so short links
//                     dominate (fiber-map locality). A coordinate-sorted
//                     chain backbone guarantees connectivity without the
//                     O(n^2) MST the bundled fiber generator pays, which is
//                     what lets this one reach 10x-ASN node counts.
//  * make_power_law — Barabási–Albert preferential attachment: each new node
//                     links to m existing nodes sampled proportionally to
//                     degree, yielding the heavy-tailed degree distribution
//                     of AS-level graphs (hubs + leaves, short paths).
//
// Determinism contract: both generators draw every random value from
// util::CounterRng streams keyed off the config seed via util::Rng::mix_seed
// — a pure function of (seed, purpose, item) — so regeneration from the same
// config is byte-identical across runs, platforms and call sites
// (tests/scenario_test.cpp pins this with memcmp over the edge arrays).
// Generated graphs are always strongly connected; infeasible configs throw
// std::invalid_argument / std::runtime_error with a named reason instead of
// silently emitting a smaller graph.
#pragma once

#include <cstdint>
#include <string>

#include "topo/graph.h"
#include "util/rng.h"

namespace teal::scenario {

// Per-link capacity distribution. Every kind clamps into [lo, hi], so
// downstream cost models can rely on hard bounds (tests verify them).
struct CapacityDist {
  enum class Kind { kUniform, kLognormal, kBimodal };
  Kind kind = Kind::kUniform;
  double lo = 500.0;   // hard lower bound (> 0)
  double hi = 2000.0;  // hard upper bound (>= lo)
  // kLognormal: median sqrt(lo*hi), log-space spread `sigma`, clamped.
  double sigma = 0.6;
  // kBimodal: fraction of links at `hi` (backbone), remainder at `lo`.
  double hi_fraction = 0.2;

  // Throws std::invalid_argument on lo <= 0, hi < lo, sigma < 0, an
  // infinite hi or sigma, or hi_fraction outside [0, 1].
  void validate() const;
  double sample(util::CounterRng& rng) const;
};

struct WaxmanConfig {
  int n_nodes = 100;
  // Total bidirectional links to emit (>= n_nodes - 1; the chain backbone
  // uses n_nodes - 1 of them). 0 = 2 * n_nodes.
  int n_links = 0;
  double alpha = 0.4;   // acceptance scale, in (0, 1]
  double beta = 0.15;   // locality scale, in (0, 1]: smaller = shorter links
  double aspect = 2.0;  // placement-rectangle width/height (WAN elongation)
  CapacityDist capacity;
  std::uint64_t seed = 1;
};

// Waxman geometric random WAN. Link latency is the Euclidean length (times a
// fixed scale so latencies land in the bundled topologies' range). Throws
// std::runtime_error when the acceptance sampling cannot reach `n_links`
// (alpha/beta too small for the requested density) — loudly, never a
// silently sparser graph.
topo::Graph make_waxman(const WaxmanConfig& cfg);

struct PowerLawConfig {
  int n_nodes = 200;
  // Links each arriving node attaches with (BA's m), >= 1. The seed clique
  // has m + 1 nodes; total links = C(m+1, 2) + (n_nodes - m - 1) * m.
  int m = 2;
  CapacityDist capacity;
  // Latency of each link, drawn uniformly from [latency_lo, latency_hi]
  // (AS-level graphs carry no geometry).
  double latency_lo = 1.0;
  double latency_hi = 10.0;
  std::uint64_t seed = 1;
};

// Barabási–Albert preferential-attachment WAN (connected by construction).
topo::Graph make_power_law(const PowerLawConfig& cfg);

// Expected bidirectional link count of make_power_law for a given config.
int power_law_links(const PowerLawConfig& cfg);

// Byte-level graph equality: same node count and bit-identical edge arrays
// (src, dst, capacity, latency). The regeneration-determinism contract.
bool graphs_bit_identical(const topo::Graph& a, const topo::Graph& b);

}  // namespace teal::scenario
