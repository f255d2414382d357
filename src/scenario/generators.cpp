#include "scenario/generators.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

namespace teal::scenario {

namespace {

// Purpose tags for the keyed CounterRng streams (util::Rng::mix_seed). Fixed
// constants: renumbering them changes every generated graph.
constexpr std::uint64_t kTagPositions = 1;
constexpr std::uint64_t kTagCapacity = 2;
constexpr std::uint64_t kTagWaxmanPairs = 3;
constexpr std::uint64_t kTagAttachment = 4;
constexpr std::uint64_t kTagLatency = 5;

// Latency scale for Waxman's Euclidean lengths: the bundled fiber maps carry
// latencies in single-digit milliseconds-as-units, so a unit rectangle
// diagonal maps to ~10.
constexpr double kWaxmanLatencyScale = 10.0;

}  // namespace

void CapacityDist::validate() const {
  if (!(lo > 0.0)) throw std::invalid_argument("CapacityDist: lo must be > 0");
  if (!(hi >= lo && std::isfinite(hi))) {
    throw std::invalid_argument("CapacityDist: hi must be finite and >= lo");
  }
  if (!(sigma >= 0.0 && std::isfinite(sigma))) {
    throw std::invalid_argument("CapacityDist: sigma must be finite and >= 0");
  }
  if (!(hi_fraction >= 0.0 && hi_fraction <= 1.0)) {
    throw std::invalid_argument("CapacityDist: hi_fraction must be in [0, 1]");
  }
}

double CapacityDist::sample(util::CounterRng& rng) const {
  switch (kind) {
    case Kind::kUniform:
      return lo + rng.uniform() * (hi - lo);
    case Kind::kLognormal: {
      const double median = std::sqrt(lo * hi);
      return std::clamp(median * std::exp(sigma * rng.normal()), lo, hi);
    }
    case Kind::kBimodal:
      return rng.uniform() < hi_fraction ? hi : lo;
  }
  throw std::logic_error("CapacityDist: unknown kind");
}

topo::Graph make_waxman(const WaxmanConfig& cfg) {
  if (cfg.n_nodes < 2) throw std::invalid_argument("make_waxman: n_nodes must be >= 2");
  const int n_links = cfg.n_links > 0 ? cfg.n_links : 2 * cfg.n_nodes;
  if (n_links < cfg.n_nodes - 1) {
    throw std::invalid_argument(
        "make_waxman: n_links must be >= n_nodes - 1 (connectivity backbone)");
  }
  if (!(cfg.alpha > 0.0 && cfg.alpha <= 1.0)) {
    throw std::invalid_argument("make_waxman: alpha must be in (0, 1]");
  }
  if (!(cfg.beta > 0.0 && cfg.beta <= 1.0)) {
    throw std::invalid_argument("make_waxman: beta must be in (0, 1]");
  }
  if (!(cfg.aspect >= 1.0 && std::isfinite(cfg.aspect))) {
    throw std::invalid_argument("make_waxman: aspect must be finite and >= 1");
  }
  cfg.capacity.validate();

  const auto n = static_cast<std::size_t>(cfg.n_nodes);
  std::vector<double> px(n), py(n);
  {
    util::CounterRng pos(util::Rng::mix_seed(cfg.seed, kTagPositions));
    for (std::size_t i = 0; i < n; ++i) {
      px[i] = pos.uniform() * cfg.aspect;
      py[i] = pos.uniform();
    }
  }
  const double diag = std::hypot(cfg.aspect, 1.0);

  topo::Graph g("Waxman-" + std::to_string(cfg.n_nodes));
  g.add_nodes(cfg.n_nodes);
  util::CounterRng cap(util::Rng::mix_seed(cfg.seed, kTagCapacity));

  const auto dist = [&](std::size_t a, std::size_t b) {
    return std::hypot(px[a] - px[b], py[a] - py[b]);
  };
  std::set<std::pair<topo::NodeId, topo::NodeId>> links;
  const auto add = [&](std::size_t a, std::size_t b) {
    const auto lo_id = static_cast<topo::NodeId>(std::min(a, b));
    const auto hi_id = static_cast<topo::NodeId>(std::max(a, b));
    if (!links.insert({lo_id, hi_id}).second) return false;
    g.add_link(lo_id, hi_id, cfg.capacity.sample(cap),
               kWaxmanLatencyScale * std::max(1e-3, dist(a, b)));
    return true;
  };

  // Connectivity backbone: chain the nodes in coordinate order. Consecutive
  // nodes in that order are spatially close, so the backbone respects the
  // locality the Waxman links also have — and it is O(n log n), unlike the
  // bundled fiber generator's all-pairs MST.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (px[a] != px[b]) return px[a] < px[b];
    if (py[a] != py[b]) return py[a] < py[b];
    return a < b;
  });
  for (std::size_t i = 0; i + 1 < n; ++i) add(order[i], order[i + 1]);

  // Waxman acceptance sampling until the target link count is reached. The
  // attempt cap turns an infeasible density (alpha/beta too small, or
  // n_links close to all pairs) into a loud error instead of a hang.
  util::CounterRng pairs(util::Rng::mix_seed(cfg.seed, kTagWaxmanPairs));
  int have = static_cast<int>(links.size());
  const std::int64_t max_attempts =
      1000ll * std::max<std::int64_t>(1, n_links - have) + 1000000ll;
  std::int64_t attempts = 0;
  while (have < n_links) {
    if (++attempts > max_attempts) {
      throw std::runtime_error(
          "make_waxman: could not place " + std::to_string(n_links) +
          " links after " + std::to_string(attempts - 1) +
          " attempts (alpha/beta too small or graph too dense); have " +
          std::to_string(have));
    }
    const auto a = static_cast<std::size_t>(pairs.next_u64() % n);
    const auto b = static_cast<std::size_t>(pairs.next_u64() % n);
    if (a == b) continue;
    const double p = cfg.alpha * std::exp(-dist(a, b) / (cfg.beta * diag));
    if (pairs.uniform() >= p) continue;
    if (add(a, b)) ++have;
  }
  return g;
}

int power_law_links(const PowerLawConfig& cfg) {
  const int m0 = cfg.m + 1;
  return m0 * (m0 - 1) / 2 + (cfg.n_nodes - m0) * cfg.m;
}

topo::Graph make_power_law(const PowerLawConfig& cfg) {
  if (cfg.m < 1) throw std::invalid_argument("make_power_law: m must be >= 1");
  if (cfg.n_nodes < cfg.m + 2) {
    throw std::invalid_argument("make_power_law: n_nodes must be >= m + 2");
  }
  if (!(cfg.latency_lo > 0.0 && cfg.latency_hi >= cfg.latency_lo)) {
    throw std::invalid_argument("make_power_law: need 0 < latency_lo <= latency_hi");
  }
  if (!std::isfinite(cfg.latency_hi)) {
    throw std::invalid_argument("make_power_law: latency_hi must be finite");
  }
  cfg.capacity.validate();

  topo::Graph g("PowerLaw-" + std::to_string(cfg.n_nodes));
  g.add_nodes(cfg.n_nodes);
  util::CounterRng cap(util::Rng::mix_seed(cfg.seed, kTagCapacity));
  util::CounterRng lat(util::Rng::mix_seed(cfg.seed, kTagLatency));
  util::CounterRng attach(util::Rng::mix_seed(cfg.seed, kTagAttachment));

  // Every link pushes both endpoints; sampling a uniform slot is then
  // degree-proportional attachment (the standard BA trick).
  std::vector<topo::NodeId> endpoints;
  const auto link = [&](topo::NodeId a, topo::NodeId b) {
    g.add_link(a, b, cfg.capacity.sample(cap),
               cfg.latency_lo + lat.uniform() * (cfg.latency_hi - cfg.latency_lo));
    endpoints.push_back(a);
    endpoints.push_back(b);
  };

  // Seed clique on m + 1 nodes: every new node can find m distinct targets.
  const int m0 = cfg.m + 1;
  for (topo::NodeId a = 0; a < m0; ++a) {
    for (topo::NodeId b = a + 1; b < m0; ++b) link(a, b);
  }

  std::vector<topo::NodeId> targets;
  targets.reserve(static_cast<std::size_t>(cfg.m));
  for (topo::NodeId v = m0; v < cfg.n_nodes; ++v) {
    targets.clear();
    // Rejection-sample distinct targets; the deterministic fallback scan
    // guarantees termination even in degenerate degree configurations.
    int guard = 0;
    while (static_cast<int>(targets.size()) < cfg.m) {
      topo::NodeId t =
          endpoints[static_cast<std::size_t>(attach.next_u64() % endpoints.size())];
      if (++guard > 64 * cfg.m) {
        for (topo::NodeId u = 0; u < v && static_cast<int>(targets.size()) < cfg.m; ++u) {
          if (std::find(targets.begin(), targets.end(), u) == targets.end()) {
            targets.push_back(u);
          }
        }
        break;
      }
      if (t == v || std::find(targets.begin(), targets.end(), t) != targets.end()) {
        continue;
      }
      targets.push_back(t);
    }
    for (topo::NodeId t : targets) link(v, t);
  }
  return g;
}

bool graphs_bit_identical(const topo::Graph& a, const topo::Graph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) return false;
  const auto& ea = a.edges();
  const auto& eb = b.edges();
  for (std::size_t i = 0; i < ea.size(); ++i) {
    if (ea[i].src != eb[i].src || ea[i].dst != eb[i].dst) return false;
    if (std::memcmp(&ea[i].capacity, &eb[i].capacity, sizeof(double)) != 0) return false;
    if (std::memcmp(&ea[i].latency, &eb[i].latency, sizeof(double)) != 0) return false;
  }
  return true;
}

}  // namespace teal::scenario
