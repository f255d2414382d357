// Tests for the scenario factory (src/scenario/): generator properties
// (connectedness, locality, degree tails, capacity bounds), determinism
// (byte-identical regeneration from the same seed, distinct output across
// seeds), traffic invariants (nonnegative demands, exact gravity marginals,
// bitwise diurnal periodicity, flash-crowd/shift localization), rolling
// failure schedules (well-formedness, caps, step-vs-jump order determinism),
// the topo_io round-trip fixpoint, the scenario driver's serving contracts —
// including shard- and replica-count bit-identity on a generated topology
// more than twice ASN's size — and the latent-assumption audit regressions
// (path-id overflow, auto-shard overflow signature).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/shard.h"
#include "core/teal_scheme.h"
#include "scenario/scenario.h"
#include "topo/topo_io.h"
#include "topo/topology.h"
#include "traffic/traffic.h"

namespace teal {
namespace {

// Untrained Teal pipeline: deterministic init; the serving/sharding/replica
// contracts are training-independent (same convention as shard_test).
core::TealScheme make_teal(const te::Problem& pb, std::uint64_t seed = 42) {
  return core::TealScheme(
      pb, std::make_unique<core::TealModel>(core::TealModelConfig{}, pb.k_paths(), seed),
      core::TealSchemeConfig{});
}

void expect_bit_identical(const te::Allocation& a, const te::Allocation& b,
                          const std::string& what) {
  ASSERT_EQ(a.split.size(), b.split.size()) << what;
  if (!a.split.empty() &&
      std::memcmp(a.split.data(), b.split.data(),
                  a.split.size() * sizeof(double)) != 0) {
    for (std::size_t i = 0; i < a.split.size(); ++i) {
      ASSERT_EQ(std::memcmp(&a.split[i], &b.split[i], sizeof(double)), 0)
          << what << ", split index " << i << " (" << a.split[i] << " vs "
          << b.split[i] << ")";
    }
  }
}

bool traces_bit_identical(const traffic::Trace& a, const traffic::Trace& b) {
  if (a.size() != b.size()) return false;
  for (int t = 0; t < a.size(); ++t) {
    const auto& va = a.at(t).volume;
    const auto& vb = b.at(t).volume;
    if (va.size() != vb.size()) return false;
    if (!va.empty() &&
        std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

double mean_latency(const topo::Graph& g) {
  double sum = 0.0;
  for (const auto& e : g.edges()) sum += e.latency;
  return sum / static_cast<double>(g.num_edges());
}

// ---- Capacity distribution --------------------------------------------------

TEST(ScenarioGenerators, CapacityDistRespectsHardBounds) {
  for (auto kind : {scenario::CapacityDist::Kind::kUniform,
                    scenario::CapacityDist::Kind::kLognormal,
                    scenario::CapacityDist::Kind::kBimodal}) {
    scenario::CapacityDist dist;
    dist.kind = kind;
    dist.lo = 100.0;
    dist.hi = 900.0;
    util::CounterRng rng(7);
    for (int i = 0; i < 500; ++i) {
      const double c = dist.sample(rng);
      ASSERT_GE(c, dist.lo);
      ASSERT_LE(c, dist.hi);
      if (kind == scenario::CapacityDist::Kind::kBimodal) {
        ASSERT_TRUE(c == dist.lo || c == dist.hi) << c;
      }
    }
  }
}

TEST(ScenarioGenerators, CapacityDistValidateRejectsBadConfigs) {
  scenario::CapacityDist d;
  d.lo = 0.0;
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d = {};
  d.hi = d.lo - 1.0;
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d = {};
  d.sigma = -0.1;
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d = {};
  d.hi_fraction = 1.5;
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d = {};
  EXPECT_NO_THROW(d.validate());
}

// ---- Waxman -----------------------------------------------------------------

TEST(ScenarioGenerators, WaxmanConnectedWithRequestedSize) {
  for (int n : {20, 120}) {
    for (std::uint64_t seed : {1ull, 9ull}) {
      scenario::WaxmanConfig cfg;
      cfg.n_nodes = n;
      cfg.seed = seed;
      const auto g = scenario::make_waxman(cfg);
      EXPECT_EQ(g.num_nodes(), n);
      // Default n_links = 2 * n bidirectional links = 4 * n directed edges.
      EXPECT_EQ(g.num_edges(), 4 * n) << "n=" << n << " seed=" << seed;
      EXPECT_TRUE(g.is_strongly_connected()) << "n=" << n << " seed=" << seed;
      for (const auto& e : g.edges()) {
        EXPECT_GE(e.capacity, cfg.capacity.lo);
        EXPECT_LE(e.capacity, cfg.capacity.hi);
        EXPECT_GT(e.latency, 0.0);
      }
    }
  }
}

TEST(ScenarioGenerators, WaxmanLocalityFollowsBeta) {
  // Smaller beta penalizes long links harder, so the mean link length (and
  // with it the latency, a fixed multiple of length) must drop.
  scenario::WaxmanConfig tight, loose;
  tight.n_nodes = loose.n_nodes = 150;
  tight.seed = loose.seed = 3;
  tight.beta = 0.08;
  loose.beta = 1.0;
  const double lat_tight = mean_latency(scenario::make_waxman(tight));
  const double lat_loose = mean_latency(scenario::make_waxman(loose));
  EXPECT_LT(lat_tight, lat_loose);
}

TEST(ScenarioGenerators, WaxmanInfeasibleConfigsThrowLoudly) {
  scenario::WaxmanConfig cfg;
  cfg.n_nodes = 1;
  EXPECT_THROW(scenario::make_waxman(cfg), std::invalid_argument);
  cfg = {};
  cfg.n_nodes = 50;
  cfg.n_links = 10;  // below the n - 1 backbone
  EXPECT_THROW(scenario::make_waxman(cfg), std::invalid_argument);
  cfg = {};
  cfg.alpha = 0.0;
  EXPECT_THROW(scenario::make_waxman(cfg), std::invalid_argument);
  cfg = {};
  cfg.beta = 1.5;
  EXPECT_THROW(scenario::make_waxman(cfg), std::invalid_argument);
  cfg = {};
  cfg.aspect = 0.5;
  EXPECT_THROW(scenario::make_waxman(cfg), std::invalid_argument);

  // Unreachable density: nearly the full clique at a vanishing acceptance
  // probability must hit the attempt cap and throw, never return a silently
  // sparser graph.
  cfg = {};
  cfg.n_nodes = 40;
  cfg.n_links = 40 * 39 / 2;
  cfg.alpha = 0.01;
  cfg.beta = 0.05;
  EXPECT_THROW(scenario::make_waxman(cfg), std::runtime_error);
}

// ---- Power law --------------------------------------------------------------

TEST(ScenarioGenerators, PowerLawConnectedWithExactLinkCount) {
  for (int n : {50, 400}) {
    for (int m : {2, 3}) {
      scenario::PowerLawConfig cfg;
      cfg.n_nodes = n;
      cfg.m = m;
      const auto g = scenario::make_power_law(cfg);
      EXPECT_EQ(g.num_nodes(), n);
      EXPECT_EQ(g.num_edges(), 2 * scenario::power_law_links(cfg));
      EXPECT_TRUE(g.is_strongly_connected());
      for (const auto& e : g.edges()) {
        EXPECT_GE(e.latency, cfg.latency_lo);
        EXPECT_LE(e.latency, cfg.latency_hi);
      }
    }
  }
}

TEST(ScenarioGenerators, PowerLawDegreeDistributionIsHeavyTailed) {
  scenario::PowerLawConfig cfg;
  cfg.n_nodes = 400;
  cfg.m = 2;
  const auto g = scenario::make_power_law(cfg);
  std::vector<int> degree(static_cast<std::size_t>(g.num_nodes()));
  for (topo::NodeId v = 0; v < g.num_nodes(); ++v) {
    degree[static_cast<std::size_t>(v)] = static_cast<int>(g.out_edges(v).size());
  }
  std::sort(degree.begin(), degree.end());
  const int median = degree[degree.size() / 2];
  const int max_deg = degree.back();
  // Preferential attachment concentrates degree on early hubs; a flat
  // (Erdős–Rényi-like) graph at mean degree ~2m would have max ≈ median.
  EXPECT_GE(median, cfg.m);
  EXPECT_GT(max_deg, 3 * median)
      << "median=" << median << " max=" << max_deg;
}

TEST(ScenarioGenerators, PowerLawInvalidConfigsThrow) {
  scenario::PowerLawConfig cfg;
  cfg.m = 0;
  EXPECT_THROW(scenario::make_power_law(cfg), std::invalid_argument);
  cfg = {};
  cfg.n_nodes = cfg.m + 1;
  EXPECT_THROW(scenario::make_power_law(cfg), std::invalid_argument);
  cfg = {};
  cfg.latency_lo = 0.0;
  EXPECT_THROW(scenario::make_power_law(cfg), std::invalid_argument);
}

// ---- Regeneration determinism ----------------------------------------------

TEST(ScenarioGenerators, SameSeedRegeneratesByteIdenticalGraphs) {
  scenario::WaxmanConfig w;
  w.n_nodes = 80;
  w.seed = 17;
  EXPECT_TRUE(scenario::graphs_bit_identical(scenario::make_waxman(w),
                                             scenario::make_waxman(w)));
  scenario::PowerLawConfig p;
  p.n_nodes = 120;
  p.seed = 17;
  EXPECT_TRUE(scenario::graphs_bit_identical(scenario::make_power_law(p),
                                             scenario::make_power_law(p)));
}

TEST(ScenarioGenerators, DistinctSeedsProduceDistinctGraphs) {
  scenario::WaxmanConfig w1, w2;
  w1.n_nodes = w2.n_nodes = 80;
  w1.seed = 1;
  w2.seed = 2;
  EXPECT_FALSE(scenario::graphs_bit_identical(scenario::make_waxman(w1),
                                              scenario::make_waxman(w2)));
  scenario::PowerLawConfig p1, p2;
  p1.n_nodes = p2.n_nodes = 120;
  p1.seed = 1;
  p2.seed = 2;
  EXPECT_FALSE(scenario::graphs_bit_identical(scenario::make_power_law(p1),
                                              scenario::make_power_law(p2)));
}

// ---- topo_io round trip -----------------------------------------------------

TEST(ScenarioTopoIo, SaveLoadSaveIsAByteIdenticalFixpoint) {
  scenario::WaxmanConfig cfg;
  cfg.n_nodes = 30;
  cfg.seed = 5;
  cfg.capacity.kind = scenario::CapacityDist::Kind::kLognormal;
  const auto g = scenario::make_waxman(cfg);

  std::ostringstream first;
  topo::save_topology(g, first);
  std::istringstream in(first.str());
  const auto loaded = topo::load_topology(in);
  std::ostringstream second;
  topo::save_topology(loaded, second);

  EXPECT_EQ(first.str(), second.str());
  EXPECT_EQ(loaded.name(), g.name());  // header carries the name
  EXPECT_TRUE(scenario::graphs_bit_identical(g, loaded));
}

TEST(ScenarioTopoIo, FileRoundTripPrefersHeaderNameOverFilename) {
  scenario::PowerLawConfig cfg;
  cfg.n_nodes = 25;
  const auto g = scenario::make_power_law(cfg);
  const std::string path = "scenario_test_roundtrip.topo";
  topo::save_topology_file(g, path);
  const auto loaded = topo::load_topology_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.name(), g.name());
  EXPECT_TRUE(scenario::graphs_bit_identical(g, loaded));
}

TEST(ScenarioTopoIo, ExplicitNameAlwaysWinsAndLoadedIsNotASentinel) {
  // An explicit name wins over the header — even the name "loaded", which an
  // earlier revision treated as a no-explicit-name sentinel.
  std::istringstream in1("# topology fancy\nnodes 2\nedge 0 1 1.0 1.0\n");
  EXPECT_EQ(topo::load_topology(in1, "loaded").name(), "loaded");
  // No explicit name: the header names the graph…
  std::istringstream in2("# topology fancy\nnodes 1\n");
  EXPECT_EQ(topo::load_topology(in2).name(), "fancy");
  // …and without a header the fallback name applies.
  std::istringstream in3("nodes 1\n");
  EXPECT_EQ(topo::load_topology(in3).name(), "topology");

  // A file whose header legitimately names the graph "loaded" keeps that
  // name instead of falling back to the filename.
  topo::Graph g("loaded");
  g.add_nodes(2);
  g.add_edge(0, 1, 3.0, 1.0);
  const std::string path = "scenario_test_loaded_name.topo";
  topo::save_topology_file(g, path);
  const auto from_file = topo::load_topology_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(from_file.name(), "loaded");
}

// ---- Gravity traffic --------------------------------------------------------

struct TrafficSetup {
  te::Problem pb;
};

TrafficSetup traffic_setup(int n_nodes = 60, int n_demands = 150) {
  scenario::PowerLawConfig cfg;
  cfg.n_nodes = n_nodes;
  auto g = scenario::make_power_law(cfg);
  auto demands = traffic::sample_demands(g, n_demands, /*seed=*/7);
  return TrafficSetup{te::Problem(std::move(g), std::move(demands), 4)};
}

TEST(ScenarioTraffic, TraceIsNonnegativeAndByteIdenticalAcrossRegeneration) {
  const auto s = traffic_setup();
  scenario::GravityTrafficConfig cfg;
  cfg.n_intervals = 10;
  cfg.noise_sigma = 0.2;
  cfg.diurnal_amplitude = 0.4;
  cfg.diurnal_period = 5;
  const auto a = scenario::generate_gravity_trace(s.pb, cfg);
  const auto b = scenario::generate_gravity_trace(s.pb, cfg);
  EXPECT_TRUE(traces_bit_identical(a, b));
  for (int t = 0; t < a.size(); ++t) {
    for (double v : a.at(t).volume) ASSERT_GT(v, 0.0);
  }
  scenario::GravityTrafficConfig other = cfg;
  other.seed = cfg.seed + 1;
  EXPECT_FALSE(
      traces_bit_identical(a, scenario::generate_gravity_trace(s.pb, other)));
}

TEST(ScenarioTraffic, UnmodulatedTraceMatchesGravityMarginalsExactly) {
  const auto s = traffic_setup();
  scenario::GravityTrafficConfig cfg;
  cfg.n_intervals = 4;
  cfg.noise_sigma = 0.0;  // modulators all off: volume(t, d) == base(d)
  const auto base = scenario::gravity_base_volumes(s.pb, cfg);
  const auto trace = scenario::generate_gravity_trace(s.pb, cfg);
  ASSERT_EQ(base.size(), static_cast<std::size_t>(s.pb.num_demands()));
  for (int t = 0; t < trace.size(); ++t) {
    const auto& v = trace.at(t).volume;
    ASSERT_EQ(v.size(), base.size());
    for (std::size_t d = 0; d < base.size(); ++d) {
      ASSERT_EQ(v[d], base[d]) << "t=" << t << " d=" << d;
    }
  }
}

TEST(ScenarioTraffic, DiurnalCycleIsBitwisePeriodicWithoutNoise) {
  const auto s = traffic_setup();
  scenario::GravityTrafficConfig cfg;
  cfg.n_intervals = 24;
  cfg.diurnal_amplitude = 0.4;
  cfg.diurnal_period = 8;
  const auto trace = scenario::generate_gravity_trace(s.pb, cfg);
  for (int t = 0; t + cfg.diurnal_period < trace.size(); ++t) {
    const auto& a = trace.at(t).volume;
    const auto& b = trace.at(t + cfg.diurnal_period).volume;
    ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << "t=" << t;
  }
  // And the cycle actually modulates: intervals within one period differ.
  EXPECT_NE(trace.at(0).volume[0], trace.at(2).volume[0]);
}

TEST(ScenarioTraffic, FlashCrowdScalesOnlyHotDemandsInsideTheWindow) {
  const auto s = traffic_setup();
  scenario::GravityTrafficConfig off;
  off.n_intervals = 12;
  scenario::GravityTrafficConfig on = off;
  on.flash = scenario::FlashCrowd{/*t_start=*/4, /*duration=*/3,
                                  /*magnitude=*/4.0, /*hot_fraction=*/0.1};

  const auto hot = scenario::flash_hot_demands(s.pb, on);
  const auto base = scenario::gravity_base_volumes(s.pb, on);
  const auto nd = static_cast<std::size_t>(s.pb.num_demands());
  ASSERT_EQ(hot.size(), static_cast<std::size_t>(
                            std::ceil(0.1 * static_cast<double>(nd))));
  // Hot set = top-k by base volume: every hot demand's base >= every cold one.
  double min_hot = 1e300, max_cold = -1e300;
  std::vector<char> is_hot(nd, 0);
  for (std::size_t d : hot) is_hot[d] = 1;
  for (std::size_t d = 0; d < nd; ++d) {
    if (is_hot[d]) {
      min_hot = std::min(min_hot, base[d]);
    } else {
      max_cold = std::max(max_cold, base[d]);
    }
  }
  EXPECT_GE(min_hot, max_cold);

  const auto ta = scenario::generate_gravity_trace(s.pb, off);
  const auto tb = scenario::generate_gravity_trace(s.pb, on);
  for (int t = 0; t < ta.size(); ++t) {
    const bool in_window = t >= 4 && t < 7;
    for (std::size_t d = 0; d < nd; ++d) {
      const double expect = in_window && is_hot[d]
                                ? ta.at(t).volume[d] * (1.0 + 4.0)
                                : ta.at(t).volume[d];
      ASSERT_EQ(tb.at(t).volume[d], expect) << "t=" << t << " d=" << d;
    }
  }
}

TEST(ScenarioTraffic, SustainedShiftScalesTheKeyedSubsetFromItsStart) {
  const auto s = traffic_setup();
  scenario::GravityTrafficConfig off;
  off.n_intervals = 10;
  scenario::GravityTrafficConfig on = off;
  on.shift = scenario::DemandShift{/*t_start=*/6, /*factor=*/2.5,
                                   /*shifted_fraction=*/0.3};

  const auto shifted = scenario::shift_demand_set(s.pb, on);
  const auto nd = static_cast<std::size_t>(s.pb.num_demands());
  // Keyed Bernoulli(0.3) subset: deterministic, and statistically sane.
  EXPECT_EQ(shifted, scenario::shift_demand_set(s.pb, on));
  EXPECT_GT(shifted.size(), nd / 10);
  EXPECT_LT(shifted.size(), nd / 2);
  std::vector<char> in_set(nd, 0);
  for (std::size_t d : shifted) in_set[d] = 1;

  const auto ta = scenario::generate_gravity_trace(s.pb, off);
  const auto tb = scenario::generate_gravity_trace(s.pb, on);
  for (int t = 0; t < ta.size(); ++t) {
    for (std::size_t d = 0; d < nd; ++d) {
      const double expect = (t >= 6 && in_set[d]) ? ta.at(t).volume[d] * 2.5
                                                  : ta.at(t).volume[d];
      ASSERT_EQ(tb.at(t).volume[d], expect) << "t=" << t << " d=" << d;
    }
  }
}

TEST(ScenarioTraffic, ValidateRejectsOutOfRangeConfigs) {
  const auto s = traffic_setup(30, 40);
  scenario::GravityTrafficConfig cfg;
  cfg.diurnal_amplitude = 1.0;
  EXPECT_THROW(scenario::generate_gravity_trace(s.pb, cfg), std::invalid_argument);
  cfg = {};
  cfg.diurnal_period = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.mean_volume = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.n_intervals = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.flash = scenario::FlashCrowd{0, 2, 1.0, /*hot_fraction=*/0.0};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.shift = scenario::DemandShift{0, /*factor=*/0.0, 0.3};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// ---- Rolling failures -------------------------------------------------------

scenario::RollingFailureConfig churn_config() {
  scenario::RollingFailureConfig cfg;
  cfg.seed = 99;
  cfg.hazard = 0.08;
  cfg.repair_after = 3;
  cfg.max_concurrent = 2;
  return cfg;
}

TEST(ScenarioFailures, ScheduleIsDeterministicAndWellFormed) {
  scenario::PowerLawConfig pcfg;
  pcfg.n_nodes = 80;
  const auto g = scenario::make_power_law(pcfg);
  const auto cfg = churn_config();
  const auto events = scenario::make_rolling_failures(g, 30, cfg);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.size(), scenario::make_rolling_failures(g, 30, cfg).size());

  int prev = -1;
  for (const auto& ev : events) {
    EXPECT_GE(ev.interval, prev);  // sorted by interval
    prev = ev.interval;
    // The pair really is one physical link, both directions.
    const auto& fe = g.edge(ev.fwd);
    EXPECT_LT(fe.src, fe.dst);
    EXPECT_EQ(ev.rev, g.find_edge(fe.dst, fe.src));
  }

  // Every failure inside the horizon repairs exactly repair_after later.
  std::map<topo::EdgeId, int> down_since;
  for (const auto& ev : events) {
    if (ev.fail) {
      ASSERT_EQ(down_since.count(ev.fwd), 0u) << "double failure";
      down_since[ev.fwd] = ev.interval;
    } else {
      ASSERT_EQ(down_since.count(ev.fwd), 1u) << "repair of a healthy link";
      EXPECT_EQ(ev.interval, down_since[ev.fwd] + cfg.repair_after);
      down_since.erase(ev.fwd);
    }
  }
  for (const auto& [e, t] : down_since) {
    EXPECT_GE(t + cfg.repair_after, 30) << "missing repair for edge " << e;
  }
}

TEST(ScenarioFailures, ConcurrencyCapIsNeverExceeded) {
  scenario::PowerLawConfig pcfg;
  pcfg.n_nodes = 120;
  const auto g = scenario::make_power_law(pcfg);
  auto cfg = churn_config();
  cfg.hazard = 0.5;  // aggressive churn to stress the cap
  const auto events = scenario::make_rolling_failures(g, 25, cfg);
  int down = 0;
  for (const auto& ev : events) {
    down += ev.fail ? 1 : -1;
    ASSERT_GE(down, 0);
    ASSERT_LE(down, cfg.max_concurrent);
  }
  // The cap must actually bind under 50% hazard on ~230 links.
  EXPECT_FALSE(events.empty());
}

TEST(ScenarioFailures, StateStepJumpAndReplayAgree) {
  scenario::PowerLawConfig pcfg;
  pcfg.n_nodes = 60;
  const auto g = scenario::make_power_law(pcfg);
  const int horizon = 20;
  const auto events = scenario::make_rolling_failures(g, horizon, churn_config());
  ASSERT_FALSE(events.empty());

  scenario::FailureState stepped(g, events);
  for (int t = 0; t < horizon; ++t) {
    const auto& a = stepped.capacities_at(t);
    scenario::FailureState jumped(g, events);  // random access from scratch
    const auto& b = jumped.capacities_at(t);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << "t=" << t;
    ASSERT_EQ(stepped.failed_links(), jumped.failed_links()) << "t=" << t;
  }
  // Decreasing t replays from scratch instead of returning stale state.
  const auto at0 = stepped.capacities_at(0);
  scenario::FailureState fresh(g, events);
  EXPECT_EQ(std::memcmp(at0.data(), fresh.capacities_at(0).data(),
                        at0.size() * sizeof(double)),
            0);

  const auto starts = scenario::failure_epoch_starts(events);
  ASSERT_FALSE(starts.empty());
  for (std::size_t i = 1; i < starts.size(); ++i) {
    EXPECT_LT(starts[i - 1], starts[i]);
  }
  std::set<int> intervals;
  for (const auto& ev : events) intervals.insert(ev.interval);
  EXPECT_EQ(starts.size(), intervals.size());
}

// Regression: run_scenario writes each epoch's capacities — including the
// 0.0 of a failed link — back into the live graph before querying the next
// epoch. FailureState must restore the *pre-failure* capacity on repair from
// its construction-time snapshot, not re-read the (zeroed) live graph.
TEST(ScenarioFailures, RepairRestoresPreFailureCapacityAfterGraphMutation) {
  scenario::PowerLawConfig pcfg;
  pcfg.n_nodes = 20;
  auto g = scenario::make_power_law(pcfg);

  topo::EdgeId fwd = topo::kInvalidEdge, rev = topo::kInvalidEdge;
  for (topo::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& ed = g.edge(e);
    if (ed.src >= ed.dst) continue;
    rev = g.find_edge(ed.dst, ed.src);
    if (rev != topo::kInvalidEdge) {
      fwd = e;
      break;
    }
  }
  ASSERT_NE(fwd, topo::kInvalidEdge);
  const double orig_cap = g.edge(fwd).capacity;
  ASSERT_GT(orig_cap, 0.0);

  const std::vector<scenario::FailureEvent> events = {{0, true, fwd, rev},
                                                      {4, false, fwd, rev}};
  scenario::FailureState state(g, events);

  // The run_scenario interleave: apply epoch capacities to the graph, then
  // ask for the next epoch.
  for (int t : {0, 4}) {
    const auto& caps = state.capacities_at(t);
    if (t == 0) {
      EXPECT_EQ(caps[static_cast<std::size_t>(fwd)], 0.0);
      EXPECT_EQ(caps[static_cast<std::size_t>(rev)], 0.0);
    }
    for (topo::EdgeId e = 0; e < g.num_edges(); ++e) {
      g.set_capacity(e, caps[static_cast<std::size_t>(e)]);
    }
  }
  EXPECT_EQ(g.edge(fwd).capacity, orig_cap);
  EXPECT_EQ(g.edge(rev).capacity, orig_cap);
  EXPECT_EQ(state.failed_links(), 0);

  // reset() (triggered by a decreasing t) must replay from the snapshot too,
  // even with the live graph poisoned.
  g.set_capacity(fwd, 0.0);
  g.set_capacity(rev, 0.0);
  EXPECT_EQ(state.capacities_at(0)[static_cast<std::size_t>(fwd)], 0.0);
  EXPECT_EQ(state.capacities_at(4)[static_cast<std::size_t>(fwd)], orig_cap);
  EXPECT_EQ(state.capacities_at(4)[static_cast<std::size_t>(rev)], orig_cap);
}

TEST(ScenarioFailures, ConfigAndEventOrderValidation) {
  scenario::RollingFailureConfig cfg;
  cfg.hazard = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.repair_after = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.max_concurrent = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  scenario::PowerLawConfig pcfg;
  pcfg.n_nodes = 10;
  const auto g = scenario::make_power_law(pcfg);
  std::vector<scenario::FailureEvent> unsorted = {
      {5, true, 0, 1}, {2, true, 2, 3}};
  EXPECT_THROW(scenario::FailureState(g, unsorted), std::invalid_argument);
}

// ---- Scenario driver --------------------------------------------------------

TEST(ScenarioDriver, NamedScenariosBuildAndUnknownNamesThrow) {
  for (const auto& name : scenario::scenario_names()) {
    const auto spec = scenario::named_scenario(name, 60);
    const auto sc = scenario::build_scenario(spec);
    EXPECT_EQ(sc.pb.graph().num_nodes(), 60) << name;
    EXPECT_TRUE(sc.pb.graph().is_strongly_connected()) << name;
    EXPECT_EQ(sc.trace.size(), 24) << name;
    if (name == "rolling-failure") {
      EXPECT_FALSE(sc.failures.empty()) << name;
    } else {
      EXPECT_TRUE(sc.failures.empty()) << name;
    }
  }
  EXPECT_THROW(scenario::named_scenario("no-such-scenario", 60),
               std::invalid_argument);
}

TEST(ScenarioDriver, BuildScenarioRegeneratesByteIdentically) {
  const auto spec = scenario::named_scenario("rolling-failure", 80, /*seed=*/5);
  const auto a = scenario::build_scenario(spec);
  const auto b = scenario::build_scenario(spec);
  EXPECT_TRUE(scenario::graphs_bit_identical(a.pb.graph(), b.pb.graph()));
  EXPECT_TRUE(traces_bit_identical(a.trace, b.trace));
  ASSERT_EQ(a.pb.num_demands(), b.pb.num_demands());
  for (int d = 0; d < a.pb.num_demands(); ++d) {
    EXPECT_EQ(a.pb.demand(d).src, b.pb.demand(d).src);
    EXPECT_EQ(a.pb.demand(d).dst, b.pb.demand(d).dst);
  }
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].interval, b.failures[i].interval);
    EXPECT_EQ(a.failures[i].fail, b.failures[i].fail);
    EXPECT_EQ(a.failures[i].fwd, b.failures[i].fwd);
    EXPECT_EQ(a.failures[i].rev, b.failures[i].rev);
  }
}

TEST(ScenarioDriver, ColdSchemesAndFactoriesResolveByName) {
  const auto spec = scenario::named_scenario("baseline", 30);
  const auto sc = scenario::build_scenario(spec);
  for (const char* name : {"Teal", "LP-all", "LP-top"}) {
    EXPECT_NE(scenario::make_cold_scheme(name, sc.pb), nullptr) << name;
  }
  EXPECT_TRUE(scenario::make_cold_scheme("Teal", sc.pb)->has_warm_state());
  EXPECT_EQ(scenario::cold_scheme_factory("Teal", sc.pb), nullptr);
  const auto factory = scenario::cold_scheme_factory("LP-top", sc.pb);
  ASSERT_NE(factory, nullptr);
  EXPECT_NE(factory(), nullptr);
  EXPECT_THROW(scenario::make_cold_scheme("Gurobi", sc.pb), std::invalid_argument);
  EXPECT_THROW(scenario::cold_scheme_factory("Gurobi", sc.pb),
               std::invalid_argument);
}

TEST(ScenarioDriver, RunScenarioBalancesLedgerAndRestoresCapacities) {
  auto sc = scenario::build_scenario(scenario::named_scenario("rolling-failure", 60));
  ASSERT_FALSE(sc.failures.empty());
  const auto caps_before = sc.pb.capacities();

  auto scheme = make_teal(sc.pb);
  sim::ServedFleetConfig cfg;
  cfg.total_replicas = 1;
  cfg.serve.queue_capacity = static_cast<std::size_t>(sc.trace.size());
  const auto res = scenario::run_scenario(scheme, sc, cfg);

  EXPECT_GT(res.n_epochs, 1);  // churn actually split the replay
  EXPECT_EQ(res.stats.offered, static_cast<std::uint64_t>(sc.trace.size()));
  EXPECT_EQ(res.stats.accepted + res.stats.shed, res.stats.offered);
  EXPECT_EQ(res.stats.completed, res.stats.accepted);
  ASSERT_EQ(res.allocs.size(), static_cast<std::size_t>(sc.trace.size()));
  ASSERT_EQ(res.satisfied_pct.size(), res.allocs.size());
  for (std::size_t i = 0; i < res.satisfied_pct.size(); ++i) {
    EXPECT_GE(res.satisfied_pct[i], 0.0);
    EXPECT_LE(res.satisfied_pct[i], 100.0);
  }
  EXPECT_GT(res.mean_satisfied_pct, 0.0);

  const auto caps_after = sc.pb.capacities();
  ASSERT_EQ(caps_before.size(), caps_after.size());
  EXPECT_EQ(std::memcmp(caps_before.data(), caps_after.data(),
                        caps_before.size() * sizeof(double)),
            0);
}

TEST(ScenarioDriver, RollingFailureReplayBitIdenticalAcrossReplicaCounts) {
  auto sc = scenario::build_scenario(scenario::named_scenario("rolling-failure", 60));
  auto scheme = make_teal(sc.pb);

  std::vector<scenario::ScenarioRunResult> runs;
  for (std::size_t replicas : {1u, 2u, 3u}) {
    sim::ServedFleetConfig cfg;
    cfg.total_replicas = replicas;
    cfg.serve.queue_capacity = static_cast<std::size_t>(sc.trace.size());
    runs.push_back(scenario::run_scenario(scheme, sc, cfg));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].allocs.size(), runs[0].allocs.size());
    EXPECT_EQ(runs[r].n_epochs, runs[0].n_epochs);
    for (std::size_t t = 0; t < runs[0].allocs.size(); ++t) {
      ASSERT_TRUE(runs[0].accepted[t]);  // queue sized to the trace: no shed
      ASSERT_TRUE(runs[r].accepted[t]);
      expect_bit_identical(runs[r].allocs[t], runs[0].allocs[t],
                           "replicas=" + std::to_string(r + 1) +
                               " t=" + std::to_string(t));
    }
  }
}

// Regression (end to end): after a failed link repairs, the post-repair
// epochs of a run_scenario replay must be bit-identical to a run with no
// failures at all — the repair restored the pre-failure capacity, not the
// zero that run_scenario wrote into the live graph during the outage.
TEST(ScenarioDriver, PostRepairEpochsMatchNoFailureRun) {
  const auto spec = scenario::named_scenario("baseline", 36);
  auto plain = scenario::build_scenario(spec);
  auto failing = scenario::build_scenario(spec);  // bit-identical twin

  // Fail the highest-capacity physical link: in the calibrated (congested)
  // regime LP-all certainly routes over it, so the outage epochs differ and
  // the post-repair equality below is a real check, not a vacuous one.
  const auto& g = failing.pb.graph();
  topo::EdgeId fwd = topo::kInvalidEdge, rev = topo::kInvalidEdge;
  double best = -1.0;
  for (topo::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& ed = g.edge(e);
    if (ed.src >= ed.dst) continue;
    const topo::EdgeId r = g.find_edge(ed.dst, ed.src);
    if (r != topo::kInvalidEdge && ed.capacity > best) {
      best = ed.capacity;
      fwd = e;
      rev = r;
    }
  }
  ASSERT_NE(fwd, topo::kInvalidEdge);
  const int t_fail = 2, t_repair = 6;
  failing.failures = {{t_fail, true, fwd, rev}, {t_repair, false, fwd, rev}};

  sim::ServedFleetConfig cfg;
  cfg.total_replicas = 1;
  cfg.serve.queue_capacity = static_cast<std::size_t>(plain.trace.size());
  auto run = [&](scenario::Scenario& sc) {
    auto scheme = scenario::make_cold_scheme("LP-all", sc.pb);
    return scenario::run_scenario(*scheme, sc, cfg,
                                  scenario::cold_scheme_factory("LP-all", sc.pb));
  };
  const auto r_plain = run(plain);
  const auto r_fail = run(failing);

  EXPECT_EQ(r_plain.n_epochs, 1);
  EXPECT_EQ(r_fail.n_epochs, 3);
  ASSERT_EQ(r_fail.allocs.size(), r_plain.allocs.size());
  bool outage_differs = false;
  for (int t = t_fail; t < t_repair; ++t) {
    const auto i = static_cast<std::size_t>(t);
    ASSERT_TRUE(r_plain.accepted[i] && r_fail.accepted[i]);
    outage_differs |=
        std::memcmp(r_plain.allocs[i].split.data(), r_fail.allocs[i].split.data(),
                    r_plain.allocs[i].split.size() * sizeof(double)) != 0;
  }
  EXPECT_TRUE(outage_differs) << "failed link carried no traffic; test is vacuous";
  for (std::size_t t = static_cast<std::size_t>(t_repair);
       t < r_plain.allocs.size(); ++t) {
    ASSERT_TRUE(r_plain.accepted[t] && r_fail.accepted[t]);
    expect_bit_identical(r_fail.allocs[t], r_plain.allocs[t],
                         "post-repair t=" + std::to_string(t));
    EXPECT_DOUBLE_EQ(r_fail.satisfied_pct[t], r_plain.satisfied_pct[t]);
  }
}

// The acceptance-scale contract: on a generated power-law WAN more than twice
// ASN's 1739 nodes, a served replay is byte-identical for every shard count
// and every replica count — the cost models and fan-out paths hold far
// outside the bundled-topology sizes they were tuned on.
TEST(ScenarioDriver, TwiceAsnScaleShardAndReplicaBitIdentity) {
  scenario::ScenarioSpec spec = scenario::named_scenario("baseline", 3600);
  spec.n_demands = 250;  // demand-capped, full topology (substitution #5)
  spec.traffic.n_intervals = 3;
  auto sc = scenario::build_scenario(spec);
  ASSERT_GE(sc.pb.graph().num_nodes(), 2 * 1739);
  ASSERT_TRUE(sc.pb.graph().is_strongly_connected());

  auto scheme = make_teal(sc.pb);
  auto run = [&](std::size_t replicas, int shards) {
    scheme.set_shard_count(shards);  // read by each replica at construction
    sim::ServedFleetConfig cfg;
    cfg.total_replicas = replicas;
    cfg.serve.queue_capacity = static_cast<std::size_t>(sc.trace.size());
    return scenario::run_scenario(scheme, sc, cfg);
  };

  const auto ref = run(1, 1);  // one replica, sequential solve
  ASSERT_EQ(ref.allocs.size(), static_cast<std::size_t>(sc.trace.size()));
  for (int shards : {2, 4}) {
    const auto got = run(1, shards);
    for (std::size_t t = 0; t < ref.allocs.size(); ++t) {
      expect_bit_identical(got.allocs[t], ref.allocs[t],
                           "shards=" + std::to_string(shards) +
                               " t=" + std::to_string(t));
    }
  }
  for (std::size_t replicas : {2u, 3u}) {
    const auto got = run(replicas, 0);  // auto shards per replica
    for (std::size_t t = 0; t < ref.allocs.size(); ++t) {
      expect_bit_identical(got.allocs[t], ref.allocs[t],
                           "replicas=" + std::to_string(replicas) +
                               " t=" + std::to_string(t));
    }
  }
}

TEST(ScenarioDriver, FleetReplayMatchesSingleTenantRunsBitIdentically) {
  std::vector<scenario::Scenario> scenarios;
  scenarios.push_back(scenario::build_scenario(scenario::named_scenario("baseline", 40)));
  scenarios.push_back(scenario::build_scenario(scenario::named_scenario("diurnal", 50)));

  sim::ServedFleetConfig fcfg;
  fcfg.total_replicas = 3;
  fcfg.serve.queue_capacity = 64;
  const auto fleet = scenario::run_scenario_fleet(scenarios, "Teal", fcfg);
  ASSERT_EQ(fleet.served.tenants.size(), 2u);
  ASSERT_EQ(fleet.mean_satisfied_pct.size(), 2u);

  // Replica/shard counts are latency knobs, so each tenant's fleet allocs
  // must equal a dedicated single-tenant replay bit for bit.
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    auto& sc = scenarios[i];
    auto scheme = make_teal(sc.pb);
    sim::ServedFleetConfig cfg;
    cfg.total_replicas = 1;
    cfg.serve.queue_capacity = static_cast<std::size_t>(sc.trace.size());
    const auto solo = scenario::run_scenario(scheme, sc, cfg);
    const auto& tenant = fleet.served.tenants[i];
    ASSERT_EQ(tenant.allocs.size(), solo.allocs.size());
    for (std::size_t t = 0; t < solo.allocs.size(); ++t) {
      ASSERT_TRUE(tenant.accepted[t] && solo.accepted[t]);
      expect_bit_identical(tenant.allocs[t], solo.allocs[t],
                           sc.name + " t=" + std::to_string(t));
    }
    EXPECT_GT(fleet.mean_satisfied_pct[i], 0.0);
  }

  // Failure schedules have no epoch boundary in the merged fleet clock.
  std::vector<scenario::Scenario> with_failures;
  with_failures.push_back(
      scenario::build_scenario(scenario::named_scenario("rolling-failure", 40)));
  EXPECT_THROW(scenario::run_scenario_fleet(with_failures, "Teal", fcfg),
               std::invalid_argument);
}

// ---- Latent-assumption audit regressions ------------------------------------

TEST(ScenarioAudit, AutoShardCountRejectsOverflowSignatures) {
  // Negative inputs are the int-overflow signature of an uncapped generated
  // problem; the cost model must refuse instead of silently mis-costing.
  EXPECT_THROW(core::auto_shard_count(-1, 100, 4), std::invalid_argument);
  EXPECT_THROW(core::auto_shard_count(100, -5, 4), std::invalid_argument);
  // Legitimate generated-scale inputs still cost sanely.
  EXPECT_GE(core::auto_shard_count(60000, 240000, 8), 1);
  EXPECT_EQ(core::auto_shard_count(0, 0, 8), 1);
}

TEST(ScenarioAudit, ProblemRejectsPathIdOverflow) {
  scenario::PowerLawConfig cfg;
  cfg.n_nodes = 30;
  auto g = scenario::make_power_law(cfg);
  auto demands = traffic::sample_demands(g, 100, /*seed=*/3);
  // 100 demands * 30e6 paths each overflows the int path-id space; the
  // constructor must throw before computing a single path.
  EXPECT_THROW(te::Problem(std::move(g), std::move(demands), 30'000'000),
               std::invalid_argument);
}

TEST(ScenarioAudit, UnknownBundledTopologyThrows) {
  EXPECT_THROW(topo::make_topology("Waxman-100"), std::invalid_argument);
}

}  // namespace
}  // namespace teal
