#include "scenario/scenario.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "baselines/lp_schemes.h"
#include "core/teal_scheme.h"
#include "te/objective.h"

namespace teal::scenario {

namespace {

constexpr std::uint64_t kTagDemands = 21;
constexpr std::uint64_t kTagTraffic = 22;

void apply_capacities(te::Problem& pb, const std::vector<double>& caps) {
  for (topo::EdgeId e = 0; e < pb.graph().num_edges(); ++e) {
    pb.mutable_graph().set_capacity(e, caps[static_cast<std::size_t>(e)]);
  }
}

void merge_stats(serve::ServeStats& into, const serve::ServeStats& s) {
  into.offered += s.offered;
  into.accepted += s.accepted;
  into.shed += s.shed;
  into.completed += s.completed;
  into.wall_seconds += s.wall_seconds;
  into.replica_deaths += s.replica_deaths;
  into.requeued += s.requeued;
  into.failed += s.failed;
  into.queue_wait.merge(s.queue_wait);
  into.solve.merge(s.solve);
  into.response.merge(s.response);
  if (into.replicas.size() < s.replicas.size()) into.replicas.resize(s.replicas.size());
  for (std::size_t i = 0; i < s.replicas.size(); ++i) {
    into.replicas[i].solved += s.replicas[i].solved;
    into.replicas[i].busy_seconds += s.replicas[i].busy_seconds;
  }
}

}  // namespace

Scenario build_scenario(const ScenarioSpec& spec) {
  if (spec.n_demands < 1) {
    throw std::invalid_argument("build_scenario: n_demands must be >= 1");
  }
  topo::Graph g = spec.topo_kind == TopoKind::kWaxman
                      ? make_waxman(WaxmanConfig{spec.n_nodes, spec.waxman_links, 0.4,
                                                 0.15, 2.0, spec.capacity, spec.seed})
                      : make_power_law(PowerLawConfig{spec.n_nodes, spec.powerlaw_m,
                                                      spec.capacity, 1.0, 10.0,
                                                      spec.seed});
  auto demands = traffic::sample_demands(g, spec.n_demands,
                                         util::Rng::mix_seed(spec.seed, kTagDemands));
  te::Problem pb(std::move(g), std::move(demands), 4);

  GravityTrafficConfig tcfg = spec.traffic;
  if (tcfg.seed == 0) tcfg.seed = util::Rng::mix_seed(spec.seed, kTagTraffic);
  traffic::Trace trace = generate_gravity_trace(pb, tcfg);
  if (spec.calibrate_util > 0.0) {
    traffic::calibrate_capacities(pb, trace, spec.calibrate_util);
  }

  // The schedule only encodes link identities and timing; capacities come
  // from the FailureState snapshot, which run_scenario takes from the
  // (calibrated) graph before the first epoch, so repairs restore the
  // calibrated values.
  std::vector<FailureEvent> failures;
  if (spec.failures.has_value()) {
    failures = make_rolling_failures(pb.graph(), trace.size(), *spec.failures);
  }
  return Scenario{spec.name, std::move(pb), std::move(trace), std::move(failures)};
}

std::vector<std::string> scenario_names() {
  return {"baseline", "diurnal", "flash-crowd", "shift", "rolling-failure"};
}

ScenarioSpec named_scenario(const std::string& name, int n_nodes, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = name + "-" + std::to_string(n_nodes);
  spec.topo_kind = TopoKind::kPowerLaw;
  spec.n_nodes = n_nodes;
  spec.powerlaw_m = 2;
  spec.n_demands = std::clamp(2 * n_nodes, 50, 2000);
  spec.seed = seed;
  spec.traffic.n_intervals = 24;
  spec.traffic.mean_volume = 10.0;
  spec.traffic.mass_sigma = 1.0;
  spec.traffic.noise_sigma = 0.05;

  if (name == "baseline") {
    // Steady gravity load, light jitter only.
  } else if (name == "diurnal") {
    spec.traffic.diurnal_amplitude = 0.3;
    spec.traffic.diurnal_period = 12;  // two full cycles inside the trace
  } else if (name == "flash-crowd") {
    spec.traffic.flash = FlashCrowd{/*t_start=*/8, /*duration=*/6,
                                    /*magnitude=*/4.0, /*hot_fraction=*/0.05};
  } else if (name == "shift") {
    spec.traffic.shift = DemandShift{/*t_start=*/12, /*factor=*/2.5,
                                     /*shifted_fraction=*/0.3};
  } else if (name == "rolling-failure") {
    RollingFailureConfig fcfg;
    fcfg.seed = util::Rng::mix_seed(seed, 31);
    fcfg.hazard = 0.05;
    fcfg.repair_after = 4;
    fcfg.max_concurrent = 3;
    spec.failures = fcfg;
  } else {
    throw std::invalid_argument("named_scenario: unknown scenario '" + name +
                                "' (known: baseline, diurnal, flash-crowd, shift, "
                                "rolling-failure)");
  }
  return spec;
}

std::unique_ptr<te::Scheme> make_cold_scheme(const std::string& scheme,
                                             const te::Problem& pb,
                                             std::uint64_t seed) {
  if (scheme == "Teal") {
    return std::make_unique<core::TealScheme>(
        pb, std::make_unique<core::TealModel>(core::TealModelConfig{}, pb.k_paths(), seed),
        core::TealSchemeConfig{});
  }
  if (scheme == "LP-all") return std::make_unique<baselines::LpAllScheme>();
  if (scheme == "LP-top") return std::make_unique<baselines::LpTopScheme>(0.10);
  throw std::invalid_argument("make_cold_scheme: unknown scheme '" + scheme +
                              "' (known: Teal, LP-all, LP-top)");
}

serve::SchemeFactory cold_scheme_factory(const std::string& scheme,
                                         const te::Problem& /*pb*/,
                                         std::uint64_t /*seed*/) {
  if (scheme == "Teal") return nullptr;  // shared-workspace replicas
  if (scheme == "LP-all") {
    return [] { return std::make_unique<baselines::LpAllScheme>(); };
  }
  if (scheme == "LP-top") {
    return [] { return std::make_unique<baselines::LpTopScheme>(0.10); };
  }
  throw std::invalid_argument("cold_scheme_factory: unknown scheme '" + scheme + "'");
}

ScenarioRunResult run_scenario(te::Scheme& scheme, Scenario& sc,
                               const sim::ServedFleetConfig& cfg,
                               const serve::SchemeFactory& factory) {
  ScenarioRunResult res;
  const int n = sc.trace.size();
  res.allocs.reserve(static_cast<std::size_t>(n));
  res.accepted.reserve(static_cast<std::size_t>(n));
  res.satisfied_pct.reserve(static_cast<std::size_t>(n));

  // Epoch boundaries: interval 0 plus every failure-event interval inside
  // the trace. Within one epoch the capacity vector is constant, so the
  // serving replicas never observe a capacity change mid-run.
  std::vector<int> starts{0};
  for (int s : failure_epoch_starts(sc.failures)) {
    if (s > 0 && s < n && s != starts.back()) starts.push_back(s);
  }
  res.n_epochs = static_cast<int>(starts.size());

  te::CapacityRestore restore(sc.pb);
  FailureState state(sc.pb.graph(), sc.failures);
  for (std::size_t ep = 0; ep < starts.size(); ++ep) {
    const int b = starts[ep];
    const int e = ep + 1 < starts.size() ? starts[ep + 1] : n;
    apply_capacities(sc.pb, state.capacities_at(b));

    traffic::Trace segment;
    segment.matrices.assign(sc.trace.matrices.begin() + b,
                            sc.trace.matrices.begin() + e);
    sim::ServedFleetResult sr = sim::run_served_fleet(
        {{.name = sc.name, .pb = &sc.pb, .trace = &segment, .scheme = &scheme,
          .factory = factory}},
        cfg);
    sim::ServedFleetResult::Tenant& served = sr.tenants[0];

    for (int t = 0; t < segment.size(); ++t) {
      const auto i = static_cast<std::size_t>(t);
      res.accepted.push_back(served.accepted[i]);
      res.satisfied_pct.push_back(
          served.accepted[i]
              ? te::satisfied_demand_pct(sc.pb, segment.at(t), served.allocs[i])
              : 0.0);
      res.allocs.push_back(std::move(served.allocs[i]));
    }
    merge_stats(res.stats, sr.stats.tenants[0].serve);
  }

  double sum = 0.0;
  std::size_t n_ok = 0;
  for (std::size_t i = 0; i < res.satisfied_pct.size(); ++i) {
    if (res.accepted[i]) {
      sum += res.satisfied_pct[i];
      ++n_ok;
    }
  }
  res.mean_satisfied_pct = n_ok > 0 ? sum / static_cast<double>(n_ok) : 0.0;
  return res;
}

FleetScenarioResult run_scenario_fleet(std::vector<Scenario>& scenarios,
                                       const std::string& scheme_name,
                                       const sim::ServedFleetConfig& cfg) {
  for (const Scenario& sc : scenarios) {
    if (!sc.failures.empty()) {
      throw std::invalid_argument(
          "run_scenario_fleet: failure schedules are not supported in fleet "
          "replay (scenario '" + sc.name + "'); run it through run_scenario");
    }
  }
  std::vector<std::unique_ptr<te::Scheme>> schemes;
  std::vector<sim::ServedTenant> tenants;
  schemes.reserve(scenarios.size());
  tenants.reserve(scenarios.size());
  for (Scenario& sc : scenarios) {
    schemes.push_back(make_cold_scheme(scheme_name, sc.pb));
    sim::ServedTenant t;
    t.name = sc.name;
    t.pb = &sc.pb;
    t.trace = &sc.trace;
    t.scheme = schemes.back().get();
    t.factory = cold_scheme_factory(scheme_name, sc.pb);
    t.offered_weight = 1.0;
    tenants.push_back(std::move(t));
  }

  FleetScenarioResult res;
  res.served = sim::run_served_fleet(tenants, cfg);
  res.mean_satisfied_pct.resize(scenarios.size(), 0.0);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto& sc = scenarios[i];
    const auto& tr = res.served.tenants[i];
    double sum = 0.0;
    std::size_t n_ok = 0;
    for (int t = 0; t < sc.trace.size(); ++t) {
      const auto k = static_cast<std::size_t>(t);
      if (!tr.accepted[k]) continue;
      sum += te::satisfied_demand_pct(sc.pb, sc.trace.at(t), tr.allocs[k]);
      ++n_ok;
    }
    res.mean_satisfied_pct[i] = n_ok > 0 ? sum / static_cast<double>(n_ok) : 0.0;
  }
  return res;
}

}  // namespace teal::scenario
