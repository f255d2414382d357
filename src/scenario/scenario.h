// scenario.h — the scenario driver (scenario factory, part d).
//
// Composes a generated topology (generators.h), a gravity-model traffic
// trace with adversarial modulators (traffic_model.h) and an optional
// rolling failure schedule (failures.h) into one named, fully deterministic
// Scenario, then replays it through the serving layer
// (sim::run_served_fleet) — the robustness axis (fig 8–10) exercised under
// serving load instead of offline. bench_scenario_matrix sweeps scheme ×
// scenario × scale into the EXPERIMENTS.md "Scenario matrix ledger".
//
// Generated topologies have no trained model; make_cold_scheme builds the
// *untrained* Teal pipeline (deterministic seed init — the serving, sharding
// and replica contracts are training-independent, the same convention the
// test suites use) or an LP baseline by name. The bit-identity contracts
// extend unchanged to generated inputs: a scenario replay is byte-identical
// across replica counts and shard counts, and across failure-epoch replays
// (tests/scenario_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "scenario/failures.h"
#include "scenario/generators.h"
#include "scenario/traffic_model.h"
#include "serve/replica.h"
#include "sim/served.h"
#include "te/problem.h"
#include "te/scheme.h"
#include "traffic/traffic.h"

namespace teal::scenario {

enum class TopoKind { kWaxman, kPowerLaw };

struct ScenarioSpec {
  std::string name = "scenario";
  TopoKind topo_kind = TopoKind::kPowerLaw;
  int n_nodes = 200;
  int waxman_links = 0;  // kWaxman: bidirectional links (0 = 2 * n_nodes)
  int powerlaw_m = 2;    // kPowerLaw: attachment links per node
  CapacityDist capacity;
  int n_demands = 200;               // gravity-weighted demand sample cap
  GravityTrafficConfig traffic;      // seed is derived from `seed` if 0
  std::optional<RollingFailureConfig> failures;
  // Post-generation capacity calibration (traffic::calibrate_capacities):
  // scales capacities so shortest-path routing of the mean matrix loads the
  // busiest link to this utilization (> 1 = congested regime). 0 = off.
  double calibrate_util = 1.5;
  std::uint64_t seed = 1;
};

// A built scenario: the problem (generated graph + sampled demands + path
// sets), the composed trace, and the failure schedule (empty when off).
// Building is a pure function of the spec — byte-identical regeneration.
struct Scenario {
  std::string name;
  te::Problem pb;
  traffic::Trace trace;
  std::vector<FailureEvent> failures;
};

Scenario build_scenario(const ScenarioSpec& spec);

// Named presets at a given node scale: "baseline" (gravity + diurnal-free
// steady load), "diurnal", "flash-crowd", "shift", "rolling-failure".
// Throws std::invalid_argument for unknown names.
ScenarioSpec named_scenario(const std::string& name, int n_nodes,
                            std::uint64_t seed = 1);
std::vector<std::string> scenario_names();

// Cold schemes for generated topologies: "Teal" (untrained pipeline over
// `pb`), "LP-all", "LP-top". Throws std::invalid_argument for unknown names.
std::unique_ptr<te::Scheme> make_cold_scheme(const std::string& scheme,
                                             const te::Problem& pb,
                                             std::uint64_t seed = 42);

// Replica factory for the non-warm cold schemes (serve::make_replicas
// contract); returns nullptr for "Teal", which serves via shared-workspace
// replicas and needs no factory.
serve::SchemeFactory cold_scheme_factory(const std::string& scheme,
                                         const te::Problem& pb,
                                         std::uint64_t seed = 42);

struct ScenarioRunResult {
  // Index-aligned with the scenario trace, concatenated over failure epochs
  // (same contract as sim::ServedFleetResult::Tenant).
  std::vector<te::Allocation> allocs;
  std::vector<char> accepted;
  // Satisfied demand per interval under the capacities active at that
  // interval (0 for shed intervals), and its mean over accepted intervals.
  std::vector<double> satisfied_pct;
  double mean_satisfied_pct = 0.0;
  // Serving counters summed over epochs; histograms merged.
  serve::ServeStats stats;
  int n_epochs = 1;
};

// Replays the scenario through a one-tenant sim::run_served_fleet per
// failure epoch (cfg.total_replicas is the tenant's replica count),
// re-applying the failure schedule's capacities between epochs (solves never
// see a capacity change mid-flight). The scenario's graph capacities are
// restored before returning, even on error. `factory` follows the
// serve::make_replicas contract.
ScenarioRunResult run_scenario(te::Scheme& scheme, Scenario& sc,
                               const sim::ServedFleetConfig& cfg,
                               const serve::SchemeFactory& factory = nullptr);

// Multi-tenant counterpart: each scenario becomes one fleet tenant (scheme
// built via make_cold_scheme), replicas split by `policy`. Failure schedules
// are not supported here (the merged arrival clock has no epoch boundary);
// throws if any scenario carries one.
struct FleetScenarioResult {
  sim::ServedFleetResult served;                   // per-tenant allocs/stats
  std::vector<double> mean_satisfied_pct;          // per tenant
};
FleetScenarioResult run_scenario_fleet(std::vector<Scenario>& scenarios,
                                       const std::string& scheme_name,
                                       const sim::ServedFleetConfig& cfg);

}  // namespace teal::scenario
