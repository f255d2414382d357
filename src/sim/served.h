// served.h — open-loop trace replay through the serving layer.
//
// sim::run_online is closed-loop: the control loop itself decides when the
// next solve starts, so the scheme is never offered more work than it can
// do. run_served_fleet is the complementary driver: requests *arrive* on a
// fixed schedule (every arrival_interval_seconds, independent of
// completions — the open-loop discipline of real serving benchmarks), each
// tenant's admission control sheds what cannot meet the deadline, and the
// result records which matrices got fresh allocations and at what latency.
// At arrival interval 0 every trace is offered as one burst, which turns the
// driver into a saturation/throughput harness — the mode the serve_scaling
// bench sweeps replica counts with.
//
// Several (problem, trace, scheme) tenants replay through one serve::Fleet,
// replicas split across them by the fleet's placement policy. Arrivals from
// all tenants are merged onto one open-loop schedule, round-robin across
// tenants that still have trace left — the simulated analogue of teal_slap's
// weighted multi-tenant mix, minus the wire. A single-scheme replay is a
// one-tenant fleet with the wanted replica count as `total_replicas`.
// Solves run at each tenant scheme's own settings (Teal's shard count and
// precision live on core::TealScheme), so tenants may differ in both.
#pragma once

#include <string>

#include "serve/fleet.h"
#include "serve/replica.h"
#include "serve/server.h"
#include "te/problem.h"
#include "traffic/traffic.h"

namespace teal::sim {

// One tenant's slice of the replay. `pb`, `trace` and `scheme` must outlive
// the call; `factory` follows the serve::make_replicas contract for non-warm
// schemes.
struct ServedTenant {
  std::string name;
  const te::Problem* pb = nullptr;
  const traffic::Trace* trace = nullptr;
  te::Scheme* scheme = nullptr;
  serve::SchemeFactory factory = nullptr;
  double offered_weight = 1.0;         // placement demand signal
  std::size_t requested_replicas = 0;  // static-policy count
};

struct ServedFleetConfig {
  // Copied into the replay's serve::FleetConfig: replica budget and
  // placement policy by name (serve/placement.h).
  std::size_t total_replicas = 0;  // 0 = hardware concurrency
  std::string policy = "load-proportional";
  // Open-loop spacing between merged arrivals (across all tenants).
  // 0 = burst.
  double arrival_interval_seconds = 0.0;
  serve::ServeConfig serve;  // applied to every tenant's server
};

struct ServedFleetResult {
  // Index-aligned with the corresponding tenant's trace. Shed requests leave
  // an empty Allocation and accepted[t] == 0.
  struct Tenant {
    std::vector<te::Allocation> allocs;
    std::vector<char> accepted;
  };
  std::vector<Tenant> tenants;  // registration order
  serve::FleetStats stats;
};

// Replays every tenant's trace through one Fleet. Blocks until every accepted
// request on every tenant completed.
ServedFleetResult run_served_fleet(const std::vector<ServedTenant>& tenants,
                                   const ServedFleetConfig& cfg);

}  // namespace teal::sim
