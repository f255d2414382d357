#include "sim/served.h"

#include <chrono>
#include <thread>

namespace teal::sim {

ServedFleetResult run_served_fleet(const std::vector<ServedTenant>& tenants,
                                   const ServedFleetConfig& cfg) {
  ServedFleetResult res;
  res.tenants.resize(tenants.size());

  serve::FleetConfig fcfg;
  fcfg.total_replicas = cfg.total_replicas;
  fcfg.policy = cfg.policy;
  serve::Fleet fleet(std::move(fcfg));
  for (const ServedTenant& t : tenants) {
    serve::TenantConfig tc;
    tc.name = t.name;
    tc.pb = t.pb;
    tc.scheme = t.scheme;
    tc.factory = t.factory;
    tc.serve = cfg.serve;
    tc.offered_weight = t.offered_weight;
    tc.requested_replicas = t.requested_replicas;
    fleet.add_tenant(std::move(tc));
  }
  fleet.start();

  std::vector<serve::Fleet::Route> routes;
  std::vector<std::size_t> next(tenants.size(), 0);
  std::size_t remaining = 0;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    routes.push_back(fleet.route(tenants[i].name));
    const auto n = static_cast<std::size_t>(tenants[i].trace->size());
    res.tenants[i].allocs.resize(n);
    res.tenants[i].accepted.assign(n, 0);
    remaining += n;
  }

  // Merged open-loop schedule: one global arrival clock, round-robin over the
  // tenants that still have trace left — different tenants' requests land in
  // different per-tenant queues, so this loop is the only cross-tenant
  // ordering that exists.
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  std::size_t arrival = 0;
  while (remaining > 0) {
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      const std::size_t t = next[i];
      if (t >= res.tenants[i].allocs.size()) continue;
      if (cfg.arrival_interval_seconds > 0.0) {
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(static_cast<double>(arrival) *
                                                      cfg.arrival_interval_seconds));
        std::this_thread::sleep_until(due);
      }
      res.tenants[i].accepted[t] =
          routes[i].server->submit(tenants[i].trace->at(static_cast<int>(t)),
                                   res.tenants[i].allocs[t])
              ? 1
              : 0;
      ++next[i];
      ++arrival;
      --remaining;
    }
  }
  fleet.drain();
  res.stats = fleet.stop();
  return res;
}

}  // namespace teal::sim
