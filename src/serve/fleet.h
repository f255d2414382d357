// fleet.h — multi-tenant serving: one process, many topologies, one budget.
//
// PR 7's net front-end put one serve::Server (= one topology, one model)
// behind a socket. A WAN controller realistically serves *many* topology
// slices at once — the paper's per-topology model means each slice brings its
// own Problem + trained scheme — so the Fleet refactors serving into:
//
//   add_tenant(name, pb, scheme, ...) xN      (registry: before start())
//        │
//      start() ──► placement policy assigns the replica budget
//        │         (serve/placement.h: static / round-robin /
//        │          load-proportional)
//        ▼
//   tenant registry ──► route(name) ──► that tenant's serve::Server
//                                        (own replicas, queue, stats)
//
// Scalability follows the commutativity discipline: all mutable serving
// state (queues, replica workspaces, counters) lives *per tenant* inside
// that tenant's Server, so requests to different tenants commute completely.
// The shared registry is immutable after start() — routing is a read of a
// never-again-written map, no lock, no scaling bottleneck. The one
// cross-tenant decision (who gets how many replicas) happens exactly once,
// at start(), through the placement seam.
//
// Model hot-swap composes orthogonally: a tenant's scheme is a
// core::TealScheme holding a ModelHub (core/snapshot.h), so a background
// trainer calls scheme->publish_model(...) with the fleet live — the Fleet
// itself never touches model state.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serve/placement.h"
#include "serve/server.h"

namespace teal::serve {

// One tenant's registration. `pb` must outlive the fleet and stay
// capacity-stable while requests are in flight; `scheme` (when used) must
// outlive the fleet — the fleet does not own either, matching the Server
// contract. Exactly one of {scheme, make_replicas_fn} drives replica
// construction (factory supplements scheme for non-warm schemes, as in
// serve::make_replicas).
struct TenantConfig {
  std::string name;
  const te::Problem* pb = nullptr;
  te::Scheme* scheme = nullptr;
  SchemeFactory factory;  // required by make_replicas for non-warm schemes
  ServeConfig serve;
  double offered_weight = 1.0;   // relative request rate (placement input)
  std::size_t requested_replicas = 0;  // static-policy count (0 = one)
  // Test seam: when set, builds this tenant's replicas directly and
  // scheme/factory are ignored.
  std::function<std::vector<ReplicaPtr>(std::size_t n)> make_replicas_fn;
};

struct FleetConfig {
  // Replica budget across all tenants; 0 = hardware concurrency. Policies
  // other than static spend exactly max(budget, n_tenants).
  std::size_t total_replicas = 0;
  // Placement policy by name (serve/placement.h). `policy_obj` takes
  // precedence when set (custom policies plug in here).
  std::string policy = "load-proportional";
  PlacementPolicyPtr policy_obj;
};

struct TenantStats {
  std::string name;
  std::size_t replicas = 0;
  ServeStats serve;
};

struct FleetStats {
  std::string policy;
  std::vector<TenantStats> tenants;  // registration order

  std::uint64_t offered() const;
  std::uint64_t accepted() const;
  std::uint64_t shed() const;
  std::uint64_t completed() const;
};

class Fleet {
 public:
  explicit Fleet(FleetConfig cfg = {});
  // Stops and joins every tenant's server if the caller never called stop().
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Registry construction: before start() only (throws std::logic_error
  // after). Throws std::invalid_argument on a null problem, a duplicate
  // name, or a config with neither scheme nor make_replicas_fn.
  void add_tenant(TenantConfig t);

  // Runs the placement policy over the registered tenants and starts one
  // serve::Server per tenant. Throws std::logic_error when empty or called
  // twice.
  void start();

  std::size_t n_tenants() const { return tenants_.size(); }
  bool started() const { return started_; }

  // Routing: resolves a tenant name to its server + problem. The empty name
  // is the default tenant (first registered) — single-tenant clients need no
  // name. Unknown names resolve to {nullptr, nullptr}. Lock-free: the
  // registry is immutable after start().
  struct Route {
    Server* server = nullptr;
    const te::Problem* pb = nullptr;
  };
  Route route(std::string_view tenant);

  // Replicas assigned to `tenant` by the placement run (post-start); 0 for
  // unknown tenants.
  std::size_t replicas(std::string_view tenant) const;

  // Blocks until every accepted request on every tenant completed.
  void drain();

  // Drains, stops every tenant's server and returns the merged stats.
  // Idempotent, safe from multiple threads (same contract as Server::stop).
  FleetStats stop();

 private:
  struct Tenant {
    TenantConfig cfg;
    std::size_t assigned = 0;
    std::unique_ptr<Server> server;
  };

  std::size_t index_of(std::string_view tenant) const;  // npos when unknown

  FleetConfig cfg_;
  std::vector<Tenant> tenants_;                          // registration order
  std::unordered_map<std::string, std::size_t> by_name_;
  bool started_ = false;

  std::mutex stop_mu_;
  std::atomic<bool> stopped_{false};
  FleetStats final_stats_;
};

}  // namespace teal::serve
