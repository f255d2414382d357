// placement.h — named replica-placement policies for the serving fleet.
//
// A fleet has one replica budget (usually the machine's core count) and many
// tenants; the placement policy decides how many replicas each tenant's
// server gets. The seam is deliberately narrow — a pure function from
// per-tenant demand descriptors to per-tenant counts — so policies stay
// stateless, trivially testable, and chosen by name at fleet construction
// without touching the registry or the routing path (the scheduler-plugin
// shape: policy code never sees a socket or a queue).
//
// Three policies to start:
//  * static        — honor each tenant's requested_replicas verbatim
//                    (0 = one), ignoring the budget; capacity planning done
//                    by the operator.
//  * round-robin   — deal the budget one replica at a time across tenants;
//                    equal shares regardless of tenant size.
//  * load-proportional — split the budget by expected load, weight =
//                    offered_weight x per-solve cost, where cost reuses the
//                    shard cost model's unit (total paths — what the hot
//                    loops iterate per solve): a tenant with twice the paths
//                    and equal request rate needs twice the replicas to hold
//                    the same queue depth.
//
// Every policy guarantees at least one replica per tenant — a tenant with
// zero replicas would silently blackhole its requests, which is an operator
// error no weighting scheme should be able to express.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace teal::serve {

// What a policy knows about one tenant. Demand/path counts come from the
// tenant's Problem; offered_weight is the operator's estimate of relative
// request rate (teal_serve --tenant weight field, slap mix weight).
struct TenantDemand {
  std::string name;
  int n_demands = 0;
  int total_paths = 0;
  double offered_weight = 1.0;
  std::size_t requested_replicas = 0;  // static policy input; 0 = one replica
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  virtual std::string name() const = 0;
  // One replica count per tenant, same order as `tenants`; every entry >= 1.
  // Budget-driven policies sum to max(total, n_tenants); the static policy
  // ignores `total` (the operator's explicit counts are the budget).
  virtual std::vector<std::size_t> assign(const std::vector<TenantDemand>& tenants,
                                          std::size_t total) const = 0;
};

using PlacementPolicyPtr = std::unique_ptr<PlacementPolicy>;

class StaticPolicy final : public PlacementPolicy {
 public:
  std::string name() const override { return "static"; }
  std::vector<std::size_t> assign(const std::vector<TenantDemand>& tenants,
                                  std::size_t total) const override;
};

class RoundRobinPolicy final : public PlacementPolicy {
 public:
  std::string name() const override { return "round-robin"; }
  std::vector<std::size_t> assign(const std::vector<TenantDemand>& tenants,
                                  std::size_t total) const override;
};

class LoadProportionalPolicy final : public PlacementPolicy {
 public:
  std::string name() const override { return "load-proportional"; }
  std::vector<std::size_t> assign(const std::vector<TenantDemand>& tenants,
                                  std::size_t total) const override;
};

// By name ("static", "round-robin", "load-proportional"); throws
// std::invalid_argument on anything else (listing the valid names).
PlacementPolicyPtr make_placement_policy(const std::string& name);

}  // namespace teal::serve
