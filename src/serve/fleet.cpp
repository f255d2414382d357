#include "serve/fleet.h"

#include <stdexcept>
#include <thread>
#include <utility>

namespace teal::serve {

namespace {
constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
}

std::uint64_t FleetStats::offered() const {
  std::uint64_t n = 0;
  for (const auto& t : tenants) n += t.serve.offered;
  return n;
}
std::uint64_t FleetStats::accepted() const {
  std::uint64_t n = 0;
  for (const auto& t : tenants) n += t.serve.accepted;
  return n;
}
std::uint64_t FleetStats::shed() const {
  std::uint64_t n = 0;
  for (const auto& t : tenants) n += t.serve.shed;
  return n;
}
std::uint64_t FleetStats::completed() const {
  std::uint64_t n = 0;
  for (const auto& t : tenants) n += t.serve.completed;
  return n;
}

Fleet::Fleet(FleetConfig cfg) : cfg_(std::move(cfg)) {}

Fleet::~Fleet() { stop(); }

void Fleet::add_tenant(TenantConfig t) {
  if (started_) throw std::logic_error("Fleet::add_tenant: fleet already started");
  if (t.pb == nullptr) {
    throw std::invalid_argument("Fleet::add_tenant: tenant '" + t.name + "' has no problem");
  }
  if (t.scheme == nullptr && !t.make_replicas_fn) {
    throw std::invalid_argument("Fleet::add_tenant: tenant '" + t.name +
                                "' has neither scheme nor replica builder");
  }
  if (by_name_.count(t.name) != 0) {
    throw std::invalid_argument("Fleet::add_tenant: duplicate tenant '" + t.name + "'");
  }
  by_name_.emplace(t.name, tenants_.size());
  tenants_.push_back(Tenant{std::move(t), 0, nullptr});
}

void Fleet::start() {
  if (started_) throw std::logic_error("Fleet::start: already started");
  if (tenants_.empty()) throw std::logic_error("Fleet::start: no tenants registered");

  const PlacementPolicy* policy = cfg_.policy_obj.get();
  PlacementPolicyPtr named;
  if (policy == nullptr) {
    named = make_placement_policy(cfg_.policy);
    policy = named.get();
  }

  std::size_t budget = cfg_.total_replicas;
  if (budget == 0) budget = std::max(1u, std::thread::hardware_concurrency());

  std::vector<TenantDemand> demand;
  demand.reserve(tenants_.size());
  for (const auto& t : tenants_) {
    demand.push_back(TenantDemand{t.cfg.name, t.cfg.pb->num_demands(),
                                  t.cfg.pb->total_paths(), t.cfg.offered_weight,
                                  t.cfg.requested_replicas});
  }
  const std::vector<std::size_t> counts = policy->assign(demand, budget);
  if (counts.size() != tenants_.size()) {
    throw std::logic_error("placement policy '" + policy->name() +
                           "' returned wrong tenant count");
  }

  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    Tenant& t = tenants_[i];
    t.assigned = std::max<std::size_t>(1, counts[i]);
    std::vector<ReplicaPtr> replicas =
        t.cfg.make_replicas_fn
            ? t.cfg.make_replicas_fn(t.assigned)
            : make_replicas(*t.cfg.scheme, t.assigned, t.cfg.factory);
    t.server = std::make_unique<Server>(*t.cfg.pb, std::move(replicas), t.cfg.serve);
  }
  started_ = true;
}

std::size_t Fleet::index_of(std::string_view tenant) const {
  if (tenant.empty()) return tenants_.empty() ? kNpos : 0;
  const auto it = by_name_.find(std::string(tenant));
  return it == by_name_.end() ? kNpos : it->second;
}

Fleet::Route Fleet::route(std::string_view tenant) {
  const std::size_t i = index_of(tenant);
  if (i == kNpos || !started_) return {};
  return Route{tenants_[i].server.get(), tenants_[i].cfg.pb};
}

std::size_t Fleet::replicas(std::string_view tenant) const {
  const std::size_t i = index_of(tenant);
  return i == kNpos ? 0 : tenants_[i].assigned;
}

void Fleet::drain() {
  for (auto& t : tenants_) {
    if (t.server) t.server->drain();
  }
}

FleetStats Fleet::stop() {
  std::lock_guard lk(stop_mu_);
  if (stopped_.load()) return final_stats_;
  final_stats_.policy = cfg_.policy_obj ? cfg_.policy_obj->name() : cfg_.policy;
  for (auto& t : tenants_) {
    TenantStats ts;
    ts.name = t.cfg.name;
    ts.replicas = t.assigned;
    if (t.server) ts.serve = t.server->stop();
    final_stats_.tenants.push_back(std::move(ts));
  }
  stopped_.store(true);
  return final_stats_;
}

}  // namespace teal::serve
