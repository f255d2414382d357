// slap.h — teal_slap, the open-loop multi-connection load generator.
//
// Open-loop is the discipline that makes overload visible: requests are sent
// on a fixed global schedule (offered rate × duration), whether or not
// earlier responses came back — the way five-minute traffic matrices keep
// arriving at a WAN controller no matter how the last solve went, and the
// regime a closed-loop client (which politely waits, so never overloads)
// cannot reach. The schedule is interleaved round-robin across N standing
// connections; each connection runs a paced writer thread and a reader
// thread that matches responses to send timestamps by request id.
//
// Multi-tenant: the offered schedule is split across workloads (one per
// fleet tenant) by weight — a deterministic smooth weighted round-robin, so
// the same config always offers the same per-tenant sequence — and every
// counter is kept per tenant as well as in aggregate. The per-tenant ledger
// obeys the same invariant as the total:
// offered == responses + shed + errors + dropped, per tenant, by
// construction on every exit path.
//
// What comes back is the serving story end to end: response latency
// percentiles (send → response, i.e. including queue wait and the wire),
// achieved throughput, and the server's explicit shed frames counted
// separately from errors. bench/fleet_serving.cpp drives a multi-tenant mix
// through this harness; tools/teal_slap.cpp is the standalone CLI.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "te/problem.h"
#include "util/histogram.h"

namespace teal::net {

struct SlapConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int connections = 4;
  double target_rps = 200.0;       // aggregate offered rate over all tenants
  double duration_seconds = 2.0;   // sending window; offered ≈ rate × duration
  // How long readers linger for stragglers after the last send; replies
  // still missing then are counted as dropped.
  double drain_grace_seconds = 2.0;
  std::size_t max_payload = 0;     // 0 = wire.h default
};

// One tenant's slice of the offered load. `requests` is cycled within the
// tenant's own schedule slots; `weight` is its share of the aggregate rate
// (weights are relative, not percentages).
struct SlapWorkload {
  std::string tenant;  // "" = the server's default tenant
  std::vector<te::TrafficMatrix> requests;
  double weight = 1.0;
};

// Per-tenant ledger: same fields and invariant as the aggregate.
struct SlapTenantStats {
  std::string tenant;
  std::uint64_t offered = 0;
  std::uint64_t responses = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t dropped = 0;
  util::LatencyHistogram latency;
};

struct SlapStats {
  std::uint64_t offered = 0;    // requests actually written to a socket
  std::uint64_t responses = 0;  // solve responses received
  std::uint64_t shed = 0;       // explicit shed frames received
  std::uint64_t errors = 0;     // error frames, send failures, dead connections
  std::uint64_t dropped = 0;    // no reply within the drain grace
  double wall_seconds = 0.0;    // first send → last reply (or end of grace)
  double achieved_rps = 0.0;    // offered / sending-window wall time
  util::LatencyHistogram latency;  // send → response, responses only

  std::vector<SlapTenantStats> tenants;  // workload order; sums to the above

  double response_rate() const {
    return wall_seconds > 0.0 ? static_cast<double>(responses) / wall_seconds : 0.0;
  }
  double shed_pct() const {
    return offered > 0 ? 100.0 * static_cast<double>(shed) / static_cast<double>(offered)
                       : 0.0;
  }
};

// Fires cfg.target_rps × cfg.duration_seconds requests at host:port, the
// schedule split across `workloads` by weight (each must have non-empty
// requests matching its tenant's demand count). Blocks until the run and its
// drain grace finish.
SlapStats run_slap(const SlapConfig& cfg, const std::vector<SlapWorkload>& workloads);

// Single-tenant convenience (the PR 7 shape): one anonymous workload against
// the server's default tenant.
SlapStats run_slap(const SlapConfig& cfg, const std::vector<te::TrafficMatrix>& requests);

}  // namespace teal::net
