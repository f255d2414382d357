// fleet_serving — multi-tenant serving + live model hot-swap, end to end.
//
// Not a paper figure: this bench measures the fleet layer (serve::Fleet +
// the tenant-routed wire protocol) the way an operator would run it — one
// process, two tenants with different topologies (B4 and SWAN), the replica
// budget split by the load-proportional placement policy, and a background
// "trainer" republishing tenant us's model every few hundred milliseconds
// while the open-loop slap mix keeps offering traffic to both tenants.
//
// The claims under measurement:
//  * per-tenant isolation — each tenant's ledger balances on its own
//    (offered == responses + shed + errors + dropped, per tenant, by
//    construction in net::run_slap);
//  * hot-swap is free at the request level — publishes during sustained load
//    cost zero requests (no swap-induced shed, error, or drop; in-flight
//    solves finish on their pinned snapshot — tests/fleet_test.cpp pins the
//    bit-identity half of that claim).
//
// Output: one per-tenant table (bench::record) — stdout,
// bench_out/fleet_serving.csv and, when run from the repo root, the
// EXPERIMENTS.md "Fleet serving ledger".
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/teal_scheme.h"
#include "net/client.h"
#include "net/server.h"
#include "net/slap.h"
#include "serve/fleet.h"
#include "serve/server.h"

using namespace teal;

int main() {
  bench::print_header("Fleet serving",
                      "two tenants, one process: placement split + hot-swap under load");
  auto inst_us = bench::make_instance("B4");
  auto inst_eu = bench::make_instance("SWAN");
  auto teal_us = bench::make_teal(*inst_us);
  auto teal_eu = bench::make_teal(*inst_eu);

  const double weight_us = 2.0, weight_eu = 1.0;
  const std::string policy = "load-proportional";
  serve::FleetConfig fcfg;
  fcfg.total_replicas = 2;
  fcfg.policy = policy;
  serve::Fleet fleet(std::move(fcfg));
  {
    serve::TenantConfig tc;
    tc.name = "us";
    tc.pb = &inst_us->pb;
    tc.scheme = teal_us.get();
    tc.offered_weight = weight_us;
    tc.serve.queue_capacity = 512;  // generous: swaps must not hide behind sheds
    fleet.add_tenant(std::move(tc));
  }
  {
    serve::TenantConfig tc;
    tc.name = "eu";
    tc.pb = &inst_eu->pb;
    tc.scheme = teal_eu.get();
    tc.offered_weight = weight_eu;
    tc.serve.queue_capacity = 512;
    fleet.add_tenant(std::move(tc));
  }
  fleet.start();
  net::Server server(fleet);
  std::printf("  placement (%s, budget %zu): us=%zu replicas, eu=%zu replicas\n", policy.c_str(),
              std::size_t{2}, fleet.replicas("us"), fleet.replicas("eu"));

  // Request streams per tenant (cycled by the slap schedule).
  std::vector<net::SlapWorkload> workloads(2);
  workloads[0].tenant = "us";
  workloads[0].weight = weight_us;
  for (int i = 0; i < inst_us->split.test.size(); ++i) {
    workloads[0].requests.push_back(inst_us->split.test.at(i));
  }
  workloads[1].tenant = "eu";
  workloads[1].weight = weight_eu;
  for (int i = 0; i < inst_eu->split.test.size(); ++i) {
    workloads[1].requests.push_back(inst_eu->split.test.at(i));
  }

  // Closed-loop calibration through the socket, weighted mix: measures the
  // fleet's aggregate service capacity for this 2:1 tenant blend.
  double base_rps = 0.0;
  {
    net::Client client("127.0.0.1", server.port());
    const int warmup = 4, measured = bench::fast_mode() ? 30 : 120;
    auto one = [&](int i) {
      const auto& w = workloads[static_cast<std::size_t>(i % 3) < 2 ? 0 : 1];  // 2:1 mix
      client.solve(w.requests[static_cast<std::size_t>(i) % w.requests.size()], w.tenant);
    };
    for (int i = 0; i < warmup; ++i) one(i);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < measured; ++i) one(i);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    base_rps = elapsed > 0.0 ? static_cast<double>(measured) / elapsed : 0.0;
  }
  std::printf("  closed-loop capacity (1 client, 2:1 mix): %.1f solves/s\n", base_rps);

  // Background "trainer": republishes tenant us's weights (cloned through the
  // model save/load path, so the served answers stay the trained ones) for
  // the whole run. Every publish is a full hot-swap: snapshot prepare, atomic
  // install, version bump, workspace cache re-key on the next solve.
  const std::string swap_path = bench::out_dir() + "/fleet_swap_model.bin";
  teal_us->model().save(swap_path);
  std::atomic<bool> stop_publisher{false};
  std::atomic<std::uint64_t> publishes{0};
  std::thread publisher([&] {
    while (!stop_publisher.load(std::memory_order_acquire)) {
      auto clone = std::make_unique<core::TealModel>(core::TealModelConfig{},
                                                     inst_us->pb.k_paths());
      if (!clone->load(swap_path)) break;  // cache gone: stop publishing
      teal_us->publish_model(std::move(clone));
      publishes.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  // Open-loop run at 0.8x capacity: below saturation, so any shed, error or
  // drop would be swap-induced — the claim is that there are none.
  net::SlapConfig cfg;
  cfg.port = server.port();
  cfg.connections = bench::fast_mode() ? 2 : 4;
  cfg.target_rps = 0.8 * base_rps;
  cfg.duration_seconds = bench::fast_mode() ? 1.5 : 4.0;
  auto stats = net::run_slap(cfg, workloads);
  stop_publisher.store(true, std::memory_order_release);
  publisher.join();

  server.stop();
  const auto fstats = fleet.stop();
  const std::uint64_t final_version = teal_us->model_version();

  util::Table table({"tenant", "topology", "replicas", "weight", "offered", "responses",
                     "shed", "errors", "dropped", "p50 (ms)", "p99 (ms)"});
  const char* topos[2] = {"B4", "SWAN"};
  bool balanced = true;
  for (std::size_t t = 0; t < stats.tenants.size(); ++t) {
    const auto& s = stats.tenants[t];
    if (s.offered != s.responses + s.shed + s.errors + s.dropped) balanced = false;
    table.add_row({s.tenant, topos[t], std::to_string(fleet.replicas(s.tenant)),
                   util::fmt(workloads[t].weight, 1), std::to_string(s.offered),
                   std::to_string(s.responses), std::to_string(s.shed),
                   std::to_string(s.errors), std::to_string(s.dropped),
                   util::fmt(s.latency.percentile(50.0) * 1e3, 4),
                   util::fmt(s.latency.percentile(99.0) * 1e3, 4)});
  }
  bench::record(table, "fleet_serving",
                "B4 + SWAN, " + policy + " placement, closed-loop capacity " +
                    util::fmt(base_rps, 1) + " solves/s, offered " +
                    util::fmt(cfg.target_rps, 1) + " req/s, " +
                    std::to_string(publishes.load()) + " publishes (final version " +
                    std::to_string(final_version) + ")");
  std::printf("  per-tenant ledgers %s; fleet backend completed %llu of %llu accepted\n",
              balanced ? "balance" : "DO NOT BALANCE",
              static_cast<unsigned long long>(fstats.completed()),
              static_cast<unsigned long long>(fstats.accepted()));
  std::printf("  expectation: zero shed/errors/dropped at 0.8x capacity — a publish\n"
              "  must never cost a request.\n");
  return balanced ? 0 : 1;
}
