// serve_scaling — replica-count sweep of the online serving layer.
//
// Not a paper figure: this bench measures the repo's own serving subsystem
// (serve::Server), the scaling scenario ROADMAP.md names as the successor to
// solve_batch. One shared trained TealScheme, N workspace replicas draining
// a burst of requests (open-loop saturation, a one-tenant
// sim::run_served_fleet with arrival interval 0). Because replica solves
// over independent matrices commute — no shared mutable state, the same
// argument behind solve_batch — solves/sec should rise monotonically from 1
// replica to the hardware thread count.
//
// A second pass offers requests at ~2× the measured single-replica service
// rate against a one-interval deadline, demonstrating admission control:
// the shed column is work the server refused because it could not start it
// within the deadline.
//
// Output: one table (bench::record) — stdout, bench_out/serve_scaling.csv
// and, when run from the repo root, the EXPERIMENTS.md "Serving throughput
// ledger".
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench/common.h"
#include "sim/served.h"

using namespace teal;

int main() {
  bench::print_header("Serve scaling",
                      "multi-replica serving throughput, 1..hardware threads");
  auto inst = bench::make_instance("B4");
  auto teal = bench::make_teal(*inst);

  // Request stream: the test split cycled up to a fixed request count, so
  // every sweep point serves the identical workload.
  const int n_requests = bench::fast_mode() ? 64 : 256;
  traffic::Trace requests;
  requests.matrices.reserve(static_cast<std::size_t>(n_requests));
  for (int i = 0; i < n_requests; ++i) {
    requests.matrices.push_back(
        inst->split.test.at(i % std::max(1, inst->split.test.size())));
  }

  // This bench measures the *replica* axis in isolation: pin one shard per
  // solve so the auto cost model can't hand the 1-replica baseline extra
  // pool threads (which would contaminate the speedup column and the
  // monotonicity expectation). bench_shard_scaling owns the shard axis.
  teal->set_shard_count(1);
  auto serve = [&](const sim::ServedFleetConfig& cfg) {
    return sim::run_served_fleet(
        {{.name = inst->name, .pb = &inst->pb, .trace = &requests, .scheme = teal.get()}},
        cfg);
  };

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  util::Table table({"replicas", "solves/s", "speedup (x)", "solve p50 (ms)",
                     "solve p99 (ms)", "response p99 (ms)", "shed", "wall (s)"});
  double base_throughput = 0.0, prev_throughput = 0.0;
  bool monotonic = true;
  for (std::size_t r = 1; r <= hw; ++r) {
    sim::ServedFleetConfig cfg;
    cfg.total_replicas = r;
    cfg.serve.queue_capacity = static_cast<std::size_t>(n_requests);
    // Saturation mode: one burst, no deadline — measures pure service capacity.
    const auto res = serve(cfg);
    const auto& s = res.stats.tenants[0].serve;
    const double throughput = s.throughput();
    if (r == 1) base_throughput = throughput;
    if (throughput < prev_throughput) monotonic = false;
    prev_throughput = throughput;
    table.add_row({std::to_string(r), util::fmt(throughput, 2),
                   util::fmt(base_throughput > 0.0 ? throughput / base_throughput : 0.0, 3),
                   util::fmt(s.solve.percentile(50.0) * 1e3, 4),
                   util::fmt(s.solve.percentile(99.0) * 1e3, 4),
                   util::fmt(s.response.percentile(99.0) * 1e3, 4), std::to_string(s.shed),
                   util::fmt(s.wall_seconds, 4)});
  }
  bench::record(table, "serve_scaling",
                std::to_string(n_requests) + " requests, " + std::to_string(hw) +
                    " hardware threads");
  std::printf("  throughput monotonic over 1..%u replicas: %s\n", hw,
              hw == 1 ? "n/a (1 hardware thread)" : (monotonic ? "yes" : "NO"));

  // Admission-control demonstration: offer ~2x the single-replica service
  // rate against a one-arrival-interval deadline; the server sheds the
  // excess instead of queueing requests it cannot start in time.
  if (base_throughput > 0.0) {
    sim::ServedFleetConfig cfg;
    cfg.total_replicas = 1;
    cfg.arrival_interval_seconds = 1.0 / (2.0 * base_throughput);
    cfg.serve.queue_capacity = static_cast<std::size_t>(n_requests);
    cfg.serve.deadline_seconds = cfg.arrival_interval_seconds;
    const auto res = serve(cfg);
    const auto& s = res.stats.tenants[0].serve;
    std::printf("\n  overload: offered at 2.0x single-replica rate, deadline = one arrival\n"
                "  interval -> accepted %llu, shed %llu (%.0f%%), response p99 %.3f ms\n",
                static_cast<unsigned long long>(s.accepted),
                static_cast<unsigned long long>(s.shed),
                s.offered > 0 ? 100.0 * static_cast<double>(s.shed) /
                                    static_cast<double>(s.offered)
                              : 0.0,
                s.response.percentile(99.0) * 1e3);
  }
  return 0;
}
