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
// Output: a table on stdout, bench_out/serve_scaling.csv, and — when run
// from the repo root — a ledger entry in EXPERIMENTS.md ("Serving
// throughput ledger").
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench/common.h"
#include "sim/served.h"

using namespace teal;

namespace {

struct SweepRow {
  std::size_t replicas = 0;
  double solves_per_sec = 0.0;
  double speedup = 0.0;
  double solve_p50_ms = 0.0;
  double solve_p99_ms = 0.0;
  double response_p99_ms = 0.0;
  std::uint64_t shed = 0;
};

void append_experiments_ledger(const std::vector<SweepRow>& rows, int n_requests,
                               unsigned hw_threads) {
  // Marker-based insert (newest first), like every other ledger bench: a
  // plain end-of-file append would leak entries into whatever section comes
  // after this ledger in EXPERIMENTS.md.
  std::string entry;
  entry += "\n\n### Run " + bench::ledger_stamp();
  entry += " — " + std::to_string(n_requests) + " requests, " +
           std::to_string(hw_threads) + " hardware threads" +
           (bench::fast_mode() ? " (fast mode)" : "");
  entry += "\n\n| replicas | solves/sec | speedup | solve p50 (ms) | solve p99 (ms) | shed |\n";
  entry += "|---|---|---|---|---|---|\n";
  for (const auto& r : rows) {
    entry += "| " + std::to_string(r.replicas) + " | " + util::fmt(r.solves_per_sec, 1) +
             " | " + util::fmt(r.speedup, 2) + "x | " + util::fmt(r.solve_p50_ms, 3) +
             " | " + util::fmt(r.solve_p99_ms, 3) + " | " + std::to_string(r.shed) + " |\n";
  }
  bench::insert_ledger_entry("<!-- bench_serve_scaling appends runs below this line -->",
                             entry);
}

}  // namespace

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
  util::Table table({"replicas", "solves/sec", "speedup", "solve p50 ms", "solve p99 ms",
                     "resp p99 ms", "shed"});
  util::Table csv({"replicas", "solves_per_sec", "speedup", "solve_p50_ms", "solve_p99_ms",
                   "response_p99_ms", "shed", "wall_seconds"});
  std::vector<SweepRow> rows;
  double base_throughput = 0.0;
  bool monotonic = true;
  for (std::size_t r = 1; r <= hw; ++r) {
    sim::ServedFleetConfig cfg;
    cfg.total_replicas = r;
    cfg.serve.queue_capacity = static_cast<std::size_t>(n_requests);
    // Saturation mode: one burst, no deadline — measures pure service capacity.
    const auto res = serve(cfg);
    const auto& s = res.stats.tenants[0].serve;
    SweepRow row;
    row.replicas = r;
    row.solves_per_sec = s.throughput();
    if (r == 1) base_throughput = row.solves_per_sec;
    if (!rows.empty() && row.solves_per_sec < rows.back().solves_per_sec) monotonic = false;
    row.speedup = base_throughput > 0.0 ? row.solves_per_sec / base_throughput : 0.0;
    row.solve_p50_ms = s.solve.percentile(50.0) * 1e3;
    row.solve_p99_ms = s.solve.percentile(99.0) * 1e3;
    row.response_p99_ms = s.response.percentile(99.0) * 1e3;
    row.shed = s.shed;
    rows.push_back(row);
    table.add_row({std::to_string(r), util::fmt(row.solves_per_sec, 1),
                   util::fmt(row.speedup, 2), util::fmt(row.solve_p50_ms, 3),
                   util::fmt(row.solve_p99_ms, 3), util::fmt(row.response_p99_ms, 3),
                   std::to_string(row.shed)});
    csv.add_row({std::to_string(r), util::fmt(row.solves_per_sec, 2),
                 util::fmt(row.speedup, 3), util::fmt(row.solve_p50_ms, 4),
                 util::fmt(row.solve_p99_ms, 4), util::fmt(row.response_p99_ms, 4),
                 std::to_string(row.shed), util::fmt(s.wall_seconds, 4)});
  }
  std::printf("%s", table.to_string().c_str());
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

  csv.write_csv(bench::out_dir() + "/serve_scaling.csv");
  append_experiments_ledger(rows, n_requests, hw);
  return 0;
}
