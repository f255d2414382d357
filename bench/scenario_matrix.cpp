// scenario_matrix — scheme × scenario × scale sweep through the serving path.
//
// Not a paper figure: this bench drives the scenario factory (src/scenario/)
// end to end — generated power-law WANs, gravity traffic with adversarial
// modulators, rolling failure churn — through sim::run_served_fleet, and
// records a scenario-matrix ledger in EXPERIMENTS.md ("Scenario matrix
// ledger"). It is the robustness story (fig 8–10) under serving load on
// inputs the cost models were never tuned on: every scenario is
// deterministic from its seed, so any row can be regenerated bit-identically.
//
// The invariant the bench itself enforces (exit nonzero otherwise): every
// run's serving ledger balances — offered == accepted + shed, completed ==
// accepted after drain.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "scenario/scenario.h"

using namespace teal;

namespace {

struct Row {
  std::string scheme, scenario;
  int nodes = 0, links = 0, demands = 0, intervals = 0, epochs = 0;
  double mean_satisfied = 0.0;
  std::uint64_t offered = 0, accepted = 0, shed = 0;
  double p50_ms = 0.0, p99_ms = 0.0;
};

void append_experiments_ledger(const std::vector<Row>& rows) {
  std::string entry;
  entry += "\n\n### Run " + bench::ledger_stamp() + " — power-law topologies, 2 replicas";
  entry += bench::fast_mode() ? " (fast mode)" : "";
  entry += "\n\n| scheme | scenario | nodes | links | demands | epochs | satisfied % | offered | shed | p50 (ms) | p99 (ms) |\n";
  entry += "|---|---|---|---|---|---|---|---|---|---|---|\n";
  for (const auto& r : rows) {
    entry += "| " + r.scheme + " | " + r.scenario + " | " + std::to_string(r.nodes) +
             " | " + std::to_string(r.links) + " | " + std::to_string(r.demands) +
             " | " + std::to_string(r.epochs) + " | " + util::fmt(r.mean_satisfied, 1) +
             " | " + std::to_string(r.offered) + " | " + std::to_string(r.shed) +
             " | " + util::fmt(r.p50_ms, 3) + " | " + util::fmt(r.p99_ms, 3) + " |\n";
  }
  bench::insert_ledger_entry(
      "<!-- bench_scenario_matrix inserts runs below this line -->", entry);
}

}  // namespace

int main() {
  bench::print_header("Scenario matrix",
                      "generated topologies x adversarial traffic through run_served_fleet");
  const std::vector<std::string> schemes = {"Teal", "LP-top"};
  const std::vector<std::string> scenarios = {"baseline", "diurnal", "flash-crowd",
                                              "rolling-failure"};
  const std::vector<int> scales = bench::fast_mode() ? std::vector<int>{40, 80}
                                                     : std::vector<int>{120, 360};

  util::Table table({"scheme", "scenario", "nodes", "epochs", "satisfied %", "shed",
                     "p50 ms", "p99 ms"});
  util::Table csv({"scheme", "scenario", "nodes", "links", "demands", "epochs",
                   "satisfied_pct", "offered", "shed", "p50_ms", "p99_ms"});
  std::vector<Row> rows;
  bool balanced = true;

  for (int nodes : scales) {
    for (const auto& sname : scenarios) {
      scenario::ScenarioSpec spec = scenario::named_scenario(sname, nodes);
      if (bench::fast_mode()) {
        spec.traffic.n_intervals = 12;
        spec.n_demands = std::min(spec.n_demands, 100);
      }
      scenario::Scenario sc = scenario::build_scenario(spec);

      for (const auto& scheme_name : schemes) {
        auto scheme = scenario::make_cold_scheme(scheme_name, sc.pb);
        sim::ServedFleetConfig cfg;
        cfg.total_replicas = 2;
        cfg.serve.queue_capacity = static_cast<std::size_t>(sc.trace.size());
        auto res = scenario::run_scenario(
            *scheme, sc, cfg, scenario::cold_scheme_factory(scheme_name, sc.pb));

        Row r;
        r.scheme = scheme_name;
        r.scenario = sname;
        r.nodes = sc.pb.graph().num_nodes();
        r.links = sc.pb.graph().num_edges() / 2;
        r.demands = sc.pb.num_demands();
        r.intervals = sc.trace.size();
        r.epochs = res.n_epochs;
        r.mean_satisfied = res.mean_satisfied_pct;
        r.offered = res.stats.offered;
        r.accepted = res.stats.accepted;
        r.shed = res.stats.shed;
        r.p50_ms = res.stats.response.percentile(50.0) * 1e3;
        r.p99_ms = res.stats.response.percentile(99.0) * 1e3;
        rows.push_back(r);

        if (r.accepted + r.shed != r.offered || res.stats.completed != r.accepted) {
          std::fprintf(stderr,
                       "LEDGER IMBALANCE: %s/%s/%d offered=%llu accepted=%llu "
                       "shed=%llu completed=%llu\n",
                       scheme_name.c_str(), sname.c_str(), nodes,
                       static_cast<unsigned long long>(r.offered),
                       static_cast<unsigned long long>(r.accepted),
                       static_cast<unsigned long long>(r.shed),
                       static_cast<unsigned long long>(res.stats.completed));
          balanced = false;
        }

        table.add_row({scheme_name, sname, std::to_string(r.nodes),
                       std::to_string(r.epochs), util::fmt(r.mean_satisfied, 1),
                       std::to_string(r.shed), util::fmt(r.p50_ms, 3),
                       util::fmt(r.p99_ms, 3)});
        csv.add_row({scheme_name, sname, std::to_string(r.nodes),
                     std::to_string(r.links), std::to_string(r.demands),
                     std::to_string(r.epochs), util::fmt(r.mean_satisfied, 2),
                     std::to_string(r.offered), std::to_string(r.shed),
                     util::fmt(r.p50_ms, 4), util::fmt(r.p99_ms, 4)});
      }
      std::printf("  %s @ %d nodes done\n", sname.c_str(), nodes);
    }
  }

  std::printf("\n%s", table.to_string().c_str());
  csv.write_csv(bench::out_dir() + "/scenario_matrix.csv");
  append_experiments_ledger(rows);
  if (!balanced) {
    std::fprintf(stderr, "scenario_matrix: serving ledger imbalance (see above)\n");
    return 1;
  }
  return 0;
}
