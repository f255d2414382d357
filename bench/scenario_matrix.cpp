// scenario_matrix — scheme × scenario × scale sweep through the serving path.
//
// Not a paper figure: this bench drives the scenario factory (src/scenario/)
// end to end — generated power-law WANs, gravity traffic with adversarial
// modulators, rolling failure churn — through sim::run_served_fleet, and
// records one table (bench::record): stdout, bench_out/scenario_matrix.csv
// and the EXPERIMENTS.md "Scenario matrix ledger". It is the robustness
// story (fig 8–10) under serving load on inputs the cost models were never
// tuned on: every scenario is deterministic from its seed, so any row can be
// regenerated bit-identically.
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

int main() {
  bench::print_header("Scenario matrix",
                      "generated topologies x adversarial traffic through run_served_fleet");
  const std::vector<std::string> schemes = {"Teal", "LP-top"};
  const std::vector<std::string> scenarios = {"baseline", "diurnal", "flash-crowd",
                                              "rolling-failure"};
  const std::vector<int> scales = bench::fast_mode() ? std::vector<int>{40, 80}
                                                     : std::vector<int>{120, 360};

  util::Table table({"scheme", "scenario", "nodes", "links", "demands", "epochs",
                     "satisfied (%)", "offered", "shed", "p50 (ms)", "p99 (ms)"});
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

        const auto& st = res.stats;
        if (st.accepted + st.shed != st.offered || st.completed != st.accepted) {
          std::fprintf(stderr,
                       "LEDGER IMBALANCE: %s/%s/%d offered=%llu accepted=%llu "
                       "shed=%llu completed=%llu\n",
                       scheme_name.c_str(), sname.c_str(), nodes,
                       static_cast<unsigned long long>(st.offered),
                       static_cast<unsigned long long>(st.accepted),
                       static_cast<unsigned long long>(st.shed),
                       static_cast<unsigned long long>(st.completed));
          balanced = false;
        }
        table.add_row({scheme_name, sname, std::to_string(sc.pb.graph().num_nodes()),
                       std::to_string(sc.pb.graph().num_edges() / 2),
                       std::to_string(sc.pb.num_demands()), std::to_string(res.n_epochs),
                       util::fmt(res.mean_satisfied_pct, 2), std::to_string(st.offered),
                       std::to_string(st.shed),
                       util::fmt(st.response.percentile(50.0) * 1e3, 4),
                       util::fmt(st.response.percentile(99.0) * 1e3, 4)});
      }
      std::printf("  %s @ %d nodes done\n", sname.c_str(), nodes);
    }
  }

  bench::record(table, "scenario_matrix", "power-law topologies, 2 replicas");
  if (!balanced) {
    std::fprintf(stderr, "scenario_matrix: serving ledger imbalance (see above)\n");
    return 1;
  }
  return 0;
}
