// fig18_timeseries — regenerates Figure 18 (Appendix E): per-interval
// satisfied demand over ~100 minutes on ASN for LP-top, NCFlow, POP and Teal
// in the online setting.
//
// Expected shape (paper): LP-top only deploys fresh routes near the end of
// each 5-minute interval (and sometimes overruns); NCFlow/POP recompute only
// every 2nd-3rd matrix and ride stale routes in between; Teal refreshes every
// interval and leads throughout.
#include <cstdio>

#include "bench/common.h"

using namespace teal;

int main() {
  bench::print_header("Figure 18", "satisfied demand over time on ASN (online)");
  auto inst = bench::make_instance("ASN");
  const int n_intervals =
      std::min(bench::fast_mode() ? 4 : 20, inst->split.test.size());
  traffic::Trace test;
  test.matrices.assign(inst->split.test.matrices.begin(),
                       inst->split.test.matrices.begin() + n_intervals);

  const std::vector<std::string> schemes = {"LP-top", "NCFlow", "POP", "Teal"};
  struct Run {
    std::string name;
    std::vector<te::Allocation> allocs;
    std::vector<double> seconds;
  };
  std::vector<Run> runs;
  for (const auto& sname : schemes) {
    std::unique_ptr<te::Scheme> scheme =
        sname == "Teal" ? std::unique_ptr<te::Scheme>(bench::make_teal(*inst))
                        : bench::make_baseline(sname, *inst);
    // Parallel batch is fine here: fig18's deliverable is satisfied demand
    // over time, and the staleness replay anchors each scheme's *median*
    // time to the paper's (scheme_time_scale), cancelling uniform batch
    // contention; the batch wall time below is the amortization win.
    auto batch = scheme->solve_batch(inst->pb, std::span(test.matrices));
    Run run;
    run.name = sname;
    run.allocs = std::move(batch.allocs);
    run.seconds = std::move(batch.solve_seconds);
    std::printf("  %s solved %d matrices (batch wall %.3f s)\n", sname.c_str(),
                test.size(), batch.wall_seconds);
    runs.push_back(std::move(run));
  }

  std::vector<sim::OnlineResult> results;
  for (const auto& r : runs) {
    sim::OnlineConfig ocfg;
    ocfg.time_scale =
        bench::scheme_time_scale(r.name, inst->name, util::median(r.seconds));
    results.push_back(sim::replay_online(inst->pb, test, r.allocs, r.seconds, ocfg));
  }
  util::Table table({"minute", "scheme", "satisfied (%)", "started solve"});
  for (int t = 0; t < test.size(); ++t) {
    for (std::size_t s = 0; s < runs.size(); ++s) {
      const auto& iv = results[s].intervals[static_cast<std::size_t>(t)];
      table.add_row({std::to_string(t * 5), runs[s].name, util::fmt(iv.satisfied_pct, 2),
                     iv.started_solve ? "yes" : "no"});
    }
  }
  std::printf("\nPer-interval satisfied demand; 'started solve' marks intervals where\n"
              "the scheme started a new computation (others ride stale routes):\n");
  bench::report(table, "fig18_timeseries");
  for (std::size_t s = 0; s < runs.size(); ++s) {
    std::printf("  %-8s recomputed %zu/%d intervals, mean %.1f%%\n", runs[s].name.c_str(),
                results[s].solve_times.size(), test.size(),
                results[s].mean_satisfied_pct);
  }
  return 0;
}
