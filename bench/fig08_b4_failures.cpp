// fig08_b4_failures — regenerates Figure 8: satisfied demand on B4 with 0, 1
// or 2 link failures for TEAVAR*, NCFlow, Teal, LP-top, POP and LP-all.
//
// Expected shape (paper): all schemes decline as failures increase; Teal
// consistently beats TEAVAR* (which sacrificed utilization for availability
// headroom) while staying statistically indistinguishable from the rest.
#include <cstdio>

#include "bench/common.h"

using namespace teal;

int main() {
  bench::print_header("Figure 8", "satisfied demand under 0/1/2 link failures on B4");
  auto inst = bench::make_instance("B4");
  const int n_trials = bench::fast_mode() ? 2 : 6;

  const std::vector<std::string> schemes = {"TEAVAR*", "NCFlow", "Teal",
                                            "LP-top", "POP", "LP-all"};
  util::Table table({"scheme", "no failure (%)", "1 link failure (%)", "2 link failures (%)"});

  for (const auto& sname : schemes) {
    std::unique_ptr<te::Scheme> scheme =
        sname == "Teal" ? std::unique_ptr<te::Scheme>(bench::make_teal(*inst))
                        : bench::make_baseline(sname, *inst);
    std::vector<std::string> row = {sname};
    for (int n_failures : {0, 1, 2}) {
      std::vector<double> sat;
      for (int trial = 0; trial < n_trials; ++trial) {
        const auto& tm = inst->split.test.at(trial % inst->split.test.size());
        if (n_failures == 0) {
          auto a = scheme->solve(inst->pb, tm);
          sat.push_back(te::satisfied_demand_pct(inst->pb, tm, a));
        } else {
          auto failed = sim::sample_link_failures(
              inst->pb.graph(), n_failures, 100 + static_cast<std::uint64_t>(trial));
          auto res = sim::eval_failure_reaction(*scheme, inst->pb, tm, failed, {});
          sat.push_back(res.satisfied_pct);
        }
      }
      row.push_back(util::fmt(util::mean(sat), 2));
    }
    table.add_row(row);
    std::printf("  %s done\n", sname.c_str());
  }
  std::printf("\n");
  bench::report(table, "fig08_b4_failures");
  std::printf("\nPaper reference: Teal outperforms TEAVAR* by 2.4-5.1%% and matches the "
              "other schemes.\n");
  return 0;
}
