// fig12_latency — regenerates Figure 12: maximizing total flow with delay
// penalties (§5.5) on Kdl and ASN for LP-all (Kdl only, infeasible on ASN),
// LP-top and Teal (trained for this objective; ADMM omitted per §5.5).
//
// The reported metric is the latency-penalized flow normalized by the total
// demand ("normalized max flow w/ delay penalties"). Expected shape: Teal's
// quality is comparable to or better than LP-top while being far faster.
#include <cstdio>

#include "bench/common.h"

using namespace teal;

int main() {
  bench::print_header("Figure 12", "latency-penalized total flow: quality vs time");
  const int n_test = bench::fast_mode() ? 1 : 3;
  util::Table table({"topology", "scheme", "matrix", "normalized flow", "time (s)"});

  for (const std::string topo : {"Kdl", "ASN"}) {
    auto inst = bench::make_instance(topo);
    for (const std::string sname : {"LP-all", "LP-top", "Teal"}) {
      if (sname == "LP-all" && topo == "ASN") continue;  // infeasible per paper
      std::unique_ptr<te::Scheme> scheme =
          sname == "Teal"
              ? std::unique_ptr<te::Scheme>(
                    bench::make_teal(*inst, te::Objective::kLatencyPenalizedFlow,
                                     /*use_admm=*/false))
              : bench::make_baseline(sname, *inst, te::Objective::kLatencyPenalizedFlow);
      std::vector<double> scores, times;
      for (int t = 0; t < n_test; ++t) {
        const auto& tm = inst->split.test.at(t);
        auto a = scheme->solve(inst->pb, tm);
        scores.push_back(te::latency_penalized_flow(inst->pb, tm, a) /
                         std::max(1e-9, tm.total()));
        times.push_back(scheme->last_solve_seconds());
      }
      for (std::size_t i = 0; i < scores.size(); ++i) {
        table.add_row({topo, sname, std::to_string(i), util::fmt(scores[i], 4),
                       util::fmt(times[i], 4)});
      }
      std::printf("  [%s/%s] normalized flow %.3f in %.3f s\n", topo.c_str(),
                  sname.c_str(), util::mean(scores), util::mean(times));
    }
  }
  std::printf("\n");
  bench::report(table, "fig12_latency");
  std::printf("\nPaper reference: Teal comparable to or above LP-top, 26-718x faster;\n"
              "LP-all infeasible on ASN for this objective.\n");
  return 0;
}
