// fig11_mlu — regenerates Figure 11: the min-MLU objective (§5.5) on Kdl and
// ASN for LP-all, LP-top and Teal (NCFlow/POP codebases do not support other
// objectives; Teal omits ADMM for MLU).
//
// Expected shape (paper): all three schemes attain comparable MLU with no
// statistically significant differences, but Teal answers in a fraction of a
// second while the LP schemes pay for a bisection of LP solves (17-36x in
// the paper).
#include <cstdio>

#include "bench/common.h"

using namespace teal;

int main() {
  bench::print_header("Figure 11", "min-MLU objective: quality vs computation time");
  const int n_test = bench::fast_mode() ? 1 : 3;
  util::Table table({"topology", "scheme", "matrix", "MLU", "time (s)"});

  for (const std::string topo : {"Kdl", "ASN"}) {
    auto inst = bench::make_instance(topo);
    for (const std::string sname : {"LP-all", "LP-top", "Teal"}) {
      std::unique_ptr<te::Scheme> scheme =
          sname == "Teal"
              ? std::unique_ptr<te::Scheme>(
                    bench::make_teal(*inst, te::Objective::kMinMaxLinkUtil,
                                     /*use_admm=*/false))
              : bench::make_baseline(sname, *inst, te::Objective::kMinMaxLinkUtil);
      std::vector<double> mlus, times;
      for (int t = 0; t < n_test; ++t) {
        const auto& tm = inst->split.test.at(t);
        auto a = scheme->solve(inst->pb, tm);
        // The MLU objective routes all traffic; Teal's softmax does that by
        // construction, the LP schemes by their bisection top-up.
        mlus.push_back(te::max_link_utilization(inst->pb, tm, a));
        times.push_back(scheme->last_solve_seconds());
      }
      for (std::size_t i = 0; i < mlus.size(); ++i) {
        table.add_row({topo, sname, std::to_string(i), util::fmt(mlus[i], 4),
                       util::fmt(times[i], 4)});
      }
      std::printf("  [%s/%s] MLU %.3f in %.3f s\n", topo.c_str(), sname.c_str(),
                  util::mean(mlus), util::mean(times));
    }
  }
  std::printf("\n");
  bench::report(table, "fig11_mlu");
  std::printf("\nPaper reference: comparable MLU across schemes; Teal 17-36x faster.\n");
  return 0;
}
