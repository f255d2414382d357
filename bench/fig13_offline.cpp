// fig13_offline — regenerates Figure 13: *offline* satisfied demand on Kdl
// and ASN (schemes assumed to compute instantaneously, isolating allocation
// quality from control delay; §5.1/§5.6).
//
// Expected shape (paper): on Kdl, LP-all is the optimal benchmark; Teal lands
// within a few percent of it, within ~1% of LP-top, and well above NCFlow;
// on ASN Teal and LP-top are comparable, both far above NCFlow/POP.
#include <cstdio>

#include "bench/common.h"

using namespace teal;

int main() {
  bench::print_header("Figure 13", "offline satisfied demand (no control delay)");
  const int n_test = bench::fast_mode() ? 2 : 5;
  util::Table table({"topology", "scheme", "offline satisfied (%)", "mean time (s)"});

  for (const std::string topo : {"Kdl", "ASN"}) {
    auto inst = bench::make_instance(topo);
    traffic::Trace test;
    test.matrices.assign(inst->split.test.matrices.begin(),
                         inst->split.test.matrices.begin() + n_test);
    for (const std::string sname : {"LP-all", "LP-top", "NCFlow", "POP", "Teal"}) {
      if (sname == "LP-all" && topo == "ASN") continue;
      std::unique_ptr<te::Scheme> scheme =
          sname == "Teal" ? std::unique_ptr<te::Scheme>(bench::make_teal(*inst))
                          : bench::make_baseline(sname, *inst);
      auto series = bench::run_offline(*scheme, *inst, test);
      table.add_row({topo, sname, util::fmt(series.mean_satisfied(), 2),
                     util::fmt(series.mean_seconds(), 4)});
      std::printf("  [%s/%s] offline %.1f%% in %.3f s\n", topo.c_str(), sname.c_str(),
                  series.mean_satisfied(), series.mean_seconds());
    }
  }
  std::printf("\n");
  bench::report(table, "fig13_offline");
  std::printf("\nPaper reference: Kdl — Teal within 4.8%% of optimal (LP-all), within "
              "0.7%% of LP-top,\n+27%% over NCFlow, +2.8%% over POP; ASN — Teal ~ LP-top, "
              "+30%% over NCFlow, +11%% over POP.\n");
  return 0;
}
