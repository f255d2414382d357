// fig10_robustness — regenerates Figure 10: robustness of the schemes to
// (a) temporal fluctuations (variance of consecutive demand deltas scaled by
// 1/2/5/10/20x) and (b) spatial redistribution (the original top-10% demand
// set re-targeted to carry 88.4/80/60/40/20% of the volume).
//
// Expected shape (paper): all schemes degrade as fluctuation grows; Teal
// leads up to 10x and only trails LP-top slightly at 20x (unseen pattern);
// under spatial redistribution Teal stays ahead while LP-top loses ~10%
// (its demand-pinning heuristic relies on the heavy tail).
#include <cstdio>

#include "bench/common.h"

using namespace teal;

namespace {

double mean_offline_satisfied(te::Scheme& scheme, const bench::Instance& inst,
                              const traffic::Trace& trace, int n) {
  std::vector<double> sat;
  for (int t = 0; t < std::min(n, trace.size()); ++t) {
    auto a = scheme.solve(inst.pb, trace.at(t));
    sat.push_back(te::satisfied_demand_pct(inst.pb, trace.at(t), a));
  }
  return util::mean(sat);
}

}  // namespace

int main() {
  bench::print_header("Figure 10", "robustness to temporal and spatial demand changes (ASN)");
  auto inst = bench::make_instance("ASN");
  const int n_test = bench::fast_mode() ? 2 : 4;
  const std::vector<std::string> schemes = {"LP-top", "NCFlow", "POP", "Teal"};

  // (a) temporal fluctuation
  util::Table ta({"scheme", "1x", "2x", "5x", "10x", "20x"});
  for (const auto& sname : schemes) {
    std::unique_ptr<te::Scheme> scheme =
        sname == "Teal" ? std::unique_ptr<te::Scheme>(bench::make_teal(*inst))
                        : bench::make_baseline(sname, *inst);
    std::vector<std::string> row = {sname};
    for (double factor : {1.0, 2.0, 5.0, 10.0, 20.0}) {
      traffic::Trace shaken =
          factor == 1.0 ? inst->split.test
                        : traffic::perturb_temporal(inst->split.test, factor, 77);
      double sat = mean_offline_satisfied(*scheme, *inst, shaken, n_test);
      row.push_back(util::fmt(sat, 2));
    }
    ta.add_row(row);
    std::printf("  temporal %s done\n", sname.c_str());
  }

  // (b) spatial redistribution
  util::Table tb({"scheme", "share 88.4%", "share 80%", "share 60%", "share 40%", "share 20%"});
  for (const auto& sname : schemes) {
    std::unique_ptr<te::Scheme> scheme =
        sname == "Teal" ? std::unique_ptr<te::Scheme>(bench::make_teal(*inst))
                        : bench::make_baseline(sname, *inst);
    std::vector<std::string> row = {sname};
    for (double share : {-1.0, 0.8, 0.6, 0.4, 0.2}) {  // -1 = original
      traffic::Trace redist =
          share < 0.0 ? inst->split.test : traffic::perturb_spatial(inst->split.test, share);
      double sat = mean_offline_satisfied(*scheme, *inst, redist, n_test);
      row.push_back(util::fmt(sat, 2));
    }
    tb.add_row(row);
    std::printf("  spatial %s done\n", sname.c_str());
  }

  std::printf("\n(10a) Satisfied demand (%%) under temporal fluctuation (variance scale)\n");
  bench::report(ta, "fig10a_temporal");
  std::printf("\n(10b) Satisfied demand (%%) under spatial redistribution (top-10%% share)\n");
  bench::report(tb, "fig10b_spatial");
  return 0;
}
