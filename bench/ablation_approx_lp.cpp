// ablation_approx_lp — measures the §2.1 claim that combinatorial
// approximation algorithms (Fleischer-style multiplicative weights) are
// "hardly faster in practice" than LP engines despite better asymptotics:
// their iteration count explodes as the approximation knob eps tightens,
// while the LP engine's quality/time point dominates. Also shows Teal-style
// inference cost (one untrained forward + ADMM) for scale.
#include <cstdio>

#include "bench/common.h"
#include "core/admm.h"
#include "core/model.h"
#include "lp/fleischer.h"
#include "util/timer.h"

using namespace teal;

int main() {
  bench::print_header("Ablation (§2.1)", "approximation algorithms vs LP engine vs inference");
  auto inst = bench::make_instance("Kdl");
  const auto& tm = inst->split.test.at(0);
  util::Table table({"solver", "satisfied (%)", "time (s)", "iterations"});

  {
    util::Timer t;
    lp::FlowLpInfo info;
    auto a = lp::solve_flow_lp(inst->pb, tm, {}, {}, &info);
    table.add_row({"LP engine (PDHG)",
                   util::fmt(te::satisfied_demand_pct(inst->pb, tm, a), 1),
                   util::fmt(t.seconds(), 3), std::to_string(info.iterations)});
  }
  for (double eps : {0.4, 0.2, 0.1}) {
    util::Timer t;
    lp::FleischerOptions opt;
    opt.eps = eps;
    lp::FleischerResult res;
    auto a = lp::fleischer_max_flow(inst->pb, tm, opt, &res);
    table.add_row({"Fleischer eps=" + util::fmt(eps, 2),
                   util::fmt(te::satisfied_demand_pct(inst->pb, tm, a), 1),
                   util::fmt(t.seconds(), 3), std::to_string(res.iterations)});
  }
  {
    // One NN forward + 5 ADMM iterations (untrained weights: the cost is
    // identical to a trained model's — that is the point).
    core::TealModel model({}, inst->pb.k_paths());
    core::Admm admm(inst->pb, {});
    util::Timer t;
    auto fwd = model.forward(inst->pb, tm);
    auto a = core::allocation_from_splits(
        inst->pb, core::splits_from_logits(fwd.logits, fwd.mask));
    admm.fine_tune(tm, inst->pb.capacities(), a);
    table.add_row({"NN forward + ADMM (cost only)", "-", util::fmt(t.seconds(), 3), "5"});
  }
  bench::report(table, "ablation_approx_lp");
  std::printf("\nShape: Fleischer needs far more iterations as eps tightens and does not\n"
              "beat the LP engine's quality/time point (§2.1); inference cost is flat.\n");
  return 0;
}
