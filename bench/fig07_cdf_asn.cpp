// fig07_cdf_asn — regenerates Figure 7: CDFs of computation time (7a) and
// satisfied demand (7b) on ASN for LP-top, NCFlow, POP and Teal.
//
// The paper's reading: Teal's solve time is tightly clustered (0.89-1.08 s at
// all percentiles — exactly one forward pass + five ADMM iterations, with a
// flop count independent of the matrix values), while the LP-based schemes
// fluctuate with problem conditioning; Teal also dominates satisfied demand
// across percentiles.
#include <cstdio>

#include "bench/common.h"

using namespace teal;

int main() {
  bench::print_header("Figure 7", "CDFs of computation time and satisfied demand on ASN");
  auto inst = bench::make_instance("ASN");
  const int n_test = bench::fast_mode() ? 4 : static_cast<int>(inst->split.test.size());
  traffic::Trace test;
  test.matrices.assign(inst->split.test.matrices.begin(),
                       inst->split.test.matrices.begin() + n_test);

  const std::vector<std::string> schemes = {"LP-top", "NCFlow", "POP", "Teal"};
  struct Series {
    std::string name;
    bench::OfflineSeries offline;
    std::vector<te::Allocation> allocs;
  };
  std::vector<Series> all;
  for (const auto& sname : schemes) {
    std::unique_ptr<te::Scheme> scheme =
        sname == "Teal" ? std::unique_ptr<te::Scheme>(bench::make_teal(*inst))
                        : bench::make_baseline(sname, *inst);
    // run_offline = untimed warmup + sequential batched loop: Figure 7a's
    // claim is the tight clustering of *standalone* per-solve times, which
    // batch fan-out contention would smear (see te/scheme.h).
    Series s;
    s.name = sname;
    s.offline = bench::run_offline(*scheme, *inst, test);
    s.allocs = std::move(s.offline.allocs);
    // The CDF below is over *online* per-interval numbers; drop the offline
    // ones so the replay can fill the vector. (Computing them costs less
    // than one extra solve per scheme — a fair price for sharing
    // run_offline's warmup/timing policy instead of hand-rolling it.)
    s.offline.satisfied_pct.clear();
    all.push_back(std::move(s));
  }

  // Per-scheme paper-anchored budgets (see common.h's paper_seconds).
  for (auto& s : all) {
    sim::OnlineConfig ocfg;
    ocfg.time_scale = bench::scheme_time_scale(s.name, inst->name,
                                               util::median(s.offline.solve_seconds));
    auto online = sim::replay_online(inst->pb, test, s.allocs, s.offline.solve_seconds, ocfg);
    for (const auto& iv : online.intervals) s.offline.satisfied_pct.push_back(iv.satisfied_pct);
  }

  // The CDF samples (one row per scheme and interval) and their percentiles.
  util::Table samples({"scheme", "interval", "time (s)", "satisfied (%)"});
  util::Table t7a({"scheme", "p10 (s)", "p50 (s)", "p90 (s)", "max/min spread (x)"});
  util::Table t7b({"scheme", "p10 (%)", "p50 (%)", "p90 (%)"});
  for (auto& s : all) {
    auto& ts = s.offline.solve_seconds;
    auto& sat = s.offline.satisfied_pct;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      samples.add_row({s.name, std::to_string(i), util::fmt(ts[i], 4), util::fmt(sat[i], 2)});
    }
    t7a.add_row({s.name, util::fmt(util::percentile(ts, 10), 3),
                 util::fmt(util::percentile(ts, 50), 3),
                 util::fmt(util::percentile(ts, 90), 3),
                 util::fmt(util::max_of(ts) / std::max(1e-9, util::min_of(ts)), 2)});
    t7b.add_row({s.name, util::fmt(util::percentile(sat, 10), 1),
                 util::fmt(util::percentile(sat, 50), 1),
                 util::fmt(util::percentile(sat, 90), 1)});
  }
  std::printf("\nPer-interval samples on ASN\n");
  bench::report(samples, "fig07_cdf_asn");
  std::printf("\n(7a) Computation time percentiles on ASN\n");
  bench::report(t7a, "fig07a_time_percentiles");
  std::printf("\n(7b) Online satisfied demand percentiles on ASN\n");
  bench::report(t7b, "fig07b_satisfied_percentiles");
  std::printf("\nExpected shape: Teal's max/min time spread stays near 1x; the LP-based\n"
              "schemes spread widely and trail in satisfied demand at every percentile.\n");
  return 0;
}
