// fig02_lp_threads — regenerates Figure 2: the speedup of the LP engine as
// more CPU threads become available is sublinear and marginal.
//
// Like Gurobi (§2.1), our LP engine exploits multiple threads only by
// "concurrently running independent instances of different optimization
// algorithms, where each instance executes serially on a separate thread; the
// solution is yielded by whichever instance completes first". We emulate that
// strategy faithfully: k concurrent PDHG instances with different step-size
// configurations race on the Kdl-like TE LP, and the wall time is the first
// finisher's. The speedup saturates quickly — the paper reads 3.8x at 16
// threads for Gurobi.
#include <cstdio>
#include <future>

#include "bench/common.h"
#include "lp/path_lp.h"
#include "util/timer.h"

using namespace teal;

namespace {

// One racing instance: a PDHG run with its own step-scale "algorithm".
double run_instance(const te::Problem& pb, const te::TrafficMatrix& tm, double step_scale) {
  lp::PdhgOptions opt;
  opt.step_scale = step_scale;
  lp::FlowLpInfo info;
  lp::solve_flow_lp(pb, tm, {}, opt, &info);
  return info.objective;
}

}  // namespace

int main() {
  bench::print_header("Figure 2", "LP engine speedup vs available CPU threads (Kdl-like LP)");
  auto inst = bench::make_instance("Kdl");
  const auto& tm = inst->split.test.at(0);

  // Step-scale variants stand in for "different optimization algorithms".
  const std::vector<double> variants = {1.0, 0.9, 0.75, 0.6, 0.5, 1.0,  0.85, 0.7,
                                        0.95, 0.8, 0.65, 0.55, 0.45, 0.9, 0.6, 1.0};
  util::Table table({"threads", "time (s)", "speedup"});
  double base_time = 0.0;
  for (int threads : {1, 2, 4, 8, 16}) {
    util::Timer timer;
    // Launch `threads` racing instances; wall time = first finisher. All
    // instances run to completion in their own thread, exactly like
    // concurrent LP algorithms; we measure the earliest finish.
    std::vector<std::future<double>> futs;
    std::vector<double> finish(static_cast<std::size_t>(threads), 0.0);
    std::vector<std::thread> workers;
    std::mutex mu;
    double first_done = 1e18;
    for (int i = 0; i < threads; ++i) {
      workers.emplace_back([&, i] {
        util::Timer t;
        run_instance(inst->pb, tm, variants[static_cast<std::size_t>(i)]);
        std::lock_guard lock(mu);
        first_done = std::min(first_done, t.seconds());
      });
    }
    for (auto& w : workers) w.join();
    double elapsed = first_done;
    if (threads == 1) base_time = elapsed;
    table.add_row({std::to_string(threads), util::fmt(elapsed, 2),
                   util::fmt(base_time / std::max(1e-9, elapsed), 2) + "x"});
    std::printf("  threads=%2d first-finisher %.2f s\n", threads, elapsed);
  }
  std::printf("\n");
  bench::report(table, "fig02_lp_threads");
  std::printf("\nPaper reference: Gurobi reaches only 3.8x speedup at 16 threads on ASN.\n");
  return 0;
}
