// cold_start — replica spin-up and topology-swap latency, heap vs arena.
//
// Not a paper figure: this bench measures the repo's own cold-start path.
// The warm-path story (zero allocations per solve, bench_micro_kernels) left
// spin-up untouched: warming a fresh SolveWorkspace used to malloc every
// buffer individually. With util::Arena behind the workspace substrate, a
// replica bound to an arena warms in O(1) heap allocations, and a respawn or
// topology swap (clear() + Arena::reset()) re-bumps the already-faulted
// chunks with no heap traffic at all — the serving story behind
// serve::make_workspace_replicas.
//
// The first solve's *compute* (forward + ADMM) is identical on every path,
// so the honest headline is the overhead: cold-solve time minus the warm
// p50, alongside the heap-allocation counts (deterministic, the contract
// tests/workspace_test.cpp enforces at <= 5 for the arena paths).
//
// Output: one table (bench::record) — stdout, bench_out/cold_start.csv and,
// when run from the repo root, the EXPERIMENTS.md "Cold-start ledger".
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/solve_workspace.h"
#include "util/alloc_hook.h"
#include "util/arena.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace teal;

namespace {

struct Row {
  std::string path;
  double cold_ms = 0.0;      // median cold-solve wall time
  double overhead_ms = 0.0;  // cold_ms - warm p50 of the same topology
  double allocs = 0.0;       // median heap allocations in the cold window
};

// One timed cold solve: `setup` cools the workspace, then the measured
// window runs a single solve. Replicas solve sequentially (shard_count 1),
// matching serve::WorkspaceReplica's default shape.
template <typename Setup>
Row measure(const std::string& label, int repeats, double warm_p50_ms,
            core::TealScheme& teal, const te::Problem& pb, const te::TrafficMatrix& tm,
            te::Allocation& out, Setup setup) {
  std::vector<double> ms, allocs;
  for (int i = 0; i < repeats; ++i) {
    core::SolveWorkspace& ws = setup();
    util::AllocCounter counter;
    util::Timer timer;
    teal.solve_replica(ws, pb, tm, out, nullptr, /*shard_count=*/1);
    ms.push_back(timer.seconds() * 1e3);
    allocs.push_back(static_cast<double>(counter.count()));
  }
  Row r;
  r.path = label;
  r.cold_ms = util::median(ms);
  r.overhead_ms = r.cold_ms - warm_p50_ms;
  r.allocs = util::median(allocs);
  return r;
}

}  // namespace

int main() {
  bench::print_header("Cold start",
                      "replica spin-up + topology swap: heap vs arena workspaces");
  auto inst_a = bench::make_instance("SWAN");
  auto inst_b = bench::make_instance("B4");
  auto teal_a = bench::make_teal(*inst_a);
  auto teal_b = bench::make_teal(*inst_b);
  const te::TrafficMatrix& tm_a = inst_a->split.test.at(0);
  const te::TrafficMatrix& tm_b = inst_b->split.test.at(0);
  const int repeats = bench::fast_mode() ? 9 : 41;

  // Warm references per topology (also sizes the output allocations so the
  // cold windows measure workspace construction, not output growth).
  te::Allocation out_a, out_b;
  double warm_a_ms = 0.0, warm_b_ms = 0.0;
  core::SolveWorkspace warm_ws_a, warm_ws_b;
  {
    teal_a->solve_replica(warm_ws_a, inst_a->pb, tm_a, out_a);
    teal_b->solve_replica(warm_ws_b, inst_b->pb, tm_b, out_b);
    std::vector<double> wa, wb;
    for (int i = 0; i < repeats; ++i) {
      double s = 0.0;
      teal_a->solve_replica(warm_ws_a, inst_a->pb, tm_a, out_a, &s);
      wa.push_back(s * 1e3);
      teal_b->solve_replica(warm_ws_b, inst_b->pb, tm_b, out_b, &s);
      wb.push_back(s * 1e3);
    }
    warm_a_ms = util::median(wa);
    warm_b_ms = util::median(wb);
  }

  std::vector<Row> rows;

  // 1. Heap spin-up: a fresh workspace per repeat, no arena bound — the
  //    pre-arena replica cold start (one malloc per buffer).
  {
    std::vector<core::SolveWorkspace> pool(static_cast<std::size_t>(repeats));
    int i = 0;
    rows.push_back(measure("spin-up, heap", repeats, warm_a_ms, *teal_a, inst_a->pb,
                           tm_a, out_a, [&]() -> core::SolveWorkspace& {
                             return pool[static_cast<std::size_t>(i++)];
                           }));
  }

  // 2. First arena spin-up: fresh workspace + fresh (unreserved) arena per
  //    repeat — O(1) allocations, but the chunks are new memory.
  {
    std::vector<util::Arena> arenas(static_cast<std::size_t>(repeats));
    std::vector<core::SolveWorkspace> pool(static_cast<std::size_t>(repeats));
    std::optional<util::ArenaScope> scope;  // re-bound around each measured solve
    int i = 0;
    rows.push_back(measure("spin-up, arena (first)", repeats, warm_a_ms, *teal_a,
                           inst_a->pb, tm_a, out_a, [&]() -> core::SolveWorkspace& {
                             scope.reset();
                             scope.emplace(&arenas[static_cast<std::size_t>(i)]);
                             return pool[static_cast<std::size_t>(i++)];
                           }));
    scope.reset();
  }

  // 3. Recycled arena: one persistent workspace + arena; each repeat is a
  //    respawn — clear() + reset() + cold solve out of retained chunks. The
  //    serving layer's replica-restart shape.
  {
    util::Arena arena;
    util::ArenaScope bind(&arena);
    core::SolveWorkspace ws;
    teal_a->solve_replica(ws, inst_a->pb, tm_a, out_a);  // fault the chunks once
    rows.push_back(measure("respawn, arena (recycled)", repeats, warm_a_ms, *teal_a,
                           inst_a->pb, tm_a, out_a, [&]() -> core::SolveWorkspace& {
                             ws.clear();
                             arena.reset();
                             return ws;
                           }));
  }

  // 4. Topology swap, heap: fresh workspace per repeat against topology B —
  //    what re-pointing a heap replica at a new problem costs.
  {
    std::vector<core::SolveWorkspace> pool(static_cast<std::size_t>(repeats));
    int i = 0;
    rows.push_back(measure("swap, heap", repeats, warm_b_ms, *teal_b, inst_b->pb,
                           tm_b, out_b, [&]() -> core::SolveWorkspace& {
                             return pool[static_cast<std::size_t>(i++)];
                           }));
  }

  // 5. Topology swap, arena: the replica slot warms on A, then clear() +
  //    reset() re-bumps the same chunks for B.
  {
    util::Arena arena;
    util::ArenaScope bind(&arena);
    core::SolveWorkspace ws;
    rows.push_back(measure("swap, arena (recycled)", repeats, warm_b_ms, *teal_b,
                           inst_b->pb, tm_b, out_b, [&]() -> core::SolveWorkspace& {
                             ws.clear();
                             arena.reset();
                             teal_a->solve_replica(ws, inst_a->pb, tm_a, out_a);
                             ws.clear();
                             arena.reset();
                             return ws;
                           }));
  }

  const Row& heap_row = rows[0];
  const Row& recycled_row = rows[2];
  const double alloc_ratio =
      recycled_row.allocs > 0.0 ? heap_row.allocs / recycled_row.allocs : heap_row.allocs;
  // A negative/zero recycled overhead means the respawn solve is already
  // indistinguishable from a warm solve — report that instead of a ratio.
  const double overhead_ratio =
      recycled_row.overhead_ms > 1e-6 && heap_row.overhead_ms > 0.0
          ? heap_row.overhead_ms / recycled_row.overhead_ms
          : 0.0;

  util::Table table({"path", "cold p50 (ms)", "overhead vs warm (ms)", "heap allocs"});
  for (const auto& r : rows) {
    table.add_row({r.path, util::fmt(r.cold_ms, 4), util::fmt(r.overhead_ms, 4),
                   util::fmt(r.allocs, 0)});
  }
  bench::record(table, "cold_start",
                "spin-up on " + inst_a->name + ", swap to " + inst_b->name + ", warm p50 " +
                    util::fmt(warm_a_ms, 3) + " / " + util::fmt(warm_b_ms, 3) +
                    " ms; recycled arena vs heap spin-up: " + util::fmt(alloc_ratio, 1) +
                    "x fewer heap allocations, " +
                    (overhead_ratio > 0.0
                         ? util::fmt(overhead_ratio, 1) + "x lower overhead"
                         : std::string("overhead below the warm-path timer noise")));
  return 0;
}
