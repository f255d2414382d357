#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <iterator>
#include <mutex>
#include <thread>

#include "bench.h"
#include "te/objective.h"
#include "topo/topology.h"
#include "util/thread_pool.h"

namespace teal_bench {

namespace {

// The instance of each workload — topology, demand pairs, paths, base trace
// and capacities — is fixed; the seed drives only the per-run traffic. Teal's
// compute shape does not depend on traffic values, so the seed varies the
// matrices a run solves without varying the work a solve does, and the
// satisfied demand of the fixed base trace is exact for every seed.
constexpr std::uint64_t kStructureSeed = 1;
// Capacities are scaled so shortest-path routing of the base trace's mean
// matrix satisfies this share of demand: the congested regime where TE
// quality matters.
constexpr double kTargetSpSatisfiedPct = 72.0;
// Per-run traffic: the base trace with §5.4 temporal fluctuation at this
// variance multiplier, drawn from the run's seed.
constexpr double kFluctuation = 2.0;

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      // In-process, closed loop, auto shards: the NN forward dominates and
      // fork-join sharding sets latency. net/ and serve/ are bypassed.
      {"asn-latency", "ASN", 6000, Kind::kLatency, {}},
      // In-process, across-matrix batch fan-out with 1-shard solves: ADMM
      // dominates (long paths), the opposite axis of asn-latency.
      {"kdl-batch", "Kdl", 3000, Kind::kBatch, {}},
      // Served, sub-capacity (~4000/s): the smallest frames and a ~0.5 ms
      // solve, so decode, queue, wake-up and outbox weigh most here.
      {"b4-served", "B4", 132, Kind::kServed, {2000.0, 0.005, 0.005}},
      // Served at ~2x capacity (~60/s) with the largest frames: admission
      // sheds beside the solves; goodput is capacity under a latency limit.
      {"swan-overload", "SWAN", 4000, Kind::kServed, {120.0, 0.1, 0.2}},
  };
  return kAll;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::unique_ptr<core::TealScheme> make_scheme(const te::Problem& pb) {
  const core::TealSchemeConfig cfg;
  return std::make_unique<core::TealScheme>(
      pb, std::make_unique<core::TealModel>(cfg.model, pb.k_paths(), kModelSeed), cfg);
}

bool output_ok(const te::Problem& pb, const te::Allocation& ref, const te::Allocation& out) {
  const std::size_t n = ref.split.size();
  if (out.split.size() != n) return false;
  if (n > 0 && std::memcmp(out.split.data(), ref.split.data(), n * sizeof(double)) != 0) {
    return false;
  }
  for (double v : out.split) {
    if (!std::isfinite(v)) return false;
  }
  try {
    pb.validate_allocation(out);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

std::unique_ptr<Inputs> build_instance(const Workload& w) {
  topo::Graph g = topo::make_topology(w.topology, kStructureSeed);
  auto demands = traffic::sample_demands(g, w.demands, kStructureSeed + 1);
  te::Problem pb(std::move(g), std::move(demands), kPathsPerDemand);
  traffic::TraceConfig tc;
  tc.n_intervals = kIntervals;
  tc.seed = kStructureSeed + 2;
  traffic::Trace base = traffic::generate_trace(pb, tc);
  traffic::calibrate_capacities_to_satisfied(pb, base, kTargetSpSatisfiedPct);
  return std::unique_ptr<Inputs>(new Inputs{std::move(pb), std::move(base), {}, {}});
}

void add_references(Inputs& in, std::uint64_t seed) {
  in.trace = traffic::perturb_temporal(in.base, kFluctuation, seed);

  // Every matrix of both traces solved sequentially (1 shard, kernels inline)
  // on its own workspace, spread over plain threads so the run starts soon.
  const int nb = in.base.size();
  const int n = nb + in.trace.size();
  auto matrix = [&](int m) -> const te::TrafficMatrix& {
    return m < nb ? in.base.at(m) : in.trace.at(m - nb);
  };
  std::vector<te::Allocation> all(static_cast<std::size_t>(n));
  const auto scheme = make_scheme(in.pb);
  std::atomic<int> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  std::vector<std::thread> threads;
  const int n_threads = std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, n);
  for (int t = 0; t < n_threads; ++t) {
    threads.emplace_back([&] {
      try {
        util::ThreadPool::ScopedInline one_thread;
        core::SolveWorkspace ws;
        for (int m = next++; m < n; m = next++) {
          scheme->solve_replica(ws, in.pb, matrix(m), all[static_cast<std::size_t>(m)], nullptr,
                                /*shard_count=*/1);
        }
      } catch (...) {
        std::lock_guard lock(error_mu);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (auto& th : threads) th.join();
  if (error) std::rethrow_exception(error);

  std::uint64_t h = kFnvOffset;
  double satisfied = 0.0;
  for (int m = 0; m < n; ++m) {
    const te::Allocation& ref = all[static_cast<std::size_t>(m)];
    h = fnv1a(ref.split.data(), ref.split.size() * sizeof(double), h);
    if (m < nb) satisfied += te::satisfied_demand_pct(in.pb, matrix(m), ref);
  }
  in.digest = h;
  in.satisfied_pct = satisfied / nb;
  in.refs.assign(std::make_move_iterator(all.begin() + nb), std::make_move_iterator(all.end()));
}

}  // namespace teal_bench
