// teal_bench — the repo benchmark program.
//
//   teal_bench --workload NAME --seed N --seconds S --trace 0|1 [--spans-dir DIR]
//   teal_bench --selftest
//
// Sets the system up several times (instance, scheme, first cold result),
// draws the run's traffic from the seed and computes the reference
// allocations, measures one fixed window, then sets up as many times again
// and reports the median set-up (a traced run sets up once). The last line
// of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1, which also writes the recorded spans to DIR). Lines before it
// start with '#' and describe the host, build, inputs and sample counts.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "util/thread_pool.h"

namespace teal_bench {
namespace {

constexpr std::size_t kSpanCapacity = std::size_t{1} << 19;
// Longest a traced run's secondary probe takes (at most a quarter of the
// window): the core/ probes of a served workload, the served probe of an
// in-process one.
constexpr double kProbeSeconds = 3.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_dir = "build-benchmark/spans";
  bool selftest = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "teal_bench: %s\n"
               "usage: teal_bench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans-dir DIR]\n       teal_bench --selftest\nworkloads:",
               why.c_str());
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--spans-dir") a.spans_dir = v;
      else usage("unknown argument " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  return a;
}

// The shape a workload's solves run with: asn-latency shards each solve over
// the pool (auto); batch workers and serving replicas solve on one thread.
Plan plan_of(const Workload& w) {
  return w.kind == Kind::kLatency ? Plan{0, false} : Plan{1, true};
}

// One set-up, everything the system needs before its first warm result: the
// instance (topology, demands, Yen paths, base trace, capacity calibration),
// the scheme (model, ADMM index), and the first cold solve or batch, or the
// whole served stack with warmed replicas. Replaces `in` and `scheme`.
double set_up(const Workload& w, std::unique_ptr<Inputs>& in,
              std::unique_ptr<core::TealScheme>& scheme) {
  scheme.reset();
  in.reset();
  const auto t0 = Clock::now();
  in = build_instance(w);
  scheme = make_scheme(in->pb);
  te::Allocation out;
  switch (w.kind) {
    case Kind::kLatency:
      scheme->solve_into(in->pb, in->base.matrices[0], out);
      break;
    case Kind::kBatch:
      scheme->solve_batch(in->pb, std::span(in->base.matrices).first(kBatchSize));
      break;
    case Kind::kServed:
      return seconds_between(t0, Clock::now()) + served_setup_seconds(*scheme, *in, w.load);
  }
  return seconds_between(t0, Clock::now());
}

// Sets up again until `setup` holds at least `min_reps` set-ups and
// `target_s` seconds of them, or `max_reps` set-ups.
void set_up_until(const Workload& w, std::unique_ptr<Inputs>& in,
                  std::unique_ptr<core::TealScheme>& scheme, std::vector<double>& setup,
                  std::size_t min_reps, double target_s, std::size_t max_reps) {
  double total = std::accumulate(setup.begin(), setup.end(), 0.0);
  while (setup.size() < min_reps || (total < target_s && setup.size() < max_reps)) {
    setup.push_back(set_up(w, in, scheme));
    total += setup.back();
  }
}

void print_setup(const std::vector<double>& s) {
  std::printf("# setup_s median=%.6f min=%.6f max=%.6f reps=%zu\n", percentile(s, 50),
              percentile(s, 0), percentile(s, 100), s.size());
}

void print_latency(const std::vector<double>& ms) {
  std::printf("# latency_ms mean=%.4f p50=%.4f p90=%.4f p99=%.4f max=%.4f samples=%zu\n",
              mean(ms), percentile(ms, 50), percentile(ms, 90), percentile(ms, 99),
              percentile(ms, 100), ms.size());
}

void print_result(const Metrics& m, std::uint64_t attempted, std::uint64_t failed) {
  for (const Metric& x : m) {
    std::printf("# metric %-28s %14.6f %-8s samples=%zu\n", x.name.c_str(), x.value,
                x.unit.c_str(), x.samples);
  }
  std::printf("# ops attempted=%llu failed=%llu\n", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              failed == 0 && attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < m.size(); ++i) {
    const double v = std::isfinite(m[i].value) ? m[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m[i].name.c_str(), v, m[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& a) {
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  const char* sha = std::getenv("TEAL_BENCH_GIT_SHA");
  std::printf("# teal_bench workload=%s seed=%llu seconds=%g trace=%d\n", w->name,
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
  std::printf("# host nproc=%u pool_workers=%zu git=%s build=\"%s\"\n",
              std::thread::hardware_concurrency(), util::ThreadPool::global().size(),
              sha != nullptr ? sha : "unknown", TEAL_BENCH_FLAGS);

  // A traced run reports no setup_s, so it sets up once.
  std::unique_ptr<Inputs> in;
  std::unique_ptr<core::TealScheme> scheme;
  std::vector<double> setup;
  if (a.trace) {
    set_up_until(*w, in, scheme, setup, 1, 0.0, 1);
  } else {
    set_up_until(*w, in, scheme, setup, kSetupMinReps - 1, kSetupTargetSeconds / 2,
                 kSetupMaxReps / 2);
  }
  add_references(*in, a.seed);

  const Plan plan = plan_of(*w);
  const int shards = plan.shards != 0
                         ? plan.shards
                         : core::auto_shard_count(in->pb.num_demands(), in->pb.total_paths());
  std::printf("# inputs topology=%s nodes=%d demands=%d paths=%d intervals=%d\n", w->topology,
              in->pb.graph().num_nodes(), in->pb.num_demands(), in->pb.total_paths(),
              in->trace.size());
  std::printf("# references fnv1a=%016llx satisfied_pct=%.6f\n",
              static_cast<unsigned long long>(in->digest), in->satisfied_pct);
  std::printf("# shape shards=%d replicas=%zu connections=%d load_rps=%g deadline_ms=%g "
              "slo_ms=%g\n",
              shards, w->kind == Kind::kServed ? kReplicas : 0,
              w->kind == Kind::kServed ? kConnections : 0, w->load.rps, w->load.deadline_s * 1e3,
              w->load.slo_s * 1e3);

  Metrics m;
  std::uint64_t attempted = 0, failed = 0;
  if (!a.trace) {
    // The latency metric is the mean: on a shared host a replica's solve
    // runs at one of two speeds for seconds at a time, so a run's median
    // jumps between them while the mean moves with their mix. The median and
    // the tail are printed with the sample count.
    std::vector<double> latency;
    double throughput = 0.0;
    std::uint64_t completed = 0;
    if (w->kind == Kind::kServed) {
      ServedResult r = run_served(*scheme, *in, w->load, a.seconds, nullptr);
      latency = std::move(r.resp_ms);
      throughput = r.goodput_rps();
      completed = r.within_slo;
      attempted = r.offered;
      failed = r.failed();
      std::printf("# served offered=%llu correct=%llu within_slo=%llu shed_admission=%llu "
                  "shed_queue_full=%llu errors=%llu mismatched=%llu dropped=%llu "
                  "late_p99_ms=%.4f\n",
                  static_cast<unsigned long long>(r.offered),
                  static_cast<unsigned long long>(r.correct),
                  static_cast<unsigned long long>(r.within_slo),
                  static_cast<unsigned long long>(r.shed_admission),
                  static_cast<unsigned long long>(r.shed_queue_full),
                  static_cast<unsigned long long>(r.errors),
                  static_cast<unsigned long long>(r.mismatched),
                  static_cast<unsigned long long>(r.dropped), percentile(r.late_ms, 99));
    } else {
      OpSamples s = w->kind == Kind::kLatency ? run_solves(*scheme, *in, plan, a.seconds)
                                              : run_batches(*scheme, *in, a.seconds);
      latency = std::move(s.ms);
      completed = s.attempted - s.failed;
      throughput = static_cast<double>(completed) / s.window_s;
      attempted = s.attempted;
      failed = s.failed;
    }
    print_latency(latency);
    // The second half of the set-ups replaces the instance, so its
    // reference quality is read first.
    const double satisfied = in->satisfied_pct;
    set_up_until(*w, in, scheme, setup, kSetupMinReps, kSetupTargetSeconds, kSetupMaxReps);
    print_setup(setup);
    m.push_back({"setup_s", percentile(setup, 50), "s", setup.size()});
    m.push_back({"latency_mean_ms", mean(latency), "ms", latency.size()});
    m.push_back({"throughput_per_s", throughput, "1/s", completed});
    m.push_back({"satisfied_pct", satisfied, "%", static_cast<std::size_t>(kIntervals)});
  } else {
    print_setup(setup);
    // BENCHMARK.json's result format asks every traced run for every
    // per-layer metric, so each workload also probes the layers it does not
    // centre on, briefly: a served workload's core/ probe runs the replicas'
    // own solve shape; an in-process workload's served probe offers half the
    // replicas' measured capacity.
    Tracer tracer(kSpanCapacity);
    const double probe_s = std::min(kProbeSeconds, a.seconds / 4);
    const double main_s = a.seconds - probe_s;
    double overhead_pct = 0.0;
    auto count = [&](const ServedResult& r) {
      attempted += r.offered;
      failed += r.failed();
    };
    if (w->kind == Kind::kServed) {
      const ServedResult plain = run_served(*scheme, *in, w->load, main_s / 2, nullptr);
      const ServedResult traced = run_served(*scheme, *in, w->load, main_s / 2, &tracer);
      count(plain);
      count(traced);
      const double base = mean(plain.resp_ms);
      overhead_pct = base > 0.0 ? 100.0 * (mean(traced.resp_ms) - base) / base : 0.0;
      served_layer_metrics(traced, m);
      probe_core(*scheme, *in, plan, probe_s, tracer, m, attempted, failed);
    } else {
      const CoreProbe core = probe_core(*scheme, *in, plan, main_s, tracer, m, attempted, failed);
      overhead_pct = core.overhead_pct;
      const Load load = probe_load(core.one_thread_ms);
      std::printf("# served probe load_rps=%g deadline_ms=%g slo_ms=%g\n", load.rps,
                  load.deadline_s * 1e3, load.slo_s * 1e3);
      const ServedResult probe = run_served(*scheme, *in, load, probe_s, &tracer);
      count(probe);
      served_layer_metrics(probe, m);
    }
    probe_frames(*in, tracer, m);
    m.push_back({"trace.overhead_pct", overhead_pct, "%", 0});
    std::filesystem::create_directories(a.spans_dir);
    const std::string path = a.spans_dir + "/spans-" + w->name + "-seed" +
                             std::to_string(a.seed) + ".json";
    tracer.write_json(path);
    std::printf("# spans recorded=%zu dropped=%zu file=%s\n", tracer.recorded(), tracer.dropped(),
                path.c_str());
  }
  print_result(m, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace teal_bench

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const teal_bench::Args args = teal_bench::parse_args(argc, argv);
  if (args.selftest) {
    const bool ok = teal_bench::selftest();
    std::printf("selftest %s\n", ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
  }
  try {
    return teal_bench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "teal_bench: %s\n", e.what());
    return 1;
  }
}
