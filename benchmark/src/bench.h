// bench.h — shared declarations of teal_bench, the repo benchmark program.
//
// One process runs one workload (workloads.cpp) for a fixed window and prints
// its metrics as one JSON line. An untraced run reports the end-to-end
// metrics; a traced run (--trace 1) records spans around the calls the program
// makes into each layer (core/, serve/, net/) and reports the per-layer
// metrics derived from them. Every percentile is exact (nearest rank over the
// raw samples), and every output is compared byte for byte with a reference
// allocation computed at setup.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/teal_scheme.h"
#include "traffic/traffic.h"

namespace teal_bench {

using namespace teal;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}
inline double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

// ---- exact statistics (measure.cpp) -----------------------------------------

// Nearest-rank percentile: the ceil(pct/100 * n)-th smallest sample (1-based,
// at least the first), with integer rank arithmetic so p99 of 1000 samples is
// exactly the 990th. 0 for an empty set.
double percentile(std::vector<double> samples, int pct);
// Arithmetic mean; 0 for an empty set.
double mean(const std::vector<double>& samples);

// Open-loop send schedule: request i is due `i / rps` seconds after `start`,
// in whole nanoseconds. Lateness is how far after its due time a send ran.
Clock::time_point due_time(Clock::time_point start, std::uint64_t i, double rps);
double lateness_ms(Clock::time_point due, Clock::time_point sent);

// 64-bit FNV-1a over raw bytes, chainable through `h`.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h = kFnvOffset);

// Checks the percentile, schedule and digest math on fixed vectors; prints
// each failure and returns false on any.
bool selftest();

// One named value of a run's result.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // raw samples behind the value (0 = not a sample statistic)
};
using Metrics = std::vector<Metric>;

// ---- tracing (measure.cpp) --------------------------------------------------

// In-memory span buffer, preallocated so recording never allocates. Slots are
// claimed with one atomic add, so replica threads and the main thread can
// record concurrently; a full buffer drops spans and counts them.
struct Span {
  const char* name = nullptr;  // string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;    // slot of the enclosing span, -1 = none
  std::uint32_t thread = 0;    // small per-thread id
  std::int64_t request = -1;   // request id, -1 = none
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity);
  // Opens a span now; returns its slot (-1 when the buffer is full).
  int open(const char* name, int parent = -1, std::int64_t request = -1);
  void close(int slot);
  // Records an already finished span.
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           int parent = -1, std::int64_t request = -1);
  // Durations in ms of every closed span named `name`.
  std::vector<double> durations_ms(const char* name) const;
  std::size_t recorded() const;
  std::size_t dropped() const { return dropped_.load(); }
  // Chrome trace-event JSON (chrome://tracing, Perfetto); parent and request
  // travel in each event's args.
  void write_json(const std::string& path) const;

 private:
  int claim();
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> dropped_{0};
};

// Span for the lifetime of a scope; no-op when `t` is null.
class Scope {
 public:
  Scope(Tracer* t, const char* name, int parent = -1, std::int64_t request = -1)
      : t_(t), slot_(t != nullptr ? t->open(name, parent, request) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(slot_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int slot() const { return slot_; }

 private:
  Tracer* t_;
  int slot_;
};

// ---- workloads and inputs (workloads.cpp) -----------------------------------

enum class Kind { kLatency, kBatch, kServed };

// Open-loop served load: fixed offered rate, admission deadline, latency SLO.
struct Load {
  double rps = 0.0;
  double deadline_s = 0.0;
  double slo_s = 0.0;
};

struct Workload {
  const char* name;
  const char* topology;
  int demands;
  Kind kind;
  Load load;  // kServed only
};

inline constexpr int kIntervals = 40;
inline constexpr int kPathsPerDemand = 4;
inline constexpr int kBatchSize = 16;
inline constexpr std::size_t kReplicas = 2;
inline constexpr int kConnections = 2;
// An untraced run sets up at least kSetupMinReps times, and more (up to
// kSetupMaxReps) until kSetupTargetSeconds of set-up was measured, half
// before its window and half after it; setup_s is the median. Spreading the
// set-ups over the run averages over the seconds-long stretches in which a
// shared host's core runs slow.
inline constexpr std::size_t kSetupMinReps = 3;
inline constexpr std::size_t kSetupMaxReps = 2000;
inline constexpr double kSetupTargetSeconds = 4.0;

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

// A workload's instance and the traffic a run solves. Heap-allocated so the
// problem keeps its address: schemes and servers hold references to it.
struct Inputs {
  te::Problem pb;
  traffic::Trace base;   // fixed evaluation trace the capacities are calibrated on
  traffic::Trace trace;  // the run's traffic, drawn from its seed
  std::vector<te::Allocation> refs;       // reference allocation of every `trace` matrix
  std::uint64_t digest = 0;               // FNV-1a over the base and run references
  double satisfied_pct = 0.0;             // mean over `base` of its reference allocations
};
// The instance: topology, demands, k Yen paths, base trace and calibrated
// capacities. The same for every seed; timed as part of set-up.
std::unique_ptr<Inputs> build_instance(const Workload& w);
// Draws the run's trace from `seed` and computes every reference: one
// sequential 1-shard f64 solve per matrix of the base and the run trace.
void add_references(Inputs& in, std::uint64_t seed);

// The scheme under test: untrained default-config TealModel (kModelSeed) with
// ADMM fine-tuning. Compute cost does not depend on the weight values, and
// training ASN would dominate setup.
inline constexpr std::uint64_t kModelSeed = 42;
std::unique_ptr<core::TealScheme> make_scheme(const te::Problem& pb);

// True when `out` equals `ref` byte for byte, is finite, and passes
// te::Problem::validate_allocation.
bool output_ok(const te::Problem& pb, const te::Allocation& ref, const te::Allocation& out);

// ---- in-process loops and core/ probes (inproc.cpp) -------------------------

// How a solve runs: the te::Scheme shard knob (0 = auto) and whether every
// kernel stays on the calling thread (ThreadPool::ScopedInline), the shape of
// a batch worker or a serving replica.
struct Plan {
  int shards = 1;
  bool one_thread = true;
};

// Raw per-operation samples of a timed window.
struct OpSamples {
  std::vector<double> ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double window_s = 0.0;
};

// Closed loop of TealScheme::solve_into under `plan`, cycling the trace.
OpSamples run_solves(core::TealScheme& scheme, const Inputs& in, Plan plan, double seconds);
// Back-to-back TealScheme::solve_batch over kBatchSize consecutive matrices;
// one sample per matrix (its solve time within the batch).
OpSamples run_batches(core::TealScheme& scheme, const Inputs& in, double seconds);

// What probe_core measured besides its metrics.
struct CoreProbe {
  double overhead_pct = 0.0;      // traced vs untraced solve p50
  double one_thread_ms = 0.0;     // p50 of a standalone 1-shard one-thread solve
};

// Traced core/ probes under `plan` for `seconds`: rounds of the scheme's
// untraced solve, the same solve decomposed into its public stage calls under
// spans, and the twin split; then the allocation and batch probes. Appends
// the core.* metrics and counts every checked output into attempted/failed.
CoreProbe probe_core(core::TealScheme& scheme, const Inputs& in, Plan plan, double seconds,
                     Tracer& tracer, Metrics& out, std::uint64_t& attempted,
                     std::uint64_t& failed);

// ---- served path (served.cpp) -----------------------------------------------

struct ServedResult {
  std::vector<double> resp_ms;  // due time -> full response frame, correct responses
  std::vector<double> late_ms;  // due time -> last byte of the request accepted by the kernel
  std::vector<double> solve_ms; // replica solve times, exact
  std::uint64_t offered = 0;
  std::uint64_t correct = 0;
  std::uint64_t within_slo = 0;
  std::uint64_t shed_admission = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t errors = 0;      // error frames, undecodable or unexpected frames,
                                 // "server stopping" sheds
  std::uint64_t mismatched = 0;  // responses that fail output_ok
  std::uint64_t dropped = 0;     // never answered (includes requests on a dead connection)
  std::uint64_t allocations = 0; // process-wide heap allocations over the window
  double window_s = 0.0;         // first due send -> last frame received
  double queue_wait_p50_ms = 0.0;  // serve::ServeStats histogram (~19% buckets)
  double queue_wait_p99_ms = 0.0;
  std::uint64_t net_dropped_responses = 0;
  std::uint64_t net_protocol_errors = 0;

  std::uint64_t failed() const { return errors + mismatched + dropped; }
  double goodput_rps() const {
    return window_s > 0.0 ? static_cast<double>(within_slo) / window_s : 0.0;
  }
};

// Time to bring one served stack up (its teardown is not counted): kReplicas
// workspace replicas, each warmed by its first (cold) solve, behind
// serve::Server and net::Server on 127.0.0.1, with kConnections client
// connections open.
double served_setup_seconds(const core::TealScheme& scheme, const Inputs& in, const Load& load);

// Load of the served probe a traced in-process run makes: half the capacity
// of kReplicas replicas whose one-thread solve takes `solve_ms`, with an
// admission deadline and SLO of ten solves.
Load probe_load(double solve_ms);

// Fresh served stack, open-loop load for `seconds`, then drain and stop.
ServedResult run_served(const core::TealScheme& scheme, const Inputs& in, const Load& load,
                        double seconds, Tracer* tracer);

// Appends the serve.*, net.* and gen.* metrics of a traced served window.
void served_layer_metrics(const ServedResult& r, Metrics& out);

// Times net::parse_solve_request and net::encode_solve_response on the
// workload's own frame sizes; appends net.parse_request_us and
// net.encode_response_us.
void probe_frames(const Inputs& in, Tracer& tracer, Metrics& out);

}  // namespace teal_bench
