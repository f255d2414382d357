// scheme.h — the interface every TE scheme implements.
//
// The benchmark harness, the online simulator and the figures are all
// scheme-agnostic: a Scheme maps a (Problem, TrafficMatrix) to an Allocation
// and reports how long the solve took (the paper's computation-time metric,
// Table 2). Schemes may carry per-topology state (trained models, partition
// structures, solver workspaces); constructing that state is a one-time cost
// excluded from the timing, matching §5.1.
//
// Two solve surfaces:
//  * solve()/solve_into() — one traffic matrix. solve_into() writes into a
//    caller-owned Allocation so warm callers avoid the result allocation;
//    schemes with internal workspaces (TealScheme) make it allocation-free
//    outright.
//  * solve_batch() — many traffic matrices at once. The default loops
//    solve() sequentially, which is exactly right for the LP baselines: their
//    solvers are inherently sequential (Figure 2), so batching buys them
//    nothing. Teal overrides it with per-worker workspaces fanned out over
//    the thread pool — the paper's traffic-independent, massively parallel
//    compute shape (Figure 7). Because independent matrices share no mutable
//    state, the batch scales with the worker count (the scalable
//    commutativity argument of Tsai et al. applied at interface level).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "te/objective.h"
#include "te/problem.h"

namespace teal::te {

// Result of a batched solve: one Allocation per input matrix, per-matrix
// solve seconds, and the end-to-end wall time of the batch (what amortized
// serving cares about).
//
// Timing semantics: `solve_seconds[t]` is matrix t's wall time *as executed
// within the batch*. For the default sequential implementation that is
// identical to a solve() loop's last_solve_seconds(). A parallel override
// (TealScheme) runs solves concurrently with per-worker-sequential kernels,
// so its per-solve times carry the fan-out's contention — a throughput
// breakdown, not standalone deployment latencies. Consumers comparing
// against a latency budget should anchor on the median (as
// bench::scheme_time_scale does, which cancels uniform inflation) or measure
// a standalone solve() separately; batch latency is `wall_seconds`.
struct BatchSolve {
  std::vector<Allocation> allocs;
  std::vector<double> solve_seconds;
  double wall_seconds = 0.0;
};

// Numeric precision of Teal's NN forward pass (core::TealScheme::set_precision;
// every other scheme is f64-only). f64 is the reference everywhere; f32
// mirrors the paper's fp32 GPU inference — only the neural forward narrows,
// the ADMM fine-tune and every reduction stay double, so the flow-allocation
// error is bounded by logit rounding alone (tests/precision_test.cpp
// measures the bound per topology).
// bf16 narrows only the *stored weights* one step further (f32 -> bf16 with
// round-to-nearest-even at snapshot time, widened back to f32 in the kernel
// inner loop): activations, bias and every accumulation stay f32, so it is
// f32 inference with 8-bit-mantissa weights — halved weight streaming at a
// larger, still-ledgered allocation error.
enum class Precision { f64, f32, bf16 };

const char* precision_name(Precision p);

class Scheme {
 public:
  virtual ~Scheme() = default;

  virtual std::string name() const = 0;

  // Computes an allocation for the given traffic matrix. Implementations must
  // time their own solve path and report it via last_solve_seconds().
  virtual Allocation solve(const Problem& pb, const TrafficMatrix& tm) = 0;

  // Same solve, writing into a caller-owned Allocation (capacity reused on
  // warm calls). Default delegates to solve(); workspace-based schemes
  // override it as their primary, allocation-free path.
  virtual void solve_into(const Problem& pb, const TrafficMatrix& tm, Allocation& out);

  // Solves every matrix in `tms`. Default: sequential solve() loop (the right
  // shape for the LP baselines). Overrides may compute the allocations in
  // parallel but must return results identical to the sequential loop.
  virtual BatchSolve solve_batch(const Problem& pb, std::span<const TrafficMatrix> tms);

  // Wall-clock duration of the most recent solve() call, per Table 2's
  // breakdown (e.g. LP-top includes its model rebuilding time). After a
  // solve_batch() this is the batch's final solve.
  virtual double last_solve_seconds() const = 0;

  // True when the scheme keeps reusable per-solve state (workspaces), so its
  // first solve pays one-time construction cost. Timing-focused benches give
  // such schemes one untimed warmup solve (§5.1 excludes one-time costs);
  // stateless schemes would just burn a full solve.
  virtual bool has_warm_state() const { return false; }

  // True when solve_batch() actually fans out in parallel. The online
  // simulator batches the whole trace for such schemes; for sequential
  // schemes it keeps the lazy control loop and only computes the solves
  // that would really start (no wasted work).
  virtual bool supports_parallel_batch() const { return false; }

  // Called when link capacities change (failures §5.3). Default: nothing —
  // most schemes read capacities from the Problem on each solve.
  virtual void on_topology_change(const Problem& /*pb*/) {}
};

// Sequential batched solve through the base-class loop regardless of the
// scheme's solve_batch override: each solve runs standalone (free to use the
// whole thread pool internally), so per-solve seconds are deployment-faithful
// latencies. The latency-focused figure benches (computation-time tables and
// CDFs) use this; throughput consumers use solve_batch().
BatchSolve solve_batch_sequential(Scheme& scheme, const Problem& pb,
                                  std::span<const TrafficMatrix> tms);

using SchemePtr = std::unique_ptr<Scheme>;

}  // namespace teal::te
