// thread_pool.h — fixed-size worker pool used to emulate the data-parallel
// execution that the paper obtains from GPUs.
//
// Teal's thesis is architectural: its inference pass and ADMM iterations are
// embarrassingly parallel, whereas LP solvers are inherently sequential. We
// reproduce that asymmetry on CPU: every parallelizable kernel in this repo
// (message passing, per-demand policy evaluation, per-edge/per-path ADMM
// updates, feasibility repair) goes through this pool, while the simplex
// solver runs single-threaded, exactly like the paper's Gurobi baseline
// (which gains only marginal speedup from extra threads, Figure 2).
//
// One execution path: parallel_for()/parallel_chunks() open a fork-join
// region. The calling thread and the workers claim contiguous chunks off a
// shared counter; no std::function conversion, no futures, no per-call heap
// allocation, so the workspace-based solve path stays allocation-free end to
// end. Coarse fan-out (solve_batch() across traffic matrices, training
// rollouts) runs on the same region as the dense kernels.
//
// Nesting: a parallel region entered from inside a region chunk runs inline
// (sequentially) on that thread. That is exactly the shape solve_batch()
// wants — outer parallelism across traffic matrices, inner kernels
// sequential per chunk — and it makes nested use deadlock-free. Regions
// started by different external threads are serialized: the second caller
// waits until the running region finished.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace teal::util {

// Contiguous-chunk division of n items over at most n_threads threads:
// ceil-div chunk size, chunk count recomputed so no chunk is empty. The
// pool's fork-join region splits its range with it; callers that keep
// per-chunk state (TealScheme::solve_batch's workspaces, TrainContext's
// rollout slots) size that state with the same plan and then open a region
// over plan.n_chunks, one iteration per chunk.
struct ChunkPlan {
  std::size_t chunk = 0;     // items per chunk
  std::size_t n_chunks = 0;  // number of non-empty chunks
};
inline ChunkPlan chunk_plan(std::size_t n, std::size_t n_threads) {
  if (n == 0 || n_threads == 0) return {0, 0};
  const std::size_t target = n < n_threads ? n : n_threads;
  const std::size_t chunk = (n + target - 1) / target;
  return {chunk, (n + chunk - 1) / chunk};
}

// Hard ceiling for the TEAL_POOL_THREADS override. Far above any real
// machine; it exists so an overflowing or absurd value degrades to the
// hardware default instead of asking the OS for millions of threads.
inline constexpr std::size_t kMaxPoolThreads = 1024;

// Parses a TEAL_POOL_THREADS value. Returns the requested worker count, or
// 0 — the ThreadPool constructor's "size to the hardware" sentinel, i.e.
// what available_parallelism() resolves to — when the value is null, empty,
// not a fully-numeric decimal, non-positive, or above kMaxPoolThreads
// (including values that overflow the parse). Exposed for unit testing; the
// global pool feeds getenv("TEAL_POOL_THREADS") through it exactly once at
// construction.
std::size_t pool_threads_from_env(const char* value);

class ThreadPool {
 public:
  // Creates a pool with `n_threads` workers. `n_threads == 0` selects the
  // hardware concurrency (minimum 1).
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // True when the calling thread is executing a fork-join region chunk
  // (pool workers only ever run region chunks; the region caller
  // participates in its own region) or is inside a ScopedInline scope.
  // solve_batch() and parallel_chunks() use it to fall back to inline
  // execution instead of deadlocking on nested fan-out.
  static bool in_pool_worker();

  // Threads a *new* fork-join region started from the calling thread can
  // actually use: 1 when the caller already holds a pool slot (a nested
  // region runs inline), else the hardware thread count (capped by the
  // global pool's worker count + the participating caller). Shard-count
  // cost models (core::auto_shard_count) size against this so composed
  // parallelism — batch workers, serving replicas, intra-solve shards —
  // never oversubscribes the machine.
  static std::size_t available_parallelism();

  // Marks the calling thread so every parallel region it enters runs inline
  // (sequentially, on this thread) instead of fanning out to the pool.
  // Sequential serving replicas hold one per solve (serve/replica.h; a
  // sharded replica deliberately leaves it off so its demand shards can
  // reach the pool): wherever the outer parallelism already covers the
  // machine, inner kernels must stay per-thread-sequential — the same shape
  // region chunks get implicitly. Nests; restores the previous state on
  // exit.
  class ScopedInline {
   public:
    ScopedInline();
    ~ScopedInline();
    ScopedInline(const ScopedInline&) = delete;
    ScopedInline& operator=(const ScopedInline&) = delete;

   private:
    bool prev_;
  };

  // Runs `fn(i)` for i in [0, n) across the pool and blocks until all
  // iterations complete. Work is divided into contiguous chunks, one per
  // thread, which is the right granularity for the dense numeric loops here.
  template <typename F>
  void parallel_for(std::size_t n, F&& fn) {
    parallel_chunks(n, [&fn](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    });
  }

  // Chunked variant: `fn(begin, end)` is invoked once per chunk. Lower
  // overhead when the per-index work is tiny. Allocation-free: the callable
  // is passed to the workers as a raw (thunk, context) pair.
  template <typename F>
  void parallel_chunks(std::size_t n, F&& fn) {
    if (n == 0) return;
    if (n == 1 || workers_.size() <= 1 || in_pool_worker()) {
      fn(0, n);
      return;
    }
    using Fn = std::remove_reference_t<F>;
    run_region(
        n,
        [](void* ctx, std::size_t begin, std::size_t end) {
          (*static_cast<Fn*>(ctx))(begin, end);
        },
        &fn);
  }

  // Process-wide pool sized to the hardware (override with env
  // TEAL_POOL_THREADS, e.g. to exercise the cross-thread fan-out paths on a
  // single-core machine). Most callers should use this instead of
  // constructing their own.
  static ThreadPool& global();

 private:
  using RegionThunk = void (*)(void* ctx, std::size_t begin, std::size_t end);

  void worker_loop(std::size_t index);
  // Fork-join core behind parallel_chunks: publishes (thunk, ctx) to the
  // workers, participates in chunk claiming, and blocks until every chunk ran.
  void run_region(std::size_t n, RegionThunk thunk, void* ctx);
  // Claims and runs region chunks until none are left.
  void work_on_region();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;

  // Active fork-join region (all fields guarded by mu_; one region at a time,
  // serialized by region_entry_mu_).
  std::mutex region_entry_mu_;
  RegionThunk region_thunk_ = nullptr;
  void* region_ctx_ = nullptr;
  std::size_t region_n_ = 0;        // total iterations
  std::size_t region_chunk_ = 0;    // iterations per chunk
  std::size_t region_n_chunks_ = 0;
  std::size_t region_next_ = 0;     // next unclaimed chunk index
  std::size_t region_done_ = 0;     // completed chunks
  std::exception_ptr region_error_; // first chunk exception, rethrown at caller
  std::condition_variable region_done_cv_;
};

}  // namespace teal::util
