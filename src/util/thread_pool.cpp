#include "util/thread_pool.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "util/thread_name.h"

namespace teal::util {

namespace {
// True while this thread — worker *or* region caller — is executing a region
// chunk; nested parallel calls from inside a chunk must run inline. Workers
// run nothing but region chunks, so this also covers every pool worker.
thread_local bool t_in_region_chunk = false;
// True inside a ScopedInline scope (serving replica threads).
thread_local bool t_inline_scope = false;
}  // namespace

bool ThreadPool::in_pool_worker() { return t_in_region_chunk || t_inline_scope; }

std::size_t ThreadPool::available_parallelism() {
  if (in_pool_worker()) return 1;
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(global().size() + 1, hw);  // workers + caller, capped by hw
}

ThreadPool::ScopedInline::ScopedInline() : prev_(t_inline_scope) { t_inline_scope = true; }

ThreadPool::ScopedInline::~ScopedInline() { t_inline_scope = prev_; }

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t index) {
  set_current_thread_name("teal-pool", index);
  for (;;) {
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] {
        return stop_ || (region_thunk_ != nullptr && region_next_ < region_n_chunks_);
      });
      if (stop_) return;
    }
    work_on_region();
  }
}

void ThreadPool::work_on_region() {
  for (;;) {
    RegionThunk thunk;
    void* ctx;
    std::size_t begin, end;
    {
      std::lock_guard lock(mu_);
      if (region_thunk_ == nullptr || region_next_ >= region_n_chunks_) return;
      const std::size_t idx = region_next_++;
      thunk = region_thunk_;
      ctx = region_ctx_;
      begin = idx * region_chunk_;
      end = std::min(region_n_, begin + region_chunk_);
    }
    t_in_region_chunk = true;
    std::exception_ptr error;
    try {
      thunk(ctx, begin, end);
    } catch (...) {
      // Record the first chunk exception for run_region to rethrow at the
      // calling thread once every chunk finished; the erroring thread stops
      // claiming, remaining chunks run normally.
      error = std::current_exception();
    }
    t_in_region_chunk = false;
    {
      std::lock_guard lock(mu_);
      if (error && region_error_ == nullptr) region_error_ = error;
      if (++region_done_ == region_n_chunks_) region_done_cv_.notify_all();
    }
    if (error) return;
  }
}

void ThreadPool::run_region(std::size_t n, RegionThunk thunk, void* ctx) {
  // One region at a time; concurrent external callers queue up here. (Calls
  // from pool workers never reach this point — parallel_chunks runs them
  // inline.)
  std::lock_guard entry(region_entry_mu_);
  const ChunkPlan plan = chunk_plan(n, workers_.size() + 1);  // workers + caller
  {
    std::lock_guard lock(mu_);
    region_thunk_ = thunk;
    region_ctx_ = ctx;
    region_n_ = n;
    region_n_chunks_ = plan.n_chunks;
    region_chunk_ = plan.chunk;
    region_next_ = 0;
    region_done_ = 0;
    region_error_ = nullptr;
  }
  cv_.notify_all();
  work_on_region();  // the caller claims chunks too (never throws)
  std::exception_ptr error;
  {
    std::unique_lock lock(mu_);
    region_done_cv_.wait(lock, [this] { return region_done_ == region_n_chunks_; });
    region_thunk_ = nullptr;
    region_ctx_ = nullptr;
    error = region_error_;
    region_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

std::size_t pool_threads_from_env(const char* value) {
  if (value == nullptr) return 0;
  errno = 0;
  char* end = nullptr;
  const long long n = std::strtoll(value, &end, 10);
  if (end == value) return 0;  // no digits at all ("", "abc")
  // Trailing garbage ("8x", "4 workers") invalidates the whole value —
  // accepting the prefix would silently honor a typo. Trailing whitespace
  // (e.g. from a shell export) is fine.
  for (const char* p = end; *p != '\0'; ++p) {
    if (!std::isspace(static_cast<unsigned char>(*p))) return 0;
  }
  if (errno == ERANGE) return 0;  // overflowed the parse
  if (n <= 0) return 0;           // "0", negatives: no meaningful pool size
  if (static_cast<unsigned long long>(n) > kMaxPoolThreads) return 0;
  return static_cast<std::size_t>(n);
}

ThreadPool& ThreadPool::global() {
  // TEAL_POOL_THREADS overrides the hardware-sized default. Raising it above
  // the core count buys no speedup, but it lets single-core machines (and
  // race detectors there) exercise the real cross-thread fan-out paths.
  // Garbage, zero, negative or overflowing values fall back to the hardware
  // default (pool_threads_from_env returns the constructor's 0 sentinel —
  // the same count available_parallelism() reports) instead of reaching the
  // thread-spawn loop.
  static ThreadPool pool(pool_threads_from_env(std::getenv("TEAL_POOL_THREADS")));
  return pool;
}

}  // namespace teal::util
