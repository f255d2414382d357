#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/thread_name.h"
#include "util/thread_pool.h"

namespace teal::serve {

Server::Server(const te::Problem& pb, std::vector<ReplicaPtr> replicas, ServeConfig cfg)
    : pb_(pb),
      replicas_(std::move(replicas)),
      cfg_(cfg),
      queue_(cfg.queue_capacity),
      locals_(replicas_.size()) {
  if (replicas_.empty()) {
    throw std::invalid_argument(
        "serve::Server: at least one replica required (accepted requests "
        "could otherwise never complete and drain() would block forever)");
  }
  live_replicas_.store(replicas_.size(), std::memory_order_relaxed);
  threads_.reserve(replicas_.size());
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    threads_.emplace_back([this, i] { replica_loop(i); });
  }
}

Server::~Server() { stop(); }

double Server::solve_estimate() const {
  if (cfg_.expected_solve_seconds > 0.0) return cfg_.expected_solve_seconds;
  return solve_ewma_.load(std::memory_order_relaxed);
}

std::size_t Server::admission_depth_bound() const {
  if (cfg_.deadline_seconds <= 0.0) return 0;
  const double est = solve_estimate();
  if (est <= 0.0) return 0;  // nothing observed yet: admit
  const double bound =
      cfg_.deadline_seconds * static_cast<double>(replicas_.size()) / est;
  // At least 1 so an idle server always accepts; never beyond the queue.
  return std::clamp<std::size_t>(static_cast<std::size_t>(bound), 1,
                                 queue_.capacity());
}

bool Server::submit(const te::TrafficMatrix& tm, te::Allocation& out) {
  return submit(tm, out, nullptr) == SubmitResult::kAccepted;
}

SubmitResult Server::submit(const te::TrafficMatrix& tm, te::Allocation& out,
                            std::function<void(double)> done) {
  // Ledger counters are seq_cst so stop()'s balance-spin cannot observe an
  // accepted_/shed_ increment whose offered_ increment is still invisible
  // (see the member comment in server.h).
  offered_.fetch_add(1, std::memory_order_seq_cst);
  if (!started_.exchange(true)) {
    // done_mu_ guards first_submit_ against a concurrent stop() reading it.
    std::lock_guard lk(done_mu_);
    first_submit_ = Clock::now();
  }
  if (queue_.closed()) {  // stopped before the admission check ran
    shed_.fetch_add(1, std::memory_order_seq_cst);
    return SubmitResult::kShedStopping;
  }
  const std::size_t bound = admission_depth_bound();
  if (bound > 0 && queue_.size() >= bound) {
    shed_.fetch_add(1, std::memory_order_seq_cst);
    return SubmitResult::kShedAdmission;
  }
  Request req;
  req.tm = &tm;
  req.out = &out;
  req.done = std::move(done);
  req.enqueued = Clock::now();
  if (!queue_.try_push(req)) {  // full, or closed by a racing stop()
    shed_.fetch_add(1, std::memory_order_seq_cst);
    return queue_.closed() ? SubmitResult::kShedStopping
                           : SubmitResult::kShedQueueFull;
  }
  accepted_.fetch_add(1, std::memory_order_seq_cst);
  return SubmitResult::kAccepted;
}

void Server::replica_loop(std::size_t index) {
  util::set_current_thread_name("teal-serve", index);
  // Thread composition is the replica's own business (Replica::solve holds
  // ThreadPool::ScopedInline for sequential solves, or fans demand shards
  // out to the pool when the serving cost model granted it threads) — the
  // loop itself imposes nothing.
  ReplicaLocal& self = locals_[index];
  Request req;
  while (queue_.pop(req)) {
    const auto dequeued = Clock::now();
    self.queue_wait.record(std::chrono::duration<double>(dequeued - req.enqueued).count());
    double solve_s = 0.0;
    try {
      replicas_[index]->solve(pb_, *req.tm, *req.out, &solve_s);
    } catch (...) {
      // This replica is dead (whatever state its solver left behind is
      // suspect), but the *request* is not: hand it to the survivors.
      handle_replica_death(std::move(req));
      return;  // thread exits; stop() still joins it normally
    }
    self.solve.record(solve_s);
    self.busy_seconds += solve_s;
    ++self.solved;
    self.response.record(
        std::chrono::duration<double>(Clock::now() - req.enqueued).count());
    // Completion hook before the request counts as completed, so drain()
    // returning means every response has been handed back (the net session
    // layer writes its response frame from here).
    if (req.done) req.done(solve_s);
    // EWMA of completed solve times for the admission bound. Plain
    // store-after-load: concurrent updates may drop an observation, which
    // only perturbs an estimate.
    const double prev = solve_ewma_.load(std::memory_order_relaxed);
    const double next = prev <= 0.0 ? solve_s : 0.8 * prev + 0.2 * solve_s;
    solve_ewma_.store(next, std::memory_order_relaxed);
    {
      std::lock_guard lk(done_mu_);
      ++completed_;
    }
    done_cv_.notify_all();
  }
}

void Server::fail_request(Request& req) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  // -1 is the error sentinel: real solves report nonnegative seconds, so the
  // done-hook (the net session's response seam) can distinguish "no replica
  // could run this" and answer with an error frame instead of a result.
  if (req.done) req.done(-1.0);
  {
    std::lock_guard lk(done_mu_);
    ++completed_;
  }
  done_cv_.notify_all();
}

void Server::handle_replica_death(Request req) {
  replica_deaths_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t live = live_replicas_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  if (live > 0) {
    // Survivors exist: requeue the victim's request. The queue may be
    // momentarily full — survivors are draining it, so spin-push; a close()
    // (server stopping, or the last survivor dying meanwhile) breaks the
    // spin and the request is failed instead of lost in limbo.
    for (;;) {
      if (queue_.try_push(req)) {
        requeued_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (queue_.closed()) break;
      std::this_thread::yield();
    }
    fail_request(req);
    return;
  }
  // Last replica standing just died: nobody is left to solve anything.
  // Close the queue (new submits shed as kShedStopping), then retire the
  // in-flight request and the whole backlog as failed so drain()/stop()
  // terminate instead of waiting on solves that can never happen.
  queue_.close();
  fail_request(req);
  while (queue_.pop(req)) fail_request(req);
}

void Server::drain() {
  const std::uint64_t target = accepted_.load(std::memory_order_relaxed);
  std::unique_lock lk(done_mu_);
  done_cv_.wait(lk, [&] { return completed_ >= target; });
}

ServeStats Server::stop() {
  // Serialize every stopper: the first caller does the shutdown, later and
  // concurrent callers block here until it finishes, then return the same
  // final stats. (The pre-PR7 unguarded `stopped_` bool let two concurrent
  // stop()s both reach the join loop — a double-join aborts the process —
  // exactly the shape the net layer produces when a session teardown and the
  // owning server's destructor race.)
  std::lock_guard stop_lk(stop_mu_);
  if (stopped_.load(std::memory_order_acquire)) return final_stats_;
  queue_.close();  // queued requests still drain; new submits shed
  for (auto& t : threads_) t.join();

  ServeStats s;
  // A concurrent submit() bumps offered_ first and accepted_/shed_ second,
  // as separate atomics. Snapshot until the ledger balances so a stop()
  // racing the last submitters never publishes a half-counted request; the
  // queue is already closed, so each straggler sheds within a few
  // instructions and the loop terminates. seq_cst loads to match the seq_cst
  // increments: the single total order makes "accepted_/shed_ visible but
  // its offered_ not" impossible, so a balanced, re-read-stable snapshot is
  // a complete one — acquire alone would not rule out that interleaving on
  // weakly-ordered hardware.
  for (;;) {
    s.offered = offered_.load(std::memory_order_seq_cst);
    s.accepted = accepted_.load(std::memory_order_seq_cst);
    s.shed = shed_.load(std::memory_order_seq_cst);
    if (s.accepted + s.shed == s.offered &&
        s.offered == offered_.load(std::memory_order_seq_cst)) {
      break;
    }
    std::this_thread::yield();
  }
  s.replica_deaths = replica_deaths_.load(std::memory_order_relaxed);
  s.requeued = requeued_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  Clock::time_point first{};
  {
    std::lock_guard lk(done_mu_);
    s.completed = completed_;
    first = first_submit_;
  }
  s.wall_seconds = first == Clock::time_point{}
                       ? 0.0
                       : std::chrono::duration<double>(Clock::now() - first).count();
  s.replicas.reserve(locals_.size());
  for (const auto& l : locals_) {
    s.replicas.push_back(ReplicaStats{l.solved, l.busy_seconds});
    s.queue_wait.merge(l.queue_wait);
    s.solve.merge(l.solve);
    s.response.merge(l.response);
  }
  final_stats_ = s;
  stopped_.store(true, std::memory_order_release);
  return final_stats_;
}

}  // namespace teal::serve
