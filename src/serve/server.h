// server.h — multi-replica online serving of TE solves.
//
// The batch path (te::Scheme::solve_batch) is closed-loop: a driver hands
// the whole trace over and waits. A WAN controller is open-loop: traffic
// matrices *arrive* — every 5 minutes per topology slice, or far faster when
// one controller serves many slices — and a late allocation is a stale
// allocation (sim/online.h). The Server models that deployment shape:
//
//   submit(tm, out) ──► admission ──► bounded MPMC queue ──► N replicas
//                        │ shed                                │ solve
//                        ▼                                     ▼
//                    ServeStats ◄── per-replica latency/throughput merge
//
// Admission control: a request that cannot start within `deadline_seconds`
// is useless by the time it finishes (its interval is over — the next
// matrix has already arrived), so the server sheds it immediately instead
// of queueing doomed work. The bound is derived from the deadline and the
// observed per-solve time: depth_bound = deadline · n_replicas / est_solve,
// i.e. how many queued requests the replica set can clear within one
// deadline. est_solve is cfg.expected_solve_seconds when given, else an
// EWMA of completed solves (first request always admitted).
//
// Concurrency: each replica owns its solver state (serve/replica.h) and its
// own stats block, so the only shared mutable structures are the queue and
// the completion counter. Thread composition is decided per replica
// (serve/replica.h): sequential replicas hold a ThreadPool::ScopedInline for
// each solve — outer parallelism across replicas, inner kernels
// per-thread-sequential, like solve_batch's fan-out — while a lone replica
// may instead fan demand shards out to the pool (serve::pick_replica_shards)
// to cut single-request latency.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/replica.h"
#include "te/problem.h"
#include "util/histogram.h"
#include "util/mpmc_queue.h"

namespace teal::serve {

struct ServeConfig {
  std::size_t queue_capacity = 256;
  // Admission deadline: a request is shed when the queue already holds more
  // work than the replicas can start within this budget. 0 disables
  // admission control (only the queue bound sheds).
  double deadline_seconds = 0.0;
  // Per-solve time estimate for the admission bound. 0 = adapt: EWMA of
  // completed solve times.
  double expected_solve_seconds = 0.0;
};

struct ReplicaStats {
  std::uint64_t solved = 0;
  double busy_seconds = 0.0;  // sum of per-solve times
};

// Why submit() accepted or refused a request. The network layer forwards the
// refusal cause to the client as a ShedReason frame, so the server must name
// it rather than let callers infer it from configuration.
enum class SubmitResult : std::uint8_t {
  kAccepted,       // entered the queue; response arrives via out/done
  kShedAdmission,  // deadline admission control refused it
  kShedQueueFull,  // bounded MPMC queue was full
  kShedStopping,   // server stopped (queue closed)
};

struct ServeStats {
  std::uint64_t offered = 0;    // submit() calls
  std::uint64_t accepted = 0;   // entered the queue
  std::uint64_t shed = 0;       // rejected by admission or queue bound
  std::uint64_t completed = 0;  // retired: solved, or failed (see below)
  double wall_seconds = 0.0;    // first submit → stop()

  // Failover ledger. A replica whose solve throws is dead (its thread exits);
  // its in-flight request is requeued for the surviving replicas rather than
  // lost. Only when *no* replica survives (or the server is stopping) is a
  // request failed: its done-hook runs with solve_seconds = -1 so the caller
  // can surface an error instead of waiting forever. failed requests count
  // toward `completed` — drain() means every request was retired, not that
  // every request succeeded. Invariant: accepted == completed after stop(),
  // and completed == Σ replicas[i].solved + failed.
  std::uint64_t replica_deaths = 0;
  std::uint64_t requeued = 0;
  std::uint64_t failed = 0;

  std::vector<ReplicaStats> replicas;
  util::LatencyHistogram queue_wait;  // enqueue → dequeue
  util::LatencyHistogram solve;       // solve alone
  util::LatencyHistogram response;    // enqueue → result written

  double throughput() const {
    return wall_seconds > 0.0 ? static_cast<double>(completed) / wall_seconds : 0.0;
  }
};

class Server {
 public:
  // Starts one serving thread per replica. `pb` must outlive the server and
  // stay capacity-stable while requests are in flight (the same contract as
  // solve_batch).
  Server(const te::Problem& pb, std::vector<ReplicaPtr> replicas, ServeConfig cfg = {});
  // Stops and joins if the caller never called stop().
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::size_t n_replicas() const { return replicas_.size(); }

  // Submits one request. `tm` and `out` are caller-owned and must stay valid
  // until drain()/stop() — the accepted request writes its allocation into
  // `out` from a replica thread. Returns false when the request was shed
  // (admission bound exceeded, queue full, or server stopped); `out` is then
  // left untouched.
  bool submit(const te::TrafficMatrix& tm, te::Allocation& out);

  // Same, with a completion hook: `done(solve_seconds)` runs on the replica
  // thread right after the allocation is written to `out` and before the
  // request counts as completed (so drain() returning implies every callback
  // finished). This is the network layer's seam — the session's response is
  // written back from here, and the captured state (not the caller's stack)
  // keeps `tm`/`out` alive, which is what makes an abrupt client disconnect
  // safe. `done` must not throw and must not call back into
  // submit()/drain()/stop(). Returns the refusal cause, not just a bool, so
  // the shed frame the session sends names what actually happened.
  SubmitResult submit(const te::TrafficMatrix& tm, te::Allocation& out,
                      std::function<void(double solve_seconds)> done);

  // Blocks until every accepted request has completed.
  void drain();

  // Drains, joins the replica threads and returns the final stats.
  // Idempotent and safe to call from any number of threads concurrently —
  // every caller returns the same stats, and concurrent submit()s are either
  // counted completely in those stats or shed (never half-counted). The
  // session layer relies on this: connections shut down from the I/O thread
  // while the owning server object stops from another.
  ServeStats stop();

  // Queue depth right now (admission diagnostics; racy by nature).
  std::size_t queue_depth() const { return queue_.size(); }

  // The admission bound currently in force (for tests/benches; 0 = none).
  std::size_t admission_depth_bound() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    const te::TrafficMatrix* tm = nullptr;
    te::Allocation* out = nullptr;
    std::function<void(double)> done;  // optional completion hook (net sessions)
    Clock::time_point enqueued{};
  };

  // Per-replica accounting, written only by that replica's thread until the
  // stop()-time merge.
  struct ReplicaLocal {
    std::uint64_t solved = 0;
    double busy_seconds = 0.0;
    util::LatencyHistogram queue_wait;
    util::LatencyHistogram solve;
    util::LatencyHistogram response;
  };

  void replica_loop(std::size_t index);
  // Failover path: called by a replica thread whose solve threw, with the
  // victim request. Requeues it for the survivors, or fails it (and every
  // queued request) when this was the last replica standing.
  void handle_replica_death(Request req);
  // Retires a request without a solve: done(-1), counts toward completed_.
  void fail_request(Request& req);
  double solve_estimate() const;

  const te::Problem& pb_;
  std::vector<ReplicaPtr> replicas_;
  ServeConfig cfg_;
  util::MpmcQueue<Request> queue_;
  std::vector<ReplicaLocal> locals_;
  std::vector<std::thread> threads_;

  // Ledger counters are seq_cst: submit() bumps offered_ first and
  // accepted_/shed_ second, and stop() spins until a snapshot balances — the
  // single total order is what guarantees a visible accepted_/shed_ implies
  // a visible offered_, so the spin can never publish an undercounted but
  // self-consistent ledger (relaxed stores could reorder on weak hardware).
  std::atomic<std::uint64_t> offered_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<double> solve_ewma_{0.0};

  // Failover state: live_replicas_ counts replica threads still in their
  // loop; the thread that decrements it to zero owns failing the backlog.
  std::atomic<std::size_t> live_replicas_{0};
  std::atomic<std::uint64_t> replica_deaths_{0};
  std::atomic<std::uint64_t> requeued_{0};
  std::atomic<std::uint64_t> failed_{0};

  mutable std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::uint64_t completed_ = 0;  // guarded by done_mu_

  Clock::time_point first_submit_{};  // set once by the first submit()
  std::atomic<bool> started_{false};
  // stop() serializes on stop_mu_: the first caller closes/joins/merges, any
  // concurrent caller blocks until that finishes and returns the same stats.
  // stopped_ is additionally atomic so the destructor's stop() composes with
  // a racing explicit stop() without a data race on the flag itself.
  std::mutex stop_mu_;
  std::atomic<bool> stopped_{false};
  ServeStats final_stats_;
};

}  // namespace teal::serve
