#include "net/server.h"

#include <poll.h>

#include <atomic>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/thread_name.h"

namespace teal::net {

// One in-flight solve. The completion callback owns this slot (shared_ptr),
// so the traffic matrix the replica reads and the allocation it writes stay
// alive however the client connection fares — serve::Server's "tm/out valid
// until completion" contract is carried by the slot, not by any session.
struct PendingSolve {
  te::TrafficMatrix tm;
  te::Allocation out;
  std::uint32_t request_id = 0;
  std::uint64_t session_id = 0;
};

// State shared between the I/O thread, replica-thread completions, and
// stats() readers. Held by shared_ptr so a completion that outlives the
// net::Server object (backend still draining) degrades into a counted drop
// instead of a use-after-free.
struct Server::Core {
  std::mutex mu;  // guards sessions map + totals (lock order: mu → session outbox)
  std::unordered_map<std::uint64_t, std::unique_ptr<Session>> sessions;
  NetStats totals;  // closed sessions + server-level counters
  util::WakePipe wake;
  std::atomic<bool> stopping{false};
  std::uint64_t next_session_id = 1;

  // Routes a completed solve to its session's outbox, or drops it when the
  // client already disconnected. Called from replica threads. A negative
  // solve_seconds is the serve layer's failure sentinel (every replica died
  // before this request could run — serve::Server::fail_request): the client
  // gets a typed error instead of an allocation that was never computed.
  void complete(const PendingSolve& slot, double solve_seconds) {
    bool delivered = false;
    {
      std::lock_guard lk(mu);
      auto it = sessions.find(slot.session_id);
      if (it != sessions.end()) {
        if (solve_seconds < 0.0) {
          it->second->queue_error(slot.request_id, ErrorCode::kInternal,
                                  "request failed: no replica available");
        } else {
          it->second->queue_response(slot.request_id, slot.out, solve_seconds);
        }
        delivered = true;
      } else {
        ++totals.dropped_responses;
      }
    }
    if (delivered) wake.wake();
  }

  // I/O thread: retire a session, folding its accounting into the totals.
  void close_session(std::uint64_t id) {
    std::lock_guard lk(mu);
    auto it = sessions.find(id);
    if (it == sessions.end()) return;
    totals.sessions.accumulate(it->second->stats());
    ++totals.connections_closed;
    sessions.erase(it);
  }
};

Server::Server(serve::Server& backend, const te::Problem& pb, NetServerConfig cfg)
    : backend_(&backend), pb_(&pb), cfg_(cfg), core_(std::make_shared<Core>()) {
  listener_ = util::listen_tcp(cfg_.host, cfg_.port, &port_);
  util::set_nonblocking(listener_, true);
  io_thread_ = std::thread([this] { io_loop(); });
}

Server::Server(serve::Fleet& fleet, NetServerConfig cfg)
    : fleet_(&fleet), cfg_(cfg), core_(std::make_shared<Core>()) {
  listener_ = util::listen_tcp(cfg_.host, cfg_.port, &port_);
  util::set_nonblocking(listener_, true);
  io_thread_ = std::thread([this] { io_loop(); });
}

Server::Route Server::resolve(const std::string& tenant) {
  if (fleet_ != nullptr) {
    const serve::Fleet::Route r = fleet_->route(tenant);
    return Route{r.server, r.pb};
  }
  // Single-tenant mode serves exactly one (default) tenant; any name is a
  // routing miss, not a silent fallthrough to the only backend — a client
  // that asked for "wan-eu" must not get "wan-us" allocations.
  if (!tenant.empty()) return {};
  return Route{backend_, pb_};
}

Server::~Server() { stop(); }

void Server::stop() {
  // Serialized like serve::Server::stop(): concurrent stoppers block until
  // the first finishes, so the join happens exactly once.
  std::lock_guard lk(stop_mu_);
  core_->stopping.store(true, std::memory_order_relaxed);
  core_->wake.wake();
  if (io_thread_.joinable()) io_thread_.join();
  listener_.close();
}

NetStats Server::stats() const {
  std::lock_guard lk(core_->mu);
  NetStats s = core_->totals;
  for (const auto& [id, sess] : core_->sessions) s.sessions.accumulate(sess->stats());
  return s;
}

SubmitOutcome Server::submit_solve(Session& session, std::uint32_t request_id,
                                   const std::string& tenant, te::TrafficMatrix&& tm,
                                   ShedReason& reason, int& expected_demands) {
  if (core_->stopping.load(std::memory_order_relaxed)) {
    reason = ShedReason::kStopping;
    return SubmitOutcome::kShed;
  }
  const Route route = resolve(tenant);
  if (route.server == nullptr) return SubmitOutcome::kUnknownTenant;
  if (static_cast<int>(tm.volume.size()) != route.pb->num_demands()) {
    expected_demands = route.pb->num_demands();
    return SubmitOutcome::kBadDemandCount;
  }
  // One NaN volume turns every split NaN, so unsolvable volumes are refused
  // here rather than thrown inside the solve: a replica treats any solve
  // exception as its own death and requeues the request, so a thrown
  // rejection would take down every replica in turn.
  for (double v : tm.volume) {
    if (!te::valid_volume(v)) return SubmitOutcome::kBadVolume;
  }
  auto slot = std::make_shared<PendingSolve>();
  slot->tm = std::move(tm);
  slot->request_id = request_id;
  slot->session_id = session.id();
  std::weak_ptr<Core> weak_core = core_;
  const serve::SubmitResult res = route.server->submit(
      slot->tm, slot->out, [weak_core, slot](double solve_seconds) {
        if (auto core = weak_core.lock()) core->complete(*slot, solve_seconds);
        // else: net server destroyed while the backend drained; the slot
        // kept the buffers alive, nothing to deliver to.
      });
  switch (res) {
    case serve::SubmitResult::kAccepted:
      return SubmitOutcome::kAccepted;
    case serve::SubmitResult::kShedAdmission:
      reason = ShedReason::kAdmission;
      return SubmitOutcome::kShed;
    case serve::SubmitResult::kShedQueueFull:
      reason = ShedReason::kQueueFull;
      return SubmitOutcome::kShed;
    case serve::SubmitResult::kShedStopping:
      // The backend stopped independently of this net server (its queue is
      // closed); clients see the true cause, not a guessed admission shed.
      reason = ShedReason::kStopping;
      return SubmitOutcome::kShed;
  }
  reason = ShedReason::kQueueFull;  // unreachable; keeps -Wreturn-type quiet
  return SubmitOutcome::kShed;
}

void Server::io_loop() {
  util::set_current_thread_name("teal-net", 0);
  Core& core = *core_;
  const Session::SubmitFn submit =
      [this](Session& s, std::uint32_t id, const std::string& tenant,
             te::TrafficMatrix&& tm, ShedReason& reason, int& expected_demands) {
        return submit_solve(s, id, tenant, std::move(tm), reason, expected_demands);
      };

  std::vector<pollfd> pfds;
  std::vector<Session*> polled;  // parallel to pfds[2..]
  std::vector<std::uint64_t> finished;
  while (!core.stopping.load(std::memory_order_relaxed)) {
    pfds.clear();
    polled.clear();
    pfds.push_back(pollfd{core.wake.read_fd(), POLLIN, 0});
    bool room;
    {
      std::lock_guard lk(core.mu);
      room = core.sessions.size() < cfg_.max_connections;
      pfds.push_back(pollfd{listener_.fd(), static_cast<short>(room ? POLLIN : 0), 0});
      for (auto& [id, sess] : core.sessions) {
        const short events =
            static_cast<short>(POLLIN | (sess->wants_write() ? POLLOUT : 0));
        pfds.push_back(pollfd{sess->fd(), events, 0});
        polled.push_back(sess.get());
      }
    }
    // Finite timeout so a wake lost to a race (wake() between drain and
    // poll) only delays work, never wedges the loop.
    ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 100);
    core.wake.drain();
    if (core.stopping.load(std::memory_order_relaxed)) break;

    if (pfds[1].revents & POLLIN) {
      for (;;) {
        util::Socket conn = util::accept_tcp(listener_);
        if (!conn.valid()) break;
        std::lock_guard lk(core.mu);
        if (core.sessions.size() >= cfg_.max_connections) break;  // raced past cap
        const std::uint64_t id = core.next_session_id++;
        core.sessions.emplace(
            id, std::make_unique<Session>(id, std::move(conn), cfg_.max_payload,
                                          cfg_.max_outbox_bytes));
        ++core.totals.connections_accepted;
      }
    }

    finished.clear();
    for (std::size_t i = 0; i < polled.size(); ++i) {
      Session* sess = polled[i];
      const short re = pfds[i + 2].revents;
      bool alive = true;
      if (re & (POLLOUT | POLLERR | POLLHUP)) alive = sess->flush();
      // Read even on POLLHUP: the peer may have half-closed after sending
      // requests whose responses it still reads... and if not, read_some
      // reports the close and we drop the session.
      if (alive && (re & (POLLIN | POLLHUP | POLLERR))) alive = sess->on_readable(submit);
      if (alive && sess->wants_write()) alive = sess->flush();
      if (!alive || sess->done()) finished.push_back(sess->id());
    }
    for (std::uint64_t id : finished) core.close_session(id);
  }

  // Teardown: retire every remaining session (their in-flight solves finish
  // in the backend; completions find the map empty and count as drops).
  std::vector<std::uint64_t> ids;
  {
    std::lock_guard lk(core.mu);
    ids.reserve(core.sessions.size());
    for (const auto& [id, sess] : core.sessions) ids.push_back(id);
  }
  for (std::uint64_t id : ids) core.close_session(id);
}

}  // namespace teal::net
