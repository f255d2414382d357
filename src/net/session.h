// session.h — one object per standing TCP connection.
//
// A Session owns everything a single client connection needs: the socket,
// the incremental FrameDecoder, the outgoing byte queue (outbox), and the
// per-connection accounting. It implements the server side of the protocol
// state machine — ping answered with pong, solve requests parsed and handed
// to the submit hook (which routes the tenant and validates the demand count
// against that tenant's Problem), anything else answered with an error
// frame — while staying transport-driven: the I/O thread calls
// on_readable()/flush() when poll() says so, and replica threads deliver
// completed solves through queue_response().
//
// Threading: the socket, decoder and inbound statistics belong to the I/O
// thread alone. The outbox (and the outbound statistics counted when frames
// enter it) is the one structure shared with replica threads, guarded by the
// session's own mutex — lock order is always Server registry lock → session
// outbox lock, never the reverse, so completions can look a session up and
// append without deadlocking against a concurrent flush.
//
// Shedding happens *here*, at the socket: when the backend refuses a request
// (deadline admission or queue bound — the serve::Server behaviour), the
// client gets an explicit kShed frame naming the reason instead of a
// silently missing response. DESIGN.md "Network layer" contrasts the two
// shed points.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "net/wire.h"
#include "te/problem.h"
#include "util/socket.h"

namespace teal::net {

// Default slow-reader bound: a client that outruns its own reads gets
// disconnected once this many bytes sit undelivered in its outbox, rather
// than letting one slow connection grow an unbounded response backlog in
// server memory. Tests shrink it (NetServerConfig::max_outbox_bytes) to
// exercise the disconnect without buffering 64 MiB.
inline constexpr std::size_t kDefaultMaxOutboxBytes = std::size_t{64} << 20;

struct SessionStats {
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t requests = 0;         // validated solve requests submitted
  std::uint64_t responses = 0;        // solve responses queued to the wire
  std::uint64_t shed = 0;             // shed frames queued
  std::uint64_t pings = 0;
  std::uint64_t protocol_errors = 0;  // malformed frames / streams
  std::uint64_t bad_requests = 0;     // well-formed but wrong demand count or
                                      // an unsolvable (non-finite/negative) volume
  std::uint64_t unknown_tenants = 0;  // well-formed, no such tenant

  void accumulate(const SessionStats& other);
};

// What the backend did with a routed solve request. The session turns each
// refusal shape into the right frame: kShed carries the ShedReason, the three
// validation outcomes carry typed error frames, and all of them leave the
// connection usable (only malformed streams close it).
enum class SubmitOutcome : std::uint8_t {
  kAccepted,        // queued; response arrives later via queue_response
  kShed,            // backend refused (reason names why)
  kUnknownTenant,   // no tenant by that name in the fleet
  kBadDemandCount,  // demand count does not match the tenant's problem
  kBadVolume,       // a demand volume is NaN, infinite or negative
};

class Session {
 public:
  // Backend hook: route `tenant` ("" = default) and enqueue a validated
  // solve. On kShed the hook sets `reason`; on kBadDemandCount it sets
  // `expected_demands` (the tenant's demand count, for the error message).
  // The callee owns routing the completion back to this session by id — the
  // session itself is tenant-agnostic, which is what keeps multi-tenant
  // routing out of the protocol state machine. Request validation lives
  // behind the hook too (not here): only the routed tenant's Problem knows
  // the right demand count.
  using SubmitFn = std::function<SubmitOutcome(
      Session& session, std::uint32_t request_id, const std::string& tenant,
      te::TrafficMatrix&& tm, ShedReason& reason, int& expected_demands)>;

  // `max_outbox` bounds undelivered response bytes (0 = the default cap).
  Session(std::uint64_t id, util::Socket sock, std::size_t max_payload,
          std::size_t max_outbox = kDefaultMaxOutboxBytes);

  std::uint64_t id() const { return id_; }
  int fd() const { return sock_.fd(); }

  // I/O thread: drain the readable socket and react to every complete frame.
  // Returns false when the connection is finished (peer closed or hard
  // error); a protocol violation instead queues an error frame and arranges
  // close-after-flush so the client learns why it is being dropped.
  bool on_readable(const SubmitFn& submit);

  // Any thread: append reply frames to the outbox (self-locking).
  void queue_response(std::uint32_t request_id, const te::Allocation& alloc,
                      double solve_seconds);
  void queue_shed(std::uint32_t request_id, ShedReason reason);
  void queue_error(std::uint32_t request_id, ErrorCode code, const std::string& message);

  // I/O thread: write as much outbox as the non-blocking socket accepts.
  // Returns false when the peer is gone.
  bool flush();

  bool wants_write() const;
  // True once the session should be retired: either it queued its goodbye
  // (protocol error) and the outbox fully drained, or the outbox overflowed
  // the slow-reader cap — then the close is immediate, because waiting for a
  // peer that is not reading to drain the outbox would wait forever.
  bool done() const;

  SessionStats stats() const;

 private:
  void handle_frame(Frame&& f, const SubmitFn& submit);
  void append_locked(const std::vector<std::uint8_t>& bytes);
  bool closing() const;

  const std::uint64_t id_;
  util::Socket sock_;
  FrameDecoder decoder_;
  const std::size_t max_outbox_;

  mutable std::mutex out_mu_;           // guards outbox_/out-side stats
  std::vector<std::uint8_t> outbox_;
  std::size_t outbox_pos_ = 0;
  bool close_after_flush_ = false;
  // Outbox overflowed the slow-reader cap: done() without waiting for a
  // drain the non-reading peer would never provide. Implies
  // close_after_flush_.
  bool hard_close_ = false;

  SessionStats stats_;  // in-side fields I/O-thread-only; out-side under out_mu_
};

}  // namespace teal::net
