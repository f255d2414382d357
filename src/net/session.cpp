#include "net/session.h"

namespace teal::net {

void SessionStats::accumulate(const SessionStats& other) {
  frames_in += other.frames_in;
  frames_out += other.frames_out;
  requests += other.requests;
  responses += other.responses;
  shed += other.shed;
  pings += other.pings;
  protocol_errors += other.protocol_errors;
  bad_requests += other.bad_requests;
  unknown_tenants += other.unknown_tenants;
}

Session::Session(std::uint64_t id, util::Socket sock, std::size_t max_payload,
                 std::size_t max_outbox)
    : id_(id),
      sock_(std::move(sock)),
      decoder_(max_payload),
      max_outbox_(max_outbox == 0 ? kDefaultMaxOutboxBytes : max_outbox) {
  util::set_nonblocking(sock_, true);
}

bool Session::closing() const {
  std::lock_guard lk(out_mu_);
  return close_after_flush_;
}

bool Session::on_readable(const SubmitFn& submit) {
  std::uint8_t buf[32 * 1024];
  if (closing()) {
    // The goodbye is already queued and nothing further will be answered.
    // Drain and discard whatever the peer keeps sending — decoding nothing —
    // so a level-triggered POLLIN cannot spin the I/O loop while the error
    // frame flushes, and an EOF still retires the session.
    for (;;) {
      const int n = util::read_some(sock_, buf, sizeof(buf));
      if (n == 0) return false;
      if (n < 0) return true;
    }
  }
  for (;;) {
    const int n = util::read_some(sock_, buf, sizeof(buf));
    if (n == 0) return false;  // peer closed (or hard error): drop session
    if (n < 0) break;          // drained for now
    decoder_.feed(buf, static_cast<std::size_t>(n));
    Frame f;
    for (;;) {
      const DecodeStatus st = decoder_.next(f);
      if (st == DecodeStatus::kNeedMore) break;
      if (st == DecodeStatus::kMalformed) {
        // One protocol violation ends the connection (a length-prefixed
        // stream cannot resynchronize) — but the client is told why before
        // the close, which is what makes fuzzing the server debuggable.
        std::lock_guard lk(out_mu_);
        ++stats_.protocol_errors;
        if (!close_after_flush_) {
          std::vector<std::uint8_t> bytes;
          encode_error(bytes, 0, ErrorCode::kMalformed, decoder_.error());
          append_locked(bytes);
          close_after_flush_ = true;
        }
        return true;  // keep the session until the error frame flushed
      }
      handle_frame(std::move(f), submit);
      // A violation (malformed payload) or an overflowed outbox during the
      // frame just handled ends the connection: leave the rest of the
      // stream undecoded so nothing is answered after the goodbye.
      if (closing()) return true;
    }
  }
  return true;
}

void Session::handle_frame(Frame&& f, const SubmitFn& submit) {
  std::vector<std::uint8_t> bytes;
  switch (f.type) {
    case FrameType::kPing: {
      std::lock_guard lk(out_mu_);
      ++stats_.frames_in;
      ++stats_.pings;
      encode_pong(bytes, f.request_id);
      append_locked(bytes);
      return;
    }
    case FrameType::kSolveRequest: {
      te::TrafficMatrix tm;
      std::string tenant;
      if (!parse_solve_request(f.payload, tm, tenant)) {
        std::lock_guard lk(out_mu_);
        ++stats_.frames_in;
        ++stats_.protocol_errors;
        encode_error(bytes, f.request_id, ErrorCode::kMalformed,
                     "solve request payload inconsistent with declared counts");
        append_locked(bytes);
        close_after_flush_ = true;
        return;
      }
      const std::size_t got_demands = tm.volume.size();
      ShedReason reason = ShedReason::kAdmission;
      int expected_demands = -1;
      const SubmitOutcome oc =
          submit(*this, f.request_id, tenant, std::move(tm), reason, expected_demands);
      std::lock_guard lk(out_mu_);
      ++stats_.frames_in;
      switch (oc) {
        case SubmitOutcome::kAccepted:
          ++stats_.requests;  // response arrives via queue_response later
          return;
        case SubmitOutcome::kShed:
          ++stats_.shed;
          encode_shed(bytes, f.request_id, reason);
          break;
        case SubmitOutcome::kUnknownTenant:
          // Typed error, connection stays usable — the client may serve many
          // tenants and only misrouted this one request.
          ++stats_.unknown_tenants;
          encode_error(bytes, f.request_id, ErrorCode::kUnknownTenant,
                       "unknown tenant '" + tenant + "'");
          break;
        case SubmitOutcome::kBadDemandCount:
          // Well-framed but wrong-shaped for the routed tenant; stays usable.
          ++stats_.bad_requests;
          encode_error(bytes, f.request_id, ErrorCode::kBadDemandCount,
                       "expected " + std::to_string(expected_demands) + " demands, got " +
                           std::to_string(got_demands));
          break;
        case SubmitOutcome::kBadVolume:
          ++stats_.bad_requests;
          encode_error(bytes, f.request_id, ErrorCode::kBadVolume,
                       "demand volumes must be finite and non-negative");
          break;
      }
      append_locked(bytes);
      return;
    }
    default: {
      // Valid header, but a type only servers send (pong/response/shed/
      // error). Tell the client and stay open.
      std::lock_guard lk(out_mu_);
      ++stats_.frames_in;
      ++stats_.protocol_errors;
      encode_error(bytes, f.request_id, ErrorCode::kUnsupportedType,
                   std::string("server does not accept ") + frame_type_name(f.type) +
                       " frames");
      append_locked(bytes);
      return;
    }
  }
}

void Session::append_locked(const std::vector<std::uint8_t>& bytes) {
  outbox_.insert(outbox_.end(), bytes.begin(), bytes.end());
  ++stats_.frames_out;
  if (outbox_.size() - outbox_pos_ > max_outbox_) {
    // Slow reader: the peer is not consuming its responses. Waiting for the
    // outbox to drain before closing would wait on that same non-reading
    // peer, so the close must be immediate (hard), not after-flush.
    close_after_flush_ = true;
    hard_close_ = true;
  }
}

void Session::queue_response(std::uint32_t request_id, const te::Allocation& alloc,
                             double solve_seconds) {
  std::vector<std::uint8_t> bytes;
  encode_solve_response(bytes, request_id, alloc, solve_seconds);
  std::lock_guard lk(out_mu_);
  ++stats_.responses;
  append_locked(bytes);
}

void Session::queue_shed(std::uint32_t request_id, ShedReason reason) {
  std::vector<std::uint8_t> bytes;
  encode_shed(bytes, request_id, reason);
  std::lock_guard lk(out_mu_);
  ++stats_.shed;
  append_locked(bytes);
}

void Session::queue_error(std::uint32_t request_id, ErrorCode code,
                          const std::string& message) {
  std::vector<std::uint8_t> bytes;
  encode_error(bytes, request_id, code, message);
  std::lock_guard lk(out_mu_);
  append_locked(bytes);
}

bool Session::flush() {
  std::lock_guard lk(out_mu_);
  while (outbox_pos_ < outbox_.size()) {
    const int w = util::write_some(sock_, outbox_.data() + outbox_pos_,
                                   outbox_.size() - outbox_pos_);
    if (w == 0) return false;  // peer gone
    if (w < 0) break;          // kernel buffer full; wait for POLLOUT
    outbox_pos_ += static_cast<std::size_t>(w);
  }
  if (outbox_pos_ == outbox_.size()) {
    outbox_.clear();
    outbox_pos_ = 0;
  } else if (outbox_pos_ >= 4096) {
    outbox_.erase(outbox_.begin(), outbox_.begin() + static_cast<std::ptrdiff_t>(outbox_pos_));
    outbox_pos_ = 0;
  }
  return true;
}

bool Session::wants_write() const {
  std::lock_guard lk(out_mu_);
  return outbox_pos_ < outbox_.size();
}

bool Session::done() const {
  std::lock_guard lk(out_mu_);
  if (hard_close_) return true;  // overflow: never wait for a drain
  return close_after_flush_ && outbox_pos_ == outbox_.size();
}

SessionStats Session::stats() const {
  std::lock_guard lk(out_mu_);
  return stats_;
}

}  // namespace teal::net
