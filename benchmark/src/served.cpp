#include <poll.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bench.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve/replica.h"
#include "serve/server.h"
#include "util/alloc_hook.h"
#include "util/socket.h"

namespace teal_bench {

namespace {

// Responses still missing this long after the last due send count as dropped.
constexpr double kDrainGraceSeconds = 5.0;

// Times every solve of a workspace replica exactly (the serve::Server keeps
// only histograms) and, when tracing, records it as a span.
class TimedReplica final : public serve::Replica {
 public:
  TimedReplica(serve::ReplicaPtr inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {
    samples_.reserve(std::size_t{1} << 16);
  }

  void solve(const te::Problem& pb, const te::TrafficMatrix& tm, te::Allocation& out,
             double* seconds) override {
    const auto t0 = Clock::now();
    inner_->solve(pb, tm, out, seconds);
    const auto t1 = Clock::now();
    samples_.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    if (tracer_ != nullptr) tracer_->add("serve.solve", t0, t1);
  }

  // Read only after the owning serve::Server stopped.
  const std::vector<double>& samples() const { return samples_; }

 private:
  serve::ReplicaPtr inner_;
  Tracer* tracer_;
  std::vector<double> samples_;
};

// kReplicas workspace replicas over the shared scheme, each warmed by its
// first (cold) solve before the server starts.
std::vector<serve::ReplicaPtr> timed_replicas(const core::TealScheme& scheme, const Inputs& in,
                                              Tracer* tracer, std::vector<TimedReplica*>& timed) {
  std::vector<serve::ReplicaPtr> out;
  for (auto& r : serve::make_workspace_replicas(scheme, kReplicas)) {
    te::Allocation scratch;
    r->solve(in.pb, in.base.matrices[0], scratch, nullptr);
    auto t = std::make_unique<TimedReplica>(std::move(r), tracer);
    timed.push_back(t.get());
    out.push_back(std::move(t));
  }
  return out;
}

serve::ServeConfig serve_config(const Load& load) {
  serve::ServeConfig cfg;
  cfg.deadline_seconds = load.deadline_s;
  return cfg;
}

// The served system under test plus the client's standing connections.
class ServedStack {
 public:
  ServedStack(const core::TealScheme& scheme, const Inputs& in, const Load& load, Tracer* tracer)
      : backend_(in.pb, timed_replicas(scheme, in, tracer, timed_), serve_config(load)),
        front_(backend_, in.pb) {
    for (int c = 0; c < kConnections; ++c) {
      conns_.push_back(util::connect_tcp("127.0.0.1", front_.port()));
      util::set_nonblocking(conns_.back(), true);
    }
  }

  util::Socket& connection(int c) { return conns_[static_cast<std::size_t>(c)]; }

  // Closes the client side, stops both servers and collects their stats.
  void finish(ServedResult& r) {
    conns_.clear();
    front_.stop();
    const net::NetStats ns = front_.stats();
    const serve::ServeStats ss = backend_.stop();
    r.net_dropped_responses = ns.dropped_responses;
    r.net_protocol_errors = ns.sessions.protocol_errors;
    r.queue_wait_p50_ms = ss.queue_wait.percentile(50) * 1e3;
    r.queue_wait_p99_ms = ss.queue_wait.percentile(99) * 1e3;
    for (const TimedReplica* t : timed_) {
      r.solve_ms.insert(r.solve_ms.end(), t->samples().begin(), t->samples().end());
    }
  }

 private:
  std::vector<TimedReplica*> timed_;  // owned by backend_
  serve::Server backend_;
  net::Server front_;
  std::vector<util::Socket> conns_;
};

// A request frame in a connection's pending output: where it ends and when
// it was due.
struct PendingFrame {
  std::size_t end = 0;
  Clock::time_point due;
};

// One client connection of the generator: pending bytes of requests not yet
// accepted by the kernel (large frames go out in parts), the frames they
// hold, and the response decoder.
struct Conn {
  util::Socket* sock = nullptr;
  std::vector<std::uint8_t> out;
  std::size_t sent = 0;
  std::vector<PendingFrame> frames;
  std::size_t frames_done = 0;
  net::FrameDecoder decoder;
  bool alive = true;
};

// Writes as much pending output as the socket takes and records, for each
// request whose last byte the kernel accepted, how late that was against its
// due time. False when the peer is gone.
bool flush(Conn& c, std::vector<double>& late_ms) {
  while (c.sent < c.out.size()) {
    const int w = util::write_some(*c.sock, c.out.data() + c.sent, c.out.size() - c.sent);
    if (w < 0) return true;
    if (w == 0) return false;
    c.sent += static_cast<std::size_t>(w);
    const auto now = Clock::now();
    for (; c.frames_done < c.frames.size() && c.frames[c.frames_done].end <= c.sent;
         ++c.frames_done) {
      late_ms.push_back(lateness_ms(c.frames[c.frames_done].due, now));
    }
  }
  c.out.clear();
  c.sent = 0;
  c.frames.clear();
  c.frames_done = 0;
  return true;
}

timespec timespec_until(Clock::time_point now, Clock::time_point t) {
  const auto ns = std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(t - now).count());
  return timespec{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
}

}  // namespace

double served_setup_seconds(const core::TealScheme& scheme, const Inputs& in, const Load& load) {
  const auto t0 = Clock::now();
  const ServedStack stack(scheme, in, load, nullptr);
  return seconds_between(t0, Clock::now());
}

Load probe_load(double solve_ms) {
  const double solve_s = solve_ms / 1e3;
  return {0.5 * static_cast<double>(kReplicas) / solve_s, 10.0 * solve_s, 10.0 * solve_s};
}

ServedResult run_served(const core::TealScheme& scheme, const Inputs& in, const Load& load,
                        double seconds, Tracer* tracer) {
  ServedStack stack(scheme, in, load, tracer);
  ServedResult r;
  const std::size_t n_mat = in.refs.size();
  const auto n_req = static_cast<std::uint64_t>(std::llround(load.rps * seconds));
  const double slo_ms = load.slo_s * 1e3;
  std::vector<Conn> conns(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    conns[static_cast<std::size_t>(c)].sock = &stack.connection(c);
    conns[static_cast<std::size_t>(c)].frames.reserve(256);
  }
  std::vector<std::uint8_t> answered(n_req, 0);
  r.resp_ms.reserve(n_req);
  r.late_ms.reserve(n_req);
  std::vector<std::uint8_t> rbuf(std::size_t{1} << 16);
  net::Frame frame;
  te::Allocation got;

  const util::AllocCounter allocs;
  const auto start = after(Clock::now(), 0.01);
  const auto due = [&](std::uint64_t i) { return due_time(start, i, load.rps); };
  const auto give_up = after(due(n_req), kDrainGraceSeconds);
  std::uint64_t sent = 0, finished = 0;
  auto last_received = start;

  auto handle = [&](const net::Frame& f, Clock::time_point received) {
    const std::uint64_t id = f.request_id;
    if (id >= sent || answered[id] != 0) {
      ++r.errors;
      return;
    }
    answered[id] = 1;
    ++finished;
    last_received = std::max(last_received, received);
    if (f.type == net::FrameType::kSolveResponse) {
      double solve_seconds = 0.0;
      if (!net::parse_solve_response(f.payload, got, solve_seconds)) {
        ++r.errors;
      } else if (!output_ok(in.pb, in.refs[id % n_mat], got)) {
        ++r.mismatched;
      } else {
        const double ms = lateness_ms(due(id), received);
        ++r.correct;
        r.resp_ms.push_back(ms);
        if (ms <= slo_ms) ++r.within_slo;
        if (tracer != nullptr) {
          tracer->add("client.request", due(id), received, -1, static_cast<std::int64_t>(id));
        }
      }
    } else if (net::ShedReason why;
               f.type == net::FrameType::kShed && net::parse_shed(f.payload, why)) {
      if (why == net::ShedReason::kAdmission) ++r.shed_admission;
      if (why == net::ShedReason::kQueueFull) ++r.shed_queue_full;
      if (why == net::ShedReason::kStopping) ++r.errors;  // the server stopped mid-run
    } else {
      ++r.errors;
    }
  };

  for (;;) {
    for (; sent < n_req && due(sent) <= Clock::now(); ++sent) {
      Conn& c = conns[sent % kConnections];
      net::encode_solve_request(c.out, static_cast<std::uint32_t>(sent),
                                in.trace.matrices[sent % n_mat]);
      c.frames.push_back({c.out.size(), due(sent)});
    }
    pollfd fds[kConnections];
    for (int i = 0; i < kConnections; ++i) {
      Conn& c = conns[static_cast<std::size_t>(i)];
      if (c.alive && !flush(c, r.late_ms)) c.alive = false;
      fds[i] = pollfd{c.alive ? c.sock->fd() : -1,
                      static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0};
    }
    const auto now = Clock::now();
    if ((sent == n_req && finished == n_req) || now >= give_up) break;
    const timespec wait = timespec_until(now, sent < n_req ? due(sent) : give_up);
    if (::ppoll(fds, kConnections, &wait, nullptr) <= 0) continue;
    for (int i = 0; i < kConnections; ++i) {
      Conn& c = conns[static_cast<std::size_t>(i)];
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (;;) {
        const int k = util::read_some(*c.sock, rbuf.data(), rbuf.size());
        if (k > 0) {
          c.decoder.feed(rbuf.data(), static_cast<std::size_t>(k));
          continue;
        }
        if (k == 0) c.alive = false;
        break;
      }
      const auto received = Clock::now();
      net::DecodeStatus st;
      while ((st = c.decoder.next(frame)) == net::DecodeStatus::kFrame) handle(frame, received);
      if (st == net::DecodeStatus::kMalformed) c.alive = false;
    }
  }
  r.allocations = allocs.count();
  r.offered = sent;
  r.dropped = sent - finished;
  r.window_s = seconds_between(start, std::max(due(n_req), last_received));
  stack.finish(r);
  return r;
}

void served_layer_metrics(const ServedResult& r, Metrics& out) {
  const double offered = std::max<double>(1.0, static_cast<double>(r.offered));
  const double solve_p50 = percentile(r.solve_ms, 50);
  const double busy_ms = mean(r.solve_ms) * static_cast<double>(r.solve_ms.size());
  out.push_back({"serve.solve_p50_ms", solve_p50, "ms", r.solve_ms.size()});
  out.push_back({"serve.queue_wait_p50_ms", r.queue_wait_p50_ms, "ms", r.solve_ms.size()});
  out.push_back({"serve.queue_wait_p99_ms", r.queue_wait_p99_ms, "ms", r.solve_ms.size()});
  out.push_back({"serve.replica_busy_share",
                 busy_ms / 1e3 / (static_cast<double>(kReplicas) * r.window_s), "ratio", 0});
  out.push_back({"serve.shed_admission_pct",
                 100.0 * static_cast<double>(r.shed_admission) / offered, "%", r.offered});
  out.push_back({"serve.shed_queue_full_pct",
                 100.0 * static_cast<double>(r.shed_queue_full) / offered, "%", r.offered});
  out.push_back({"net.overhead_p50_ms", percentile(r.resp_ms, 50) - solve_p50 - r.queue_wait_p50_ms,
                 "ms", r.resp_ms.size()});
  out.push_back({"net.allocs_per_request", static_cast<double>(r.allocations) / offered, "count",
                 r.offered});
  out.push_back(
      {"net.dropped_responses", static_cast<double>(r.net_dropped_responses), "count", 0});
  out.push_back({"net.protocol_errors", static_cast<double>(r.net_protocol_errors), "count", 0});
  out.push_back({"gen.late_p99_ms", percentile(r.late_ms, 99), "ms", r.late_ms.size()});
}

void probe_frames(const Inputs& in, Tracer& tracer, Metrics& out) {
  constexpr int kReps = 201;
  std::vector<std::uint8_t> request;
  net::encode_solve_request(request, 1, in.trace.matrices[0]);
  const std::vector<std::uint8_t> payload(request.begin() + net::kHeaderSize, request.end());
  te::TrafficMatrix tm;
  std::string tenant;
  std::vector<std::uint8_t> response;
  bool parsed = true;
  for (int i = 0; i < kReps; ++i) {
    {
      const Scope s(&tracer, "net.parse_request", -1, i);
      parsed = net::parse_solve_request(payload, tm, tenant) && parsed;
    }
    response.clear();
    const Scope s(&tracer, "net.encode_response", -1, i);
    net::encode_solve_response(response, 1, in.refs[0], 0.0);
  }
  if (!parsed || tm.volume != in.trace.matrices[0].volume) {
    throw std::runtime_error("net::parse_solve_request did not return the encoded matrix");
  }
  net::Frame frame;
  net::FrameDecoder decoder;
  te::Allocation decoded;
  double solve_seconds = 0.0;
  decoder.feed(response.data(), response.size());
  if (decoder.next(frame) != net::DecodeStatus::kFrame ||
      !net::parse_solve_response(frame.payload, decoded, solve_seconds) ||
      !output_ok(in.pb, in.refs[0], decoded)) {
    throw std::runtime_error("net::encode_solve_response did not carry the allocation");
  }
  const auto parse = tracer.durations_ms("net.parse_request");
  const auto encode = tracer.durations_ms("net.encode_response");
  out.push_back({"net.parse_request_us", percentile(parse, 50) * 1e3, "us", parse.size()});
  out.push_back({"net.encode_response_us", percentile(encode, 50) * 1e3, "us", encode.size()});
}

}  // namespace teal_bench
