// End-to-end tests for the network serving layer over loopback TCP: an
// allocation served through net::Server must be byte-equal to a direct
// solve_into() on every bundled topology (the wire carries f64 bit patterns,
// so TCP is not allowed to perturb a single bit); overload must come back as
// an explicit shed frame with the serve-side ledger still balanced; an
// abrupt client disconnect mid-request must leak no replica and leave the
// server serving; and a protocol violation must poison only its own
// connection. Every fixture binds an ephemeral port (tests/net_test_util.h),
// so this binary is parallel-safe under `ctest -j` and runs in the TSan and
// ASan CI legs.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "core/teal_scheme.h"
#include "net_test_util.h"
#include "net/slap.h"
#include "serve/replica.h"

namespace teal {
namespace {

using test::eventually;
using test::net_setup;
using test::NetFixture;

core::TealScheme make_teal(const te::Problem& pb) {
  return core::TealScheme(pb,
                          std::make_unique<core::TealModel>(core::TealModelConfig{},
                                                            pb.k_paths()),
                          core::TealSchemeConfig{});
}

void expect_bit_identical(const te::Allocation& a, const te::Allocation& b,
                          const std::string& what) {
  ASSERT_EQ(a.split.size(), b.split.size()) << what;
  if (!a.split.empty()) {
    EXPECT_EQ(std::memcmp(a.split.data(), b.split.data(),
                          a.split.size() * sizeof(double)),
              0)
        << what;
  }
}

// A replica that takes a fixed wall-clock time per solve (same shape as
// serve_test's) so overload and in-flight-disconnect timing are
// controllable independent of any real scheme.
class SlowReplica final : public serve::Replica {
 public:
  explicit SlowReplica(double seconds) : seconds_(seconds) {}
  void solve(const te::Problem& pb, const te::TrafficMatrix& tm, te::Allocation& out,
             double* seconds) override {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds_));
    out.split.assign(static_cast<std::size_t>(pb.total_paths()),
                     tm.volume.empty() ? 0.0 : tm.volume[0]);
    if (seconds != nullptr) *seconds = seconds_;
  }

 private:
  double seconds_;
};

TEST(NetServe, LoopbackSolveIsByteEqualToDirectSolveIntoOnAllTopologies) {
  for (const std::string& name : {"B4", "SWAN", "UsCarrier", "Kdl", "ASN"}) {
    auto s = net_setup(name);
    auto scheme = make_teal(s.pb);
    NetFixture fx(s.pb, serve::make_replicas(scheme, 2));
    auto client = fx.connect();
    for (int t = 0; t < s.trace.size(); ++t) {
      auto reply = client.solve(s.trace.at(t));
      ASSERT_EQ(reply.kind, net::Client::Reply::Kind::kResponse)
          << name << " interval " << t;
      EXPECT_GE(reply.solve_seconds, 0.0);
      te::Allocation direct;
      scheme.solve_into(s.pb, s.trace.at(t), direct);
      expect_bit_identical(direct, reply.alloc,
                           name + " interval " + std::to_string(t));
    }
  }
}

TEST(NetServe, PingPongOnAStandingConnection) {
  auto s = net_setup("B4", 60, 1);
  auto scheme = make_teal(s.pb);
  NetFixture fx(s.pb, serve::make_replicas(scheme, 1));
  auto client = fx.connect();
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(client.ping());
  // The connection still serves solves after pings.
  EXPECT_EQ(client.solve(s.trace.at(0)).kind, net::Client::Reply::Kind::kResponse);
  auto stats = fx.server.stats();
  EXPECT_EQ(stats.sessions.pings, 3u);
}

TEST(NetServe, OverloadShedsWithExplicitShedFrame) {
  auto s = net_setup("B4", 60, 1);
  std::vector<serve::ReplicaPtr> replicas;
  replicas.push_back(std::make_unique<SlowReplica>(0.02));
  serve::ServeConfig scfg;
  scfg.queue_capacity = 64;
  // Depth bound 1: a request is admitted only while the queue is empty, so a
  // back-to-back burst must shed most of itself.
  scfg.deadline_seconds = 1.0;
  scfg.expected_solve_seconds = 1.0;
  NetFixture fx(s.pb, std::move(replicas), scfg);

  auto client = fx.connect();
  const int n = 12;
  for (int i = 0; i < n; ++i) client.send_solve(s.trace.at(0));
  int responses = 0, shed = 0;
  for (int i = 0; i < n; ++i) {
    auto reply = client.wait_reply();
    if (reply.kind == net::Client::Reply::Kind::kResponse) {
      ++responses;
    } else {
      ASSERT_EQ(reply.kind, net::Client::Reply::Kind::kShed);
      EXPECT_EQ(reply.shed_reason, net::ShedReason::kAdmission);
      ++shed;
    }
  }
  EXPECT_GE(responses, 1) << "an idle server must admit the first request";
  EXPECT_GT(shed, 0) << "a burst against depth bound 1 must shed";
  EXPECT_EQ(responses + shed, n) << "every request gets exactly one reply";

  // The serving ledger balances through the socket path too.
  fx.server.stop();
  auto stats = fx.backend.stop();
  EXPECT_EQ(stats.offered, static_cast<std::uint64_t>(n));
  EXPECT_EQ(stats.accepted + stats.shed, stats.offered);
  EXPECT_EQ(stats.completed, stats.accepted);
  auto net_stats = fx.server.stats();
  EXPECT_EQ(net_stats.sessions.requests, static_cast<std::uint64_t>(responses));
  EXPECT_EQ(net_stats.sessions.shed, static_cast<std::uint64_t>(shed));
}

TEST(NetServe, AbruptDisconnectMidRequestLeaksNoReplicaAndServerKeepsServing) {
  auto s = net_setup("B4", 60, 1);
  std::vector<serve::ReplicaPtr> replicas;
  replicas.push_back(std::make_unique<SlowReplica>(0.1));
  NetFixture fx(s.pb, std::move(replicas));

  {
    auto doomed = fx.connect();
    doomed.send_solve(s.trace.at(0));
    doomed.close();  // walk away while the replica is (about to be) solving
  }
  // The request completes inside the backend — into buffers the pending slot
  // owns, not the dead session — and is counted as a dropped response. Polled,
  // not drained: drain() can return before the I/O thread has even submitted
  // the request, so the drop count is the only honest signal of completion.
  ASSERT_TRUE(eventually([&] { return fx.server.stats().dropped_responses == 1; }));

  // The replica survived: a fresh client gets served on the same server.
  auto client = fx.connect();
  auto reply = client.solve(s.trace.at(0));
  ASSERT_EQ(reply.kind, net::Client::Reply::Kind::kResponse);
  EXPECT_EQ(reply.alloc.split.size(), static_cast<std::size_t>(s.pb.total_paths()));

  auto stats = fx.backend.stop();
  EXPECT_EQ(stats.offered, 2u);
  EXPECT_EQ(stats.completed, 2u) << "the disconnected request must still complete";
}

TEST(NetServe, MalformedStreamGetsErrorFrameAndOnlyThatConnectionDies) {
  auto s = net_setup("B4", 60, 1);
  auto scheme = make_teal(s.pb);
  NetFixture fx(s.pb, serve::make_replicas(scheme, 1));

  auto vandal = util::connect_tcp("127.0.0.1", fx.server.port());
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(util::write_all(vandal, garbage, sizeof(garbage) - 1));
  // The server answers with an error frame naming the violation, then closes.
  net::FrameDecoder decoder;
  net::Frame f;
  std::uint8_t buf[4096];
  bool got_error = false, closed = false;
  while (!closed) {
    const int n = util::read_some(vandal, buf, sizeof(buf));
    if (n == 0) {
      closed = true;
    } else if (n > 0) {
      decoder.feed(buf, static_cast<std::size_t>(n));
      if (decoder.next(f) == net::DecodeStatus::kFrame) {
        EXPECT_EQ(f.type, net::FrameType::kError);
        net::ErrorCode code{};
        std::string message;
        ASSERT_TRUE(net::parse_error(f.payload, code, message));
        EXPECT_EQ(code, net::ErrorCode::kMalformed);
        got_error = true;
      }
    }
  }
  EXPECT_TRUE(got_error);

  // Other connections are unaffected.
  auto client = fx.connect();
  EXPECT_EQ(client.solve(s.trace.at(0)).kind, net::Client::Reply::Kind::kResponse);
  auto stats = fx.server.stats();
  EXPECT_GE(stats.sessions.protocol_errors, 1u);
}

TEST(NetServe, WrongDemandCountGetsTypedErrorAndConnectionSurvives) {
  auto s = net_setup("B4", 60, 1);
  auto scheme = make_teal(s.pb);
  NetFixture fx(s.pb, serve::make_replicas(scheme, 1));
  auto client = fx.connect();

  te::TrafficMatrix wrong;
  wrong.volume.assign(static_cast<std::size_t>(s.pb.num_demands()) + 3, 1.0);
  auto reply = client.solve(wrong);
  ASSERT_EQ(reply.kind, net::Client::Reply::Kind::kError);
  EXPECT_EQ(reply.error_code, net::ErrorCode::kBadDemandCount);
  EXPECT_NE(reply.error_message.find("demands"), std::string::npos);

  // Same connection, correct request: still served.
  EXPECT_EQ(client.solve(s.trace.at(0)).kind, net::Client::Reply::Kind::kResponse);
  auto stats = fx.server.stats();
  EXPECT_EQ(stats.sessions.bad_requests, 1u);
}

TEST(NetServe, UnsolvableVolumeGetsTypedErrorAndConnectionSurvives) {
  // A NaN volume would turn every split NaN, and a solve-time throw would
  // read as replica death; the server refuses each such request up front.
  auto s = net_setup("B4", 60, 1);
  auto scheme = make_teal(s.pb);
  NetFixture fx(s.pb, serve::make_replicas(scheme, 1));
  auto client = fx.connect();
  te::Allocation direct;
  scheme.solve_into(s.pb, s.trace.at(0), direct);

  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(), -1.0};
  for (double bad : bad_values) {
    SCOPED_TRACE("volume " + std::to_string(bad));
    te::TrafficMatrix poisoned = s.trace.at(0);
    poisoned.volume[poisoned.volume.size() / 2] = bad;
    auto reply = client.solve(poisoned);
    ASSERT_EQ(reply.kind, net::Client::Reply::Kind::kError);
    EXPECT_EQ(reply.error_code, net::ErrorCode::kBadVolume);

    // Same connection, valid request: served, byte-correct.
    auto ok = client.solve(s.trace.at(0));
    ASSERT_EQ(ok.kind, net::Client::Reply::Kind::kResponse);
    expect_bit_identical(direct, ok.alloc, "after a refused volume");
  }
  auto stats = fx.server.stats();
  EXPECT_EQ(stats.sessions.bad_requests, 3u);
}

// Regression: a malformed solve-request *payload* (well-framed, inconsistent
// contents) must end the conversation like any other protocol violation —
// frames already buffered behind it stay unanswered. The decoder is not
// poisoned on this path, so the session itself has to stop decoding.
TEST(NetServe, NoFramesAreAnsweredAfterAMalformedSolvePayload) {
  auto s = net_setup("B4", 60, 1);
  auto scheme = make_teal(s.pb);
  NetFixture fx(s.pb, serve::make_replicas(scheme, 1));

  auto sock = util::connect_tcp("127.0.0.1", fx.server.port());
  // Hand-built frame: valid header declaring a 4-byte solve-request payload
  // whose contents claim a 5-byte tenant name but carry nothing after the
  // length — parse_solve_request must reject it. A valid ping rides in the
  // same write right behind it.
  std::vector<std::uint8_t> bytes;
  auto put_u32 = [&bytes](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  bytes.push_back(static_cast<std::uint8_t>(net::kWireMagic));
  bytes.push_back(static_cast<std::uint8_t>(net::kWireMagic >> 8));
  bytes.push_back(net::kWireVersion);
  bytes.push_back(static_cast<std::uint8_t>(net::FrameType::kSolveRequest));
  put_u32(9);  // request id
  put_u32(4);  // payload length
  put_u32(5);  // "5 demands follow" — they do not
  net::encode_ping(bytes, 10);
  ASSERT_TRUE(util::write_all(sock, bytes.data(), bytes.size()));

  // Exactly one error frame comes back, then EOF — never a pong.
  net::FrameDecoder decoder;
  net::Frame f;
  std::uint8_t buf[4096];
  int frames = 0;
  bool closed = false;
  while (!closed) {
    const int n = util::read_some(sock, buf, sizeof(buf));
    if (n == 0) {
      closed = true;
    } else if (n > 0) {
      decoder.feed(buf, static_cast<std::size_t>(n));
      while (decoder.next(f) == net::DecodeStatus::kFrame) {
        ++frames;
        EXPECT_EQ(f.type, net::FrameType::kError);
        EXPECT_EQ(f.request_id, 9u);
        net::ErrorCode code{};
        std::string message;
        ASSERT_TRUE(net::parse_error(f.payload, code, message));
        EXPECT_EQ(code, net::ErrorCode::kMalformed);
      }
    }
  }
  EXPECT_EQ(frames, 1) << "the ping behind the violation must stay unanswered";
  auto stats = fx.server.stats();
  EXPECT_EQ(stats.sessions.pings, 0u);
}

// Regression: the slow-reader cap used to only arm close-after-flush, but a
// peer that is not reading never drains the outbox, so the advertised
// disconnect never happened and the session kept answering — per-connection
// memory grew without bound. The overflow must hard-close: done() without
// waiting for a drain, and no frame handled after the cap trips.
TEST(NetServe, OutboxOverflowHardClosesWithoutWaitingForDrain) {
  auto s = net_setup("B4", 60, 1);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  util::Socket server_end(fds[0]);
  util::Socket peer(fds[1]);
  // Tiny cap, and no flush() calls below: the outbox can only grow, exactly
  // like a non-reading peer behind full kernel buffers.
  net::Session session(1, std::move(server_end), net::kDefaultMaxPayload,
                       /*max_outbox=*/64);
  int submits = 0;
  const net::Session::SubmitFn submit =
      [&](net::Session&, std::uint32_t, const std::string&, te::TrafficMatrix&&,
          net::ShedReason&, int&) {
        ++submits;
        return net::SubmitOutcome::kAccepted;
      };

  std::vector<std::uint8_t> bytes;
  for (std::uint32_t i = 0; i < 32; ++i) net::encode_ping(bytes, i);
  ASSERT_TRUE(util::write_all(peer, bytes.data(), bytes.size()));
  EXPECT_TRUE(session.on_readable(submit));

  EXPECT_TRUE(session.wants_write()) << "outbox must still hold undelivered pongs";
  EXPECT_TRUE(session.done()) << "overflow must finish the session undrained";
  const auto tripped = session.stats();
  EXPECT_LT(tripped.pings, 32u) << "the cap must stop frame handling mid-burst";

  // Whatever the peer sends now is discarded, not decoded or answered.
  bytes.clear();
  net::encode_ping(bytes, 99);
  ASSERT_TRUE(util::write_all(peer, bytes.data(), bytes.size()));
  EXPECT_TRUE(session.on_readable(submit));
  EXPECT_EQ(session.stats().pings, tripped.pings);
  EXPECT_EQ(submits, 0);
}

// Same protection end-to-end: a client that floods pings and never reads its
// pongs gets disconnected by the server instead of growing its outbox.
TEST(NetServe, ServerDisconnectsAClientThatNeverReads) {
  auto s = net_setup("B4", 60, 1);
  auto scheme = make_teal(s.pb);
  net::NetServerConfig ncfg;
  ncfg.max_outbox_bytes = 1024;
  NetFixture fx(s.pb, serve::make_replicas(scheme, 1), {}, ncfg);

  auto sock = util::connect_tcp("127.0.0.1", fx.server.port());
  std::vector<std::uint8_t> bytes;
  for (std::uint32_t i = 0; i < 10000; ++i) net::encode_ping(bytes, i);
  // The server may hard-close mid-write (that is the point), so the send is
  // allowed to fail partway — only the disconnect below is asserted.
  (void)util::write_all(sock, bytes.data(), bytes.size());
  EXPECT_TRUE(eventually([&] { return fx.server.stats().connections_closed == 1; }))
      << "a never-reading client must be hard-closed, not buffered forever";

  // The server survives it and keeps serving well-behaved clients.
  auto client = fx.connect();
  EXPECT_EQ(client.solve(s.trace.at(0)).kind, net::Client::Reply::Kind::kResponse);
}

// Regression: when the backend stops independently of the net server, the
// shed frame must name kStopping — not an admission/queue-full guess made
// from the server's configuration.
TEST(NetServe, BackendStoppedIndependentlyShedsWithStoppingReason) {
  auto s = net_setup("B4", 60, 1);
  auto scheme = make_teal(s.pb);
  NetFixture fx(s.pb, serve::make_replicas(scheme, 1));
  auto client = fx.connect();
  EXPECT_EQ(client.solve(s.trace.at(0)).kind, net::Client::Reply::Kind::kResponse);

  fx.backend.stop();  // net server still up; its queue refusals now say why
  auto reply = client.solve(s.trace.at(0));
  ASSERT_EQ(reply.kind, net::Client::Reply::Kind::kShed);
  EXPECT_EQ(reply.shed_reason, net::ShedReason::kStopping);
}

TEST(NetServe, ClientSendingServerOnlyFramesGetsUnsupportedType) {
  auto s = net_setup("B4", 60, 1);
  auto scheme = make_teal(s.pb);
  NetFixture fx(s.pb, serve::make_replicas(scheme, 1));

  auto sock = util::connect_tcp("127.0.0.1", fx.server.port());
  std::vector<std::uint8_t> bytes;
  net::encode_pong(bytes, 77);  // clients have no business ponging first
  ASSERT_TRUE(util::write_all(sock, bytes.data(), bytes.size()));
  net::FrameDecoder decoder;
  net::Frame f;
  std::uint8_t buf[4096];
  for (;;) {
    const int n = util::read_some(sock, buf, sizeof(buf));
    ASSERT_GT(n, 0) << "connection must stay open for unsupported-type errors";
    decoder.feed(buf, static_cast<std::size_t>(n));
    if (decoder.next(f) == net::DecodeStatus::kFrame) break;
  }
  EXPECT_EQ(f.type, net::FrameType::kError);
  net::ErrorCode code{};
  std::string message;
  ASSERT_TRUE(net::parse_error(f.payload, code, message));
  EXPECT_EQ(code, net::ErrorCode::kUnsupportedType);
  EXPECT_EQ(f.request_id, 77u);
}

TEST(NetServe, AccountingBalancesAcrossConnections) {
  auto s = net_setup("B4", 60, 2);
  auto scheme = make_teal(s.pb);
  NetFixture fx(s.pb, serve::make_replicas(scheme, 2));
  {
    auto a = fx.connect();
    auto b = fx.connect();
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(a.solve(s.trace.at(0)).kind, net::Client::Reply::Kind::kResponse);
      EXPECT_EQ(b.solve(s.trace.at(1)).kind, net::Client::Reply::Kind::kResponse);
    }
    EXPECT_TRUE(a.ping());
    auto stats = fx.server.stats();
    EXPECT_EQ(stats.connections_accepted, 2u);
    EXPECT_EQ(stats.sessions.requests, 6u);
    EXPECT_EQ(stats.sessions.responses, 6u);
    EXPECT_EQ(stats.sessions.pings, 1u);
    EXPECT_EQ(stats.sessions.frames_in, 7u);
    EXPECT_EQ(stats.sessions.frames_out, 7u);
  }
  // Both clients hung up; the server notices and retires the sessions with
  // their accounting folded into the totals.
  EXPECT_TRUE(eventually([&] { return fx.server.stats().connections_closed == 2; }));
  auto stats = fx.server.stats();
  EXPECT_EQ(stats.sessions.requests, 6u);
  EXPECT_EQ(stats.sessions.responses, 6u);
}

TEST(NetServe, StopIsIdempotentAndRefusesLateClients) {
  auto s = net_setup("B4", 60, 1);
  auto scheme = make_teal(s.pb);
  NetFixture fx(s.pb, serve::make_replicas(scheme, 1));
  auto client = fx.connect();
  EXPECT_EQ(client.solve(s.trace.at(0)).kind, net::Client::Reply::Kind::kResponse);
  fx.server.stop();
  fx.server.stop();  // idempotent
  EXPECT_THROW(
      {
        auto late = fx.connect();
        late.solve(s.trace.at(0));
      },
      std::exception);  // refused connect or immediate close — either is fine
}

TEST(NetServe, SlapOpenLoopLedgerBalances) {
  auto s = net_setup("B4", 60, 2);
  auto scheme = make_teal(s.pb);
  NetFixture fx(s.pb, serve::make_replicas(scheme, 2));

  net::SlapConfig cfg;
  cfg.port = fx.server.port();
  cfg.connections = 2;
  cfg.target_rps = 200.0;
  cfg.duration_seconds = 0.5;
  std::vector<te::TrafficMatrix> requests = {s.trace.at(0), s.trace.at(1)};
  auto stats = net::run_slap(cfg, requests);
  EXPECT_GT(stats.offered, 0u);
  EXPECT_EQ(stats.offered, stats.responses + stats.shed + stats.errors + stats.dropped);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.latency.count(), stats.responses);
  EXPECT_GT(stats.latency.percentile(50.0), 0.0);
}

}  // namespace
}  // namespace teal
