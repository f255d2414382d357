// wire.h — the length-prefixed binary protocol of the network serving layer.
//
// Encode/decode is fully separated from I/O: encoders append bytes to a
// caller-owned buffer, the FrameDecoder consumes bytes fed to it from *any*
// transport, and neither ever touches a socket — so the whole protocol is
// unit-testable byte-for-byte (tests/net_proto_test.cpp) and the server and
// client share one implementation.
//
// Frame layout (all integers little-endian on the wire, explicitly packed —
// never a struct memcpy, so the format is independent of host ABI):
//
//   offset  size  field
//   0       2     magic 0x4C54 ("TL")
//   2       1     version (kWireVersion)
//   3       1     frame type (FrameType)
//   4       4     request id (client-chosen, echoed in every reply)
//   8       4     payload length in bytes
//   12      n     payload
//
// Payloads (wire version 2):
//   kPing / kPong          empty
//   kSolveRequest          u32 tenant length, tenant bytes (UTF-8; empty =
//                          the server's default tenant), u32 n_demands, then
//                          n_demands f64 volumes
//   kSolveResponse         f64 solve_seconds, u32 n_splits, then n_splits f64
//   kShed                  u32 ShedReason
//   kError                 u32 ErrorCode, u32 text length, then text bytes
//
// Version history: v1 (PR 7) had no tenant field in kSolveRequest. The
// version byte sits in the header, so a v1 peer talking to a v2 peer (either
// direction) is rejected from the first header with "unsupported version" —
// backward-compat by explicit refusal, never by silently misparsing the
// tenant length as a demand count.
//
// f64 values travel as the IEEE-754 bit pattern (bit_cast through u64), so a
// served allocation is byte-identical to the solver's output — the loopback
// equality contract in tests/net_serve_test.cpp depends on this.
//
// The decoder validates the header *before* waiting for the payload: bad
// magic/version/type and an oversized declared length are rejected from the
// 12 header bytes alone, and a malformed stream poisons the decoder (one
// protocol error ends the connection; there is no resynchronization in a
// length-prefixed stream).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "te/problem.h"

namespace teal::net {

inline constexpr std::uint16_t kWireMagic = 0x4C54;  // "TL"
inline constexpr std::uint8_t kWireVersion = 2;  // v2: tenant id in solve requests
inline constexpr std::size_t kHeaderSize = 12;
// Default payload bound: an ASN-scale allocation is ~1 MB; 16 MiB leaves an
// order of magnitude of headroom while still rejecting a garbage length
// field (which would otherwise make the decoder buffer gigabytes).
inline constexpr std::size_t kDefaultMaxPayload = std::size_t{1} << 24;

enum class FrameType : std::uint8_t {
  kPing = 1,
  kPong = 2,
  kSolveRequest = 3,
  kSolveResponse = 4,
  kShed = 5,
  kError = 6,
};

// Why a request was refused. Mirrors the serving layer's two shed points
// plus shutdown: the admission bound and the queue bound both surface here
// as an explicit frame instead of a silently missing response.
enum class ShedReason : std::uint32_t {
  kAdmission = 1,  // deadline admission control refused it
  kQueueFull = 2,  // bounded MPMC queue was full
  kStopping = 3,   // server is shutting down
};

enum class ErrorCode : std::uint32_t {
  kMalformed = 1,       // frame failed to decode; connection is closing
  kBadDemandCount = 2,  // well-formed request, wrong demand count for the
                        // served problem; connection stays usable
  kUnsupportedType = 3, // valid header, but a type this peer never handles
  kUnknownTenant = 4,   // no such tenant in the fleet; connection stays usable
  kInternal = 5,        // server-side failure (e.g. every replica died before
                        // the request could be solved); connection stays usable
  kBadVolume = 6,       // well-formed request, but a demand volume is NaN,
                        // infinite or negative; connection stays usable
};

struct Frame {
  FrameType type = FrameType::kPing;
  std::uint32_t request_id = 0;
  std::vector<std::uint8_t> payload;
};

// --- encoders (append to `out`, never clear it) ------------------------------

void encode_ping(std::vector<std::uint8_t>& out, std::uint32_t request_id);
void encode_pong(std::vector<std::uint8_t>& out, std::uint32_t request_id);
// `tenant` selects the fleet tenant ("" = the server's default tenant).
void encode_solve_request(std::vector<std::uint8_t>& out, std::uint32_t request_id,
                          const te::TrafficMatrix& tm, const std::string& tenant = "");
void encode_solve_response(std::vector<std::uint8_t>& out, std::uint32_t request_id,
                           const te::Allocation& alloc, double solve_seconds);
void encode_shed(std::vector<std::uint8_t>& out, std::uint32_t request_id,
                 ShedReason reason);
void encode_error(std::vector<std::uint8_t>& out, std::uint32_t request_id,
                  ErrorCode code, const std::string& message);

// --- payload parsers ---------------------------------------------------------
// Each returns false unless the payload is exactly the advertised shape
// (declared counts consistent with the byte length — no trailing junk, no
// reading past the end). Outputs are only valid on true.

bool parse_solve_request(const std::vector<std::uint8_t>& payload, te::TrafficMatrix& tm,
                         std::string& tenant);
bool parse_solve_response(const std::vector<std::uint8_t>& payload, te::Allocation& alloc,
                          double& solve_seconds);
bool parse_shed(const std::vector<std::uint8_t>& payload, ShedReason& reason);
bool parse_error(const std::vector<std::uint8_t>& payload, ErrorCode& code,
                 std::string& message);

// --- incremental decoder -----------------------------------------------------

enum class DecodeStatus {
  kFrame,     // `out` holds one complete frame
  kNeedMore,  // not enough bytes buffered yet
  kMalformed, // protocol violation; decoder is poisoned, see error()
};

// Reassembles frames from an arbitrary byte stream: feed() whatever the
// transport produced (any split, including one byte at a time), then call
// next() until it stops returning kFrame. Malformed input is detected as
// early as the buffered bytes allow and is sticky.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  void feed(const void* data, std::size_t n);
  DecodeStatus next(Frame& out);

  bool poisoned() const { return poisoned_; }
  const std::string& error() const { return error_; }
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix, compacted in feed()
  std::size_t max_payload_;
  bool poisoned_ = false;
  std::string error_;
};

const char* frame_type_name(FrameType t);

}  // namespace teal::net
