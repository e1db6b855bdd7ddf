// The wire boundary of the serving stack: a length-prefixed, versioned
// binary protocol over TCP. Every frame is
//
//   offset 0  u16  magic        0x4D4E ("NM" on the wire, little-endian)
//   offset 2  u8   version      kProtocolVersion (currently 2)
//   offset 3  u8   op           request Op, reply Op (request | kReplyBit),
//                               or kError
//   offset 4  u32  request_id   echoed verbatim in the reply
//   offset 8  u32  payload_len  bytes following the 12-byte header
//   offset 12      payload
//
// All integers are little-endian; floats travel as their raw IEEE-754
// bits (std::bit_cast), which is what lets a score fetched over the
// wire stay byte-identical to the offline batch path. The Codec is a
// pure function of bytes — no sockets — so the decoder can be fuzzed
// with truncated/garbage input in unit tests: it either asks for more
// bytes, yields a frame, or yields a typed WireError; it never throws
// and never reads past the buffer.
//
// v2 keeps the v1 frame layout and ops byte-for-byte and adds the
// cluster ops (0x10-0x15). A v1 peer talking to a v2 endpoint gets a
// typed kVersionMismatch rejection encoded with *its* version byte
// (Decoded::peer_version + the encode version parameter) so it can
// decode the error instead of seeing a poisoned stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serve/line_state_store.hpp"
#include "serve/serve_score.hpp"
#include "util/calendar.hpp"

namespace nevermind::net {

inline constexpr std::uint16_t kMagic = 0x4D4E;  // 'N','M' on the wire
inline constexpr std::uint8_t kProtocolVersion = 2;
inline constexpr std::size_t kHeaderSize = 12;
inline constexpr std::size_t kDefaultMaxPayload = 1U << 20;

/// Request opcodes. A reply carries the request's op with kReplyBit set;
/// typed failures use kError regardless of the request op.
enum class Op : std::uint8_t {
  kPing = 0x01,
  kScore = 0x02,
  kTopN = 0x03,
  kIngestMeasurement = 0x04,
  kIngestTicket = 0x05,
  kModelInfo = 0x06,
  // v2 cluster ops (src/cluster/). kReplyBit (0x40) must stay clear.
  kModelPush = 0x10,   // kernel artefact -> every replica, RCU hot-swap
  kShardMap = 0x11,    // versioned line->shard->node map, epoch-ordered
  kHeartbeat = 0x12,   // periodic peer announcement, echoed back
  kHealth = 0x13,      // node + membership snapshot for operators
  kHandoff = 0x14,     // paginated exact line-state transfer on rejoin
  kTopNShards = 0x15,  // kTopN restricted to a set of cluster shards
  kError = 0x7F,
};
inline constexpr std::uint8_t kReplyBit = 0x40;

[[nodiscard]] constexpr Op reply_op(Op request) noexcept {
  return static_cast<Op>(static_cast<std::uint8_t>(request) | kReplyBit);
}
[[nodiscard]] constexpr bool is_reply(Op op) noexcept {
  return (static_cast<std::uint8_t>(op) & kReplyBit) != 0 || op == Op::kError;
}
/// True for the cluster extension ops a plain scoring server only
/// serves when a ClusterNode installed its op handler.
[[nodiscard]] constexpr bool is_cluster_request(Op op) noexcept {
  switch (op) {
    case Op::kModelPush:
    case Op::kShardMap:
    case Op::kHeartbeat:
    case Op::kHealth:
    case Op::kHandoff:
    case Op::kTopNShards:
      return true;
    default:
      return false;
  }
}
/// True for ops any server — clustered or not — knows how to serve.
[[nodiscard]] constexpr bool is_known_request(Op op) noexcept {
  switch (op) {
    case Op::kPing:
    case Op::kScore:
    case Op::kTopN:
    case Op::kIngestMeasurement:
    case Op::kIngestTicket:
    case Op::kModelInfo:
      return true;
    default:
      return is_cluster_request(op);
  }
}

/// Typed protocol failures. Framing errors (the first three) poison the
/// byte stream — the server replies and closes; request-scoped errors
/// (unknown op, bad payload) answer one request and keep the
/// connection.
enum class WireError : std::uint8_t {
  kMalformedFrame = 1,   // bad magic / garbage where a header should be
  kVersionMismatch = 2,  // peer speaks a different protocol version
  kOversizedPayload = 3, // length prefix beyond the configured maximum
  kUnknownOp = 4,        // framing fine, op not in the server's table
  kBadPayload = 5,       // op known, payload failed its typed decode or
                         // the reply would exceed the payload limit
};
[[nodiscard]] const char* wire_error_name(WireError code) noexcept;

/// One decoded frame. `payload` is a copy — safe to keep after the
/// receive buffer is compacted.
struct Frame {
  Op op = Op::kPing;
  std::uint32_t request_id = 0;
  std::vector<std::uint8_t> payload;
};

class Codec {
 public:
  explicit Codec(std::size_t max_payload = kDefaultMaxPayload) noexcept
      : max_payload_(max_payload) {}

  [[nodiscard]] std::size_t max_payload() const noexcept {
    return max_payload_;
  }

  /// Append one framed message to `out`. `version` is the version byte
  /// stamped on the frame; the non-default use is replying to a
  /// version-mismatched peer in *its* dialect (frame layout is shared
  /// across versions) so the rejection is decodable on its side.
  void encode_into(Op op, std::uint32_t request_id,
                   std::span<const std::uint8_t> payload,
                   std::vector<std::uint8_t>& out,
                   std::uint8_t version = kProtocolVersion) const;
  [[nodiscard]] std::vector<std::uint8_t> encode(
      Op op, std::uint32_t request_id, std::span<const std::uint8_t> payload,
      std::uint8_t version = kProtocolVersion) const;

  enum class DecodeStatus : std::uint8_t {
    kNeedMore,  // buffer holds a prefix of a valid frame; read more
    kFrame,     // one frame decoded; `consumed` bytes may be discarded
    kError,     // stream is poisoned; reply with `error` and close
  };
  struct Decoded {
    DecodeStatus status = DecodeStatus::kNeedMore;
    Frame frame;                              // when kFrame
    WireError error = WireError::kMalformedFrame;  // when kError
    std::size_t consumed = 0;                 // when kFrame
    /// Version byte the peer sent (valid once >= 3 bytes arrived) —
    /// lets a kVersionMismatch reply be encoded in the peer's dialect.
    std::uint8_t peer_version = kProtocolVersion;
  };
  /// Decode the first frame of `buffer`. Never throws, never reads past
  /// the span.
  [[nodiscard]] Decoded decode(std::span<const std::uint8_t> buffer) const;

 private:
  std::size_t max_payload_;
};

// ---- little-endian payload (de)serialization ---------------------------

class PayloadWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f32(float v);
  void f64(double v);
  void bytes(std::span<const std::uint8_t> v);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader: every getter returns 0 once the buffer
/// underflows and latches ok() false — callers decode the whole payload
/// unconditionally and test done() once at the end.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const std::uint8_t> buf) noexcept
      : buf_(buf) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int32_t i32() {
    return static_cast<std::int32_t>(u32());
  }
  [[nodiscard]] float f32();
  [[nodiscard]] double f64();

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  /// ok and every byte consumed — the payload was exactly one message.
  [[nodiscard]] bool done() const noexcept {
    return ok_ && pos_ == buf_.size();
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return buf_.size() - pos_;
  }

 private:
  [[nodiscard]] bool take(std::size_t n) noexcept;

  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- typed payloads ----------------------------------------------------

/// MODEL_INFO reply: registry + store counters.
struct ModelInfoReply {
  std::uint64_t model_version = 0;
  std::uint64_t swap_count = 0;
  std::uint64_t n_lines = 0;
  std::uint64_t measurements = 0;
  std::uint64_t tickets = 0;
};

/// Bytes write_score emits per score record.
inline constexpr std::size_t kScoreBytes = 34;

void write_score(PayloadWriter& w, const serve::ServeScore& s);
[[nodiscard]] bool read_score(PayloadReader& r, serve::ServeScore& s);

void write_measurement(PayloadWriter& w, const serve::LineMeasurement& m);
[[nodiscard]] bool read_measurement(PayloadReader& r,
                                    serve::LineMeasurement& m);

void write_model_info(PayloadWriter& w, const ModelInfoReply& info);
[[nodiscard]] bool read_model_info(PayloadReader& r, ModelInfoReply& info);

/// Error reply payload: u8 code + u16 message length + message bytes.
[[nodiscard]] std::vector<std::uint8_t> encode_error_payload(
    WireError code, std::string_view message);
[[nodiscard]] bool decode_error_payload(std::span<const std::uint8_t> payload,
                                        WireError& code, std::string& message);

}  // namespace nevermind::net
