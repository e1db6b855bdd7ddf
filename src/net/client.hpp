// Blocking client for the scoring-service wire protocol: one TCP
// connection, one in-flight request at a time, request ids checked
// against replies. Transport failures and typed server errors both
// land in last_error()/last_wire_error() instead of exceptions, so a
// load generator can keep per-op error counters cheaply.
//
// ClientOptions adds the two deadlines a failover router cannot live
// without: a connect timeout (non-blocking connect + poll) and a
// per-request reply timeout. A request timeout closes the connection —
// the stray reply would desynchronize the id-checked stream — so the
// caller reconnects, which is exactly the signal the cluster layer
// uses to mark a peer suspect. Backoff/connect_with_backoff give
// reconnect loops a bounded exponential schedule instead of a busy
// hammer.
//
// send_raw()/read_frame() bypass the typed layer — the protocol tests
// use them to feed the server garbage and observe the typed error
// replies.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "serve/line_state_store.hpp"
#include "serve/serve_score.hpp"
#include "util/calendar.hpp"

namespace nevermind::net {

struct ClientOptions {
  /// Deadline for connect(); zero keeps the historical blocking connect.
  std::chrono::milliseconds connect_timeout{0};
  /// Deadline for one request/reply roundtrip (covers send + reply
  /// wait); zero waits forever. Expiry fails the call and closes the
  /// connection.
  std::chrono::milliseconds request_timeout{0};
  /// Largest reply payload this client will accept.
  std::size_t max_payload = kDefaultMaxPayload;
};

/// Bounded exponential backoff: next() yields initial, initial*mult,
/// ... capped at max. Deterministic (no jitter) so tests and the
/// cluster bench can reason about reconnect schedules exactly.
class Backoff {
 public:
  Backoff(std::chrono::milliseconds initial, std::chrono::milliseconds max,
          double multiplier = 2.0) noexcept
      : initial_(initial), max_(max), multiplier_(multiplier), next_(initial) {}

  /// The delay to sleep before the upcoming attempt; advances the
  /// schedule.
  [[nodiscard]] std::chrono::milliseconds next() noexcept;
  /// Back to the initial delay (call after a success).
  void reset() noexcept {
    next_ = initial_;
    attempts_ = 0;
  }
  [[nodiscard]] std::uint32_t attempts() const noexcept { return attempts_; }
  /// The delay next() would return, without advancing.
  [[nodiscard]] std::chrono::milliseconds peek() const noexcept {
    return next_;
  }

 private:
  std::chrono::milliseconds initial_;
  std::chrono::milliseconds max_;
  double multiplier_;
  std::chrono::milliseconds next_;
  std::uint32_t attempts_ = 0;
};

class Client {
 public:
  Client() = default;
  explicit Client(ClientOptions options) noexcept
      : options_(options), codec_(options.max_payload) {}
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  [[nodiscard]] bool connect(const std::string& host, std::uint16_t port);
  /// Reconnect helper: up to `max_attempts` connects, sleeping
  /// `backoff.next()` between failures (not after the last). The
  /// backoff is caller-owned so its state spans calls — a peer that
  /// keeps refusing gets progressively rarer attempts.
  [[nodiscard]] bool connect_with_backoff(const std::string& host,
                                          std::uint16_t port,
                                          std::size_t max_attempts,
                                          Backoff& backoff);
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }
  void close();

  /// Liveness probe; true when the server echoed the ping.
  [[nodiscard]] bool ping();
  /// Score one line (valid/reason say whether it scored).
  [[nodiscard]] std::optional<serve::ServeScore> score(dslsim::LineId line);
  /// The server's current top-n ranking.
  [[nodiscard]] std::optional<std::vector<serve::ServeScore>> top_n(
      std::uint32_t n);
  [[nodiscard]] bool ingest(const serve::LineMeasurement& m);
  [[nodiscard]] bool ingest_ticket(dslsim::LineId line, util::Day day);
  [[nodiscard]] std::optional<ModelInfoReply> model_info();

  /// Generic typed roundtrip for extension ops (the cluster layer owns
  /// their payload formats). Returns the reply frame, or nullopt on
  /// transport failure / typed error reply (recorded as usual).
  [[nodiscard]] std::optional<Frame> request(
      Op op, std::span<const std::uint8_t> payload);

  /// Human-readable cause of the last failed call.
  [[nodiscard]] const std::string& last_error() const noexcept {
    return error_;
  }
  /// Set when the failure was a typed server error reply.
  [[nodiscard]] std::optional<WireError> last_wire_error() const noexcept {
    return wire_error_;
  }

  /// Raw escape hatches for protocol tests.
  [[nodiscard]] bool send_raw(std::span<const std::uint8_t> bytes);
  /// Next frame off the wire, or nullopt on close/timeout/garbage.
  [[nodiscard]] std::optional<Frame> read_frame();

 private:
  using Clock = std::chrono::steady_clock;

  /// Send `op` and block for its reply. False on transport failure,
  /// deadline expiry, reply-id mismatch, or a typed error reply
  /// (recorded).
  [[nodiscard]] bool roundtrip(Op op, std::span<const std::uint8_t> payload,
                               Frame& reply);
  /// Wait for readability until the roundtrip deadline. True when
  /// readable; false fails the call (and records the timeout).
  [[nodiscard]] bool wait_readable();
  void fail(std::string message);

  int fd_ = -1;
  std::uint32_t next_id_ = 1;
  ClientOptions options_;
  Codec codec_;
  std::vector<std::uint8_t> rx_;
  std::size_t rx_off_ = 0;
  std::string error_;
  std::optional<WireError> wire_error_;
  bool deadline_armed_ = false;
  Clock::time_point deadline_{};
};

}  // namespace nevermind::net
