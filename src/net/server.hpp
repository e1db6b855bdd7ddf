// Non-blocking epoll TCP server exposing the scoring service over the
// framed binary protocol. One event-loop thread owns every connection;
// request handling calls straight into ScoringService::score_lines /
// top_n and LineStateStore::ingest, so a score served over the wire is
// the same bytes the in-process batch path produces.
//
// Robustness is part of the design, not a wrapper:
//   - bounded per-connection buffers: the receive buffer can never grow
//     past one max-size frame, and once the send buffer passes the high
//     watermark the connection stops reading (backpressure) until the
//     peer drains it;
//   - a peer that stops draining its replies for drain_timeout is
//     killed (slow-client protection), as is any connection idle past
//     idle_timeout;
//   - at max_connections further accepts are closed on the spot;
//   - framing errors (bad magic, wrong version, oversized length
//     prefix) get a typed error reply and the connection is closed —
//     the stream cannot be resynchronized; unknown-op / bad-payload
//     errors answer that request and keep the connection, as does a
//     reply too large for max_payload (answered with kBadPayload);
//   - request_stop() (async-signal-safe, wired to SIGINT/SIGTERM by the
//     CLI) drains: accepts stop, buffered requests are answered,
//     replies flush, then the loop exits — with drain_timeout as the
//     hard deadline.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "net/event_loop.hpp"
#include "net/protocol.hpp"
#include "serve/line_state_store.hpp"
#include "serve/model_registry.hpp"
#include "serve/scoring_service.hpp"

namespace nevermind::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port; read the result from port().
  std::uint16_t port = 0;
  std::size_t max_connections = 256;
  std::size_t max_payload = kDefaultMaxPayload;
  /// Send-buffer size above which the connection stops reading.
  std::size_t write_high_watermark = 256 * 1024;
  /// Kill a connection idle this long (0 = never).
  std::chrono::milliseconds idle_timeout{0};
  /// Kill a connection whose send buffer makes no progress this long;
  /// also the hard deadline for the graceful-shutdown drain.
  std::chrono::milliseconds drain_timeout{2000};
  /// Period of the timeout scan.
  std::chrono::milliseconds tick{50};
  /// >0 shrinks SO_SNDBUF per connection — tests use it to trip the
  /// slow-client path without megabytes of traffic.
  int so_sndbuf = 0;
};

/// What an extension-op handler did with a frame.
enum class OpOutcome : std::uint8_t {
  kReply,       // handler filled the reply payload
  kBadPayload,  // op recognized, payload failed its typed decode
  kUnhandled,   // not this handler's op -> kUnknownOp to the peer
};

struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_at_capacity = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t replies_out = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t idle_closed = 0;
  std::uint64_t slow_closed = 0;
  std::size_t open_connections = 0;
};

class Server {
 public:
  /// Borrows store/service/registry; all must outlive the server. The
  /// store is mutable: INGEST_* ops write through to it.
  Server(serve::LineStateStore& store, serve::ScoringService& service,
         const serve::ModelRegistry& registry, ServerConfig config = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen. False (with *error set) on failure.
  [[nodiscard]] bool start(std::string* error = nullptr);

  /// Actual listening port (after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Run the event loop on the calling thread; returns once a
  /// requested stop has drained (or force-closed at the deadline).
  void run();

  /// Begin graceful shutdown. Async-signal-safe: an atomic store plus
  /// an eventfd write, so SIGINT/SIGTERM handlers may call it.
  void request_stop() noexcept;

  /// Abrupt stop: the loop exits at the next dispatch opportunity with
  /// no drain — buffered replies are dropped and connections are left
  /// to the destructor. This is the failure-injection path
  /// (ClusterNode::kill, bench_cluster's mid-run node death), not a
  /// shutdown API. Async-signal-safe like request_stop().
  void stop_now() noexcept;

  /// Install a handler for ops dispatch() itself does not know
  /// (the cluster ops). Runs on the event-loop thread. Must be set
  /// before run(); replies it produces are framed like any other.
  void set_op_handler(
      std::function<OpOutcome(const Frame&, PayloadWriter&)> handler) {
    op_handler_ = std::move(handler);
  }

  [[nodiscard]] bool stop_requested() const noexcept {
    return stop_requested_.load(std::memory_order_acquire);
  }

  /// Counters as of the last loop iteration (safe to read after run()
  /// returns; concurrent reads see a torn-but-monotonic view).
  [[nodiscard]] const ServerStats& stats() const noexcept { return stats_; }

 private:
  struct Connection;
  using Clock = std::chrono::steady_clock;

  void on_acceptable();
  void on_connection_event(int fd, std::uint32_t events);
  void on_tick();
  void begin_drain();

  void handle_readable(Connection& c);
  void process_frames(Connection& c);
  void dispatch(Connection& c, const Frame& frame);
  void flush_score_batch(Connection& c);
  void reply(Connection& c, Op request_op, std::uint32_t request_id,
             std::span<const std::uint8_t> payload);
  void reply_error(Connection& c, std::uint32_t request_id, WireError code,
                   std::uint8_t version = kProtocolVersion);
  void flush_writes(Connection& c);
  void update_interest(Connection& c);
  void close_connection(int fd);

  serve::LineStateStore& store_;
  serve::ScoringService& service_;
  const serve::ModelRegistry& registry_;
  ServerConfig config_;
  Codec codec_;
  std::function<OpOutcome(const Frame&, PayloadWriter&)> op_handler_;

  EventLoop loop_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::map<int, std::unique_ptr<Connection>> connections_;
  std::atomic<bool> stop_requested_{false};
  bool draining_ = false;
  Clock::time_point drain_deadline_{};
  ServerStats stats_;
};

}  // namespace nevermind::net
