// Protocol and server robustness tests for the network front-end.
//
// Codec half: round-trip every op, then adversarial decodes — truncated
// prefixes, wrong magic, wrong version, oversized length prefixes, and
// garbage streams must come back as kNeedMore or a typed WireError,
// never a crash or an out-of-bounds read.
//
// Server half: a live epoll server on an ephemeral port, poked with raw
// bytes through the client's escape hatches. Framing errors must get a
// typed error reply followed by a close; unknown-op and bad-payload
// errors — and replies too large for the payload limit — must answer
// that one request and leave the connection usable; idle and
// slow-draining connections must be killed; a requested stop must drain
// every buffered request before the loop exits. A client must survive a
// reply whose record count its payload cannot hold.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/scoring_kernel.hpp"
#include "ml/adaboost.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "serve/line_state_store.hpp"
#include "serve/model_registry.hpp"
#include "serve/scoring_service.hpp"
#include "util/rng.hpp"

namespace nevermind::net {
namespace {

using namespace std::chrono_literals;

// ---- codec: round-trips ------------------------------------------------

TEST(Codec, RoundTripsEveryOp) {
  const Codec codec;
  const std::vector<std::uint8_t> payload = {0xDE, 0xAD, 0xBE, 0xEF};
  for (const Op op : {Op::kPing, Op::kScore, Op::kTopN,
                      Op::kIngestMeasurement, Op::kIngestTicket,
                      Op::kModelInfo, Op::kError, reply_op(Op::kScore)}) {
    const auto bytes = codec.encode(op, 0xA1B2C3D4, payload);
    ASSERT_EQ(bytes.size(), kHeaderSize + payload.size());
    const auto d = codec.decode(bytes);
    ASSERT_EQ(d.status, Codec::DecodeStatus::kFrame);
    EXPECT_EQ(d.frame.op, op);
    EXPECT_EQ(d.frame.request_id, 0xA1B2C3D4U);
    EXPECT_EQ(d.frame.payload, payload);
    EXPECT_EQ(d.consumed, bytes.size());
  }
}

TEST(Codec, RoundTripsEmptyPayloadAndBackToBackFrames) {
  const Codec codec;
  auto bytes = codec.encode(Op::kPing, 1, {});
  const auto second = codec.encode(Op::kModelInfo, 2, {});
  bytes.insert(bytes.end(), second.begin(), second.end());

  const auto first = codec.decode(bytes);
  ASSERT_EQ(first.status, Codec::DecodeStatus::kFrame);
  EXPECT_TRUE(first.frame.payload.empty());
  EXPECT_EQ(first.consumed, kHeaderSize);

  const auto rest = codec.decode(
      std::span<const std::uint8_t>(bytes).subspan(first.consumed));
  ASSERT_EQ(rest.status, Codec::DecodeStatus::kFrame);
  EXPECT_EQ(rest.frame.op, Op::kModelInfo);
  EXPECT_EQ(rest.frame.request_id, 2U);
}

TEST(Codec, TypedPayloadsRoundTripBitwise) {
  // Scores whose doubles exercise non-trivial mantissa bits: equality
  // below is bitwise through operator== on doubles with identical bits.
  serve::ServeScore s;
  s.line = 4242;
  s.week = 43;
  s.score = 0.1 + 0.2;  // famously not 0.3
  s.probability = 1.0 / 3.0;
  s.model_version = 7;
  s.reason = serve::ScoreReason::kOk;
  s.valid = true;
  PayloadWriter w;
  write_score(w, s);
  EXPECT_EQ(w.data().size(), kScoreBytes);  // what reply limits assume
  PayloadReader r(w.data());
  serve::ServeScore out;
  ASSERT_TRUE(read_score(r, out));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(out.line, s.line);
  EXPECT_EQ(out.week, s.week);
  EXPECT_EQ(out.score, s.score);
  EXPECT_EQ(out.probability, s.probability);
  EXPECT_EQ(out.model_version, s.model_version);
  EXPECT_EQ(out.reason, s.reason);
  EXPECT_EQ(out.valid, s.valid);

  serve::LineMeasurement m;
  m.line = 9;
  m.week = 12;
  m.profile = 3;
  for (std::size_t i = 0; i < m.metrics.size(); ++i) {
    m.metrics[i] = 0.1F * static_cast<float>(i + 1);
  }
  PayloadWriter wm;
  write_measurement(wm, m);
  PayloadReader rm(wm.data());
  serve::LineMeasurement mo;
  ASSERT_TRUE(read_measurement(rm, mo));
  EXPECT_TRUE(rm.done());
  EXPECT_EQ(mo.line, m.line);
  EXPECT_EQ(mo.week, m.week);
  EXPECT_EQ(mo.profile, m.profile);
  EXPECT_EQ(mo.metrics, m.metrics);

  const ModelInfoReply info{11, 22, 33, 44, 55};
  PayloadWriter wi;
  write_model_info(wi, info);
  PayloadReader ri(wi.data());
  ModelInfoReply io;
  ASSERT_TRUE(read_model_info(ri, io));
  EXPECT_EQ(io.model_version, info.model_version);
  EXPECT_EQ(io.swap_count, info.swap_count);
  EXPECT_EQ(io.n_lines, info.n_lines);
  EXPECT_EQ(io.measurements, info.measurements);
  EXPECT_EQ(io.tickets, info.tickets);

  const auto err = encode_error_payload(WireError::kBadPayload, "short read");
  WireError code{};
  std::string message;
  ASSERT_TRUE(decode_error_payload(err, code, message));
  EXPECT_EQ(code, WireError::kBadPayload);
  EXPECT_EQ(message, "short read");
}

// ---- codec: adversarial decodes ----------------------------------------

TEST(Codec, TruncatedValidFrameAsksForMore) {
  const Codec codec;
  const auto bytes = codec.encode(Op::kScore, 7, std::vector<std::uint8_t>(5));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const auto d = codec.decode(
        std::span<const std::uint8_t>(bytes).first(len));
    EXPECT_EQ(d.status, Codec::DecodeStatus::kNeedMore) << "len=" << len;
  }
}

TEST(Codec, WrongMagicRejectedBeforeFullHeader) {
  const Codec codec;
  const std::vector<std::uint8_t> garbage = {'G', 'E'};  // "GET ..."
  const auto d = codec.decode(garbage);
  ASSERT_EQ(d.status, Codec::DecodeStatus::kError);
  EXPECT_EQ(d.error, WireError::kMalformedFrame);
}

TEST(Codec, WrongVersionRejected) {
  const Codec codec;
  auto bytes = codec.encode(Op::kPing, 1, {});
  bytes[2] = kProtocolVersion + 1;
  const auto d = codec.decode(
      std::span<const std::uint8_t>(bytes).first(3));  // before full header
  ASSERT_EQ(d.status, Codec::DecodeStatus::kError);
  EXPECT_EQ(d.error, WireError::kVersionMismatch);
}

TEST(Codec, OversizedLengthPrefixRejected) {
  const Codec codec(1024);
  auto bytes = codec.encode(Op::kPing, 1, {});
  bytes[8] = 0xFF;  // payload_len = 0x....FF > 1024
  bytes[9] = 0xFF;
  const auto d = codec.decode(bytes);
  ASSERT_EQ(d.status, Codec::DecodeStatus::kError);
  EXPECT_EQ(d.error, WireError::kOversizedPayload);
}

TEST(Codec, GarbageStreamsNeverCrash) {
  const Codec codec(4096);
  util::Rng rng = util::Rng::stream(1234, 0);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> buf(rng.uniform_index(64));
    for (auto& b : buf) {
      b = static_cast<std::uint8_t>(rng.uniform_index(256));
    }
    const auto d = codec.decode(buf);
    // Any status is legal; the property under test is bounded reads and
    // a sane `consumed`.
    if (d.status == Codec::DecodeStatus::kFrame) {
      EXPECT_LE(d.consumed, buf.size());
      EXPECT_GE(d.consumed, kHeaderSize);
    }
  }
}

TEST(Codec, RoundTripsEveryClusterOp) {
  // The v2 extension ops frame exactly like the v1 ops — same header,
  // same reply-bit convention.
  const Codec codec;
  const std::vector<std::uint8_t> payload = {0x01, 0x02, 0x03};
  for (const Op op : {Op::kModelPush, Op::kShardMap, Op::kHeartbeat,
                      Op::kHealth, Op::kHandoff, Op::kTopNShards}) {
    ASSERT_TRUE(is_cluster_request(op));
    ASSERT_TRUE(is_known_request(op));
    ASSERT_FALSE(is_reply(op));
    for (const Op framed : {op, reply_op(op)}) {
      const auto bytes = codec.encode(framed, 0x0BADF00D, payload);
      ASSERT_EQ(bytes.size(), kHeaderSize + payload.size());
      EXPECT_EQ(bytes[2], kProtocolVersion);
      const auto d = codec.decode(bytes);
      ASSERT_EQ(d.status, Codec::DecodeStatus::kFrame);
      EXPECT_EQ(d.frame.op, framed);
      EXPECT_EQ(d.frame.request_id, 0x0BADF00DU);
      EXPECT_EQ(d.frame.payload, payload);
      EXPECT_EQ(d.consumed, bytes.size());
    }
  }
}

TEST(Codec, TruncatedClusterFramesAskForMore) {
  const Codec codec;
  for (const Op op : {Op::kModelPush, Op::kShardMap, Op::kHeartbeat,
                      Op::kHealth, Op::kHandoff, Op::kTopNShards}) {
    const auto bytes = codec.encode(op, 3, std::vector<std::uint8_t>(9));
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const auto d = codec.decode(
          std::span<const std::uint8_t>(bytes).first(len));
      EXPECT_EQ(d.status, Codec::DecodeStatus::kNeedMore)
          << "op=" << static_cast<int>(op) << " len=" << len;
    }
  }
}

TEST(Codec, VersionMismatchSurfacesThePeersVersionByte) {
  const Codec codec;
  auto bytes = codec.encode(Op::kPing, 1, {});
  bytes[2] = 1;  // a v1 peer
  const auto d = codec.decode(bytes);
  ASSERT_EQ(d.status, Codec::DecodeStatus::kError);
  EXPECT_EQ(d.error, WireError::kVersionMismatch);
  // peer_version lets the server stamp the rejection with the peer's
  // own dialect so the v1 side can decode it.
  EXPECT_EQ(d.peer_version, 1);
}

TEST(Codec, EncodeWithExplicitVersionStampsThatByte) {
  const Codec codec;
  const auto bytes = codec.encode(Op::kError, 5, {}, /*version=*/1);
  EXPECT_EQ(bytes[2], 1);
  // The v1 frame layout is identical, so a v1 decoder (here: ours, fed
  // a doctored expectation) sees magic/op/id/len in the same offsets.
  EXPECT_EQ(bytes[3], static_cast<std::uint8_t>(Op::kError));
}

TEST(Codec, PayloadReaderLatchesOnUnderflow) {
  const std::vector<std::uint8_t> three = {1, 2, 3};
  PayloadReader r(three);
  EXPECT_EQ(r.u16(), 0x0201U);
  EXPECT_EQ(r.u32(), 0U);  // underflow: latched zero
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.done());
  EXPECT_EQ(r.u64(), 0U);  // stays latched
  EXPECT_FALSE(r.ok());
}

// ---- live server -------------------------------------------------------

/// One ephemeral-port server (no model published — protocol behaviour
/// does not need a trained kernel) running on a background thread.
class ServerHarness {
 public:
  explicit ServerHarness(ServerConfig config = {})
      : service_(store_, registry_),
        server_(store_, service_, registry_, std::move(config)) {
    std::string error;
    if (!server_.start(&error)) {
      ADD_FAILURE() << "server start failed: " << error;
      return;
    }
    thread_ = std::thread([this] { server_.run(); });
  }

  ~ServerHarness() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
  }

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] const ServerStats& stats_after_stop() {
    stop();
    return server_.stats();
  }
  [[nodiscard]] serve::ModelRegistry& registry() { return registry_; }

 private:
  serve::LineStateStore store_{4};
  serve::ModelRegistry registry_;
  serve::ScoringService service_;
  Server server_;
  std::thread thread_;
};

std::optional<WireError> read_error_reply(Client& client,
                                          std::uint32_t expect_id = 0) {
  const auto frame = client.read_frame();
  if (!frame.has_value() || frame->op != Op::kError) return std::nullopt;
  EXPECT_EQ(frame->request_id, expect_id);
  WireError code{};
  std::string message;
  if (!decode_error_payload(frame->payload, code, message)) {
    return std::nullopt;
  }
  return code;
}

TEST(NetServer, FramingErrorGetsTypedReplyThenClose) {
  ServerHarness harness;
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", harness.port()));
  const std::vector<std::uint8_t> http = {'G', 'E', 'T', ' ', '/'};
  ASSERT_TRUE(client.send_raw(http));
  EXPECT_EQ(read_error_reply(client), WireError::kMalformedFrame);
  // The stream is poisoned: the server closes after flushing the error.
  EXPECT_FALSE(client.read_frame().has_value());
  const auto& stats = harness.stats_after_stop();
  EXPECT_EQ(stats.protocol_errors, 1U);
}

TEST(NetServer, VersionMismatchGetsTypedReplyThenClose) {
  // The rejection is framed in the *peer's* version (so the peer can
  // decode it), which means our v2 read_frame refuses it — decode the
  // reply manually instead.
  ServerHarness harness;
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", harness.port()));
  Codec codec;
  auto bytes = codec.encode(Op::kPing, 9, {});
  bytes[2] = kProtocolVersion + 3;
  ASSERT_TRUE(client.send_raw(bytes));
  EXPECT_FALSE(client.read_frame().has_value());  // v5-framed reply + close
}

TEST(NetServer, OversizedLengthPrefixGetsTypedReplyThenClose) {
  ServerConfig config;
  config.max_payload = 1024;
  ServerHarness harness(config);
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", harness.port()));
  Codec codec;
  auto bytes = codec.encode(Op::kPing, 9, {});
  bytes[8] = 0xFF;
  bytes[9] = 0xFF;
  bytes[10] = 0xFF;
  ASSERT_TRUE(client.send_raw(bytes));
  EXPECT_EQ(read_error_reply(client), WireError::kOversizedPayload);
  EXPECT_FALSE(client.read_frame().has_value());
}

TEST(NetServer, UnknownOpAnswersAndKeepsConnection) {
  ServerHarness harness;
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", harness.port()));
  Codec codec;
  ASSERT_TRUE(client.send_raw(
      codec.encode(static_cast<Op>(0x20), 77, {})));
  EXPECT_EQ(read_error_reply(client, 77), WireError::kUnknownOp);
  // Same connection still serves well-formed requests.
  EXPECT_TRUE(client.ping());
}

TEST(NetServer, BadPayloadAnswersAndKeepsConnection) {
  ServerHarness harness;
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", harness.port()));
  Codec codec;
  // SCORE wants a u32 line id; one byte cannot decode.
  ASSERT_TRUE(client.send_raw(
      codec.encode(Op::kScore, 5, std::vector<std::uint8_t>(1))));
  EXPECT_EQ(read_error_reply(client, 5), WireError::kBadPayload);
  EXPECT_TRUE(client.ping());
}

/// A one-stump kernel over the default encoder layout: enough for the
/// server to rank lines without training anything.
core::ScoringKernel one_stump_kernel() {
  core::ScoringKernel kernel;
  kernel.selected = {3};
  kernel.columns = {{"b.x", false}};
  ml::Stump stump;
  stump.threshold = 2.5F;
  stump.score_pass = 1.0;
  stump.score_fail = -1.0;
  kernel.model = ml::BStumpModel({stump});
  return kernel;
}

TEST(NetServer, TopNReplyBeyondThePayloadLimitIsRefusedNotFramed) {
  // A measurement (109 B) fits in 128 bytes, as does a reply of three
  // 34-byte score records (106 B); four records (140 B) do not.
  ServerConfig config;
  config.max_payload = 128;
  ServerHarness harness(config);
  harness.registry().publish(one_stump_kernel());
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", harness.port()));
  for (dslsim::LineId line = 0; line < 5; ++line) {
    serve::LineMeasurement m;
    m.line = line;
    m.metrics.fill(static_cast<float>(line));
    ASSERT_TRUE(client.ingest(m));
  }
  const auto three = client.top_n(3);
  ASSERT_TRUE(three.has_value());
  ASSERT_EQ(three->size(), 3U);
  EXPECT_EQ(three->front().line, 3U);  // ties at 1.0 rank by line id

  EXPECT_FALSE(client.top_n(4).has_value());
  EXPECT_EQ(client.last_wire_error(), WireError::kBadPayload);
  EXPECT_TRUE(client.connected());
  EXPECT_TRUE(client.ping());  // the stream is intact
  const auto& stats = harness.stats_after_stop();
  EXPECT_EQ(stats.protocol_errors, 0U);
  EXPECT_EQ(stats.frames_in, stats.replies_out);
}

TEST(NetServer, IngestAndModelInfoCountersFlowThrough) {
  ServerHarness harness;
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", harness.port()));

  serve::LineMeasurement m;
  m.line = 3;
  m.week = 0;
  m.profile = 1;
  m.metrics.fill(0.5F);
  ASSERT_TRUE(client.ingest(m));
  m.week = 1;
  ASSERT_TRUE(client.ingest(m));
  ASSERT_TRUE(client.ingest_ticket(3, 10));

  const auto info = client.model_info();
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->model_version, 0U);  // nothing published
  EXPECT_EQ(info->n_lines, 1U);
  EXPECT_EQ(info->measurements, 2U);
  EXPECT_EQ(info->tickets, 1U);

  // With no model published the line scores invalid with kNoModel.
  const auto s = client.score(3);
  ASSERT_TRUE(s.has_value());
  EXPECT_FALSE(s->valid);
  EXPECT_EQ(s->reason, serve::ScoreReason::kNoModel);
}

TEST(NetServer, IdleConnectionsAreKilled) {
  ServerConfig config;
  config.idle_timeout = 100ms;
  config.tick = 20ms;
  ServerHarness harness(config);
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", harness.port()));
  ASSERT_TRUE(client.ping());
  // Go quiet; the server must hang up on us.
  EXPECT_FALSE(client.read_frame().has_value());
  const auto& stats = harness.stats_after_stop();
  EXPECT_GE(stats.idle_closed, 1U);
}

TEST(NetServer, SlowDrainingClientIsKilled) {
  ServerConfig config;
  config.so_sndbuf = 4096;
  config.write_high_watermark = 16 * 1024;
  config.drain_timeout = 200ms;
  config.tick = 20ms;
  ServerHarness harness(config);

  // Raw socket with a tiny receive buffer that never reads: ping echoes
  // pile up in the server's send buffer until the slow-client reaper
  // fires. SO_RCVBUF must be set before connect to cap the window.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 2048;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(harness.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  const Codec codec;
  const std::vector<std::uint8_t> blob(32 * 1024, 0xAB);
  std::vector<std::uint8_t> wire;
  for (std::uint32_t i = 0; i < 8; ++i) {
    codec.encode_into(Op::kPing, i + 1, blob, wire);
  }
  // 8 x 32 KiB of echo replies dwarf every buffer involved; the send may
  // legitimately stop short once the server applies backpressure.
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const auto n = ::send(fd, wire.data() + sent, wire.size() - sent,
                          MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }

  // Do not read AT ALL while the kill window passes — any draining
  // counts as write progress on the server and resets its clock.
  std::this_thread::sleep_for(config.drain_timeout + 4 * config.tick +
                              200ms);
  // Now drain; the reaped connection surfaces as EOF or ECONNRESET
  // once the buffered bytes are consumed.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  bool reset = false;
  while (std::chrono::steady_clock::now() < deadline) {
    char sink[4096];
    const auto n = ::recv(fd, sink, sizeof(sink), MSG_DONTWAIT);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
      reset = true;
      break;
    }
    if (n < 0) std::this_thread::sleep_for(10ms);
  }
  ::close(fd);
  EXPECT_TRUE(reset) << "slow client was never disconnected";
  const auto& stats = harness.stats_after_stop();
  EXPECT_GE(stats.slow_closed, 1U);
}

TEST(NetServer, RequestedStopDrainsBufferedRequests) {
  ServerHarness harness;
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", harness.port()));

  constexpr std::uint32_t kPings = 50;
  const Codec codec;
  std::vector<std::uint8_t> wire;
  for (std::uint32_t i = 0; i < kPings; ++i) {
    codec.encode_into(Op::kPing, i + 1, {}, wire);
  }
  ASSERT_TRUE(client.send_raw(wire));
  std::this_thread::sleep_for(50ms);  // let the batch reach the server
  // Stop while replies are (at latest) still in flight: every ping must
  // still be answered, then the server hangs up.
  std::thread stopper([&harness] { harness.stop(); });
  for (std::uint32_t i = 0; i < kPings; ++i) {
    const auto frame = client.read_frame();
    ASSERT_TRUE(frame.has_value()) << "reply " << i << " lost in shutdown";
    EXPECT_EQ(frame->op, reply_op(Op::kPing));
    EXPECT_EQ(frame->request_id, i + 1);
  }
  EXPECT_FALSE(client.read_frame().has_value());
  stopper.join();
  const auto& stats = harness.stats_after_stop();
  EXPECT_EQ(stats.frames_in, stats.replies_out);
  EXPECT_EQ(stats.frames_in, kPings);
}

TEST(NetServer, V1PeerGetsARejectionItCanDecode) {
  // A v1 client must receive the kVersionMismatch reply framed with
  // *its* version byte — v2 in the reply header would read as a version
  // mismatch on the v1 side and poison the rejection itself.
  ServerHarness harness;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(harness.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  Codec codec;
  auto bytes = codec.encode(Op::kPing, 9, {});
  bytes[2] = 1;  // v1 dialect
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));

  std::vector<std::uint8_t> reply;
  std::uint8_t chunk[512];
  while (true) {
    const auto n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // the server closes after flushing the error
    reply.insert(reply.end(), chunk, chunk + n);
  }
  ::close(fd);

  ASSERT_GE(reply.size(), kHeaderSize);
  EXPECT_EQ(reply[0], bytes[0]);  // same magic
  EXPECT_EQ(reply[1], bytes[1]);
  EXPECT_EQ(reply[2], 1) << "rejection not stamped with the peer's version";
  EXPECT_EQ(reply[3], static_cast<std::uint8_t>(Op::kError));
  WireError code{};
  std::string message;
  ASSERT_TRUE(decode_error_payload(
      std::span<const std::uint8_t>(reply).subspan(kHeaderSize), code,
      message));
  EXPECT_EQ(code, WireError::kVersionMismatch);
}

// ---- client: timeouts + bounded-backoff reconnects ---------------------

TEST(NetClient, BackoffIsBoundedExponentialAndResets) {
  Backoff backoff(10ms, 80ms);
  EXPECT_EQ(backoff.next(), 10ms);
  EXPECT_EQ(backoff.next(), 20ms);
  EXPECT_EQ(backoff.next(), 40ms);
  EXPECT_EQ(backoff.next(), 80ms);
  EXPECT_EQ(backoff.next(), 80ms);  // capped
  EXPECT_EQ(backoff.attempts(), 5U);
  backoff.reset();
  EXPECT_EQ(backoff.attempts(), 0U);
  EXPECT_EQ(backoff.next(), 10ms);
}

TEST(NetClient, ConnectWithBackoffEventuallyGivesUp) {
  // Nothing listens on a fresh ephemeral port we bind and close.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);

  ClientOptions options;
  options.connect_timeout = 100ms;
  Client client(options);
  Backoff backoff(1ms, 4ms);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.connect_with_backoff("127.0.0.1", dead_port, 3,
                                           backoff));
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(backoff.attempts(), 3U);
  EXPECT_FALSE(client.last_error().empty());
  // 3 refused connects + 2 sleeps (1ms, 2ms) stay well under a second.
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
}

TEST(NetClient, RequestTimeoutClosesTheConnection) {
  // A listener that accepts and then never replies: the request must
  // come back empty within the deadline, and the client must close the
  // socket — a late reply would desync the id-checked stream.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  ClientOptions options;
  options.connect_timeout = 500ms;
  options.request_timeout = 100ms;
  Client client(options);
  ASSERT_TRUE(client.connect("127.0.0.1", ntohs(addr.sin_port)));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.request(Op::kPing, {}).has_value());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, 80ms);
  EXPECT_LT(elapsed, 5s);
  EXPECT_FALSE(client.connected());
  ::close(listener);
}

TEST(NetClient, TopNCountBeyondItsPayloadFailsWithoutAllocating) {
  // A peer answers TOP_N with count 0xFFFFFFFF and no records. Reserving
  // that count would ask for ~190 GB; the call must just fail.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  std::thread peer([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    std::vector<std::uint8_t> request(kHeaderSize + 4);  // TOP_N's u32 n
    std::size_t got = 0;
    while (got < request.size()) {
      const auto n =
          ::recv(fd, request.data() + got, request.size() - got, 0);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    const Codec codec;
    const auto decoded = codec.decode(request);
    PayloadWriter w;
    w.u32(0xFFFFFFFFU);
    const auto reply =
        codec.encode(reply_op(Op::kTopN), decoded.frame.request_id, w.data());
    (void)::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
    ::close(fd);
  });

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", ntohs(addr.sin_port)));
  std::optional<std::vector<serve::ServeScore>> ranked;
  EXPECT_NO_THROW(ranked = client.top_n(10));
  EXPECT_FALSE(ranked.has_value());
  peer.join();
  ::close(listener);
}

TEST(NetClient, TypedErrorRepliesKeepTheConnectionUsable) {
  ServerHarness harness;
  ClientOptions options;
  options.request_timeout = 2000ms;
  Client client(options);
  ASSERT_TRUE(client.connect("127.0.0.1", harness.port()));
  // Unknown op: the typed kError reply fails the call (recorded) but
  // the connection stays up — unlike a timeout, the stream is intact.
  EXPECT_FALSE(client.request(static_cast<Op>(0x20), {}).has_value());
  EXPECT_EQ(client.last_wire_error(), WireError::kUnknownOp);
  EXPECT_TRUE(client.connected());
  // ...and the same connection still serves real requests.
  EXPECT_TRUE(client.ping());
}

}  // namespace
}  // namespace nevermind::net
