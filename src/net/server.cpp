#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

namespace nevermind::net {

namespace {

/// Upper bound on bytes pulled off one socket per readable event, so a
/// firehose sender cannot starve the other connections in the loop.
constexpr std::size_t kMaxReadPerEvent = 256 * 1024;

}  // namespace

struct Server::Connection {
  int fd = -1;
  std::vector<std::uint8_t> read_buf;
  std::size_t read_off = 0;  // bytes of read_buf already decoded
  std::vector<std::uint8_t> write_buf;
  std::size_t write_off = 0;  // bytes of write_buf already sent
  Clock::time_point last_activity{};
  Clock::time_point last_write_progress{};
  bool reads_paused = false;
  bool peer_closed = false;
  /// Set on fatal framing errors and peer EOF: flush what we owe, then
  /// close; never read again.
  bool close_after_flush = false;
  /// Consecutive SCORE requests of one read pass, answered as a single
  /// score_lines() batch — wire-level micro-batching.
  std::vector<std::pair<std::uint32_t, dslsim::LineId>> score_batch;

  [[nodiscard]] std::size_t write_pending() const noexcept {
    return write_buf.size() - write_off;
  }
};

Server::Server(serve::LineStateStore& store, serve::ScoringService& service,
               const serve::ModelRegistry& registry, ServerConfig config)
    : store_(store),
      service_(service),
      registry_(registry),
      config_(std::move(config)),
      codec_(config_.max_payload) {}

Server::~Server() {
  for (auto& [fd, conn] : connections_) ::close(fd);
  connections_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

bool Server::start(std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error) *error = what + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };
  if (!loop_.valid()) return fail("event loop setup");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return fail("inet_pton(" + config_.bind_address + ")");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 128) != 0) return fail("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  loop_.add(listen_fd_, EPOLLIN, [this](std::uint32_t) { on_acceptable(); });
  return true;
}

void Server::run() {
  loop_.run(config_.tick, [this] { on_tick(); });
}

void Server::request_stop() noexcept {
  stop_requested_.store(true, std::memory_order_release);
  loop_.wake();
}

void Server::stop_now() noexcept {
  stop_requested_.store(true, std::memory_order_release);
  loop_.stop();
}

void Server::on_acceptable() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    if (connections_.size() >= config_.max_connections) {
      ++stats_.rejected_at_capacity;
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (config_.so_sndbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.so_sndbuf,
                   sizeof config_.so_sndbuf);
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->last_activity = Clock::now();
    conn->last_write_progress = conn->last_activity;
    connections_.emplace(fd, std::move(conn));
    ++stats_.accepted;
    stats_.open_connections = connections_.size();
    loop_.add(fd, EPOLLIN,
              [this, fd](std::uint32_t events) {
                on_connection_event(fd, events);
              });
  }
}

void Server::on_connection_event(int fd, std::uint32_t events) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& c = *it->second;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    close_connection(fd);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    flush_writes(c);
    if (!loop_.watching(fd)) return;  // flush decided to close
  }
  if ((events & EPOLLIN) != 0) handle_readable(c);
}

void Server::handle_readable(Connection& c) {
  std::size_t pulled = 0;
  char chunk[16384];
  while (pulled < kMaxReadPerEvent) {
    const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      c.read_buf.insert(c.read_buf.end(), chunk, chunk + n);
      pulled += static_cast<std::size_t>(n);
      c.last_activity = Clock::now();
      continue;
    }
    if (n == 0) {
      c.peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(c.fd);
    return;
  }
  process_frames(c);
  if (!loop_.watching(c.fd)) return;  // a framing error closed it
  if (c.peer_closed) {
    if (c.write_pending() == 0) {
      close_connection(c.fd);
      return;
    }
    c.close_after_flush = true;  // still owe replies: flush then close
  }
  flush_writes(c);
}

void Server::process_frames(Connection& c) {
  while (!c.close_after_flush) {
    const auto d = codec_.decode(std::span<const std::uint8_t>(
        c.read_buf.data() + c.read_off, c.read_buf.size() - c.read_off));
    if (d.status == Codec::DecodeStatus::kNeedMore) break;
    if (d.status == Codec::DecodeStatus::kError) {
      // The byte stream is poisoned — reply with the typed error and
      // shut the connection down once the reply flushes. A
      // version-mismatched peer gets the rejection stamped with *its*
      // version byte (the frame layout is shared across versions), so
      // a v1 client sees a decodable typed error, not garbage.
      ++stats_.protocol_errors;
      flush_score_batch(c);
      reply_error(c, 0, d.error,
                  d.error == WireError::kVersionMismatch ? d.peer_version
                                                         : kProtocolVersion);
      c.close_after_flush = true;
      c.read_buf.clear();
      c.read_off = 0;
      break;
    }
    c.read_off += d.consumed;
    ++stats_.frames_in;
    c.last_activity = Clock::now();
    if (d.frame.op == Op::kScore) {
      PayloadReader r(d.frame.payload);
      const dslsim::LineId line = r.u32();
      if (r.done()) {
        c.score_batch.emplace_back(d.frame.request_id, line);
      } else {
        flush_score_batch(c);
        reply_error(c, d.frame.request_id, WireError::kBadPayload);
      }
      continue;
    }
    // Any non-SCORE op cuts the batch so replies keep request order.
    flush_score_batch(c);
    dispatch(c, d.frame);
  }
  flush_score_batch(c);
  if (c.read_off == c.read_buf.size()) {
    c.read_buf.clear();
    c.read_off = 0;
  } else if (c.read_off > 64 * 1024) {
    c.read_buf.erase(c.read_buf.begin(),
                     c.read_buf.begin() +
                         static_cast<std::ptrdiff_t>(c.read_off));
    c.read_off = 0;
  }
}

void Server::flush_score_batch(Connection& c) {
  if (c.score_batch.empty()) return;
  std::vector<dslsim::LineId> lines;
  lines.reserve(c.score_batch.size());
  for (const auto& [id, line] : c.score_batch) lines.push_back(line);
  const std::vector<serve::ServeScore> scores = service_.score_lines(lines);
  for (std::size_t i = 0; i < c.score_batch.size(); ++i) {
    PayloadWriter w;
    write_score(w, scores[i]);
    reply(c, Op::kScore, c.score_batch[i].first, w.data());
  }
  c.score_batch.clear();
}

void Server::dispatch(Connection& c, const Frame& frame) {
  switch (frame.op) {
    case Op::kPing:
      // Echoes its payload — a transparent liveness + latency probe.
      reply(c, Op::kPing, frame.request_id, frame.payload);
      return;
    case Op::kTopN: {
      PayloadReader r(frame.payload);
      const std::uint32_t n = r.u32();
      if (!r.done()) break;
      const std::vector<serve::ServeScore> ranked = service_.top_n(n);
      PayloadWriter w;
      w.u32(static_cast<std::uint32_t>(ranked.size()));
      for (const auto& s : ranked) write_score(w, s);
      reply(c, Op::kTopN, frame.request_id, w.data());
      return;
    }
    case Op::kIngestMeasurement: {
      PayloadReader r(frame.payload);
      serve::LineMeasurement m;
      if (!read_measurement(r, m) || !r.done()) break;
      store_.ingest(m);
      PayloadWriter w;
      w.u64(store_.measurements_ingested());
      reply(c, Op::kIngestMeasurement, frame.request_id, w.data());
      return;
    }
    case Op::kIngestTicket: {
      PayloadReader r(frame.payload);
      const dslsim::LineId line = r.u32();
      const util::Day day = r.i32();
      if (!r.done()) break;
      store_.ingest_ticket(line, day);
      PayloadWriter w;
      w.u64(store_.tickets_ingested());
      reply(c, Op::kIngestTicket, frame.request_id, w.data());
      return;
    }
    case Op::kModelInfo: {
      ModelInfoReply info;
      info.model_version = registry_.current_version();
      info.swap_count = registry_.swap_count();
      info.n_lines = store_.n_lines();
      info.measurements = store_.measurements_ingested();
      info.tickets = store_.tickets_ingested();
      PayloadWriter w;
      write_model_info(w, info);
      reply(c, Op::kModelInfo, frame.request_id, w.data());
      return;
    }
    default: {
      if (op_handler_ && !is_reply(frame.op)) {
        PayloadWriter w;
        switch (op_handler_(frame, w)) {
          case OpOutcome::kReply:
            reply(c, frame.op, frame.request_id, w.data());
            return;
          case OpOutcome::kBadPayload:
            reply_error(c, frame.request_id, WireError::kBadPayload);
            return;
          case OpOutcome::kUnhandled:
            break;
        }
      }
      reply_error(c, frame.request_id, WireError::kUnknownOp);
      return;
    }
  }
  // Known op, payload failed its typed decode: request-scoped error.
  reply_error(c, frame.request_id, WireError::kBadPayload);
}

void Server::reply(Connection& c, Op request_op, std::uint32_t request_id,
                   std::span<const std::uint8_t> payload) {
  if (payload.size() > codec_.max_payload()) {
    // The peer's codec would reject the frame and drop the connection
    // (a TOP_N of n >= 30,841 lines is already over the 1 MiB default):
    // refuse the one request instead.
    reply_error(c, request_id, WireError::kBadPayload);
    return;
  }
  codec_.encode_into(reply_op(request_op), request_id, payload, c.write_buf);
  ++stats_.replies_out;
}

void Server::reply_error(Connection& c, std::uint32_t request_id,
                         WireError code, std::uint8_t version) {
  const auto payload = encode_error_payload(code, wire_error_name(code));
  codec_.encode_into(Op::kError, request_id, payload, c.write_buf, version);
  ++stats_.replies_out;
}

void Server::flush_writes(Connection& c) {
  while (c.write_pending() > 0) {
    const ssize_t n = ::send(c.fd, c.write_buf.data() + c.write_off,
                             c.write_pending(), MSG_NOSIGNAL);
    if (n > 0) {
      c.write_off += static_cast<std::size_t>(n);
      c.last_write_progress = Clock::now();
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(c.fd);
    return;
  }
  if (c.write_pending() == 0) {
    c.write_buf.clear();
    c.write_off = 0;
    c.last_write_progress = Clock::now();
    if (c.close_after_flush) {
      close_connection(c.fd);
      return;
    }
  } else if (c.write_off > 256 * 1024) {
    c.write_buf.erase(c.write_buf.begin(),
                      c.write_buf.begin() +
                          static_cast<std::ptrdiff_t>(c.write_off));
    c.write_off = 0;
  }
  update_interest(c);
}

void Server::update_interest(Connection& c) {
  // Backpressure: past the high watermark the connection stops reading
  // until the peer drains below half of it.
  if (!c.reads_paused && c.write_pending() > config_.write_high_watermark) {
    c.reads_paused = true;
  } else if (c.reads_paused &&
             c.write_pending() <= config_.write_high_watermark / 2) {
    c.reads_paused = false;
  }
  std::uint32_t events = 0;
  if (!c.reads_paused && !c.close_after_flush && !draining_ &&
      !c.peer_closed) {
    events |= EPOLLIN;
  }
  if (c.write_pending() > 0) events |= EPOLLOUT;
  loop_.modify(c.fd, events);
}

void Server::close_connection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  loop_.remove(fd);
  connections_.erase(it);
  stats_.open_connections = connections_.size();
  // The fd number must not be reused by an accept earlier in the same
  // event batch's queue, so the close itself is deferred.
  loop_.defer([fd] { ::close(fd); });
}

void Server::begin_drain() {
  draining_ = true;
  drain_deadline_ = Clock::now() + config_.drain_timeout;
  if (listen_fd_ >= 0) {
    loop_.remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Answer what is already buffered, then flush; no further reads.
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) fds.push_back(fd);
  for (const int fd : fds) {
    const auto it = connections_.find(fd);
    if (it == connections_.end()) continue;
    Connection& c = *it->second;
    process_frames(c);
    if (!loop_.watching(fd)) continue;
    c.close_after_flush = true;
    flush_writes(c);
  }
}

void Server::on_tick() {
  if (stop_requested() && !draining_) begin_drain();

  const auto now = Clock::now();
  std::vector<int> to_close;
  for (const auto& [fd, conn] : connections_) {
    const Connection& c = *conn;
    if (draining_ && now >= drain_deadline_) {
      to_close.push_back(fd);
      continue;
    }
    if (c.write_pending() > 0 &&
        now - c.last_write_progress > config_.drain_timeout) {
      ++stats_.slow_closed;
      to_close.push_back(fd);
      continue;
    }
    if (!draining_ && config_.idle_timeout.count() > 0 &&
        now - c.last_activity > config_.idle_timeout) {
      ++stats_.idle_closed;
      to_close.push_back(fd);
    }
  }
  for (const int fd : to_close) close_connection(fd);

  if (draining_ && connections_.empty()) loop_.stop();
}

}  // namespace nevermind::net
