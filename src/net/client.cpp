#include "net/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

namespace nevermind::net {

std::chrono::milliseconds Backoff::next() noexcept {
  const std::chrono::milliseconds delay = next_;
  ++attempts_;
  const double scaled =
      static_cast<double>(next_.count()) * (multiplier_ < 1.0 ? 1.0 : multiplier_);
  const auto capped = static_cast<std::chrono::milliseconds::rep>(
      scaled > static_cast<double>(max_.count())
          ? static_cast<double>(max_.count())
          : scaled);
  next_ = std::chrono::milliseconds(capped);
  return delay;
}

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_id_(other.next_id_),
      options_(other.options_),
      codec_(other.codec_),
      rx_(std::move(other.rx_)),
      rx_off_(other.rx_off_),
      error_(std::move(other.error_)),
      wire_error_(other.wire_error_),
      deadline_armed_(other.deadline_armed_),
      deadline_(other.deadline_) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    next_id_ = other.next_id_;
    options_ = other.options_;
    codec_ = other.codec_;
    rx_ = std::move(other.rx_);
    rx_off_ = other.rx_off_;
    error_ = std::move(other.error_);
    wire_error_ = other.wire_error_;
    deadline_armed_ = other.deadline_armed_;
    deadline_ = other.deadline_;
  }
  return *this;
}

void Client::fail(std::string message) { error_ = std::move(message); }

namespace {

[[nodiscard]] bool set_nonblocking(int fd, bool on) noexcept {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int next = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, next) == 0;
}

}  // namespace

bool Client::connect(const std::string& host, std::uint16_t port) {
  close();
  wire_error_.reset();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    fail(std::string("socket: ") + std::strerror(errno));
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    fail("bad host address: " + host);
    close();
    return false;
  }
  const bool timed = options_.connect_timeout.count() > 0;
  if (timed && !set_nonblocking(fd_, true)) {
    fail(std::string("fcntl: ") + std::strerror(errno));
    close();
    return false;
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    if (!timed || errno != EINPROGRESS) {
      fail(std::string("connect: ") + std::strerror(errno));
      close();
      return false;
    }
    pollfd p{fd_, POLLOUT, 0};
    const int rc =
        ::poll(&p, 1, static_cast<int>(options_.connect_timeout.count()));
    if (rc <= 0) {
      fail(rc == 0 ? "connect timed out"
                   : std::string("poll: ") + std::strerror(errno));
      close();
      return false;
    }
    int soerr = 0;
    socklen_t len = sizeof soerr;
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 ||
        soerr != 0) {
      fail(std::string("connect: ") + std::strerror(soerr ? soerr : errno));
      close();
      return false;
    }
  }
  if (timed && !set_nonblocking(fd_, false)) {
    fail(std::string("fcntl: ") + std::strerror(errno));
    close();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return true;
}

bool Client::connect_with_backoff(const std::string& host, std::uint16_t port,
                                  std::size_t max_attempts, Backoff& backoff) {
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (connect(host, port)) {
      backoff.reset();
      return true;
    }
    if (attempt + 1 < max_attempts) {
      std::this_thread::sleep_for(backoff.next());
    } else {
      (void)backoff.next();  // keep the schedule advancing across calls
    }
  }
  return false;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rx_.clear();
  rx_off_ = 0;
  deadline_armed_ = false;
}

bool Client::send_raw(std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(std::string("send: ") + std::strerror(errno));
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool Client::wait_readable() {
  if (!deadline_armed_) return true;
  const auto now = Clock::now();
  if (now >= deadline_) {
    fail("request timed out");
    return false;
  }
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline_ - now);
  pollfd p{fd_, POLLIN, 0};
  const int rc = ::poll(&p, 1, static_cast<int>(left.count()) + 1);
  if (rc > 0) return true;
  if (rc == 0) {
    fail("request timed out");
  } else {
    fail(std::string("poll: ") + std::strerror(errno));
  }
  return false;
}

std::optional<Frame> Client::read_frame() {
  while (true) {
    const auto d = codec_.decode(std::span<const std::uint8_t>(
        rx_.data() + rx_off_, rx_.size() - rx_off_));
    if (d.status == Codec::DecodeStatus::kFrame) {
      rx_off_ += d.consumed;
      if (rx_off_ == rx_.size()) {
        rx_.clear();
        rx_off_ = 0;
      }
      return d.frame;
    }
    if (d.status == Codec::DecodeStatus::kError) {
      fail(std::string("undecodable reply: ") + wire_error_name(d.error));
      return std::nullopt;
    }
    if (!wait_readable()) return std::nullopt;
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      rx_.insert(rx_.end(), chunk, chunk + n);
      continue;
    }
    if (n == 0) {
      fail("connection closed by server");
      return std::nullopt;
    }
    if (errno == EINTR) continue;
    fail(std::string("recv: ") + std::strerror(errno));
    return std::nullopt;
  }
}

bool Client::roundtrip(Op op, std::span<const std::uint8_t> payload,
                       Frame& reply) {
  wire_error_.reset();
  if (fd_ < 0) {
    fail("not connected");
    return false;
  }
  if (options_.request_timeout.count() > 0) {
    deadline_armed_ = true;
    deadline_ = Clock::now() + options_.request_timeout;
  } else {
    deadline_armed_ = false;
  }
  const std::uint32_t id = next_id_++;
  if (!send_raw(codec_.encode(op, id, payload))) {
    close();  // stream state unknown after a partial send
    return false;
  }
  auto frame = read_frame();
  deadline_armed_ = false;
  if (!frame.has_value()) {
    // Transport failure or deadline expiry: a late reply would desync
    // the id-checked stream, so the connection cannot be reused.
    close();
    return false;
  }
  if (frame->op == Op::kError) {
    WireError code = WireError::kMalformedFrame;
    std::string message;
    if (decode_error_payload(frame->payload, code, message)) {
      wire_error_ = code;
      fail("server error: " + message);
    } else {
      fail("server error (undecodable payload)");
    }
    return false;
  }
  if (frame->op != reply_op(op) || frame->request_id != id) {
    fail("reply does not match request");
    close();
    return false;
  }
  reply = std::move(*frame);
  return true;
}

bool Client::ping() {
  Frame reply;
  return roundtrip(Op::kPing, {}, reply);
}

std::optional<serve::ServeScore> Client::score(dslsim::LineId line) {
  PayloadWriter w;
  w.u32(line);
  Frame reply;
  if (!roundtrip(Op::kScore, w.data(), reply)) return std::nullopt;
  PayloadReader r(reply.payload);
  serve::ServeScore s;
  if (!read_score(r, s) || !r.done()) {
    fail("bad SCORE reply payload");
    return std::nullopt;
  }
  return s;
}

std::optional<std::vector<serve::ServeScore>> Client::top_n(std::uint32_t n) {
  PayloadWriter w;
  w.u32(n);
  Frame reply;
  if (!roundtrip(Op::kTopN, w.data(), reply)) return std::nullopt;
  PayloadReader r(reply.payload);
  const std::uint32_t count = r.u32();
  std::vector<serve::ServeScore> out;
  // The count is the peer's word; the payload bounds what can follow.
  out.reserve(
      std::min<std::size_t>(count, reply.payload.size() / kScoreBytes));
  for (std::uint32_t i = 0; i < count; ++i) {
    serve::ServeScore s;
    if (!read_score(r, s)) break;
    out.push_back(s);
  }
  if (!r.done() || out.size() != count) {
    fail("bad TOP_N reply payload");
    return std::nullopt;
  }
  return out;
}

bool Client::ingest(const serve::LineMeasurement& m) {
  PayloadWriter w;
  write_measurement(w, m);
  Frame reply;
  return roundtrip(Op::kIngestMeasurement, w.data(), reply);
}

bool Client::ingest_ticket(dslsim::LineId line, util::Day day) {
  PayloadWriter w;
  w.u32(line);
  w.i32(day);
  Frame reply;
  return roundtrip(Op::kIngestTicket, w.data(), reply);
}

std::optional<ModelInfoReply> Client::model_info() {
  Frame reply;
  if (!roundtrip(Op::kModelInfo, {}, reply)) return std::nullopt;
  PayloadReader r(reply.payload);
  ModelInfoReply info;
  if (!read_model_info(r, info) || !r.done()) {
    fail("bad MODEL_INFO reply payload");
    return std::nullopt;
  }
  return info;
}

std::optional<Frame> Client::request(Op op,
                                     std::span<const std::uint8_t> payload) {
  Frame reply;
  if (!roundtrip(op, payload, reply)) return std::nullopt;
  return reply;
}

}  // namespace nevermind::net
