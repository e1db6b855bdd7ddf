#include "open_loop.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <limits>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace net = nevermind::net;

constexpr std::uint32_t kIngestIdBit = 0x80000000U;
constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
/// How long the thread waits for missing replies once sending ended.
constexpr std::int64_t kDrainDeadlineNs = 30'000'000'000;

int connect_to(std::uint16_t port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    *error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

}  // namespace

void pin_current_thread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
}

struct OpenLoop::Conn {
  int fd = -1;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::vector<std::uint8_t> in;
  std::size_t in_off = 0;
  std::deque<IngestItem> ingest_queue;
  std::size_t ingest_inflight = 0;
  bool failed = false;
};

OpenLoop::OpenLoop(OpenLoopConfig config) : config_(std::move(config)) {}

OpenLoop::~OpenLoop() {
  stop();
  join();
  for (const int fd : fds_) ::close(fd);
}

bool OpenLoop::start(std::string* error) {
  for (std::size_t c = 0; c < config_.connections; ++c) {
    const int fd = connect_to(config_.port, error);
    if (fd < 0) return false;
    fds_.push_back(fd);
  }
  thread_ = std::thread([this] { run(); });
  return true;
}

double OpenLoop::run_burst(std::vector<IngestItem> items) {
  std::unique_lock<std::mutex> lock(burst_mutex_);
  burst_cv_.wait(lock, [&] { return burst_done_ || finished_; });
  if (finished_) return -1.0;
  burst_items_ = std::move(items);
  burst_pending_ = true;
  burst_done_ = false;
  burst_failed_ = false;
  burst_cv_.wait(lock, [&] { return burst_done_ || finished_; });
  if (!burst_done_ || burst_failed_) return -1.0;
  return burst_seconds_;
}

void OpenLoop::stop() { stop_.store(true, std::memory_order_release); }

bool OpenLoop::join() {
  if (thread_.joinable()) thread_.join();
  return drained_ && error_.empty();
}

void OpenLoop::run() {
  pin_current_thread(config_.cpu);
  const net::Codec codec;
  const std::size_t n_conn = fds_.size();
  std::vector<Conn> conns(n_conn);
  for (std::size_t c = 0; c < n_conn; ++c) conns[c].fd = fds_[c];

  const std::int64_t t0 = trace::now_ns();
  bool sending = config_.rate_per_s > 0;
  std::int64_t send_end =
      config_.seconds > 0 ? t0 + static_cast<std::int64_t>(config_.seconds * 1e9)
                          : kNever;
  PoissonSchedule sched(config_.seed * 1000003ULL,
                        std::max(config_.rate_per_s, 1e-9), config_.n_lines);
  PoissonSchedule::Arrival next{kNever, 0};
  if (sending) {
    next = sched.next();
    next.due_ns += t0;
  }
  PoissonSchedule ping_sched(config_.seed ^ 0x5EED0000F1F1ULL,
                             std::max(config_.ping_rate_per_s, 1e-9), 1);
  PoissonSchedule::Arrival next_ping{kNever, 0};
  if (config_.ping_rate_per_s > 0) {
    next_ping = ping_sched.next();
    next_ping.due_ns += t0;
  }
  std::uint64_t pings = 0;

  bool stopped = false;
  std::size_t outstanding = 0;
  std::uint32_t ingest_seq = 0;
  std::size_t burst_total = 0;
  std::size_t burst_acked = 0;
  bool burst_active = false;
  std::int64_t burst_start = 0;

  const auto send_request = [&](net::Op op, std::uint32_t line,
                                std::int64_t due, std::size_t conn_index) {
    Request r;
    r.op = op;
    r.line = line;
    r.due_ns = due;
    r.send_ns = trace::now_ns();
    requests_.push_back(r);
    const auto id = static_cast<std::uint32_t>(requests_.size());
    net::PayloadWriter w;
    if (op == net::Op::kScore) w.u32(line);
    codec.encode_into(op, id, w.data(), conns[conn_index].out);
    ++outstanding;
  };

  const auto finish_burst = [&] {
    const std::lock_guard<std::mutex> lock(burst_mutex_);
    burst_done_ = true;
    burst_seconds_ = static_cast<double>(trace::now_ns() - burst_start) * 1e-9;
    burst_active = false;
    burst_cv_.notify_all();
  };

  const auto on_frame = [&](Conn& c, const net::Frame& f, std::int64_t now) {
    if ((f.request_id & kIngestIdBit) != 0) {
      if (c.ingest_inflight > 0) --c.ingest_inflight;
      const bool good = f.op == net::reply_op(net::Op::kIngestMeasurement) ||
                        f.op == net::reply_op(net::Op::kIngestTicket);
      if (!good) ++ingest_failed_;
      if (burst_active) {
        ++burst_acked;
        if (!good) {
          const std::lock_guard<std::mutex> lock(burst_mutex_);
          burst_failed_ = true;
        }
        if (burst_acked == burst_total) finish_burst();
      }
      return;
    }
    if (f.request_id == 0 || f.request_id > requests_.size()) {
      c.failed = true;
      return;
    }
    Request& r = requests_[f.request_id - 1];
    if (r.done_ns >= 0) return;
    r.done_ns = now;
    --outstanding;
    if (r.op == net::Op::kScore && f.op == net::reply_op(net::Op::kScore)) {
      net::PayloadReader rd(f.payload);
      r.ok = net::read_score(rd, r.score) && rd.done();
    } else if (r.op == net::Op::kPing &&
               f.op == net::reply_op(net::Op::kPing)) {
      r.ok = true;
    }
  };

  std::vector<pollfd> pfds(n_conn);
  std::int64_t drain_deadline = kNever;
  while (true) {
    std::int64_t now = trace::now_ns();
    if (!stopped && stop_.load(std::memory_order_acquire)) {
      stopped = true;
      send_end = std::min(send_end, now);
    }

    // Due arrivals.
    while (sending) {
      if (next.due_ns >= send_end) {
        sending = false;
        break;
      }
      if (next.due_ns > now) break;
      send_request(net::Op::kScore, next.line, next.due_ns,
                   next.line % n_conn);
      next = sched.next();
      next.due_ns += t0;
    }
    while (sending && next_ping.due_ns <= now) {
      send_request(net::Op::kPing, 0, next_ping.due_ns, pings++ % n_conn);
      next_ping = ping_sched.next();
      next_ping.due_ns += t0;
    }

    // A new burst from the caller.
    if (!burst_active) {
      std::vector<IngestItem> items;
      bool got = false;
      {
        const std::lock_guard<std::mutex> lock(burst_mutex_);
        got = burst_pending_;
        if (got) {
          items = std::move(burst_items_);
          burst_items_.clear();
          burst_pending_ = false;
        }
      }
      if (got) {
        burst_active = true;
        burst_total = 0;
        burst_acked = 0;
        burst_start = now;
        for (IngestItem& it : items) {
          burst_total += 1 + it.ticket_days.size();
          conns[it.line % n_conn].ingest_queue.push_back(std::move(it));
        }
        if (burst_total == 0) finish_burst();
      }
    }
    for (Conn& c : conns) {
      while (c.ingest_inflight < config_.ingest_window &&
             !c.ingest_queue.empty()) {
        IngestItem it = std::move(c.ingest_queue.front());
        c.ingest_queue.pop_front();
        for (const std::int32_t day : it.ticket_days) {
          net::PayloadWriter w;
          w.u32(it.line);
          w.i32(day);
          codec.encode_into(net::Op::kIngestTicket,
                            kIngestIdBit | (ingest_seq++ & ~kIngestIdBit),
                            w.data(), c.out);
        }
        nevermind::serve::LineMeasurement m;
        m.line = it.line;
        m.week = it.week;
        m.profile = it.profile;
        m.metrics = *it.metrics;
        net::PayloadWriter w;
        net::write_measurement(w, m);
        codec.encode_into(net::Op::kIngestMeasurement,
                          kIngestIdBit | (ingest_seq++ & ~kIngestIdBit),
                          w.data(), c.out);
        const std::size_t frames = 1 + it.ticket_days.size();
        c.ingest_inflight += frames;
        ingest_sent_ += frames;
      }
    }

    // Push bytes out.
    for (Conn& c : conns) {
      while (!c.failed && c.out_off < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (n > 0) {
          c.out_off += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
            c.failed = true;
          }
          break;
        }
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }

    bool any_failed = false;
    bool ingest_busy = burst_active;
    for (const Conn& c : conns) any_failed = any_failed || c.failed;
    if (any_failed) {
      error_ = "a generator connection failed";
      break;
    }
    if (!sending && outstanding == 0 && !ingest_busy) {
      drained_ = true;
      break;
    }
    if (!sending && drain_deadline == kNever) {
      drain_deadline = now + kDrainDeadlineNs;
    }
    if (now > drain_deadline) {
      error_ = "replies still missing at the drain deadline";
      break;
    }

    // While the schedule runs, poll without sleeping: waking a sleeping
    // thread on a virtual machine can take milliseconds, which would
    // make the generator, not the server, late. Once sending has ended,
    // sleep up to 1 ms per poll while replies drain.
    const std::int64_t wake = sending ? now : now + 1'000'000;
    for (std::size_t c = 0; c < n_conn; ++c) {
      pfds[c].fd = conns[c].fd;
      pfds[c].events = static_cast<short>(
          POLLIN | (conns[c].out_off < conns[c].out.size() ? POLLOUT : 0));
      pfds[c].revents = 0;
    }
    const std::int64_t wait = std::max<std::int64_t>(0, wake - now);
    timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                static_cast<long>(wait % 1'000'000'000)};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    now = trace::now_ns();
    for (std::size_t ci = 0; ci < n_conn; ++ci) {
      if ((pfds[ci].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn& c = conns[ci];
      std::uint8_t buf[64 * 1024];
      while (true) {
        const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
        if (n > 0) {
          c.in.insert(c.in.end(), buf, buf + n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          c.failed = true;
        }
        break;
      }
      while (true) {
        const auto d = codec.decode(std::span<const std::uint8_t>(
            c.in.data() + c.in_off, c.in.size() - c.in_off));
        if (d.status == net::Codec::DecodeStatus::kNeedMore) break;
        if (d.status == net::Codec::DecodeStatus::kError) {
          c.failed = true;
          break;
        }
        c.in_off += d.consumed;
        on_frame(c, d.frame, now);
      }
      if (c.in_off == c.in.size()) {
        c.in.clear();
        c.in_off = 0;
      }
    }
  }

  const std::lock_guard<std::mutex> lock(burst_mutex_);
  finished_ = true;
  burst_cv_.notify_all();
}

}  // namespace perfbench
