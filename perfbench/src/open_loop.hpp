// Open-loop load generator for the serve-side load. One thread drives
// up to a few pipelined, non-blocking connections built on net::Codec:
//
//   - a SCORE stream whose arrivals follow a seeded Poisson schedule at
//     a fixed offered rate; every request is stamped with the time it
//     was due, so its latency counts any wait a stall imposed
//     on it, and the gap between due and actual send time measures how
//     far the generator itself fell behind;
//   - a light PING stream on its own schedule (transport round trip);
//   - ingest bursts handed over by the caller: tickets and measurements
//     sent with a fixed in-flight window per connection.
//
// A line's requests always travel on connection line % connections, and
// the server answers each connection in order, so a SCORE never
// overtakes the ticket or measurement sent for that line before it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dslsim/metrics.hpp"
#include "dslsim/profile.hpp"
#include "net/protocol.hpp"
#include "serve/micro_batcher.hpp"

namespace perfbench {

/// Pin the calling thread to one CPU (no-op for cpu < 0). Threads it
/// creates afterwards inherit the pin.
void pin_current_thread(int cpu);

struct OpenLoopConfig {
  std::uint16_t port = 0;
  std::size_t connections = 4;
  std::uint64_t seed = 1;
  /// SCORE lines are drawn uniformly from [0, n_lines).
  std::uint32_t n_lines = 0;
  /// Offered SCORE rate; <= 0 sends neither SCOREs nor PINGs.
  double rate_per_s = 0.0;
  /// How long the SCORE and PING streams run; <= 0: until stop().
  double seconds = 0.0;
  double ping_rate_per_s = 0.0;
  /// CPU the generator thread is pinned to; -1 leaves it unpinned.
  int cpu = -1;
  /// In-flight ingest frames per connection during a burst (a line's
  /// frames go out together, so it may be exceeded by one line's).
  std::size_t ingest_window = 64;
};

/// One SCORE or PING request. Times are trace-epoch nanoseconds.
struct Request {
  nevermind::net::Op op = nevermind::net::Op::kScore;
  std::uint32_t line = 0;
  bool ok = false;  // a well-formed reply of the expected op arrived
  std::int64_t due_ns = 0;
  std::int64_t send_ns = 0;
  std::int64_t done_ns = -1;
  nevermind::serve::ServeScore score;  // SCORE replies only
};

/// One line's share of an ingest burst: the customer-edge tickets
/// reported since the previous Saturday, then the week's measurement.
/// Its frames are written back to back, so no SCORE for the line can
/// land between them.
struct IngestItem {
  std::uint32_t line = 0;
  int week = 0;
  nevermind::dslsim::ProfileId profile = 1;
  const nevermind::dslsim::MetricVector* metrics = nullptr;
  std::vector<std::int32_t> ticket_days;
};

class OpenLoop {
 public:
  explicit OpenLoop(OpenLoopConfig config);
  ~OpenLoop();
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Connect every connection and start the generator thread.
  [[nodiscard]] bool start(std::string* error);

  /// Hand over a burst (the previous one must be complete) and block
  /// until every frame of it is acknowledged. Returns the burst's wall
  /// seconds, or a negative value when a reply failed or the generator
  /// stopped first.
  double run_burst(std::vector<IngestItem> items);

  /// End the SCORE and PING streams; the thread drains outstanding
  /// replies.
  void stop();
  /// Wait for the thread; false when replies were still missing at the
  /// drain deadline or a connection failed.
  bool join();

  /// Valid after join(). A deque: growing it never copies, so the
  /// generator never stalls on a reallocation mid-schedule.
  [[nodiscard]] const std::deque<Request>& requests() const noexcept {
    return requests_;
  }
  [[nodiscard]] std::uint64_t ingest_sent() const noexcept {
    return ingest_sent_;
  }
  [[nodiscard]] std::uint64_t ingest_failed() const noexcept {
    return ingest_failed_;
  }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  struct Conn;
  void run();

  OpenLoopConfig config_;
  std::vector<int> fds_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::deque<Request> requests_;
  std::uint64_t ingest_sent_ = 0;
  std::uint64_t ingest_failed_ = 0;
  std::string error_;
  bool drained_ = false;

  std::mutex burst_mutex_;
  std::condition_variable burst_cv_;
  std::vector<IngestItem> burst_items_;  // guarded by burst_mutex_
  bool burst_pending_ = false;           // guarded by burst_mutex_
  bool burst_done_ = true;               // guarded by burst_mutex_
  bool burst_failed_ = false;            // guarded by burst_mutex_
  double burst_seconds_ = 0.0;           // guarded by burst_mutex_
  bool finished_ = false;                // guarded by burst_mutex_
};

}  // namespace perfbench
