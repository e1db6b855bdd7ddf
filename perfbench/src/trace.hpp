// In-memory span recorder for the traced benchmark run. A span is one
// call from the benchmark into a layer of the program: name, start,
// end, the span that caused it and, for wire requests, the request id.
// Spans stay in memory while the workload runs and are written once,
// at the end, as Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// Recording is off unless set_enabled(true): the untraced run that
// yields the end-to-end metrics pays one branch per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench::trace {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;  // since the recorder's epoch
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;       // 1-based; 0 = none
  std::uint32_t parent = 0;
  std::uint64_t request = 0;  // wire request id, 0 for non-request spans
  std::uint32_t thread = 0;   // small per-thread index
  /// Live heap at the span's start and its high water inside the span;
  /// -1 when not tracked.
  std::int64_t base_heap_bytes = -1;
  std::int64_t peak_heap_bytes = -1;

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// Nanoseconds since the recorder epoch (process start).
[[nodiscard]] std::int64_t now_ns();

/// RAII span on the calling thread; nests under the thread's open span.
/// It always times itself (and, with `track_heap`, follows the live-heap
/// high water inside it), so untraced runs read their timings from the
/// same spans; only recording is gated on enabled(). Heap tracking
/// resets the process high-water mark, so it is for main-thread stage
/// spans: two tracked spans must not overlap unless one encloses the
/// other.
class Span {
 public:
  explicit Span(std::string_view name, bool track_heap = false,
                std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  /// Seconds since the span opened.
  [[nodiscard]] double elapsed_s() const;
  /// Live heap at open, and the high water since (track_heap only).
  [[nodiscard]] std::int64_t heap_base() const noexcept { return heap_base_; }
  [[nodiscard]] std::int64_t heap_peak() const;

 private:
  std::string name_;
  std::int64_t start_ns_ = 0;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  std::uint64_t request_ = 0;
  bool track_heap_ = false;
  std::int64_t heap_base_ = -1;
  std::int64_t heap_peak_ = -1;
  Span* outer_ = nullptr;
};

/// Record a span whose times were taken elsewhere (a wire request's due
/// and reply times, measured by the load generator thread).
void record(std::string_view name, std::int64_t start_ns, std::int64_t end_ns,
            std::uint32_t parent, std::uint64_t request);

/// Snapshot of every span recorded so far, in completion order.
[[nodiscard]] std::vector<SpanRecord> spans();

/// Drop every recorded span (between the untraced and traced phases).
void clear();

/// Chrome trace-event JSON ("X" complete events, times in µs); false
/// when the file cannot be written.
bool write_chrome_json(const std::string& path);

/// Duration minus the part of it covered by direct child spans.
[[nodiscard]] double self_seconds(const std::vector<SpanRecord>& all,
                                  const SpanRecord& span);

/// For every span named `root`, the summed duration of its descendants
/// named `name` — one value per root, in root order.
[[nodiscard]] std::vector<double> per_root_seconds(
    const std::vector<SpanRecord>& all, std::string_view root,
    std::string_view name);

/// Same walk, the highest heap high water of those descendants above
/// the root's live heap at its start, in MiB.
[[nodiscard]] std::vector<double> per_root_peak_heap_mb(
    const std::vector<SpanRecord>& all, std::string_view root,
    std::string_view name);

/// Durations (seconds) of every span with this name.
[[nodiscard]] std::vector<double> durations(const std::vector<SpanRecord>& all,
                                            std::string_view name);

}  // namespace perfbench::trace
