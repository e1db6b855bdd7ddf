#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <unordered_map>

#include "heap_probe.hpp"

namespace perfbench::trace {
namespace {

const Clock::time_point g_epoch = Clock::now();
std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{0};

std::mutex g_mutex;
std::vector<SpanRecord> g_spans;  // guarded by g_mutex

thread_local Span* t_open = nullptr;

std::uint32_t thread_index() {
  thread_local const std::uint32_t index = g_next_thread.fetch_add(1);
  return index;
}

void push(SpanRecord rec) {
  rec.thread = thread_index();
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_spans.push_back(std::move(rec));
}

void write_escaped(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

/// Children of each span id, for the tree walks below.
std::unordered_map<std::uint32_t, std::vector<const SpanRecord*>> children_of(
    const std::vector<SpanRecord>& all) {
  std::unordered_map<std::uint32_t, std::vector<const SpanRecord*>> kids;
  for (const auto& s : all) {
    if (s.parent != 0) kids[s.parent].push_back(&s);
  }
  return kids;
}

template <typename Visit>
void walk_descendants(
    const std::unordered_map<std::uint32_t, std::vector<const SpanRecord*>>&
        kids,
    std::uint32_t id, const Visit& visit) {
  const auto it = kids.find(id);
  if (it == kids.end()) return;
  for (const SpanRecord* child : it->second) {
    visit(*child);
    walk_descendants(kids, child->id, visit);
  }
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

Span::Span(std::string_view name, bool track_heap, std::uint64_t request)
    : request_(request), track_heap_(track_heap) {
  outer_ = t_open;
  t_open = this;
  if (enabled()) {
    name_ = name;
    parent_ = outer_ != nullptr ? outer_->id_ : 0;
    id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  }
  if (track_heap_) {
    if (outer_ != nullptr && outer_->track_heap_) {
      outer_->heap_peak_ = std::max(outer_->heap_peak_, heap::peak_bytes());
    }
    heap::reset_peak();
    heap_base_ = heap::live_bytes();
    heap_peak_ = heap_base_;
  }
  start_ns_ = now_ns();
}

double Span::elapsed_s() const {
  return static_cast<double>(now_ns() - start_ns_) * 1e-9;
}

std::int64_t Span::heap_peak() const {
  return track_heap_ ? std::max(heap_peak_, heap::peak_bytes()) : -1;
}

Span::~Span() {
  const std::int64_t end = now_ns();
  if (track_heap_) {
    heap_peak_ = heap_peak();
    if (outer_ != nullptr && outer_->track_heap_) {
      outer_->heap_peak_ = std::max(outer_->heap_peak_, heap_peak_);
    }
  }
  t_open = outer_;
  if (id_ == 0) return;
  SpanRecord rec;
  rec.name = std::move(name_);
  rec.start_ns = start_ns_;
  rec.end_ns = end;
  rec.id = id_;
  rec.parent = parent_;
  rec.request = request_;
  rec.base_heap_bytes = track_heap_ ? heap_base_ : -1;
  rec.peak_heap_bytes = track_heap_ ? heap_peak_ : -1;
  push(std::move(rec));
}

void record(std::string_view name, std::int64_t start_ns, std::int64_t end_ns,
            std::uint32_t parent, std::uint64_t request) {
  if (!enabled()) return;
  SpanRecord rec;
  rec.name = name;
  rec.start_ns = start_ns;
  rec.end_ns = end_ns;
  rec.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec.parent = parent;
  rec.request = request;
  push(std::move(rec));
}

std::vector<SpanRecord> spans() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  return g_spans;
}

void clear() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_spans.clear();
}

bool write_chrome_json(const std::string& path) {
  const std::vector<SpanRecord> all = spans();
  std::ofstream os(path);
  if (!os) return false;
  os << std::fixed << std::setprecision(3);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& s : all) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"";
    write_escaped(os, s.name);
    os << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
       << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"request_id\":" << s.request;
    if (s.peak_heap_bytes >= 0) {
      os << ",\"peak_heap_bytes\":" << s.peak_heap_bytes;
    }
    os << "}}";
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

double self_seconds(const std::vector<SpanRecord>& all,
                    const SpanRecord& span) {
  // Union of the direct children's intervals, clipped to the span.
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (const auto& s : all) {
    if (s.parent == span.id && span.id != 0) {
      covered.emplace_back(std::max(s.start_ns, span.start_ns),
                           std::min(s.end_ns, span.end_ns));
    }
  }
  std::sort(covered.begin(), covered.end());
  std::int64_t busy = 0;
  std::int64_t reach = span.start_ns;
  for (const auto& [b, e] : covered) {
    const std::int64_t from = std::max(b, reach);
    if (e > from) {
      busy += e - from;
      reach = e;
    }
  }
  return static_cast<double>(span.end_ns - span.start_ns - busy) * 1e-9;
}

std::vector<double> per_root_seconds(const std::vector<SpanRecord>& all,
                                     std::string_view root,
                                     std::string_view name) {
  const auto kids = children_of(all);
  std::vector<double> out;
  for (const auto& r : all) {
    if (r.name != root) continue;
    double sum = 0.0;
    walk_descendants(kids, r.id, [&](const SpanRecord& s) {
      if (s.name == name) sum += s.seconds();
    });
    out.push_back(sum);
  }
  return out;
}

std::vector<double> per_root_peak_heap_mb(const std::vector<SpanRecord>& all,
                                          std::string_view root,
                                          std::string_view name) {
  const auto kids = children_of(all);
  std::vector<double> out;
  for (const auto& r : all) {
    if (r.name != root) continue;
    std::int64_t peak = -1;
    walk_descendants(kids, r.id, [&](const SpanRecord& s) {
      if (s.name == name) peak = std::max(peak, s.peak_heap_bytes);
    });
    if (peak >= 0 && r.base_heap_bytes >= 0) {
      out.push_back(heap::to_mb(peak - r.base_heap_bytes));
    }
  }
  return out;
}

std::vector<double> durations(const std::vector<SpanRecord>& all,
                              std::string_view name) {
  std::vector<double> out;
  for (const auto& s : all) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

}  // namespace perfbench::trace
