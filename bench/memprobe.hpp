// Allocation and peak-RSS instrumentation for the memory benches.
//
// Two independent signals, because they fail differently:
//   - cumulative bytes handed out by the global allocator — a
//     driver-independent measure of allocation churn that cannot be
//     confused by the OS reusing pages;
//   - VmHWM (peak resident set) from /proc/self/status — what an
//     operator actually pays for, resettable between phases by writing
//     "5" to /proc/self/clear_refs (monotone for the process lifetime
//     when the kernel does not support the reset).
//
// The byte counter only ticks when exactly one translation unit of the
// binary defines NEVERMIND_MEMPROBE_IMPL before including this header:
// that TU receives the replacement global operator new/delete. Binaries
// that skip the define still link and run; bytes_allocated() just stays
// at zero.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

namespace nevermind::bench::memprobe {

inline std::atomic<std::uint64_t> g_bytes_allocated{0};

/// Cumulative bytes requested from the global allocator since process
/// start (0 unless NEVERMIND_MEMPROBE_IMPL was defined in one TU).
inline std::uint64_t bytes_allocated() noexcept {
  return g_bytes_allocated.load(std::memory_order_relaxed);
}

namespace detail {
inline std::uint64_t status_field_bytes(const char* key,
                                        std::size_t key_len) noexcept {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      kb = std::strtoull(line + key_len, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}
}  // namespace detail

/// Peak resident set size (VmHWM) in bytes; 0 when /proc is absent.
inline std::uint64_t peak_rss_bytes() noexcept {
  return detail::status_field_bytes("VmHWM:", 6);
}

/// Current resident set size (VmRSS) in bytes; 0 when /proc is absent.
inline std::uint64_t current_rss_bytes() noexcept {
  return detail::status_field_bytes("VmRSS:", 6);
}

/// Resets the kernel's peak-RSS watermark to the current RSS so the
/// next peak_rss_bytes() reading covers only the phase that follows.
/// Returns false when the kernel does not expose the reset, in which
/// case VmHWM stays monotone — order phases so the comparison still
/// holds (measure the expected-smaller phase first).
inline bool reset_peak_rss() noexcept {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return (std::fclose(f) == 0) && ok;
}

/// A phase peak-RSS sample: `bytes` is the peak attributable to the
/// phase, `exact` says whether the kernel watermark reset was available.
struct PhasePeak {
  std::uint64_t bytes = 0;
  bool exact = true;
};

/// Scoped peak-RSS measurement for one phase of a bench. Construction
/// attempts the clear_refs watermark reset; when the kernel (or a
/// container's proc restrictions) refuses it, sample() degrades to the
/// growth of VmHWM/VmRSS over the phase and flags the result as
/// approximate instead of reporting a process-lifetime peak as if it
/// were the phase's.
class PhaseRssProbe {
 public:
  PhaseRssProbe() noexcept
      : exact_(reset_peak_rss()),
        baseline_hwm_(exact_ ? 0 : peak_rss_bytes()),
        baseline_rss_(current_rss_bytes()) {}

  /// Peak RSS the phase added over the RSS at construction. Exact mode
  /// reads the reset watermark; approximate mode reports how much the
  /// monotone watermark (or, when the phase stayed under an earlier
  /// peak, current RSS) grew over the phase.
  [[nodiscard]] PhasePeak sample() const noexcept {
    if (exact_) {
      const std::uint64_t peak = peak_rss_bytes();
      return {peak > baseline_rss_ ? peak - baseline_rss_ : 0, true};
    }
    const std::uint64_t hwm = peak_rss_bytes();
    const std::uint64_t rss = current_rss_bytes();
    const std::uint64_t hwm_delta =
        hwm > baseline_hwm_ ? hwm - baseline_hwm_ : 0;
    const std::uint64_t rss_delta =
        rss > baseline_rss_ ? rss - baseline_rss_ : 0;
    return {hwm_delta > rss_delta ? hwm_delta : rss_delta, false};
  }

  [[nodiscard]] bool exact() const noexcept { return exact_; }

 private:
  bool exact_;
  std::uint64_t baseline_hwm_;
  std::uint64_t baseline_rss_;
};

}  // namespace nevermind::bench::memprobe

#ifdef NEVERMIND_MEMPROBE_IMPL

namespace {

void* memprobe_alloc(std::size_t size, std::size_t align) {
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align > alignof(std::max_align_t)) {
    if (posix_memalign(&p, align, size) != 0) p = nullptr;
  } else {
    p = std::malloc(size);
  }
  if (p == nullptr) throw std::bad_alloc();
  nevermind::bench::memprobe::g_bytes_allocated.fetch_add(
      size, std::memory_order_relaxed);
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return memprobe_alloc(size, 0); }
void* operator new[](std::size_t size) { return memprobe_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t al) {
  return memprobe_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return memprobe_alloc(size, static_cast<std::size_t>(al));
}
// The nothrow forms too: std::stable_sort's temporary buffer comes from
// nothrow new and goes back through a replaced delete, so both sides
// must use malloc/free.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return memprobe_alloc(size, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return memprobe_alloc(size, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // NEVERMIND_MEMPROBE_IMPL
