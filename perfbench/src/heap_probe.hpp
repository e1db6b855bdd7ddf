// Live-heap probe. heap_probe.cpp replaces the global operator new and
// delete for the whole benchmark binary and counts each block's
// malloc_usable_size, so the figures below are bytes the program holds
// right now — unlike RSS, which keeps counting freed memory the
// allocator has not returned to the kernel. Memory the program maps
// itself (the mmap'ed .nmarena artefacts) is not heap and is not
// counted.
#pragma once

#include <cstdint>

namespace perfbench::heap {

/// Bytes currently allocated through operator new.
[[nodiscard]] std::int64_t live_bytes() noexcept;

/// High-water of live_bytes() since the last reset_peak().
[[nodiscard]] std::int64_t peak_bytes() noexcept;

/// Restart the high-water mark at the current live size.
void reset_peak() noexcept;

/// Peak resident set of the process (VmHWM) in bytes, 0 when
/// /proc/self/status is unreadable. Context only: it never falls.
[[nodiscard]] std::int64_t vm_hwm_bytes();

inline double to_mb(std::int64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace perfbench::heap
