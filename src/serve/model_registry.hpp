// Versioned model registry with atomic hot-swap. Training publishes an
// immutable ScoringKernel bundle; serving threads acquire() the current
// bundle at the start of a batch and keep scoring against it even while
// a newer version is published mid-flight — RCU in miniature. The old
// bundle is destroyed when the last in-flight batch drops its
// shared_ptr; no reader ever blocks a publisher or vice versa.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "core/scoring_kernel.hpp"

namespace nevermind::serve {

/// One immutable published model version. Everything reachable from
/// here is frozen at publish time; concurrent readers share it freely.
struct ServeModel {
  std::uint64_t version = 0;
  /// Process-unique identity of this bundle. LineStateStore tags each
  /// cached score with the stamp of the model that computed it; versions
  /// restart at 1 in every registry, so they cannot serve as that tag.
  std::uint64_t stamp = 0;
  core::ScoringKernel kernel;
  /// kernel.selected compiled against kernel.encoder.
  features::EncodePlan plan;
};

class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Install `kernel` as the new current model and return its version.
  /// Versions increase monotonically from 1. Release-store: a reader
  /// that acquires the new pointer sees the fully built bundle. Throws
  /// std::out_of_range when a selected column lies beyond the kernel's
  /// encoder layout.
  std::uint64_t publish(core::ScoringKernel kernel);

  /// The current model, or nullptr before the first publish. Acquire-
  /// load; callers hold the shared_ptr for the duration of one batch so
  /// every row of the batch scores under one consistent version.
  [[nodiscard]] std::shared_ptr<const ServeModel> acquire() const noexcept;

  /// Version of the current model (0 before the first publish).
  [[nodiscard]] std::uint64_t current_version() const noexcept;

  /// Number of publishes so far.
  [[nodiscard]] std::uint64_t swap_count() const noexcept {
    return swaps_.load(std::memory_order_relaxed);
  }

 private:
#if defined(__SANITIZE_THREAD__)
  // TSan builds swap under a mutex: libstdc++'s _Sp_atomic::load
  // releases its embedded spinlock with a relaxed store, so TSan cannot
  // form the happens-before edge and reports a false race inside the
  // standard library. The mutex guards only the pointer copy
  // (nanoseconds); the serving semantics are identical.
  mutable std::mutex mutex_;
  std::shared_ptr<const ServeModel> model_;
#else
  std::atomic<std::shared_ptr<const ServeModel>> model_;
#endif
  std::atomic<std::uint64_t> next_version_{1};
  std::atomic<std::uint64_t> swaps_{0};
};

}  // namespace nevermind::serve
