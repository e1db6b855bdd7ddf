#include "serve/model_registry.hpp"

#include <utility>

namespace nevermind::serve {

namespace {

/// Stamps are unique across every registry of the process; 0 never
/// names a model, so the store uses it for "not scored".
std::atomic<std::uint64_t> g_next_stamp{1};

}  // namespace

std::uint64_t ModelRegistry::publish(core::ScoringKernel kernel) {
  auto model = std::make_shared<ServeModel>();
  model->plan =
      features::compile_encode_plan(kernel.encoder, kernel.selected);
  model->kernel = std::move(kernel);
  model->stamp = g_next_stamp.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t version =
      next_version_.fetch_add(1, std::memory_order_relaxed);
  model->version = version;
  std::shared_ptr<const ServeModel> ready(std::move(model));
#if defined(__SANITIZE_THREAD__)
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    model_ = std::move(ready);
  }
#else
  model_.store(std::move(ready), std::memory_order_release);
#endif
  swaps_.fetch_add(1, std::memory_order_relaxed);
  return version;
}

std::shared_ptr<const ServeModel> ModelRegistry::acquire() const noexcept {
#if defined(__SANITIZE_THREAD__)
  const std::lock_guard<std::mutex> lock(mutex_);
  return model_;
#else
  return model_.load(std::memory_order_acquire);
#endif
}

std::uint64_t ModelRegistry::current_version() const noexcept {
  const auto model = acquire();
  return model ? model->version : 0;
}

}  // namespace nevermind::serve
