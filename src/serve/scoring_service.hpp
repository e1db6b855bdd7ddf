// The online query surface: score_lines(lines) point and batch queries,
// and top_n(N) population rankings — both read through the
// LineStateStore's per-line score cache against the ModelRegistry's
// current kernel. Served scores are byte-identical to the offline batch
// path (TicketPredictor::predict_week): a cache miss encodes the line
// through the model's compiled features::EncodePlan, which reproduces
// encode_window_row's selected columns bit for bit, and
// core::ScoringKernel::add_stumps, which reproduces score_row.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "exec/exec.hpp"
#include "serve/line_state_store.hpp"
#include "serve/model_registry.hpp"
#include "serve/serve_score.hpp"

namespace nevermind::serve {

/// The one ranking order: score descending, ties by ascending line id.
/// A stable sort by descending score over ascending line ids — the
/// offline predict_week ranking — is exactly this order, and because
/// line ids are unique it is total, so heads of disjoint line sets merge
/// into the head of their union. Orders anything with `score` and
/// `line` members.
struct RankOrder {
  template <typename T>
  [[nodiscard]] bool operator()(const T& a, const T& b) const noexcept {
    if (a.score != b.score) return a.score > b.score;
    return a.line < b.line;
  }
};

struct ServiceConfig {
  /// Pool used for batch scoring and the per-shard ranking passes.
  exec::ExecContext exec;
};

class ScoringService {
 public:
  /// The service borrows the store and registry; both must outlive it.
  ScoringService(const LineStateStore& store, const ModelRegistry& registry,
                 ServiceConfig config = {});

  /// Score a batch of lines (a point query is a batch of one). One
  /// model version is acquired for the whole batch; cached scores are
  /// reused and stale ones recomputed, in parallel under config.exec,
  /// byte-identical at any thread count. `valid` is false when the line
  /// has no measurement or no model is published — `reason` says which.
  [[nodiscard]] std::vector<ServeScore> score_lines(
      std::span<const dslsim::LineId> lines) const;

  /// The N highest-scoring measured lines that pass `keep` (all of them
  /// when `keep` is empty), in RankOrder — with the store replayed
  /// through week w, predict_week(w)'s head byte for byte. Empty when no
  /// trained model is published. The cluster ranks each node's primary
  /// shards with a shard filter and merges the heads in RankOrder.
  [[nodiscard]] std::vector<ServeScore> top_n(
      std::size_t n, const LineFilter& keep = {}) const;

 private:
  const LineStateStore& store_;
  const ModelRegistry& registry_;
  ServiceConfig config_;
};

}  // namespace nevermind::serve
