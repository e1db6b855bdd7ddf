// The deployable scoring artefact of a trained ticket predictor: the
// full encoder layout (including the product pairs chosen during
// feature selection), the selected column indices into that layout, the
// BStump ensemble and its Platt calibrator.
//
// Both scoring paths run through this one kernel — the offline batch
// path (TicketPredictor::predict_week over a SimDataset) and the online
// serving path (serve::ScoringService over a LineStateStore) — so the
// two cannot drift: a served score is byte-identical to the batch score
// of the same feature row by construction.
//
// The kernel also round-trips through a versioned text artefact
// ("nmkernel v1", built on ml/serialization), which is what crosses the
// train-offline / serve-online boundary.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "features/encoder.hpp"
#include "ml/adaboost.hpp"
#include "ml/calibration.hpp"

namespace nevermind::core {

struct ScoringKernel {
  /// Encoder configuration including derived features; feature rows fed
  /// to score_row must follow all_columns(encoder).
  features::EncoderConfig encoder;
  /// Model feature j reads full-row column selected[j].
  std::vector<std::size_t> selected;
  /// Column infos of the selected features (names for artefact sanity
  /// checks and explanations).
  std::vector<ml::ColumnInfo> columns;
  ml::BStumpModel model;
  ml::PlattCalibrator calibrator;

  [[nodiscard]] bool trained() const noexcept { return !model.empty(); }

  /// Raw margin for one fully encoded row (all_columns(encoder) wide).
  /// Stumps accumulate in ensemble order — the same order the batch
  /// path uses per row — so single-row and batch scores are identical.
  [[nodiscard]] double score_row(std::span<const float> full_row) const;

  [[nodiscard]] double probability(double score) const noexcept {
    return calibrator.probability(score);
  }

  /// The column-wise stump loop behind score_block and the serving
  /// tiles: adds every stump's vote, in ensemble order, to scores[r],
  /// where model feature j of row r is columns[j][r]. Each row's sum
  /// follows score_row's order from the caller's starting value (0 for
  /// a score), so the result is bit-identical to score_row. The inner
  /// loop selects votes without branching on the value.
  void add_stumps(std::span<const float* const> columns,
                  std::span<double> scores) const noexcept;

  /// Column-oriented batch scoring of an encoded block (the offline
  /// path). Chunks rows under `exec`; every chunk adds stumps in
  /// ensemble order, so results match serial bit for bit.
  [[nodiscard]] std::vector<double> score_block(
      const features::EncodedBlock& block,
      const exec::ExecContext& exec = exec::ExecContext::serial()) const;

  /// Versioned text artefact ("nmkernel v1"). load returns nullopt on
  /// malformed input and, when `error` is non-null, a human-readable
  /// reason (distinguishing version mismatch from corruption).
  void save(std::ostream& os) const;
  [[nodiscard]] static std::optional<ScoringKernel> load(
      std::istream& is, std::string* error = nullptr);
};

}  // namespace nevermind::core
