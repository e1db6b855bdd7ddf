#include "core/scoring_kernel.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "ml/serialization.hpp"

namespace nevermind::core {

namespace {

void fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

}  // namespace

double ScoringKernel::score_row(std::span<const float> full_row) const {
  double score = 0.0;
  for (const auto& stump : model.stumps()) {
    score += stump.evaluate(full_row[selected[stump.feature]]);
  }
  return score;
}

void ScoringKernel::add_stumps(std::span<const float* const> columns,
                               std::span<double> scores) const noexcept {
  const std::size_t n = scores.size();
  for (const auto& stump : model.stumps()) {
    // Same votes as Stump::evaluate: a missing (NaN) value fails both
    // comparisons and then takes score_missing.
    const float* x = columns[stump.feature];
    const float t = stump.threshold;
    const double pass = stump.score_pass;
    const double fail = stump.score_fail;
    const double missing = stump.score_missing;
    if (stump.categorical) {
      for (std::size_t r = 0; r < n; ++r) {
        const double vote = x[r] == t ? pass : fail;
        scores[r] += ml::is_missing(x[r]) ? missing : vote;
      }
    } else {
      for (std::size_t r = 0; r < n; ++r) {
        const double vote = x[r] >= t ? pass : fail;
        scores[r] += ml::is_missing(x[r]) ? missing : vote;
      }
    }
  }
}

std::vector<double> ScoringKernel::score_block(
    const features::EncodedBlock& block, const exec::ExecContext& exec) const {
  // Batch scoring chunks across rows: each row's accumulator belongs to
  // one chunk and adds stumps in order, so results match serial bit for
  // bit.
  std::vector<double> scores(block.dataset.n_rows(), 0.0);
  exec.parallel_for(
      0, block.dataset.n_rows(), 0, [&](std::size_t b, std::size_t e) {
        std::vector<const float*> columns(selected.size());
        for (std::size_t j = 0; j < selected.size(); ++j) {
          columns[j] = block.dataset.column(selected[j]).data() + b;
        }
        add_stumps(columns, std::span<double>(scores).subspan(b, e - b));
      });
  return scores;
}

void ScoringKernel::save(std::ostream& os) const {
  os << "nmkernel v1\n";
  features::save_encoder_config(os, encoder);
  os << "selected " << selected.size();
  for (const std::size_t j : selected) os << ' ' << j;
  os << '\n';
  os << "columns " << columns.size() << '\n';
  // Names contain '.', '*', never whitespace; one per line.
  for (const auto& col : columns) {
    os << col.name << ' ' << (col.categorical ? 1 : 0) << '\n';
  }
  ml::save_model(os, model);
  ml::save_calibrator(os, calibrator);
}

std::optional<ScoringKernel> ScoringKernel::load(std::istream& is,
                                                 std::string* error) {
  std::string magic;
  std::string version;
  if (!(is >> magic >> version) || magic != "nmkernel") {
    fail(error, "not a predictor kernel artefact (missing 'nmkernel' magic)");
    return std::nullopt;
  }
  if (version != "v1") {
    fail(error, "unsupported predictor kernel version '" + version +
                    "' (this build reads v1)");
    return std::nullopt;
  }
  ScoringKernel kernel;
  auto encoder = features::load_encoder_config(is);
  if (!encoder.has_value()) {
    fail(error, "malformed encoder configuration block");
    return std::nullopt;
  }
  kernel.encoder = std::move(*encoder);

  std::string tag;
  std::size_t n_selected = 0;
  if (!(is >> tag >> n_selected) || tag != "selected") {
    fail(error, "malformed selected-feature list");
    return std::nullopt;
  }
  kernel.selected.resize(n_selected);
  for (std::size_t i = 0; i < n_selected; ++i) {
    if (!(is >> kernel.selected[i])) {
      fail(error, "truncated selected-feature list");
      return std::nullopt;
    }
  }

  std::size_t n_columns = 0;
  if (!(is >> tag >> n_columns) || tag != "columns") {
    fail(error, "malformed column list");
    return std::nullopt;
  }
  kernel.columns.resize(n_columns);
  for (std::size_t i = 0; i < n_columns; ++i) {
    int categorical = 0;
    if (!(is >> kernel.columns[i].name >> categorical)) {
      fail(error, "truncated column list");
      return std::nullopt;
    }
    kernel.columns[i].categorical = categorical != 0;
  }
  if (n_columns != n_selected) {
    fail(error, "column/selected count mismatch");
    return std::nullopt;
  }

  auto model = ml::load_model(is);
  if (!model.has_value()) {
    fail(error, "malformed BStump ensemble block");
    return std::nullopt;
  }
  kernel.model = std::move(*model);

  // Every stump must reference a valid selected slot, and every selected
  // index must exist in the encoder's full layout.
  const std::size_t n_all = features::all_columns(kernel.encoder).size();
  for (const auto& stump : kernel.model.stumps()) {
    if (stump.feature >= kernel.selected.size()) {
      fail(error, "stump references feature beyond the selected set");
      return std::nullopt;
    }
  }
  for (const std::size_t j : kernel.selected) {
    if (j >= n_all) {
      fail(error, "selected feature index beyond the encoder layout");
      return std::nullopt;
    }
  }

  auto calibrator = ml::load_calibrator(is);
  if (!calibrator.has_value()) {
    fail(error, "malformed Platt calibrator block");
    return std::nullopt;
  }
  kernel.calibrator = *calibrator;
  return kernel;
}

}  // namespace nevermind::core
