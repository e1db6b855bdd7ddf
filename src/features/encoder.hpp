// Table-3 feature encoding: turns the sparse weekly line-measurement
// time series plus customer context into the fixed-length vectors the
// ticket predictor and trouble locator learn from.
//
// Feature families (paper Section 4.2):
//   basic        l_i^K               current Saturday's 25 metrics
//   delta        l_i^K - l_i^{K-1}   change vs the previous week
//   time-series  (l_i^K - mean)/sd   deviation vs the long-term history
//   profile      l_i^K / profile     rates normalized by the subscribed tier
//   ticket       days since the line's most recent trouble ticket
//   modem        fraction of past tests with the modem off
//   quadratic    x^2 per base feature (models variance)
//   product      x_i * x_j for chosen pairs (models interactions the
//                stump-linear BStump cannot see on its own)
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "dslsim/simulator.hpp"
#include "ml/dataset.hpp"
#include "ml/feature_store.hpp"
#include "util/stats.hpp"

namespace nevermind::features {

struct EncoderConfig {
  bool include_basic = true;
  bool include_delta = true;
  bool include_timeseries = true;
  /// Profile, ticket-recency and modem features (the "customer
  /// features" of Table 3).
  bool include_customer = true;
  /// Derived features.
  bool include_quadratic = false;
  /// Product features x_i * x_j over *base* feature indices (into the
  /// base layout, i.e. the columns present before derived features).
  std::vector<std::pair<std::size_t, std::size_t>> product_pairs;
  /// Minimum history samples before time-series features are defined.
  int min_history_weeks = 4;
  /// Value used for "no previous ticket" in the ticket feature (days).
  float no_ticket_days = 400.0F;
};

/// Text round-trip of an EncoderConfig ("encoder v1 ..."), so a trained
/// model artefact can carry the exact feature layout (including the
/// chosen product pairs) it was trained with. Returns nullopt on a
/// wrong magic/version or a truncated record.
void save_encoder_config(std::ostream& os, const EncoderConfig& config);
[[nodiscard]] std::optional<EncoderConfig> load_encoder_config(
    std::istream& is);

/// Per-line accumulation state, advanced one Saturday test at a time in
/// week order. This is THE shared per-line window both scoring paths
/// build features from: encode_weeks walks it over a SimDataset, and
/// the serving layer's LineStateStore keeps one per line and folds
/// measurements in as they arrive. Welford updates are sequential, so
/// feeding the same measurements in the same week order reproduces the
/// offline state bit for bit.
struct LineWindow {
  std::array<util::RunningStats, dslsim::kNumLineMetrics> history;
  dslsim::MetricVector prev{};
  bool has_prev = false;
  std::uint32_t tests_seen = 0;
  std::uint32_t tests_off = 0;

  void update(const dslsim::MetricVector& current);
};

/// Fill one example's feature vector from the line's window state, the
/// current Saturday measurement and the customer context. `out` must be
/// sized to the full column count of `config`; `n_base` is
/// base_columns(config).size(). The single shared implementation behind
/// encode_weeks, encode_at_dispatch and the online scoring service —
/// served and batch scores agree byte for byte because there is only
/// one encoding: the base block, then each derived column through
/// derived_feature.
void encode_window_row(const LineWindow& state,
                       const dslsim::MetricVector& current,
                       const dslsim::ServiceProfile& profile,
                       std::optional<util::Day> last_ticket, util::Day day,
                       const EncoderConfig& config, std::size_t n_base,
                       std::span<float> out);

/// The base (non-derived) block of encode_window_row: the first
/// base_columns(config).size() entries of `out`.
void encode_base_block(const LineWindow& state,
                       const dslsim::MetricVector& current,
                       const dslsim::ServiceProfile& profile,
                       std::optional<util::Day> last_ticket, util::Day day,
                       const EncoderConfig& config, std::span<float> out);

/// The one derived-feature arithmetic: the product of two base columns,
/// missing when either is. A quadratic feature is a column times itself.
[[nodiscard]] inline float derived_feature(float a, float b) noexcept {
  return (ml::is_missing(a) || ml::is_missing(b)) ? ml::kMissing : a * b;
}

/// Where one column of the full layout comes from: base column `a`, or
/// derived_feature(base[a], base[b]).
struct ColumnSource {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  bool derived = false;
};

/// A compiled encoding of a chosen subset of the full layout's columns:
/// the base block, then only the wanted derived columns, with
/// encode_window_row's arithmetic. The serving layer compiles one per
/// published model for the kernel's selected columns, so a served row
/// costs the base block plus a handful of products instead of the whole
/// derived layout.
struct EncodePlan {
  EncoderConfig config;
  /// sources[j]: where wanted column j comes from.
  std::vector<ColumnSource> sources;

  /// Encode one example's wanted columns: column j goes to out[j * stride]
  /// and equals encode_window_row's column wanted[j] bit for bit.
  void encode(const LineWindow& state, const dslsim::MetricVector& current,
              const dslsim::ServiceProfile& profile,
              std::optional<util::Day> last_ticket, util::Day day, float* out,
              std::size_t stride) const;
};

/// Compile the plan for full-layout column indices `wanted`; throws
/// std::out_of_range when one lies beyond all_columns(config).
[[nodiscard]] EncodePlan compile_encode_plan(
    const EncoderConfig& config, std::span<const std::size_t> wanted);

/// Encoded examples for a span of weeks: one row per (line, week) with
/// the row->line/week mapping kept alongside the ml::FeatureArena.
struct EncodedBlock {
  ml::FeatureArena dataset;
  std::vector<dslsim::LineId> line_of_row;
  std::vector<int> week_of_row;
};

/// Number and names of base (non-derived) columns under `config`.
[[nodiscard]] std::vector<ml::ColumnInfo> base_columns(
    const EncoderConfig& config);

/// Full column layout including quadratic/product derived features.
[[nodiscard]] std::vector<ml::ColumnInfo> all_columns(
    const EncoderConfig& config);

/// Labeling for the ticket predictor: Tkt(u, t, T) = 1 iff a customer-
/// edge ticket arrives within `horizon_days` after the measurement day.
struct TicketLabeler {
  int horizon_days = 28;

  [[nodiscard]] bool operator()(const dslsim::SimDataset& data,
                                dslsim::LineId line, util::Day day) const;
};

/// Encode all lines for the weeks [emit_from, emit_to] (inclusive test-
/// week indices). History state (time-series means, modem-off rates) is
/// accumulated from week 0, exactly as an online deployment would have
/// seen it.
[[nodiscard]] EncodedBlock encode_weeks(const dslsim::SimDataset& data,
                                        int emit_from, int emit_to,
                                        const EncoderConfig& config,
                                        const TicketLabeler& labeler);

/// Exact number of rows encode_weeks would emit for this week span —
/// the streaming writer needs the row count before the first append.
[[nodiscard]] std::size_t count_week_rows(const dslsim::SimDataset& data,
                                          int emit_from, int emit_to);

/// Streaming encode: walks the same per-line windows as encode_weeks
/// but appends each row straight into `writer` (declared with
/// all_columns(config) and count_week_rows(...) rows) instead of
/// materializing a FeatureArena — peak memory is one row plus the
/// writer's bounded chunk. The row->line/week mapping is recorded as
/// aux arrays "line" and "week". The caller still owns set_meta() and
/// finish().
void encode_weeks_to_store(const dslsim::SimDataset& data, int emit_from,
                           int emit_to, const EncoderConfig& config,
                           const TicketLabeler& labeler,
                           ml::ArenaStreamWriter& writer);

/// Streaming form of the week walker: feed each week's measurements in
/// ascending order (starting at week 0) and rows for weeks in
/// [emit_from, emit_to] are emitted through the sink as the week
/// arrives. `data` may be a tables-only dataset from
/// Simulator::build_tables — only tickets, plants and the topology are
/// read from it; measurements come exclusively through on_week. This is
/// the ONE walker: encode_weeks / encode_weeks_to_store drive it over a
/// materialized dataset, the streaming pipeline drives it from
/// Simulator::stream_weeks chunks, so the two paths cannot drift.
/// Resident state is one LineWindow per line plus one row buffer —
/// independent of the number of weeks streamed.
class WeekEncoder {
 public:
  using RowSink = std::function<void(std::span<const float> row, bool label,
                                     dslsim::LineId line, int week)>;

  WeekEncoder(const dslsim::SimDataset& data, int emit_from, int emit_to,
              const EncoderConfig& config, const TicketLabeler& labeler,
              RowSink sink);

  /// Consume week `week`'s measurements (one MetricVector per line);
  /// `week` must equal next_week(). Weeks past emit_to() still advance
  /// the per-line windows (a later consumer — serving replay, a test
  /// tap — may need the post-training state) but emit nothing.
  void on_week(int week, std::span<const dslsim::MetricVector> measurements);

  [[nodiscard]] int next_week() const noexcept { return next_week_; }
  [[nodiscard]] int emit_from() const noexcept { return emit_from_; }
  [[nodiscard]] int emit_to() const noexcept { return emit_to_; }
  [[nodiscard]] std::size_t rows_emitted() const noexcept { return rows_; }

 private:
  const dslsim::SimDataset& data_;
  EncoderConfig config_;
  TicketLabeler labeler_;
  RowSink sink_;
  int emit_from_;
  int emit_to_;
  int next_week_ = 0;
  std::size_t n_base_;
  std::vector<LineWindow> states_;
  std::vector<float> row_;
  std::size_t rows_ = 0;
};

/// Encode feature rows at dispatch time for the trouble locator: one
/// row per disposition note whose dispatch lies in test weeks
/// [week_from, week_to], using the most recent measurement at or before
/// the dispatch. Labels are all zero; the locator relabels per class.
struct LocatorBlock {
  ml::FeatureArena dataset;
  std::vector<std::uint32_t> note_of_row;  // index into data.notes()
  /// Optional pre-computed histogram-path quantization of `dataset`
  /// (from a v2 nmarena artefact). Training consumes it instead of
  /// re-binning when its shape and max_bins match the requested
  /// configuration; null means bin on demand.
  std::shared_ptr<const ml::BinnedColumns> bins;
};

[[nodiscard]] LocatorBlock encode_at_dispatch(const dslsim::SimDataset& data,
                                              int week_from, int week_to,
                                              const EncoderConfig& config);

/// Exact number of rows encode_at_dispatch would emit for this span.
[[nodiscard]] std::size_t count_dispatch_rows(const dslsim::SimDataset& data,
                                              int week_from, int week_to);

/// Streaming counterpart of encode_at_dispatch: appends each dispatch
/// row into `writer` and records the row->note mapping as aux array
/// "note". The caller still owns set_meta() and finish().
void encode_dispatch_to_store(const dslsim::SimDataset& data, int week_from,
                              int week_to, const EncoderConfig& config,
                              ml::ArenaStreamWriter& writer);

/// Streaming form of the dispatch walker (trouble-locator rows): feed
/// weeks in ascending order from week 0; each week's dispatch rows are
/// emitted BEFORE that week's measurements fold into the per-line
/// windows (the dispatch sees the same Saturday record the predictor
/// saw). Notes are grouped from the tables up front, so `data` may be
/// tables-only. Like WeekEncoder, this is the one walker behind
/// encode_at_dispatch / encode_dispatch_to_store and the streamed path.
class DispatchEncoder {
 public:
  using RowSink =
      std::function<void(std::span<const float> row, std::uint32_t note_idx)>;

  DispatchEncoder(const dslsim::SimDataset& data, int week_from, int week_to,
                  const EncoderConfig& config, RowSink sink);

  void on_week(int week, std::span<const dslsim::MetricVector> measurements);

  [[nodiscard]] int next_week() const noexcept { return next_week_; }
  [[nodiscard]] int week_to() const noexcept { return week_to_; }
  [[nodiscard]] std::size_t rows_emitted() const noexcept { return rows_; }

 private:
  const dslsim::SimDataset& data_;
  EncoderConfig config_;
  RowSink sink_;
  int week_to_;
  int next_week_ = 0;
  std::size_t n_base_;
  std::vector<std::vector<std::uint32_t>> notes_by_week_;
  std::vector<LineWindow> states_;
  std::vector<float> row_;
  std::size_t rows_ = 0;
};

}  // namespace nevermind::features
