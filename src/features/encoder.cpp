#include "features/encoder.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "dslsim/profile.hpp"
#include "util/stats.hpp"

namespace nevermind::features {

namespace {

using dslsim::LineMetric;
using dslsim::MetricVector;
using dslsim::kNumLineMetrics;

void append_metric_columns(std::vector<ml::ColumnInfo>& cols,
                           const char* prefix, bool keep_categorical) {
  for (std::size_t i = 0; i < kNumLineMetrics; ++i) {
    ml::ColumnInfo info;
    info.name = std::string(prefix) + std::string(dslsim::metric_name(i));
    info.categorical = keep_categorical && dslsim::metric_is_categorical(i);
    cols.push_back(std::move(info));
  }
}

}  // namespace

std::vector<ml::ColumnInfo> base_columns(const EncoderConfig& config) {
  std::vector<ml::ColumnInfo> cols;
  if (config.include_basic) append_metric_columns(cols, "b.", true);
  if (config.include_delta) append_metric_columns(cols, "d.", false);
  if (config.include_timeseries) append_metric_columns(cols, "ts.", false);
  if (config.include_customer) {
    cols.push_back({"prof.dnbr", false});
    cols.push_back({"prof.upbr", false});
    cols.push_back({"prof.dnmaxattain", false});
    cols.push_back({"prof.upmaxattain", false});
    cols.push_back({"cust.ticket_days", false});
    cols.push_back({"cust.modem_off_frac", false});
  }
  return cols;
}

std::vector<ml::ColumnInfo> all_columns(const EncoderConfig& config) {
  std::vector<ml::ColumnInfo> cols = base_columns(config);
  const std::size_t n_base = cols.size();
  if (config.include_quadratic) {
    for (std::size_t i = 0; i < n_base; ++i) {
      cols.push_back({"q." + cols[i].name, false});
    }
  }
  for (const auto& [a, b] : config.product_pairs) {
    if (a < n_base && b < n_base) {
      cols.push_back({"p." + cols[a].name + "*" + cols[b].name, false});
    }
  }
  return cols;
}

bool TicketLabeler::operator()(const dslsim::SimDataset& data,
                               dslsim::LineId line, util::Day day) const {
  const auto next = data.next_edge_ticket_after(line, day);
  return next.has_value() && *next <= day + horizon_days;
}

void save_encoder_config(std::ostream& os, const EncoderConfig& config) {
  os.precision(std::numeric_limits<float>::max_digits10);
  os << "encoder v1 " << (config.include_basic ? 1 : 0) << ' '
     << (config.include_delta ? 1 : 0) << ' '
     << (config.include_timeseries ? 1 : 0) << ' '
     << (config.include_customer ? 1 : 0) << ' '
     << (config.include_quadratic ? 1 : 0) << ' ' << config.min_history_weeks
     << ' ' << config.no_ticket_days << ' ' << config.product_pairs.size()
     << '\n';
  for (const auto& [a, b] : config.product_pairs) {
    os << a << ' ' << b << '\n';
  }
}

std::optional<EncoderConfig> load_encoder_config(std::istream& is) {
  std::string magic;
  std::string version;
  int basic = 0;
  int delta = 0;
  int timeseries = 0;
  int customer = 0;
  int quadratic = 0;
  std::size_t n_pairs = 0;
  EncoderConfig config;
  if (!(is >> magic >> version >> basic >> delta >> timeseries >> customer >>
        quadratic >> config.min_history_weeks >> config.no_ticket_days >>
        n_pairs) ||
      magic != "encoder" || version != "v1") {
    return std::nullopt;
  }
  config.include_basic = basic != 0;
  config.include_delta = delta != 0;
  config.include_timeseries = timeseries != 0;
  config.include_customer = customer != 0;
  config.include_quadratic = quadratic != 0;
  config.product_pairs.reserve(n_pairs);
  for (std::size_t i = 0; i < n_pairs; ++i) {
    std::size_t a = 0;
    std::size_t b = 0;
    if (!(is >> a >> b)) return std::nullopt;
    config.product_pairs.emplace_back(a, b);
  }
  return config;
}

void LineWindow::update(const MetricVector& current) {
  ++tests_seen;
  if (!dslsim::record_present(current)) {
    ++tests_off;
    has_prev = false;  // a gap breaks the week-over-week delta
    return;
  }
  for (std::size_t i = 0; i < kNumLineMetrics; ++i) {
    if (!ml::is_missing(current[i])) history[i].add(current[i]);
  }
  prev = current;
  has_prev = true;
}

void encode_window_row(const LineWindow& state, const MetricVector& current,
                       const dslsim::ServiceProfile& profile,
                       std::optional<util::Day> last_ticket, util::Day day,
                       const EncoderConfig& config, std::size_t n_base,
                       std::span<float> out) {
  encode_base_block(state, current, profile, last_ticket, day, config, out);
  std::size_t k = n_base;
  if (config.include_quadratic) {
    for (std::size_t i = 0; i < n_base; ++i) {
      out[k++] = derived_feature(out[i], out[i]);
    }
  }
  for (const auto& [a, b] : config.product_pairs) {
    if (a < n_base && b < n_base) out[k++] = derived_feature(out[a], out[b]);
  }
}

void encode_base_block(const LineWindow& state, const MetricVector& current,
                       const dslsim::ServiceProfile& profile,
                       std::optional<util::Day> last_ticket, util::Day day,
                       const EncoderConfig& config, std::span<float> out) {
  std::size_t k = 0;
  const bool present = dslsim::record_present(current);

  if (config.include_basic) {
    for (std::size_t i = 0; i < kNumLineMetrics; ++i) out[k++] = current[i];
  }
  if (config.include_delta) {
    for (std::size_t i = 0; i < kNumLineMetrics; ++i) {
      const bool ok = present && state.has_prev && !ml::is_missing(current[i]) &&
                      !ml::is_missing(state.prev[i]);
      out[k++] = ok ? current[i] - state.prev[i] : ml::kMissing;
    }
  }
  if (config.include_timeseries) {
    for (std::size_t i = 0; i < kNumLineMetrics; ++i) {
      const auto& h = state.history[i];
      if (present && !ml::is_missing(current[i]) &&
          h.count() >= static_cast<std::size_t>(config.min_history_weeks)) {
        const double sd = h.stddev();
        out[k++] = static_cast<float>(
            (current[i] - h.mean()) / (sd > 1e-6 ? sd : 1.0));
      } else {
        out[k++] = ml::kMissing;
      }
    }
  }
  if (config.include_customer) {
    const auto ratio = [&](LineMetric m, double expected) -> float {
      const float v = current[dslsim::metric_index(m)];
      if (!present || ml::is_missing(v) || expected <= 0.0) return ml::kMissing;
      return static_cast<float>(v / expected);
    };
    out[k++] = ratio(LineMetric::kDnBitRate, profile.down_kbps);
    out[k++] = ratio(LineMetric::kUpBitRate, profile.up_kbps);
    out[k++] = ratio(LineMetric::kDnMaxAttainBr, profile.down_kbps);
    out[k++] = ratio(LineMetric::kUpMaxAttainBr, profile.up_kbps);

    out[k++] = last_ticket.has_value() ? static_cast<float>(day - *last_ticket)
                                       : config.no_ticket_days;
    out[k++] = state.tests_seen > 0
                   ? static_cast<float>(state.tests_off) /
                         static_cast<float>(state.tests_seen)
                   : 0.0F;
  }
}

EncodePlan compile_encode_plan(const EncoderConfig& config,
                               std::span<const std::size_t> wanted) {
  EncodePlan plan;
  plan.config = config;
  const auto n_base = static_cast<std::uint32_t>(base_columns(config).size());
  // The full layout's sources, in encode_window_row's column order.
  std::vector<ColumnSource> layout;
  for (std::uint32_t i = 0; i < n_base; ++i) layout.push_back({i, i, false});
  if (config.include_quadratic) {
    for (std::uint32_t i = 0; i < n_base; ++i) layout.push_back({i, i, true});
  }
  for (const auto& [a, b] : config.product_pairs) {
    if (a < n_base && b < n_base) {
      layout.push_back({static_cast<std::uint32_t>(a),
                        static_cast<std::uint32_t>(b), true});
    }
  }
  plan.sources.reserve(wanted.size());
  for (const std::size_t j : wanted) plan.sources.push_back(layout.at(j));
  return plan;
}

void EncodePlan::encode(const LineWindow& state, const MetricVector& current,
                        const dslsim::ServiceProfile& profile,
                        std::optional<util::Day> last_ticket, util::Day day,
                        float* out, std::size_t stride) const {
  std::array<float, 3 * kNumLineMetrics + 6> base;  // the widest base block
  encode_base_block(state, current, profile, last_ticket, day, config, base);
  for (std::size_t j = 0; j < sources.size(); ++j) {
    const ColumnSource& s = sources[j];
    out[j * stride] =
        s.derived ? derived_feature(base[s.a], base[s.b]) : base[s.a];
  }
}

WeekEncoder::WeekEncoder(const dslsim::SimDataset& data, int emit_from,
                         int emit_to, const EncoderConfig& config,
                         const TicketLabeler& labeler, RowSink sink)
    : data_(data),
      config_(config),
      labeler_(labeler),
      sink_(std::move(sink)),
      emit_from_(std::max(emit_from, 0)),
      emit_to_(std::min(emit_to, data.n_weeks() - 1)),
      n_base_(base_columns(config).size()),
      states_(data.n_lines()),
      row_(all_columns(config).size()) {}

void WeekEncoder::on_week(int week,
                          std::span<const dslsim::MetricVector> measurements) {
  if (week != next_week_) {
    throw std::logic_error("WeekEncoder: expected week " +
                           std::to_string(next_week_) + ", got " +
                           std::to_string(week));
  }
  if (measurements.size() != states_.size()) {
    throw std::invalid_argument("WeekEncoder: chunk has " +
                                std::to_string(measurements.size()) +
                                " lines, dataset has " +
                                std::to_string(states_.size()));
  }
  const util::Day day = util::saturday_of_week(week);
  const bool emitting = week >= emit_from_ && week <= emit_to_;
  const auto n_lines = static_cast<dslsim::LineId>(states_.size());
  for (dslsim::LineId u = 0; u < n_lines; ++u) {
    const MetricVector& current = measurements[u];
    if (emitting) {
      encode_window_row(states_[u], current,
                        dslsim::profile(data_.plant(u).profile),
                        data_.last_edge_ticket_at_or_before(u, day), day,
                        config_, n_base_, row_);
      sink_(std::span<const float>(row_), labeler_(data_, u, day), u, week);
      ++rows_;
    }
    states_[u].update(current);
  }
  ++next_week_;
}

namespace {

/// Shared week walker behind encode_weeks and encode_weeks_to_store:
/// drives the streaming WeekEncoder over a materialized dataset's
/// weeks. One walker means the arena, store and streamed paths cannot
/// drift.
template <typename Emit>
void walk_week_rows(const dslsim::SimDataset& data, int emit_from, int emit_to,
                    const EncoderConfig& config, const TicketLabeler& labeler,
                    Emit&& emit) {
  WeekEncoder encoder(data, emit_from, emit_to, config, labeler,
                      [&emit](std::span<const float> row, bool label,
                              dslsim::LineId u, int w) { emit(row, label, u, w); });
  for (int w = 0; w <= encoder.emit_to(); ++w) {
    encoder.on_week(w, data.week_measurements(w));
  }
}

}  // namespace

std::size_t count_week_rows(const dslsim::SimDataset& data, int emit_from,
                            int emit_to) {
  emit_from = std::max(emit_from, 0);
  emit_to = std::min(emit_to, data.n_weeks() - 1);
  if (emit_to < emit_from) return 0;
  return data.n_lines() * static_cast<std::size_t>(emit_to - emit_from + 1);
}

EncodedBlock encode_weeks(const dslsim::SimDataset& data, int emit_from,
                          int emit_to, const EncoderConfig& config,
                          const TicketLabeler& labeler) {
  const std::size_t n_rows = count_week_rows(data, emit_from, emit_to);
  EncodedBlock block{ml::FeatureArena(all_columns(config), n_rows), {}, {}};
  block.line_of_row.reserve(n_rows);
  block.week_of_row.reserve(n_rows);
  walk_week_rows(data, emit_from, emit_to, config, labeler,
                 [&](std::span<const float> row, bool label, dslsim::LineId u,
                     int w) {
                   block.dataset.add_row(row, label);
                   block.line_of_row.push_back(u);
                   block.week_of_row.push_back(w);
                 });
  return block;
}

void encode_weeks_to_store(const dslsim::SimDataset& data, int emit_from,
                           int emit_to, const EncoderConfig& config,
                           const TicketLabeler& labeler,
                           ml::ArenaStreamWriter& writer) {
  const std::size_t n_rows = count_week_rows(data, emit_from, emit_to);
  std::vector<std::uint32_t> line_of_row;
  std::vector<std::uint32_t> week_of_row;
  line_of_row.reserve(n_rows);
  week_of_row.reserve(n_rows);
  walk_week_rows(data, emit_from, emit_to, config, labeler,
                 [&](std::span<const float> row, bool label, dslsim::LineId u,
                     int w) {
                   writer.append(row, label);
                   line_of_row.push_back(static_cast<std::uint32_t>(u));
                   week_of_row.push_back(static_cast<std::uint32_t>(w));
                 });
  writer.add_aux("line", line_of_row);
  writer.add_aux("week", week_of_row);
}

namespace {

/// Notes grouped by the test week of the most recent measurement at or
/// before the dispatch day, restricted to [week_from, week_to] after
/// clamping. Shared by the count, arena and streaming dispatch paths.
std::vector<std::vector<std::uint32_t>> group_notes_by_week(
    const dslsim::SimDataset& data, int week_from, int week_to) {
  week_from = std::max(week_from, 0);
  week_to = std::min(week_to, data.n_weeks() - 1);
  const auto& notes = data.notes();
  std::vector<std::vector<std::uint32_t>> notes_by_week(
      static_cast<std::size_t>(data.n_weeks()));
  for (std::uint32_t i = 0; i < notes.size(); ++i) {
    int w = util::test_week_of(notes[i].dispatch_day);
    w = std::min(w, data.n_weeks() - 1);
    if (w < week_from || w > week_to) continue;
    notes_by_week[static_cast<std::size_t>(w)].push_back(i);
  }
  return notes_by_week;
}

}  // namespace

DispatchEncoder::DispatchEncoder(const dslsim::SimDataset& data, int week_from,
                                 int week_to, const EncoderConfig& config,
                                 RowSink sink)
    : data_(data),
      config_(config),
      sink_(std::move(sink)),
      week_to_(std::min(week_to, data.n_weeks() - 1)),
      n_base_(base_columns(config).size()),
      notes_by_week_(group_notes_by_week(data, week_from, week_to)),
      states_(data.n_lines()),
      row_(all_columns(config).size()) {}

void DispatchEncoder::on_week(
    int week, std::span<const dslsim::MetricVector> measurements) {
  if (week != next_week_) {
    throw std::logic_error("DispatchEncoder: expected week " +
                           std::to_string(next_week_) + ", got " +
                           std::to_string(week));
  }
  if (measurements.size() != states_.size()) {
    throw std::invalid_argument("DispatchEncoder: chunk has " +
                                std::to_string(measurements.size()) +
                                " lines, dataset has " +
                                std::to_string(states_.size()));
  }
  const util::Day day = util::saturday_of_week(week);
  const auto& notes = data_.notes();
  if (week <= week_to_) {
    for (std::uint32_t note_idx :
         notes_by_week_[static_cast<std::size_t>(week)]) {
      const dslsim::LineId u = notes[note_idx].line;
      encode_window_row(states_[u], measurements[u],
                        dslsim::profile(data_.plant(u).profile),
                        data_.last_edge_ticket_at_or_before(u, day), day,
                        config_, n_base_, row_);
      sink_(std::span<const float>(row_), note_idx);
      ++rows_;
    }
  }
  const auto n_lines = static_cast<dslsim::LineId>(states_.size());
  for (dslsim::LineId u = 0; u < n_lines; ++u) {
    states_[u].update(measurements[u]);
  }
  ++next_week_;
}

namespace {

/// Shared dispatch walker behind encode_at_dispatch and
/// encode_dispatch_to_store: drives the streaming DispatchEncoder over
/// a materialized dataset's weeks.
template <typename Emit>
void walk_dispatch_rows(const dslsim::SimDataset& data, int week_from,
                        int week_to, const EncoderConfig& config,
                        Emit&& emit) {
  DispatchEncoder encoder(
      data, week_from, week_to, config,
      [&emit](std::span<const float> row, std::uint32_t note_idx) {
        emit(row, note_idx);
      });
  for (int w = 0; w <= encoder.week_to(); ++w) {
    encoder.on_week(w, data.week_measurements(w));
  }
}

}  // namespace

std::size_t count_dispatch_rows(const dslsim::SimDataset& data, int week_from,
                                int week_to) {
  std::size_t n = 0;
  for (const auto& week_notes : group_notes_by_week(data, week_from, week_to)) {
    n += week_notes.size();
  }
  return n;
}

LocatorBlock encode_at_dispatch(const dslsim::SimDataset& data, int week_from,
                                int week_to, const EncoderConfig& config) {
  const std::size_t n_rows = count_dispatch_rows(data, week_from, week_to);
  LocatorBlock block{ml::FeatureArena(all_columns(config), n_rows), {}};
  block.note_of_row.reserve(n_rows);
  walk_dispatch_rows(data, week_from, week_to, config,
                     [&](std::span<const float> row, std::uint32_t note_idx) {
                       block.dataset.add_row(row, false);
                       block.note_of_row.push_back(note_idx);
                     });
  return block;
}

void encode_dispatch_to_store(const dslsim::SimDataset& data, int week_from,
                              int week_to, const EncoderConfig& config,
                              ml::ArenaStreamWriter& writer) {
  std::vector<std::uint32_t> note_of_row;
  note_of_row.reserve(count_dispatch_rows(data, week_from, week_to));
  walk_dispatch_rows(data, week_from, week_to, config,
                     [&](std::span<const float> row, std::uint32_t note_idx) {
                       writer.append(row, false);
                       note_of_row.push_back(note_idx);
                     });
  writer.add_aux("note", note_of_row);
}

}  // namespace nevermind::features
