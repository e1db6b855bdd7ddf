#include "features/dataset_io.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

namespace nevermind::features {

namespace {

constexpr const char* kPredictorKind = "predictor";
constexpr const char* kLocatorKind = "locator";

bool is_binary_path(const std::string& path) {
  constexpr std::string_view kExt = ".nmarena";
  return path.size() >= kExt.size() &&
         path.compare(path.size() - kExt.size(), kExt.size(), kExt) == 0;
}

std::string make_meta(const char* kind, const EncoderConfig& config) {
  std::ostringstream os;
  os << "nmdataset " << kind << '\n';
  save_encoder_config(os, config);
  return os.str();
}

/// Parse the meta blob; nullopt unless it names `kind` and carries a
/// valid encoder record.
std::optional<EncoderConfig> parse_meta(const std::string& meta,
                                        const char* kind) {
  std::istringstream is(meta);
  std::string magic;
  std::string got_kind;
  if (!(is >> magic >> got_kind) || magic != "nmdataset" || got_kind != kind) {
    return std::nullopt;
  }
  return load_encoder_config(is);
}

void set_status(ml::StoreStatus* status, ml::StoreError code,
                std::string message) {
  if (status != nullptr) {
    status->code = code;
    status->message = std::move(message);
  }
}

/// The aux array named `name`, or nullptr if the artefact lacks it.
const std::vector<std::uint32_t>* find_aux(const ml::StoredArena& stored,
                                           std::string_view name) {
  for (std::size_t a = 0; a < stored.aux_names.size(); ++a) {
    if (stored.aux_names[a] == name) return &stored.aux[a];
  }
  return nullptr;
}

}  // namespace

std::optional<std::string> dataset_kind(const std::string& meta) {
  std::istringstream is(meta);
  std::string magic;
  std::string kind;
  if (!(is >> magic >> kind) || magic != "nmdataset") return std::nullopt;
  return kind;
}

ml::StoreStatus save_predictor_dataset(const std::string& path,
                                       const dslsim::SimDataset& data,
                                       int emit_from, int emit_to,
                                       const EncoderConfig& config,
                                       const TicketLabeler& labeler) {
  if (is_binary_path(path)) {
    ml::ArenaStreamWriter writer(path, all_columns(config),
                                 count_week_rows(data, emit_from, emit_to));
    encode_weeks_to_store(data, emit_from, emit_to, config, labeler, writer);
    writer.set_meta(make_meta(kPredictorKind, config));
    return writer.finish();
  }
  const EncodedBlock block =
      encode_weeks(data, emit_from, emit_to, config, labeler);
  const std::vector<std::string> aux_names = {"line", "week"};
  std::vector<std::vector<std::uint32_t>> aux(2);
  aux[0].assign(block.line_of_row.begin(), block.line_of_row.end());
  aux[1].reserve(block.week_of_row.size());
  for (const int w : block.week_of_row) {
    aux[1].push_back(static_cast<std::uint32_t>(w));
  }
  std::ofstream os(path);
  if (!os) {
    return {ml::StoreError::kIoError, "cannot open " + path + " for writing"};
  }
  ml::save_arena_text(os, block.dataset, aux_names, aux,
                      make_meta(kPredictorKind, config));
  os.flush();
  if (!os) return {ml::StoreError::kIoError, "write failed for " + path};
  return {};
}

ml::StoreStatus save_locator_dataset(const std::string& path,
                                     const dslsim::SimDataset& data,
                                     int week_from, int week_to,
                                     const EncoderConfig& config,
                                     bool with_bins,
                                     const ml::BinningConfig& binning) {
  if (is_binary_path(path)) {
    if (with_bins) {
      // Quantization needs the whole matrix, which the streaming writer
      // never materializes — encode in memory and bulk-save (locator
      // matrices are dispatch-sized, not line-week-sized).
      const LocatorBlock block =
          encode_at_dispatch(data, week_from, week_to, config);
      const ml::BinnedColumns bins(block.dataset, binning);
      const std::vector<std::string> aux_names = {"note"};
      const std::vector<std::vector<std::uint32_t>> aux = {block.note_of_row};
      return ml::save_arena(path, block.dataset, aux_names, aux,
                            make_meta(kLocatorKind, config), &bins);
    }
    ml::ArenaStreamWriter writer(path, all_columns(config),
                                 count_dispatch_rows(data, week_from, week_to));
    encode_dispatch_to_store(data, week_from, week_to, config, writer);
    writer.set_meta(make_meta(kLocatorKind, config));
    return writer.finish();
  }
  const LocatorBlock block = encode_at_dispatch(data, week_from, week_to,
                                                config);
  const std::vector<std::string> aux_names = {"note"};
  std::vector<std::vector<std::uint32_t>> aux = {block.note_of_row};
  std::ofstream os(path);
  if (!os) {
    return {ml::StoreError::kIoError, "cannot open " + path + " for writing"};
  }
  ml::save_arena_text(os, block.dataset, aux_names, aux,
                      make_meta(kLocatorKind, config));
  os.flush();
  if (!os) return {ml::StoreError::kIoError, "write failed for " + path};
  return {};
}

std::optional<PredictorDataset> load_predictor_dataset(const std::string& path,
                                                       ml::ArenaLoadMode mode,
                                                       ml::StoreStatus* status) {
  auto stored = ml::load_arena_auto(path, {.mode = mode}, status);
  if (!stored.has_value()) return std::nullopt;
  auto config = parse_meta(stored->meta, kPredictorKind);
  if (!config.has_value()) {
    set_status(status, ml::StoreError::kMalformedMeta,
               path + " is not a predictor dataset artefact");
    return std::nullopt;
  }
  const auto* line = find_aux(*stored, "line");
  const auto* week = find_aux(*stored, "week");
  const std::size_t n_rows = stored->arena.n_rows();
  if (line == nullptr || week == nullptr || line->size() != n_rows ||
      week->size() != n_rows) {
    set_status(status, ml::StoreError::kMalformedMeta,
               path + " lacks the line/week row mappings");
    return std::nullopt;
  }
  if (stored->arena.n_cols() != all_columns(*config).size()) {
    set_status(status, ml::StoreError::kMalformedMeta,
               path + ": column count disagrees with the stored encoder");
    return std::nullopt;
  }
  PredictorDataset out;
  out.encoder = std::move(*config);
  out.block.line_of_row.assign(line->begin(), line->end());
  out.block.week_of_row.reserve(week->size());
  for (const std::uint32_t w : *week) {
    out.block.week_of_row.push_back(static_cast<int>(w));
  }
  out.block.dataset = std::move(stored->arena);
  return out;
}

ml::StoreStatus stream_save_predictor_dataset(
    const std::string& path, const dslsim::Simulator& sim,
    const dslsim::SimDataset& tables, const exec::ExecContext& exec,
    int emit_from, int emit_to, const EncoderConfig& config,
    const TicketLabeler& labeler, const StreamPipelineOptions& options) {
  if (!is_binary_path(path)) {
    return {ml::StoreError::kIoError,
            "streamed dataset save requires a .nmarena path: " + path};
  }
  const std::size_t n_rows = count_week_rows(tables, emit_from, emit_to);
  ml::ArenaStreamWriter writer(path, all_columns(config), n_rows);
  std::vector<std::uint32_t> line_of_row;
  std::vector<std::uint32_t> week_of_row;
  line_of_row.reserve(n_rows);
  week_of_row.reserve(n_rows);
  WeekEncoder encoder(tables, emit_from, emit_to, config, labeler,
                      [&](std::span<const float> row, bool label,
                          dslsim::LineId u, int w) {
                        writer.append(row, label);
                        line_of_row.push_back(static_cast<std::uint32_t>(u));
                        week_of_row.push_back(static_cast<std::uint32_t>(w));
                      });
  // The encoder keeps each line's history in its own LineWindow, so it
  // reads the chunk directly; the tap sees the same chunk afterwards.
  const int through = std::max(encoder.emit_to(), options.stream_through);
  sim.stream_weeks(tables, exec,
                   [&](const dslsim::WeekChunk& chunk) {
                     encoder.on_week(chunk.week, chunk.measurements);
                     if (options.tap) options.tap(chunk);
                   },
                   through);
  writer.add_aux("line", line_of_row);
  writer.add_aux("week", week_of_row);
  writer.set_meta(make_meta(kPredictorKind, config));
  return writer.finish();
}

ml::StoreStatus stream_save_locator_dataset(
    const std::string& path, const dslsim::Simulator& sim,
    const dslsim::SimDataset& tables, const exec::ExecContext& exec,
    int week_from, int week_to, const EncoderConfig& config,
    const StreamPipelineOptions& options) {
  if (!is_binary_path(path)) {
    return {ml::StoreError::kIoError,
            "streamed dataset save requires a .nmarena path: " + path};
  }
  const std::size_t n_rows = count_dispatch_rows(tables, week_from, week_to);
  ml::ArenaStreamWriter writer(path, all_columns(config), n_rows);
  std::vector<std::uint32_t> note_of_row;
  note_of_row.reserve(n_rows);
  DispatchEncoder encoder(tables, week_from, week_to, config,
                          [&](std::span<const float> row,
                              std::uint32_t note_idx) {
                            writer.append(row, false);
                            note_of_row.push_back(note_idx);
                          });
  const int through = std::max(encoder.week_to(), options.stream_through);
  sim.stream_weeks(tables, exec,
                   [&](const dslsim::WeekChunk& chunk) {
                     encoder.on_week(chunk.week, chunk.measurements);
                     if (options.tap) options.tap(chunk);
                   },
                   through);
  writer.add_aux("note", note_of_row);
  writer.set_meta(make_meta(kLocatorKind, config));
  return writer.finish();
}

std::optional<LocatorDataset> load_locator_dataset(const std::string& path,
                                                   ml::ArenaLoadMode mode,
                                                   ml::StoreStatus* status) {
  auto stored = ml::load_arena_auto(path, {.mode = mode}, status);
  if (!stored.has_value()) return std::nullopt;
  auto config = parse_meta(stored->meta, kLocatorKind);
  if (!config.has_value()) {
    set_status(status, ml::StoreError::kMalformedMeta,
               path + " is not a locator dataset artefact");
    return std::nullopt;
  }
  const auto* note = find_aux(*stored, "note");
  if (note == nullptr || note->size() != stored->arena.n_rows()) {
    set_status(status, ml::StoreError::kMalformedMeta,
               path + " lacks the note row mapping");
    return std::nullopt;
  }
  if (stored->arena.n_cols() != all_columns(*config).size()) {
    set_status(status, ml::StoreError::kMalformedMeta,
               path + ": column count disagrees with the stored encoder");
    return std::nullopt;
  }
  if (stored->bins != nullptr) {
    // The bins parser already validated shape against the header; also
    // require per-column kind agreement with the stored encoder layout
    // before handing them to training.
    for (std::size_t j = 0; j < stored->arena.n_cols(); ++j) {
      if (stored->bins->column(j).categorical !=
          stored->arena.column_info(j).categorical) {
        set_status(status, ml::StoreError::kMalformedBins,
                   path + ": bin-code section disagrees with column kinds");
        return std::nullopt;
      }
    }
  }
  LocatorDataset out;
  out.encoder = std::move(*config);
  out.block.note_of_row = *note;
  out.block.bins = stored->bins;
  out.block.dataset = std::move(stored->arena);
  return out;
}

}  // namespace nevermind::features
