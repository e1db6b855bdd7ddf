// Dataset artefact I/O for the two training matrices: persist an
// encoded block (features + labels + row mappings + the exact encoder
// configuration) and load it back for training without re-running the
// encoder.
//
// Format dispatch by path: "*.nmarena" saves the binary nmarena v1
// artefact through the streaming writer (the full matrix is never
// resident — encode_*_to_store appends chunk-wise); any other path
// saves the portable "nmdataset v1" text form. Loading sniffs the file
// magic, so either format loads through the same entry points; binary
// files honour the requested load mode (eager heap copy vs mmap'ed
// read-only arena), text always loads eagerly.
//
// The artefact's meta blob records the dataset kind ("predictor" or
// "locator") and the encoder configuration, so a loader can refuse a
// matrix encoded for the other model or under a different feature
// layout.
#pragma once

#include <optional>
#include <string>

#include "exec/exec.hpp"
#include "features/encoder.hpp"
#include "ml/feature_store.hpp"

namespace nevermind::features {

/// A persisted predictor training matrix: the encoded block plus the
/// encoder configuration it was produced with.
struct PredictorDataset {
  EncoderConfig encoder;
  EncodedBlock block;
};

/// A persisted locator training matrix.
struct LocatorDataset {
  EncoderConfig encoder;
  LocatorBlock block;
};

/// Encode weeks [emit_from, emit_to] and persist the matrix to `path`
/// (binary nmarena when the path ends in ".nmarena", text otherwise).
[[nodiscard]] ml::StoreStatus save_predictor_dataset(
    const std::string& path, const dslsim::SimDataset& data, int emit_from,
    int emit_to, const EncoderConfig& config, const TicketLabeler& labeler);

/// Encode dispatch rows for weeks [week_from, week_to] and persist.
/// `with_bins` (binary artefacts only — the text form never carries
/// bins) additionally quantizes the matrix and writes an nmarena v2
/// artefact whose bin-code section lets train_from_block skip
/// re-binning; this path encodes the matrix in memory instead of
/// streaming, which is fine at locator scale (dispatch rows only).
[[nodiscard]] ml::StoreStatus save_locator_dataset(
    const std::string& path, const dslsim::SimDataset& data, int week_from,
    int week_to, const EncoderConfig& config, bool with_bins = false,
    const ml::BinningConfig& binning = {});

/// Load a persisted predictor matrix. `mode` selects eager vs mmap for
/// binary artefacts (ignored for text). Returns nullopt with `status`
/// filled on IO/corruption errors or when the artefact is not a
/// predictor dataset.
[[nodiscard]] std::optional<PredictorDataset> load_predictor_dataset(
    const std::string& path, ml::ArenaLoadMode mode = ml::ArenaLoadMode::kEager,
    ml::StoreStatus* status = nullptr);

[[nodiscard]] std::optional<LocatorDataset> load_locator_dataset(
    const std::string& path, ml::ArenaLoadMode mode = ml::ArenaLoadMode::kEager,
    ml::StoreStatus* status = nullptr);

/// Kind recorded in a dataset artefact's meta blob ("predictor",
/// "locator"), or nullopt if the blob does not parse. Exposed for the
/// CLI `dataset` inspect subcommand.
[[nodiscard]] std::optional<std::string> dataset_kind(const std::string& meta);

/// Knobs for the streamed simulate→encode pipeline savers below.
struct StreamPipelineOptions {
  /// Stream at least through this test week even when it lies past the
  /// last emitted week (a tap may need later weeks — e.g. the serving
  /// replay feeding the prediction week). -1 = stop at the last
  /// emitted/dispatch week.
  int stream_through = -1;
  /// Optional observer invoked with every week chunk after the encoder
  /// has consumed it: serving replay, CSV export, extra encoders,
  /// divergence hashing in tests and bench_scale. The chunk's span is
  /// only valid during the call.
  dslsim::WeekSink tap;
};

/// Stream-encode weeks [emit_from, emit_to] into a binary predictor
/// dataset at `path` (must end in ".nmarena") WITHOUT materialized
/// measurement tables: `tables` is a (possibly tables-only) dataset
/// from Simulator::build_tables or run, and the weekly measurements are
/// generated on the fly by sim.stream_weeks and handed to the encoder
/// one chunk at a time. The artefact is byte-identical to
/// save_predictor_dataset over a materialized run() at every thread
/// count. Peak residency: one LineWindow per line + one week chunk +
/// one writer chunk + the row mappings.
[[nodiscard]] ml::StoreStatus stream_save_predictor_dataset(
    const std::string& path, const dslsim::Simulator& sim,
    const dslsim::SimDataset& tables, const exec::ExecContext& exec,
    int emit_from, int emit_to, const EncoderConfig& config,
    const TicketLabeler& labeler, const StreamPipelineOptions& options = {});

/// Streamed counterpart of save_locator_dataset (always without bins —
/// quantization needs the whole matrix, which this path never holds).
/// Byte-identical to save_locator_dataset(..., with_bins=false).
[[nodiscard]] ml::StoreStatus stream_save_locator_dataset(
    const std::string& path, const dslsim::Simulator& sim,
    const dslsim::SimDataset& tables, const exec::ExecContext& exec,
    int week_from, int week_to, const EncoderConfig& config,
    const StreamPipelineOptions& options = {});

}  // namespace nevermind::features
