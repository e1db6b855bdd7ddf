// Sharded per-line state store — the online half of the feature
// encoder. The offline pipeline walks a whole SimDataset and advances
// one features::LineWindow per line, week by week; this store keeps the
// same LineWindow per line and folds measurements in as they arrive
// through ingest(). Because the window update is the shared
// implementation, a store fed a dataset's measurements in week order
// holds bit-identical encoder state to the offline pass — which is what
// makes served scores byte-identical to batch scores.
//
// Layout: lines are hashed onto shards. Each shard keeps its lines'
// state in fixed-size slab pages, allocated as distinct line ids
// arrive, and reached through a per-shard id -> slot index. Beside the
// pages sits a dense score column, one ScoreCell per slot: the line's
// week and its score under the model named by the cell's stamp. Every
// write that changes a line's state clears its stamp; a read under a
// model whose stamp differs rescores the line first. Ranking is then a
// pass over the score columns instead of a re-encode of every line.
//
// Concurrency: each shard owns a mutex. Ingest, snapshot and scored
// reads take exactly one shard lock — there is no global lock on the
// hot path, so writers on different shards never contend. Scored reads
// are const but rewrite stale cells; they do so under the shard lock.
// Aggregate counters are relaxed atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "dslsim/profile.hpp"
#include "dslsim/records.hpp"
#include "features/encoder.hpp"
#include "serve/model_registry.hpp"
#include "util/calendar.hpp"

namespace nevermind::serve {

/// One line-test result arriving at the service — the online equivalent
/// of one (line, week) cell of a SimDataset, plus the profile field the
/// encoder's customer features need.
struct LineMeasurement {
  dslsim::LineId line = 0;
  int week = 0;
  dslsim::ProfileId profile = 1;
  dslsim::MetricVector metrics{};
};

/// Consistent copy of one line's serving state, taken under the shard
/// lock and encoded outside it. `window` holds history folded through
/// week-1; `current` is week's Saturday test, not yet folded — exactly
/// the (state, current) pair the offline encoder sees when it emits the
/// row for `week`.
struct LineSnapshot {
  features::LineWindow window;
  dslsim::MetricVector current{};
  int week = -1;
  dslsim::ProfileId profile = 1;
  std::optional<util::Day> last_ticket;
};

/// Exact copy of one line's full serving state — everything the store
/// keeps per line except its cached score, in a public shape the
/// cluster handoff can serialize. The export_line/import_line round
/// trip is bit-exact: an imported line scores byte-identically to the
/// original, which is the determinism contract a rejoining replica
/// relies on.
struct ExportedLine {
  dslsim::LineId line = 0;
  features::LineWindow window;
  dslsim::MetricVector current{};
  int week = -1;
  dslsim::ProfileId profile = 1;
  bool has_ticket = false;
  util::Day last_ticket = 0;
};

/// One entry of a shard's score column. `score` and `probability` are
/// the line's values under the model whose ServeModel::stamp equals
/// `stamp`; stamp 0 means not scored since the line last changed.
struct ScoreCell {
  dslsim::LineId line = 0;
  int week = -1;  // week of the line's current test; -1 = none yet
  double score = 0.0;
  double probability = 0.0;
  std::uint64_t stamp = 0;
};

/// Which lines a ranking considers; an empty filter takes every line.
using LineFilter = std::function<bool(dslsim::LineId)>;

class LineStateStore {
 public:
  explicit LineStateStore(std::size_t n_shards = 16);

  /// Fold a measurement in. Weeks must arrive in non-decreasing order
  /// per line (the weekly test schedule guarantees this); a stale week
  /// older than the line's current one is dropped. Takes one shard
  /// lock.
  void ingest(const LineMeasurement& m);

  /// Record a customer-edge ticket for the line's recency feature. Only
  /// feed tickets up to the scoring horizon (the replay driver feeds
  /// tickets reported at or before the Saturday being scored).
  void ingest_ticket(dslsim::LineId line, util::Day day);

  /// Consistent snapshot of one line, or nullopt when the line has no
  /// measurement yet.
  [[nodiscard]] std::optional<LineSnapshot> snapshot(
      dslsim::LineId line) const;

  /// Every line with at least one measurement, ascending — the serving
  /// equivalent of the offline encoder's line iteration order.
  [[nodiscard]] std::vector<dslsim::LineId> line_ids() const;

  /// Full state of one line for the cluster handoff, or nullopt when
  /// the line is unknown. Ticket-only lines (week still -1) export too.
  [[nodiscard]] std::optional<ExportedLine> export_line(
      dslsim::LineId line) const;

  /// Install exported state, overwriting any existing entry for the
  /// line. Does not count as ingest (the measurement/ticket counters
  /// track traffic, not replication). Takes one shard lock.
  void import_line(const ExportedLine& e);

  /// out[i] = the score cell of lines[i] under `model`, rescoring it
  /// first when its stamp is stale. A line with no measurement yields a
  /// cell with week -1. Takes one shard lock per line.
  void read_scores(std::span<const dslsim::LineId> lines,
                   const ServeModel& model, std::span<ScoreCell> out) const;

  /// Rescore under `model` every stale cell of shard `shard` whose line
  /// has a measurement and passes `keep`, then call `visit` with the
  /// shard's whole score column, still under the shard lock. `visit`
  /// must not call back into the store; cells it sees that `keep`
  /// rejects, or with week -1, may be stale.
  void scan_scores(
      std::size_t shard, const ServeModel& model, const LineFilter& keep,
      const std::function<void(std::span<const ScoreCell>)>& visit) const;

  [[nodiscard]] std::size_t n_lines() const;
  [[nodiscard]] std::size_t n_shards() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::uint64_t measurements_ingested() const noexcept {
    return n_measurements_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t tickets_ingested() const noexcept {
    return n_tickets_.load(std::memory_order_relaxed);
  }
  /// Lines scored so far by scored reads — one per cache miss.
  [[nodiscard]] std::uint64_t lines_rescored() const noexcept {
    return n_rescored_.load(std::memory_order_relaxed);
  }

 private:
  /// Lines per slab page.
  static constexpr std::size_t kPageLines = 64;

  /// A line's state apart from its score cell (which holds its week).
  struct Entry {
    features::LineWindow window;
    dslsim::MetricVector current{};
    dslsim::ProfileId profile = 1;
    bool has_ticket = false;
    util::Day last_ticket = 0;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<dslsim::LineId, std::uint32_t> slot_of;
    /// Slot s lives at pages[s / kPageLines][s % kPageLines].
    std::vector<std::unique_ptr<Entry[]>> pages;
    /// cells[s] scores slot s; rewritten by scored reads under `mutex`.
    mutable std::vector<ScoreCell> cells;

    [[nodiscard]] Entry& entry(std::uint32_t slot) noexcept {
      return pages[slot / kPageLines][slot % kPageLines];
    }
    [[nodiscard]] const Entry& entry(std::uint32_t slot) const noexcept {
      return pages[slot / kPageLines][slot % kPageLines];
    }
    /// The line's slot, appended (with a fresh page when the last one
    /// is full) if the line is new.
    std::uint32_t slot(dslsim::LineId line);
    [[nodiscard]] std::optional<std::uint32_t> find(
        dslsim::LineId line) const;
  };
  class TileScorer;

  [[nodiscard]] std::size_t shard_of(dslsim::LineId line) const noexcept;

  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> n_measurements_{0};
  std::atomic<std::uint64_t> n_tickets_{0};
  mutable std::atomic<std::uint64_t> n_rescored_{0};
};

}  // namespace nevermind::serve
