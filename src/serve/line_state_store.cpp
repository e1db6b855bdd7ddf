#include "serve/line_state_store.hpp"

#include <algorithm>
#include <array>

namespace nevermind::serve {

namespace {

/// splitmix64 finalizer. Plain modulo would already deal dense
/// sequential ids round-robin across the shards; the mix also spreads
/// id sets that stride by a multiple of the shard count, which modulo
/// would pile onto a single shard.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// ScoreCell::stamp of a line not scored since its state last changed;
/// ModelRegistry never hands out this stamp.
constexpr std::uint64_t kUnscored = 0;

/// Lines per rescoring tile.
constexpr std::size_t kTileLines = 64;

}  // namespace

/// Rescores stale cells kTileLines lines at a time: each line's selected
/// columns are encoded through the model's plan into one row of a
/// column-major tile, then the kernel's stump loop scores the whole
/// tile. Lives inside one shard lock: flush() before releasing it.
class LineStateStore::TileScorer {
 public:
  TileScorer(const ServeModel& model, std::atomic<std::uint64_t>& rescored)
      : model_(model),
        rescored_(rescored),
        tile_(model.plan.sources.size() * kTileLines),
        columns_(model.plan.sources.size()) {
    for (std::size_t j = 0; j < columns_.size(); ++j) {
      columns_[j] = tile_.data() + j * kTileLines;
    }
  }

  /// Queue `cell`'s line for rescoring; a full tile is scored at once.
  void add(const Entry& entry, ScoreCell& cell) {
    const std::optional<util::Day> last_ticket =
        entry.has_ticket ? std::optional<util::Day>(entry.last_ticket)
                         : std::nullopt;
    model_.plan.encode(entry.window, entry.current,
                       dslsim::profile(entry.profile), last_ticket,
                       util::saturday_of_week(cell.week), tile_.data() + n_,
                       kTileLines);
    cells_[n_] = &cell;
    if (++n_ == kTileLines) flush();
  }

  /// Score the queued lines and stamp their cells.
  void flush() {
    if (n_ == 0) return;
    std::array<double, kTileLines> scores{};
    model_.kernel.add_stumps(columns_, std::span<double>(scores.data(), n_));
    for (std::size_t r = 0; r < n_; ++r) {
      ScoreCell& cell = *cells_[r];
      cell.score = scores[r];
      cell.probability = model_.kernel.probability(scores[r]);
      cell.stamp = model_.stamp;
    }
    rescored_.fetch_add(n_, std::memory_order_relaxed);
    n_ = 0;
  }

 private:
  const ServeModel& model_;
  std::atomic<std::uint64_t>& rescored_;
  std::vector<float> tile_;  // column j at tile_[j * kTileLines]
  std::vector<const float*> columns_;
  std::array<ScoreCell*, kTileLines> cells_{};
  std::size_t n_ = 0;
};

std::uint32_t LineStateStore::Shard::slot(dslsim::LineId line) {
  const auto [it, added] =
      slot_of.try_emplace(line, static_cast<std::uint32_t>(cells.size()));
  if (added) {
    if (it->second % kPageLines == 0) {
      pages.push_back(std::make_unique<Entry[]>(kPageLines));
    }
    cells.push_back(ScoreCell{line});
  }
  return it->second;
}

std::optional<std::uint32_t> LineStateStore::Shard::find(
    dslsim::LineId line) const {
  const auto it = slot_of.find(line);
  if (it == slot_of.end()) return std::nullopt;
  return it->second;
}

LineStateStore::LineStateStore(std::size_t n_shards)
    : shards_(std::max<std::size_t>(n_shards, 1)) {}

std::size_t LineStateStore::shard_of(dslsim::LineId line) const noexcept {
  return static_cast<std::size_t>(mix64(line)) % shards_.size();
}

void LineStateStore::ingest(const LineMeasurement& m) {
  Shard& shard = shards_[shard_of(m.line)];
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const std::uint32_t slot = shard.slot(m.line);
    ScoreCell& cell = shard.cells[slot];
    if (m.week < cell.week) return;  // stale delivery: drop
    Entry& entry = shard.entry(slot);
    if (m.week > cell.week && cell.week >= 0) {
      // The previously current Saturday test is now history: fold it
      // into the window exactly when the offline encoder would (after
      // emitting that week's row, before seeing the next week's).
      entry.window.update(entry.current);
    }
    entry.current = m.metrics;
    entry.profile = m.profile;
    cell.week = m.week;
    cell.stamp = kUnscored;
  }
  n_measurements_.fetch_add(1, std::memory_order_relaxed);
}

void LineStateStore::ingest_ticket(dslsim::LineId line, util::Day day) {
  Shard& shard = shards_[shard_of(line)];
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const std::uint32_t slot = shard.slot(line);
    Entry& entry = shard.entry(slot);
    if (!entry.has_ticket || day > entry.last_ticket) {
      entry.has_ticket = true;
      entry.last_ticket = day;
      shard.cells[slot].stamp = kUnscored;
    }
  }
  n_tickets_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<LineSnapshot> LineStateStore::snapshot(
    dslsim::LineId line) const {
  const Shard& shard = shards_[shard_of(line)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto slot = shard.find(line);
  if (!slot.has_value() || shard.cells[*slot].week < 0) return std::nullopt;
  const Entry& entry = shard.entry(*slot);
  LineSnapshot snap;
  snap.window = entry.window;
  snap.current = entry.current;
  snap.week = shard.cells[*slot].week;
  snap.profile = entry.profile;
  if (entry.has_ticket) snap.last_ticket = entry.last_ticket;
  return snap;
}

std::optional<ExportedLine> LineStateStore::export_line(
    dslsim::LineId line) const {
  const Shard& shard = shards_[shard_of(line)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto slot = shard.find(line);
  if (!slot.has_value()) return std::nullopt;
  const Entry& entry = shard.entry(*slot);
  ExportedLine e;
  e.line = line;
  e.window = entry.window;
  e.current = entry.current;
  e.week = shard.cells[*slot].week;
  e.profile = entry.profile;
  e.has_ticket = entry.has_ticket;
  e.last_ticket = entry.last_ticket;
  return e;
}

void LineStateStore::import_line(const ExportedLine& e) {
  Shard& shard = shards_[shard_of(e.line)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const std::uint32_t slot = shard.slot(e.line);
  Entry& entry = shard.entry(slot);
  entry.window = e.window;
  entry.current = e.current;
  entry.profile = e.profile;
  entry.has_ticket = e.has_ticket;
  entry.last_ticket = e.last_ticket;
  shard.cells[slot].week = e.week;
  shard.cells[slot].stamp = kUnscored;
}

void LineStateStore::read_scores(std::span<const dslsim::LineId> lines,
                                 const ServeModel& model,
                                 std::span<ScoreCell> out) const {
  std::optional<TileScorer> scorer;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Shard& shard = shards_[shard_of(lines[i])];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto slot = shard.find(lines[i]);
    if (!slot.has_value()) {
      out[i] = ScoreCell{lines[i]};
      continue;
    }
    ScoreCell& cell = shard.cells[*slot];
    if (cell.week >= 0 && cell.stamp != model.stamp) {
      if (!scorer.has_value()) scorer.emplace(model, n_rescored_);
      scorer->add(shard.entry(*slot), cell);
      scorer->flush();
    }
    out[i] = cell;
  }
}

void LineStateStore::scan_scores(
    std::size_t shard_index, const ServeModel& model, const LineFilter& keep,
    const std::function<void(std::span<const ScoreCell>)>& visit) const {
  const Shard& shard = shards_[shard_index];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  std::optional<TileScorer> scorer;
  for (std::uint32_t slot = 0; slot < shard.cells.size(); ++slot) {
    ScoreCell& cell = shard.cells[slot];
    if (cell.week < 0 || cell.stamp == model.stamp) continue;
    if (keep && !keep(cell.line)) continue;
    if (!scorer.has_value()) scorer.emplace(model, n_rescored_);
    scorer->add(shard.entry(slot), cell);
  }
  if (scorer.has_value()) scorer->flush();
  visit(shard.cells);
}

std::vector<dslsim::LineId> LineStateStore::line_ids() const {
  std::vector<dslsim::LineId> out;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    for (const ScoreCell& cell : shard.cells) {
      if (cell.week >= 0) out.push_back(cell.line);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t LineStateStore::n_lines() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    n += static_cast<std::size_t>(
        std::count_if(shard.cells.begin(), shard.cells.end(),
                      [](const ScoreCell& cell) { return cell.week >= 0; }));
  }
  return n;
}

}  // namespace nevermind::serve
