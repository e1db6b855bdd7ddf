#include "serve/scoring_service.hpp"

#include <algorithm>

namespace nevermind::serve {

namespace {

/// Keep the n highest-ranked entries of v, in rank order.
template <typename T>
void keep_head(std::vector<T>& v, std::size_t n) {
  if (v.size() > n) {
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n),
                     v.end(), RankOrder{});
    v.resize(n);
  }
  std::sort(v.begin(), v.end(), RankOrder{});
}

ServeScore served(const ScoreCell& cell, const ServeModel& model) {
  ServeScore s;
  s.line = cell.line;
  s.week = cell.week;
  if (cell.week < 0) {
    s.reason = ScoreReason::kNoMeasurement;  // no measurement yet: invalid
    return s;
  }
  s.score = cell.score;
  s.probability = cell.probability;
  s.model_version = model.version;
  s.reason = ScoreReason::kOk;
  s.valid = true;
  return s;
}

}  // namespace

ScoringService::ScoringService(const LineStateStore& store,
                               const ModelRegistry& registry,
                               ServiceConfig config)
    : store_(store), registry_(registry), config_(std::move(config)) {}

std::vector<ServeScore> ScoringService::score_lines(
    std::span<const dslsim::LineId> lines) const {
  std::vector<ServeScore> out(lines.size());
  const std::shared_ptr<const ServeModel> model = registry_.acquire();
  if (!model || !model->kernel.trained()) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      out[i].line = lines[i];
      out[i].reason = ScoreReason::kNoModel;
    }
    return out;
  }
  config_.exec.parallel_for(
      0, lines.size(), 0, [&](std::size_t b, std::size_t e) {
        std::vector<ScoreCell> cells(e - b);
        store_.read_scores(lines.subspan(b, e - b), *model, cells);
        for (std::size_t r = b; r < e; ++r) {
          out[r] = served(cells[r - b], *model);
        }
      });
  return out;
}

std::vector<ServeScore> ScoringService::top_n(std::size_t n,
                                              const LineFilter& keep) const {
  const std::shared_ptr<const ServeModel> model = registry_.acquire();
  if (!model || !model->kernel.trained() || n == 0) return {};
  // Each shard contributes its own head of at most n lines; the global
  // head is the head of their union.
  struct Candidate {
    double score;
    dslsim::LineId line;
    std::uint32_t slot;
  };
  std::vector<std::vector<ServeScore>> heads(store_.n_shards());
  config_.exec.parallel_for(
      0, heads.size(), 1, [&](std::size_t b, std::size_t e) {
        std::vector<Candidate> candidates;
        for (std::size_t s = b; s < e; ++s) {
          store_.scan_scores(
              s, *model, keep, [&](std::span<const ScoreCell> cells) {
                candidates.clear();
                for (std::uint32_t slot = 0; slot < cells.size(); ++slot) {
                  const ScoreCell& c = cells[slot];
                  if (c.week >= 0 && (!keep || keep(c.line))) {
                    candidates.push_back({c.score, c.line, slot});
                  }
                }
                keep_head(candidates, n);
                heads[s].reserve(candidates.size());
                for (const Candidate& c : candidates) {
                  heads[s].push_back(served(cells[c.slot], *model));
                }
              });
        }
      });
  std::vector<ServeScore> ranked;
  for (const auto& head : heads) {
    ranked.insert(ranked.end(), head.begin(), head.end());
  }
  keep_head(ranked, n);
  return ranked;
}

}  // namespace nevermind::serve
