// The served answer for one line: what ScoringService::score_lines and
// top_n return, and what a SCORE reply carries over the wire.
#pragma once

#include <cstdint>

#include "dslsim/topology.hpp"

namespace nevermind::serve {

/// Why a ServeScore is (in)valid. Distinct codes let callers — and the
/// wire protocol, which carries the raw byte — tell "line unknown" from
/// "no model yet".
enum class ScoreReason : std::uint8_t {
  kOk = 0,
  kNoModel = 1,        // nothing published in the registry yet
  kNoMeasurement = 2,  // the line has no ingested measurement
  // Wire value 3 is reserved (a per-request queueing deadline that no
  // server ever reported); do not reuse it.
};

/// Result of scoring one line. `valid` is false when the line has no
/// measurement yet or no model is published (`reason` says which);
/// `model_version` records which registry version produced the score
/// (so a mid-stream hot-swap is observable).
struct ServeScore {
  dslsim::LineId line = 0;
  int week = -1;
  double score = 0.0;
  double probability = 0.0;
  std::uint64_t model_version = 0;
  ScoreReason reason = ScoreReason::kOk;
  bool valid = false;
};

}  // namespace nevermind::serve
