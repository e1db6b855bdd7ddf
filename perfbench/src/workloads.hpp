// The benchmark's two workloads. Each runs against the public API of
// dslsim, features, ml, core, serve and net, checks every output it
// times against the offline batch path, and returns its metrics.
//
//   weekly_batch    the Saturday cycle of `nevermind predict --stream`,
//                   closed loop: simulate, two streamed encode passes,
//                   plan, mmap load, train, rank the 1% budget.
//   serve_saturday  a server holding ~100K lines replayed to week 39,
//                   then four weekly ingest bursts, each followed by an
//                   operator's TOP_N calls, under a light open-loop
//                   SCORE stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  /// Record spans and run the per-layer probes.
  bool trace = false;
  /// Smoke-test populations (seconds of work instead of minutes).
  bool smoke = false;
  /// Scratch directory for artefacts and the trace file.
  std::string workdir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Non-empty when the run's numbers must not be reported (the
  /// open-loop generator fell behind its schedule).
  std::string invalid;
  /// The metrics every workload reports under shared names.
  std::vector<Metric> end_to_end;
  /// The workload's own end-to-end metrics, under their own names.
  std::vector<Metric> named;
  /// Traced runs only: one value per layer metric.
  std::vector<Metric> per_layer;
  /// Free-text lines for the human-readable report.
  std::vector<std::string> notes;
};

/// Runs one workload. Throws std::invalid_argument on an unknown name
/// and std::runtime_error when the program under test cannot run.
[[nodiscard]] Result run_workload(const Options& options);

}  // namespace perfbench
