// Multi-connection load generator: replays a SimDataset's feeds against
// a live server the way ReplayDriver replays them in-process, then
// fetches every line's score over the wire. Lines are partitioned
// across connections (line % connections), each connection walks its
// lines week by week, so the per-line week order the store requires is
// preserved no matter how the connections interleave — the final store
// state, and therefore every score, is connection-count invariant.
//
// The report carries per-op latency samples and the fetched scores +
// ranking so the caller (bench_net, the loadgen CLI) can assert
// byte-identity against the offline batch path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dslsim/simulator.hpp"
#include "net/client.hpp"
#include "serve/serve_score.hpp"

namespace nevermind::net {

struct LoadGenConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Concurrent client connections (each on its own thread).
  std::size_t connections = 8;
  /// Replay measurements/tickets through this week before querying.
  int through_week = 43;
  /// Extra PING probes per connection (latency floor samples).
  std::size_t pings_per_connection = 64;
  /// When > 0, connection 0 also fetches a TOP_N of this size.
  std::uint32_t top_n = 0;
};

/// Latency samples for one op type across every connection.
struct OpStats {
  std::uint64_t count = 0;
  std::uint64_t failures = 0;
  double wall_s = 0;  // longest per-connection wall time for the phase
  std::vector<double> latencies_s;

  [[nodiscard]] double per_s() const noexcept {
    return wall_s > 0 ? static_cast<double>(count) / wall_s : 0.0;
  }
  /// p in [0,1]; sorts on demand.
  [[nodiscard]] double percentile_s(double p) const;
};

struct LoadGenReport {
  bool ok = false;
  std::string error;
  std::size_t connections = 0;
  OpStats ingest;
  OpStats score;
  OpStats ping;
  OpStats top_n;
  /// scores[line] = the SCORE reply for that line (every simulated
  /// line is fetched exactly once).
  std::vector<serve::ServeScore> scores;
  /// The TOP_N reply, when config.top_n > 0.
  std::vector<serve::ServeScore> ranked;
};

class LoadGen {
 public:
  /// Borrows the dataset; it must outlive run().
  LoadGen(const dslsim::SimDataset& data, LoadGenConfig config);

  /// Ingest phase (all connections replay their partition, one
  /// connection feeds tickets), barrier, then query phase (SCORE per
  /// line + PINGs + optional TOP_N). Blocks until both phases finish.
  [[nodiscard]] LoadGenReport run() const;

 private:
  const dslsim::SimDataset& data_;
  LoadGenConfig config_;
};

}  // namespace nevermind::net
