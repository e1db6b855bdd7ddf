// Client-side router of the cluster: hashes line -> shard
// (shard_of_line) -> replica set (ShardMap) and speaks protocol v2 to
// the nodes with timeout-bounded clients.
//
//   - Writes (ingest / ingest_ticket) fan out to *every* alive replica
//     of the line's shard — replication is synchronous and the store's
//     ingest is idempotent for a (line, week) re-delivery, so a retry
//     after a partial failure cannot skew replica state. A write
//     succeeds when at least one replica accepted it.
//   - Reads (score) go to the shard's primary (first alive replica)
//     and fail over down the replica list on timeout or peer death.
//   - top_n asks each node to rank only the shards it is primary for
//     (TOPN_SHARDS) and merges by (score desc, line asc) — because
//     line ids are unique and each node ranks an ascending-id subset
//     with the service's own comparator, the merge reproduces the
//     single-node ranking byte for byte.
//   - A replica that fails its (bounded) retries is marked dead: the
//     router derives the epoch+1 map with the same pure
//     rebuild_shard_map the nodes use, and pushes it to the survivors
//     (best effort — they usually got there first via heartbeats).
//
// One ShardRouter per driver thread: the router itself is
// single-threaded by design (the loadgen model), all cross-router
// coordination happens through the epoch-ordered maps on the nodes.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/types.hpp"
#include "core/scoring_kernel.hpp"
#include "net/client.hpp"
#include "serve/serve_score.hpp"

namespace nevermind::cluster {

struct RouterOptions {
  std::chrono::milliseconds connect_timeout{250};
  std::chrono::milliseconds request_timeout{500};
  std::size_t max_payload = 8U << 20;
  /// Requests attempted per replica (with one reconnect in between)
  /// before it is declared dead.
  std::size_t attempts_per_replica = 2;
  /// Rounds over the whole replica set before a write gives up.
  std::size_t write_rounds = 3;
  net::ClientOptions client_options() const {
    return {connect_timeout, request_timeout, max_payload};
  }
  /// Backoff between write rounds when no replica answered.
  std::chrono::milliseconds round_backoff_initial{10};
  std::chrono::milliseconds round_backoff_max{200};
  /// Lines per HANDOFF page during readmit().
  std::size_t handoff_page = 256;
  /// Push the rebuilt map to survivors after marking a node dead.
  bool push_map_on_failover = true;
};

struct RouterStats {
  std::uint64_t requests = 0;
  std::uint64_t retries = 0;
  /// Reads answered by a non-primary replica.
  std::uint64_t failovers = 0;
  std::uint64_t nodes_marked_dead = 0;
  std::uint64_t map_rebuilds = 0;
  std::uint64_t map_pushes = 0;
  std::uint64_t write_failures = 0;
};

class ShardRouter {
 public:
  explicit ShardRouter(ShardMap map, RouterOptions options = {});

  /// Eagerly connect to every alive node. False (error recorded) when
  /// any connect fails; lazy per-request connects still apply later.
  [[nodiscard]] bool connect_all();

  /// Serialize the kernel once and push it to every alive node; each
  /// applies it through its registry's RCU hot-swap. True when every
  /// alive node accepted.
  [[nodiscard]] bool push_model(const core::ScoringKernel& kernel);

  /// Push the router's current map to every alive node (epoch-ordered
  /// adoption on their side). True when every alive node answered.
  [[nodiscard]] bool broadcast_map();

  /// Replicated write. True when >= 1 alive replica accepted.
  [[nodiscard]] bool ingest(const serve::LineMeasurement& m);
  [[nodiscard]] bool ingest_ticket(dslsim::LineId line, util::Day day);

  /// Primary read with replica failover.
  [[nodiscard]] std::optional<serve::ServeScore> score(dslsim::LineId line);

  /// Cluster-wide ranking: per-primary TOPN_SHARDS fan-out + exact
  /// merge. nullopt when some shard has no live replica.
  [[nodiscard]] std::optional<std::vector<serve::ServeScore>> top_n(
      std::uint32_t n);

  /// HEALTH of one node (by id).
  [[nodiscard]] std::optional<NodeHealth> health(NodeId node);

  /// Re-admit a restarted node at (possibly) a new endpoint: update
  /// its endpoint (epoch+1), push the map — and `kernel`, when given —
  /// to it, stream every shard it replicates from a surviving holder
  /// through HANDOFF pull/push pages, then mark it alive (epoch+1) and
  /// broadcast. Intended for quiesced rejoin — concurrent writes
  /// during the copy are not replayed onto the newcomer.
  [[nodiscard]] bool readmit(const Endpoint& node,
                             const core::ScoringKernel* kernel = nullptr,
                             std::size_t* lines_restored = nullptr);

  [[nodiscard]] const ShardMap& map() const noexcept { return map_; }
  [[nodiscard]] const RouterStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::string& last_error() const noexcept {
    return error_;
  }

 private:
  /// Connected client for a node index, or nullptr (one connect
  /// attempt per call).
  [[nodiscard]] net::Client* client_for(std::size_t idx);
  /// Bounded request: up to attempts_per_replica tries with a
  /// reconnect between them.
  [[nodiscard]] std::optional<net::Frame> request_node(
      std::size_t idx, net::Op op, std::span<const std::uint8_t> payload);
  /// Declare a node dead: rebuild the map (epoch+1) and push it to the
  /// survivors (best effort).
  void mark_dead(std::size_t idx);
  [[nodiscard]] bool replicated_write(dslsim::LineId line, net::Op op,
                                      std::span<const std::uint8_t> payload);
  /// Copy one shard's lines from `from` into `to` via HANDOFF pages.
  [[nodiscard]] bool copy_shard(std::size_t from, std::size_t to,
                                std::uint32_t shard, std::size_t* lines);

  ShardMap map_;
  RouterOptions options_;
  std::vector<net::Client> clients_;  // parallel to map_.nodes
  RouterStats stats_;
  std::string error_;
};

}  // namespace nevermind::cluster
