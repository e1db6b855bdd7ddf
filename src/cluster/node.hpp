// One member of the serving cluster: a LineStateStore + ModelRegistry
// + ScoringService + net::Server bundle, extended with the protocol-v2
// cluster ops via the server's op-handler hook, plus a beacon thread
// that heartbeats every peer in the current ShardMap and folds the
// echoes through the Membership state machine.
//
// Division of labour:
//   - the server thread owns every client connection and runs the op
//     handler (MODEL_PUSH applies through the registry's RCU hot-swap,
//     SHARD_MAP adopts strictly-newer epochs, HANDOFF exports/imports
//     exact line state, TOPN_SHARDS ranks this node's shard subset);
//   - the beacon thread pings peers with bounded-backoff reconnects,
//     ticks the failure detector, and on any death/rejoin transition
//     rebuilds the shard map locally with the pure rebuild function —
//     every surviving node that agrees on the dead set derives the
//     same epoch+1 map without coordination;
//   - kill() is the failure-injection path: the loop stops without
//     drain and every socket closes, so peers and routers observe an
//     abrupt crash (reset/EOF), not a goodbye.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "cluster/membership.hpp"
#include "cluster/types.hpp"
#include "net/server.hpp"
#include "serve/line_state_store.hpp"
#include "serve/model_registry.hpp"
#include "serve/scoring_service.hpp"

namespace nevermind::cluster {

struct ClusterNodeConfig {
  NodeId node_id = 0;
  std::string bind_address = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port; read the result from port().
  std::uint16_t port = 0;
  std::size_t store_shards = 16;
  /// Handoff pages and model artefacts are far bigger than scoring
  /// frames, so cluster servers accept larger payloads than plain ones.
  std::size_t max_payload = 8U << 20;
  std::chrono::milliseconds heartbeat_interval{25};
  MembershipConfig membership{};
  /// Deadlines for the beacon's peer clients — a dead peer costs one
  /// bounded timeout, never a hang.
  std::chrono::milliseconds peer_connect_timeout{100};
  std::chrono::milliseconds peer_request_timeout{250};
};

class ClusterNode {
 public:
  explicit ClusterNode(ClusterNodeConfig config = {});
  ~ClusterNode();
  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  /// Bind + listen + spawn the server and beacon threads. False (with
  /// *error set) on failure.
  [[nodiscard]] bool start(std::string* error = nullptr);

  /// Graceful shutdown: beacon stops, server drains, threads join.
  void stop();

  /// Abrupt death for failure injection: no drain, no goodbyes; every
  /// socket (listener included) closes immediately.
  void kill();

  /// Async-signal-safe stop request (SIGINT/SIGTERM handlers). Pair
  /// with wait() then stop() to reap threads.
  void request_stop() noexcept;

  /// Block until the server thread exits (after request_stop or a
  /// peer-initiated drain).
  void wait();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] const ClusterNodeConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] bool running() const noexcept {
    return server_thread_.joinable();
  }

  /// Current map under the node mutex (copy).
  [[nodiscard]] ShardMap map_snapshot() const;
  /// The HEALTH reply this node would serve right now.
  [[nodiscard]] NodeHealth health_snapshot() const;

  [[nodiscard]] const serve::LineStateStore& store() const noexcept {
    return store_;
  }
  [[nodiscard]] const serve::ModelRegistry& registry() const noexcept {
    return registry_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] net::OpOutcome handle_op(const net::Frame& frame,
                                         net::PayloadWriter& out);
  [[nodiscard]] net::OpOutcome handle_model_push(const net::Frame& frame,
                                                 net::PayloadWriter& out);
  [[nodiscard]] net::OpOutcome handle_shard_map(const net::Frame& frame,
                                                net::PayloadWriter& out);
  [[nodiscard]] net::OpOutcome handle_handoff(const net::Frame& frame,
                                              net::PayloadWriter& out);
  [[nodiscard]] net::OpOutcome handle_top_n_shards(const net::Frame& frame,
                                                   net::PayloadWriter& out);
  void beacon_loop();
  /// Register every map node (except self) with the failure detector.
  void sync_peers_locked(Clock::time_point now);
  /// Any death/rejoin: derive the epoch+1 map from the current dead
  /// set. Pure-function rebuild keeps independent observers identical.
  void rebuild_map_locked();
  /// Line ids this node holds that fall into `shard` under `n_shards`,
  /// ascending.
  [[nodiscard]] std::vector<dslsim::LineId> lines_of_shard(
      std::uint32_t shard, std::uint32_t n_shards) const;

  ClusterNodeConfig config_;
  serve::LineStateStore store_;
  serve::ModelRegistry registry_;
  serve::ScoringService service_;
  std::unique_ptr<net::Server> server_;
  std::uint16_t port_ = 0;

  mutable std::mutex mutex_;  // guards map_ and membership_
  ShardMap map_;
  Membership membership_;

  std::thread server_thread_;
  std::thread beacon_thread_;
  std::mutex beacon_mutex_;
  std::condition_variable beacon_cv_;
  bool beacon_stop_ = false;
};

}  // namespace nevermind::cluster
