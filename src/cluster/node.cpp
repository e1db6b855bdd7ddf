#include "cluster/node.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "net/client.hpp"

namespace nevermind::cluster {

ClusterNode::ClusterNode(ClusterNodeConfig config)
    : config_(std::move(config)),
      store_(config_.store_shards),
      service_(store_, registry_),
      membership_(config_.membership) {}

ClusterNode::~ClusterNode() {
  if (running()) stop();
}

bool ClusterNode::start(std::string* error) {
  net::ServerConfig sc;
  sc.bind_address = config_.bind_address;
  sc.port = config_.port;
  sc.max_payload = config_.max_payload;
  server_ = std::make_unique<net::Server>(store_, service_, registry_, sc);
  server_->set_op_handler(
      [this](const net::Frame& frame, net::PayloadWriter& out) {
        return handle_op(frame, out);
      });
  if (!server_->start(error)) {
    server_.reset();
    return false;
  }
  port_ = server_->port();
  beacon_stop_ = false;
  server_thread_ = std::thread([this] { server_->run(); });
  beacon_thread_ = std::thread([this] { beacon_loop(); });
  return true;
}

void ClusterNode::stop() {
  {
    const std::lock_guard<std::mutex> lock(beacon_mutex_);
    beacon_stop_ = true;
  }
  beacon_cv_.notify_all();
  if (beacon_thread_.joinable()) beacon_thread_.join();
  if (server_) server_->request_stop();
  if (server_thread_.joinable()) server_thread_.join();
}

void ClusterNode::kill() {
  {
    const std::lock_guard<std::mutex> lock(beacon_mutex_);
    beacon_stop_ = true;
  }
  beacon_cv_.notify_all();
  if (beacon_thread_.joinable()) beacon_thread_.join();
  if (server_) server_->stop_now();
  if (server_thread_.joinable()) server_thread_.join();
  // Destroying the server closes the listener and every connection fd
  // with no drain — peers see the crash, not a shutdown handshake.
  server_.reset();
}

void ClusterNode::request_stop() noexcept {
  if (server_) server_->request_stop();
}

void ClusterNode::wait() {
  if (server_thread_.joinable()) server_thread_.join();
}

ShardMap ClusterNode::map_snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return map_;
}

NodeHealth ClusterNode::health_snapshot() const {
  NodeHealth h;
  h.node = config_.node_id;
  h.model_version = registry_.current_version();
  h.n_lines = store_.n_lines();
  h.measurements = store_.measurements_ingested();
  h.tickets = store_.tickets_ingested();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    h.map_epoch = map_.epoch;
    h.peers = membership_.snapshot();
  }
  return h;
}

net::OpOutcome ClusterNode::handle_op(const net::Frame& frame,
                                      net::PayloadWriter& out) {
  switch (frame.op) {
    case net::Op::kModelPush:
      return handle_model_push(frame, out);
    case net::Op::kShardMap:
      return handle_shard_map(frame, out);
    case net::Op::kHeartbeat: {
      Heartbeat hb;
      net::PayloadReader r(frame.payload);
      if (!read_heartbeat(r, hb) || !r.done()) {
        return net::OpOutcome::kBadPayload;
      }
      Heartbeat echo;
      echo.from = config_.node_id;
      echo.seq = hb.seq;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        membership_.record_heartbeat(hb.from, Clock::now());
        echo.map_epoch = map_.epoch;
      }
      write_heartbeat(out, echo);
      return net::OpOutcome::kReply;
    }
    case net::Op::kHealth: {
      if (!frame.payload.empty()) return net::OpOutcome::kBadPayload;
      write_node_health(out, health_snapshot());
      return net::OpOutcome::kReply;
    }
    case net::Op::kHandoff:
      return handle_handoff(frame, out);
    case net::Op::kTopNShards:
      return handle_top_n_shards(frame, out);
    default:
      return net::OpOutcome::kUnhandled;
  }
}

net::OpOutcome ClusterNode::handle_model_push(const net::Frame& frame,
                                              net::PayloadWriter& out) {
  net::PayloadReader r(frame.payload);
  const std::uint32_t len = r.u32();
  if (!r.ok() || r.remaining() != len) return net::OpOutcome::kBadPayload;
  std::istringstream is(std::string(
      reinterpret_cast<const char*>(frame.payload.data()) + 4, len));
  auto kernel = core::ScoringKernel::load(is);
  if (!kernel.has_value()) return net::OpOutcome::kBadPayload;
  out.u64(registry_.publish(std::move(*kernel)));
  return net::OpOutcome::kReply;
}

net::OpOutcome ClusterNode::handle_shard_map(const net::Frame& frame,
                                             net::PayloadWriter& out) {
  ShardMap pushed;
  net::PayloadReader r(frame.payload);
  if (!read_shard_map(r, pushed) || !r.done()) {
    return net::OpOutcome::kBadPayload;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  // Epoch-ordered adoption: strictly newer wins, everything else is a
  // no-op and the reply tells the pusher what epoch we hold.
  if (pushed.epoch > map_.epoch) {
    map_ = std::move(pushed);
    sync_peers_locked(Clock::now());
  }
  out.u64(map_.epoch);
  return net::OpOutcome::kReply;
}

net::OpOutcome ClusterNode::handle_handoff(const net::Frame& frame,
                                           net::PayloadWriter& out) {
  HandoffRequest req;
  net::PayloadReader r(frame.payload);
  if (!read_handoff_request(r, req) || req.n_shards == 0 ||
      req.shard >= req.n_shards || req.max_lines == 0) {
    return net::OpOutcome::kBadPayload;
  }
  if (req.push != 0) {
    // Push mode: the payload continues with a count-prefixed page of
    // exported lines to install verbatim.
    const std::uint32_t count = r.u32();
    std::uint32_t imported = 0;
    for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
      serve::ExportedLine e;
      if (!read_exported_line(r, e)) break;
      store_.import_line(e);
      ++imported;
    }
    if (!r.done() || imported != count) return net::OpOutcome::kBadPayload;
    out.u32(imported);
    return net::OpOutcome::kReply;
  }
  if (!r.done()) return net::OpOutcome::kBadPayload;
  // Pull mode: a page of this node's lines for the shard, ascending,
  // starting at the cursor.
  const std::vector<dslsim::LineId> lines =
      lines_of_shard(req.shard, req.n_shards);
  HandoffPage page;
  const std::size_t begin =
      std::min<std::size_t>(req.cursor, lines.size());
  const std::size_t end =
      std::min<std::size_t>(begin + req.max_lines, lines.size());
  page.lines.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    auto e = store_.export_line(lines[i]);
    if (e.has_value()) page.lines.push_back(std::move(*e));
  }
  page.next_cursor = static_cast<std::uint32_t>(end);
  page.done = end >= lines.size() ? 1 : 0;
  write_handoff_page(out, page);
  return net::OpOutcome::kReply;
}

net::OpOutcome ClusterNode::handle_top_n_shards(const net::Frame& frame,
                                                net::PayloadWriter& out) {
  TopNShardsRequest req;
  net::PayloadReader r(frame.payload);
  if (!read_top_n_shards(r, req) || !r.done() || req.n_shards == 0) {
    return net::OpOutcome::kBadPayload;
  }
  std::vector<bool> wanted(req.n_shards, false);
  for (const std::uint32_t s : req.shards) {
    if (s >= req.n_shards) return net::OpOutcome::kBadPayload;
    wanted[s] = true;
  }
  // The head of the wanted shards' lines in RankOrder — the router
  // merges the nodes' heads back into the exact global ranking.
  const std::vector<serve::ServeScore> ranked =
      service_.top_n(req.n, [&](dslsim::LineId line) {
        return wanted[shard_of_line(line, req.n_shards)];
      });
  out.u32(static_cast<std::uint32_t>(ranked.size()));
  for (const serve::ServeScore& s : ranked) write_score(out, s);
  return net::OpOutcome::kReply;
}

std::vector<dslsim::LineId> ClusterNode::lines_of_shard(
    std::uint32_t shard, std::uint32_t n_shards) const {
  std::vector<dslsim::LineId> lines = store_.line_ids();
  lines.erase(std::remove_if(lines.begin(), lines.end(),
                             [&](dslsim::LineId line) {
                               return shard_of_line(line, n_shards) != shard;
                             }),
              lines.end());
  return lines;
}

void ClusterNode::sync_peers_locked(Clock::time_point now) {
  for (const Endpoint& node : map_.nodes) {
    if (node.node == config_.node_id) continue;
    membership_.add_peer(node.node, now, node.alive);
  }
}

void ClusterNode::rebuild_map_locked() {
  if (map_.epoch == 0) return;  // no map yet
  // Only rebuild when the detector's view actually contradicts the
  // map's alive flags — an adopted map that already records a death
  // must not trigger a spurious epoch bump.
  const std::vector<NodeId> dead = membership_.dead_peers();
  bool stale = false;
  for (const Endpoint& node : map_.nodes) {
    if (node.node == config_.node_id) continue;
    const bool alive =
        std::find(dead.begin(), dead.end(), node.node) == dead.end();
    if (node.alive != alive) {
      stale = true;
      break;
    }
  }
  if (stale) map_ = rebuild_shard_map(map_, dead);
}

void ClusterNode::beacon_loop() {
  struct PeerLink {
    net::Client client;
    net::Backoff backoff{std::chrono::milliseconds(25),
                         std::chrono::milliseconds(400)};
    Clock::time_point next_attempt{};
    std::string host;
    std::uint16_t port = 0;
    explicit PeerLink(const net::ClientOptions& options) : client(options) {}
  };
  net::ClientOptions options;
  options.connect_timeout = config_.peer_connect_timeout;
  options.request_timeout = config_.peer_request_timeout;
  std::map<NodeId, PeerLink> links;
  std::uint64_t seq = 0;

  while (true) {
    {
      std::unique_lock<std::mutex> lock(beacon_mutex_);
      beacon_cv_.wait_for(lock, config_.heartbeat_interval,
                          [this] { return beacon_stop_; });
      if (beacon_stop_) return;
    }
    // Snapshot the peer set under the node mutex; network I/O happens
    // outside it.
    std::vector<Endpoint> peers;
    std::uint64_t epoch = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      epoch = map_.epoch;
      for (const Endpoint& node : map_.nodes) {
        if (node.node != config_.node_id) peers.push_back(node);
      }
    }
    for (const Endpoint& peer : peers) {
      auto [it, inserted] = links.try_emplace(peer.node, options);
      PeerLink& link = it->second;
      if (link.host != peer.host || link.port != peer.port) {
        // Endpoint moved (a rejoin at a new port): drop the old link.
        link.client.close();
        link.host = peer.host;
        link.port = peer.port;
        link.backoff.reset();
        link.next_attempt = {};
      }
      const auto now = Clock::now();
      if (!link.client.connected()) {
        if (now < link.next_attempt) continue;
        if (!link.client.connect(peer.host, peer.port)) {
          link.next_attempt = now + link.backoff.next();
          continue;
        }
        link.backoff.reset();
      }
      Heartbeat hb;
      hb.from = config_.node_id;
      hb.map_epoch = epoch;
      hb.seq = ++seq;
      net::PayloadWriter w;
      write_heartbeat(w, hb);
      const auto reply = link.client.request(net::Op::kHeartbeat, w.data());
      if (!reply.has_value()) {
        // request() closed the connection; the backoff paces retries.
        link.next_attempt = Clock::now() + link.backoff.next();
        continue;
      }
      Heartbeat echo;
      net::PayloadReader r(reply->payload);
      if (read_heartbeat(r, echo) && r.done()) {
        const std::lock_guard<std::mutex> lock(mutex_);
        membership_.record_heartbeat(echo.from, Clock::now());
      }
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      membership_.tick(Clock::now());
      // Suspect is not a routing event; rebuild_map_locked() bumps the
      // epoch only when the dead set contradicts the map.
      rebuild_map_locked();
    }
  }
}

}  // namespace nevermind::cluster
