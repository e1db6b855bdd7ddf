#include "cluster/router.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "serve/scoring_service.hpp"

namespace nevermind::cluster {

namespace {

/// MODEL_PUSH payload: u32 length + the "nmkernel" text artefact.
[[nodiscard]] std::vector<std::uint8_t> kernel_payload(
    const core::ScoringKernel& kernel) {
  std::ostringstream os;
  kernel.save(os);
  const std::string text = os.str();
  net::PayloadWriter w;
  w.u32(static_cast<std::uint32_t>(text.size()));
  w.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  return w.take();
}

}  // namespace

ShardRouter::ShardRouter(ShardMap map, RouterOptions options)
    : map_(std::move(map)), options_(options) {
  clients_.reserve(map_.nodes.size());
  for (std::size_t i = 0; i < map_.nodes.size(); ++i) {
    clients_.emplace_back(options_.client_options());
  }
}

net::Client* ShardRouter::client_for(std::size_t idx) {
  if (idx >= clients_.size()) return nullptr;
  net::Client& cl = clients_[idx];
  if (cl.connected()) return &cl;
  if (cl.connect(map_.nodes[idx].host, map_.nodes[idx].port)) return &cl;
  error_ = cl.last_error();
  return nullptr;
}

std::optional<net::Frame> ShardRouter::request_node(
    std::size_t idx, net::Op op, std::span<const std::uint8_t> payload) {
  const std::size_t attempts =
      std::max<std::size_t>(options_.attempts_per_replica, 1);
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    net::Client* cl = client_for(idx);
    if (cl == nullptr) {
      ++stats_.retries;
      continue;
    }
    ++stats_.requests;
    auto reply = cl->request(op, payload);
    if (reply.has_value()) return reply;
    error_ = cl->last_error();
    ++stats_.retries;  // request() closed the socket; retry reconnects
  }
  return std::nullopt;
}

void ShardRouter::mark_dead(std::size_t idx) {
  if (idx >= map_.nodes.size() || !map_.nodes[idx].alive) return;
  map_.nodes[idx].alive = false;
  clients_[idx].close();
  ++stats_.nodes_marked_dead;
  std::vector<NodeId> dead;
  for (const Endpoint& node : map_.nodes) {
    if (!node.alive) dead.push_back(node.node);
  }
  map_ = rebuild_shard_map(map_, dead);
  ++stats_.map_rebuilds;
  if (!options_.push_map_on_failover) return;
  // Best effort: the survivors' own failure detectors usually beat us
  // here, and epoch-ordered adoption makes the double push a no-op.
  net::PayloadWriter w;
  write_shard_map(w, map_);
  for (std::size_t i = 0; i < map_.nodes.size(); ++i) {
    if (!map_.nodes[i].alive) continue;
    net::Client* cl = client_for(i);
    if (cl != nullptr && cl->request(net::Op::kShardMap, w.data())) {
      ++stats_.map_pushes;
    }
  }
}

bool ShardRouter::connect_all() {
  bool ok = true;
  for (std::size_t i = 0; i < map_.nodes.size(); ++i) {
    if (map_.nodes[i].alive && client_for(i) == nullptr) ok = false;
  }
  return ok;
}

bool ShardRouter::push_model(const core::ScoringKernel& kernel) {
  const std::vector<std::uint8_t> payload = kernel_payload(kernel);
  bool ok = true;
  for (std::size_t i = 0; i < map_.nodes.size(); ++i) {
    if (!map_.nodes[i].alive) continue;
    const auto reply = request_node(i, net::Op::kModelPush, payload);
    if (!reply.has_value()) {
      ok = false;
      continue;
    }
    net::PayloadReader r(reply->payload);
    (void)r.u64();  // version the node assigned
    if (!r.done()) ok = false;
  }
  return ok;
}

bool ShardRouter::broadcast_map() {
  net::PayloadWriter w;
  write_shard_map(w, map_);
  bool ok = true;
  for (std::size_t i = 0; i < map_.nodes.size(); ++i) {
    if (!map_.nodes[i].alive) continue;
    const auto reply = request_node(i, net::Op::kShardMap, w.data());
    if (!reply.has_value()) {
      ok = false;
      continue;
    }
    ++stats_.map_pushes;
  }
  return ok;
}

bool ShardRouter::replicated_write(dslsim::LineId line, net::Op op,
                                   std::span<const std::uint8_t> payload) {
  net::Backoff backoff(options_.round_backoff_initial,
                       options_.round_backoff_max);
  const std::size_t rounds = std::max<std::size_t>(options_.write_rounds, 1);
  for (std::size_t round = 0; round < rounds; ++round) {
    // Re-derive per round: a mark_dead may have rebuilt the map.
    const std::uint32_t shard = shard_of_line(line, map_.n_shards);
    const std::vector<std::uint16_t> set = map_.replicas[shard];
    std::vector<std::size_t> failed;
    std::size_t successes = 0;
    for (const std::uint16_t idx : set) {
      if (!map_.nodes[idx].alive) continue;
      if (request_node(idx, op, payload).has_value()) {
        ++successes;
      } else {
        failed.push_back(idx);
      }
    }
    if (successes > 0) {
      // The write is durable on >= 1 replica; replicas that missed it
      // are dead to us (their copy is now stale by construction).
      for (const std::size_t idx : failed) mark_dead(idx);
      return true;
    }
    if (round + 1 < rounds) std::this_thread::sleep_for(backoff.next());
  }
  ++stats_.write_failures;
  error_ = "write failed on every replica of the shard";
  return false;
}

bool ShardRouter::ingest(const serve::LineMeasurement& m) {
  net::PayloadWriter w;
  write_measurement(w, m);
  return replicated_write(m.line, net::Op::kIngestMeasurement, w.data());
}

bool ShardRouter::ingest_ticket(dslsim::LineId line, util::Day day) {
  net::PayloadWriter w;
  w.u32(line);
  w.i32(day);
  return replicated_write(line, net::Op::kIngestTicket, w.data());
}

std::optional<serve::ServeScore> ShardRouter::score(dslsim::LineId line) {
  const std::uint32_t shard = shard_of_line(line, map_.n_shards);
  if (shard >= map_.replicas.size()) {
    error_ = "line maps outside the shard table";
    return std::nullopt;
  }
  const std::vector<std::uint16_t> set = map_.replicas[shard];
  bool failed_over = false;
  for (const std::uint16_t idx : set) {
    if (!map_.nodes[idx].alive) continue;
    net::PayloadWriter w;
    w.u32(line);
    const auto reply = request_node(idx, net::Op::kScore, w.data());
    if (!reply.has_value()) {
      mark_dead(idx);
      failed_over = true;
      continue;
    }
    net::PayloadReader r(reply->payload);
    serve::ServeScore s;
    if (!read_score(r, s) || !r.done()) {
      error_ = "bad SCORE reply payload";
      return std::nullopt;
    }
    if (failed_over) ++stats_.failovers;
    return s;
  }
  error_ = "no live replica for the line's shard";
  return std::nullopt;
}

std::optional<std::vector<serve::ServeScore>> ShardRouter::top_n(
    std::uint32_t n) {
  // One extra pass per node: a mid-query death rebuilds the map and
  // the next pass asks the promoted primaries.
  for (std::size_t pass = 0; pass <= map_.nodes.size(); ++pass) {
    std::map<std::size_t, std::vector<std::uint32_t>> by_primary;
    for (std::uint32_t s = 0; s < map_.n_shards; ++s) {
      const auto primary = map_.primary_of(s);
      if (!primary.has_value()) {
        error_ = "shard with no live replica";
        return std::nullopt;
      }
      by_primary[*primary].push_back(s);
    }
    std::vector<serve::ServeScore> merged;
    bool failed = false;
    for (const auto& [idx, shards] : by_primary) {
      TopNShardsRequest req;
      req.n = n;
      req.n_shards = map_.n_shards;
      req.shards = shards;
      net::PayloadWriter w;
      write_top_n_shards(w, req);
      const auto reply = request_node(idx, net::Op::kTopNShards, w.data());
      if (!reply.has_value()) {
        mark_dead(idx);
        ++stats_.failovers;
        failed = true;
        break;
      }
      net::PayloadReader r(reply->payload);
      const std::uint32_t count = r.u32();
      for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
        serve::ServeScore s;
        if (!read_score(r, s)) break;
        merged.push_back(s);
      }
      if (!r.done()) {
        error_ = "bad TOPN_SHARDS reply payload";
        return std::nullopt;
      }
    }
    if (failed) continue;
    // Each node sent the head of its shards in RankOrder; lines are
    // unique across nodes, so the head of the union in the same order
    // is the single-node ranking exactly.
    std::sort(merged.begin(), merged.end(), serve::RankOrder{});
    if (merged.size() > n) merged.resize(n);
    return merged;
  }
  return std::nullopt;
}

std::optional<NodeHealth> ShardRouter::health(NodeId node) {
  const auto idx = map_.index_of(node);
  if (!idx.has_value()) {
    error_ = "unknown node id";
    return std::nullopt;
  }
  const auto reply = request_node(*idx, net::Op::kHealth, {});
  if (!reply.has_value()) return std::nullopt;
  net::PayloadReader r(reply->payload);
  NodeHealth h;
  if (!read_node_health(r, h) || !r.done()) {
    error_ = "bad HEALTH reply payload";
    return std::nullopt;
  }
  return h;
}

bool ShardRouter::copy_shard(std::size_t from, std::size_t to,
                             std::uint32_t shard, std::size_t* lines) {
  std::uint32_t cursor = 0;
  while (true) {
    HandoffRequest pull;
    pull.push = 0;
    pull.shard = shard;
    pull.n_shards = map_.n_shards;
    pull.cursor = cursor;
    pull.max_lines = static_cast<std::uint32_t>(
        std::max<std::size_t>(options_.handoff_page, 1));
    net::PayloadWriter w;
    write_handoff_request(w, pull);
    const auto reply = request_node(from, net::Op::kHandoff, w.data());
    if (!reply.has_value()) {
      error_ = "handoff pull failed: " + error_;
      return false;
    }
    HandoffPage page;
    net::PayloadReader r(reply->payload);
    if (!read_handoff_page(r, page) || !r.done()) {
      error_ = "bad HANDOFF page payload";
      return false;
    }
    if (!page.lines.empty()) {
      HandoffRequest push;
      push.push = 1;
      push.shard = shard;
      push.n_shards = map_.n_shards;
      push.cursor = 0;
      push.max_lines =
          static_cast<std::uint32_t>(page.lines.size());
      net::PayloadWriter pw;
      write_handoff_request(pw, push);
      pw.u32(static_cast<std::uint32_t>(page.lines.size()));
      for (const serve::ExportedLine& e : page.lines) {
        write_exported_line(pw, e);
      }
      const auto ack = request_node(to, net::Op::kHandoff, pw.data());
      if (!ack.has_value()) {
        error_ = "handoff push failed: " + error_;
        return false;
      }
      net::PayloadReader ar(ack->payload);
      const std::uint32_t imported = ar.u32();
      if (!ar.done() || imported != page.lines.size()) {
        error_ = "handoff import count mismatch";
        return false;
      }
      if (lines != nullptr) *lines += page.lines.size();
    }
    if (page.done != 0) return true;
    cursor = page.next_cursor;
  }
}

bool ShardRouter::readmit(const Endpoint& node,
                          const core::ScoringKernel* kernel,
                          std::size_t* lines_restored) {
  const auto idx_opt = map_.index_of(node.node);
  if (!idx_opt.has_value()) {
    error_ = "unknown node id";
    return false;
  }
  const std::size_t idx = *idx_opt;
  if (lines_restored != nullptr) *lines_restored = 0;

  // 1. Epoch+1 with the new endpoint, still marked dead — survivors
  //    learn where the node lives before any traffic can route to it.
  map_.nodes[idx].host = node.host;
  map_.nodes[idx].port = node.port;
  map_.nodes[idx].alive = false;
  map_.epoch += 1;
  clients_[idx].close();
  ++stats_.map_rebuilds;
  (void)broadcast_map();

  // 2. The newcomer needs the topology (and the model) to serve.
  {
    net::PayloadWriter w;
    write_shard_map(w, map_);
    if (!request_node(idx, net::Op::kShardMap, w.data()).has_value()) {
      error_ = "cannot reach readmitted node: " + error_;
      return false;
    }
  }
  if (kernel != nullptr) {
    const std::vector<std::uint8_t> payload = kernel_payload(*kernel);
    if (!request_node(idx, net::Op::kModelPush, payload).has_value()) {
      error_ = "model push to readmitted node failed: " + error_;
      return false;
    }
  }

  // 3. Stream every shard the newcomer replicates from a surviving
  //    holder — exact state, page by page.
  for (std::uint32_t s = 0; s < map_.n_shards; ++s) {
    const auto& set = map_.replicas[s];
    if (std::find(set.begin(), set.end(), static_cast<std::uint16_t>(idx)) ==
        set.end()) {
      continue;
    }
    const auto source = map_.primary_of(s);
    if (!source.has_value()) {
      error_ = "no surviving holder for a shard of the readmitted node";
      return false;
    }
    if (!copy_shard(*source, idx, s, lines_restored)) return false;
  }

  // 4. Alive at epoch+1, pushed everywhere. The minimal-rotation
  //    rebuild keeps current primaries — the newcomer serves as a
  //    backup until the next failover.
  map_.nodes[idx].alive = true;
  std::vector<NodeId> dead;
  for (const Endpoint& n : map_.nodes) {
    if (!n.alive) dead.push_back(n.node);
  }
  map_ = rebuild_shard_map(map_, dead);
  ++stats_.map_rebuilds;
  return broadcast_map();
}

}  // namespace nevermind::cluster
