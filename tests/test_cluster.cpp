// Cluster-layer tests: the fake-clock membership ladder, the pure
// shard-map construction/rebuild functions, bitwise wire round-trips
// (plus adversarial truncated/garbage decodes) for every protocol-v2
// payload, the exact export/import line-state transfer, and a small
// live two-node cluster driven through the ShardRouter — ingest fan-
// out, byte-identical scores, failover after a hard kill, and HANDOFF
// rejoin.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cluster/membership.hpp"
#include "cluster/node.hpp"
#include "cluster/router.hpp"
#include "cluster/types.hpp"
#include "core/ticket_predictor.hpp"
#include "dslsim/simulator.hpp"
#include "net/protocol.hpp"
#include "serve/line_state_store.hpp"
#include "serve/model_registry.hpp"
#include "serve/scoring_service.hpp"
#include "util/rng.hpp"

namespace nevermind::cluster {
namespace {

using namespace std::chrono_literals;
using TimePoint = Membership::TimePoint;

// ---- membership: fake-clock ladder -------------------------------------

MembershipConfig fast_config() {
  MembershipConfig cfg;
  cfg.suspect_after = 100ms;
  cfg.dead_after = 300ms;
  return cfg;
}

TEST(Membership, UpSuspectDeadRejoinLadder) {
  const TimePoint t0{};
  Membership m(fast_config());
  m.add_peer(7, t0);
  EXPECT_EQ(m.state_of(7), PeerState::kUp);

  // Heartbeats keep it up forever.
  EXPECT_TRUE(m.tick(t0 + 90ms).empty());
  EXPECT_TRUE(m.record_heartbeat(7, t0 + 90ms).empty());
  EXPECT_TRUE(m.tick(t0 + 180ms).empty());

  // Silence: suspect after suspect_after, dead after dead_after.
  auto tr = m.tick(t0 + 200ms);
  ASSERT_EQ(tr.size(), 1U);
  EXPECT_EQ(tr[0].node, 7U);
  EXPECT_EQ(tr[0].from, PeerState::kUp);
  EXPECT_EQ(tr[0].to, PeerState::kSuspect);
  EXPECT_EQ(m.state_of(7), PeerState::kSuspect);
  EXPECT_TRUE(m.dead_peers().empty());

  tr = m.tick(t0 + 500ms);
  ASSERT_EQ(tr.size(), 1U);
  EXPECT_EQ(tr[0].from, PeerState::kSuspect);
  EXPECT_EQ(tr[0].to, PeerState::kDead);
  EXPECT_EQ(m.state_of(7), PeerState::kDead);
  EXPECT_EQ(m.dead_peers(), std::vector<NodeId>{7});

  // A heartbeat resurrects it immediately.
  tr = m.record_heartbeat(7, t0 + 600ms);
  ASSERT_EQ(tr.size(), 1U);
  EXPECT_EQ(tr[0].from, PeerState::kDead);
  EXPECT_EQ(tr[0].to, PeerState::kUp);
  EXPECT_EQ(m.state_of(7), PeerState::kUp);
  EXPECT_TRUE(m.dead_peers().empty());
}

TEST(Membership, FakeClockJumpWalksTheWholeLadderInOneTick) {
  const TimePoint t0{};
  Membership m(fast_config());
  m.add_peer(1, t0);
  const auto tr = m.tick(t0 + 10s);
  ASSERT_EQ(tr.size(), 2U);  // up -> suspect and suspect -> dead
  EXPECT_EQ(tr[0].to, PeerState::kSuspect);
  EXPECT_EQ(tr[1].to, PeerState::kDead);
  EXPECT_EQ(m.state_of(1), PeerState::kDead);
}

TEST(Membership, TransitionsReportAscendingAndVersionBumps) {
  const TimePoint t0{};
  Membership m(fast_config());
  m.add_peer(9, t0);
  m.add_peer(2, t0);
  m.add_peer(5, t0);
  const std::uint64_t v0 = m.version();
  const auto tr = m.tick(t0 + 150ms);
  ASSERT_EQ(tr.size(), 3U);
  EXPECT_EQ(tr[0].node, 2U);
  EXPECT_EQ(tr[1].node, 5U);
  EXPECT_EQ(tr[2].node, 9U);
  EXPECT_EQ(m.version(), v0 + 3);
  const auto snap = m.snapshot();
  ASSERT_EQ(snap.size(), 3U);
  EXPECT_EQ(snap[0].node, 2U);
  EXPECT_EQ(snap[2].node, 9U);
}

TEST(Membership, PeerAddedDeadStaysDeadUntilAHeartbeat) {
  // Adopting a map that already records a death must not resurrect the
  // node locally.
  const TimePoint t0{};
  Membership m(fast_config());
  m.add_peer(3, t0, /*alive=*/false);
  EXPECT_EQ(m.state_of(3), PeerState::kDead);
  EXPECT_TRUE(m.tick(t0 + 10s).empty());
  // add_peer is idempotent: re-announcing the peer keeps its state.
  m.add_peer(3, t0 + 10s);
  EXPECT_EQ(m.state_of(3), PeerState::kDead);
  EXPECT_FALSE(m.record_heartbeat(3, t0 + 11s).empty());
  EXPECT_EQ(m.state_of(3), PeerState::kUp);
}

TEST(Membership, UnknownAndRemovedPeersReadDead) {
  const TimePoint t0{};
  Membership m(fast_config());
  EXPECT_EQ(m.state_of(42), PeerState::kDead);
  EXPECT_FALSE(m.knows(42));
  m.add_peer(42, t0);
  EXPECT_TRUE(m.knows(42));
  m.remove_peer(42);
  EXPECT_FALSE(m.knows(42));
  EXPECT_EQ(m.state_of(42), PeerState::kDead);
}

// ---- shard map: construction + deterministic rebuild -------------------

std::vector<Endpoint> three_nodes() {
  return {{0, "127.0.0.1", 7000, true},
          {1, "127.0.0.1", 7001, true},
          {2, "127.0.0.1", 7002, true}};
}

TEST(ShardMapTest, MakeSpreadsPrimariesRoundRobin) {
  const ShardMap map = make_shard_map(three_nodes(), 12, 2);
  ASSERT_TRUE(map.valid());
  EXPECT_EQ(map.epoch, 1U);
  EXPECT_EQ(map.n_shards, 12U);
  EXPECT_EQ(map.replication, 2U);
  for (std::uint32_t s = 0; s < map.n_shards; ++s) {
    ASSERT_EQ(map.replicas[s].size(), 2U);
    EXPECT_EQ(map.replicas[s][0], s % 3);
    EXPECT_EQ(map.replicas[s][1], (s + 1) % 3);
    EXPECT_EQ(map.primary_of(s), s % 3);
  }
  EXPECT_EQ(map.index_of(2), 2U);
  EXPECT_EQ(map.index_of(99), std::nullopt);
}

TEST(ShardMapTest, RebuildIsPureAndMinimallyRotates) {
  const ShardMap base = make_shard_map(three_nodes(), 12, 2);
  const ShardMap a = rebuild_shard_map(base, {1});
  const ShardMap b = rebuild_shard_map(base, {1});
  // Pure function: two independent observers derive identical maps.
  EXPECT_EQ(a.epoch, base.epoch + 1);
  EXPECT_EQ(b.epoch, a.epoch);
  ASSERT_EQ(a.replicas, b.replicas);
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].alive, b.nodes[i].alive);
  }
  EXPECT_FALSE(a.nodes[1].alive);
  // Shards node 1 led fail over to their backup; shards merely backed
  // by node 1 keep their primary.
  for (std::uint32_t s = 0; s < a.n_shards; ++s) {
    if (base.replicas[s][0] == 1) {
      EXPECT_EQ(a.replicas[s][0], base.replicas[s][1]) << "shard " << s;
    } else {
      EXPECT_EQ(a.replicas[s][0], base.replicas[s][0]) << "shard " << s;
    }
    EXPECT_NE(a.primary_of(s), 1U);
  }
}

TEST(ShardMapTest, RevivedNodeDoesNotStealPrimaryshipBack) {
  ShardMap dead1 = rebuild_shard_map(make_shard_map(three_nodes(), 12, 2),
                                     {1});
  dead1.nodes[1].alive = true;  // readmitted
  const ShardMap revived = rebuild_shard_map(dead1, {});
  for (std::uint32_t s = 0; s < revived.n_shards; ++s) {
    // The promoted primaries keep leading; node 1 serves as backup.
    EXPECT_EQ(revived.replicas[s][0], dead1.replicas[s][0]) << "shard " << s;
  }
  const ShardMap all_dead = rebuild_shard_map(dead1, {0, 1, 2});
  for (std::uint32_t s = 0; s < all_dead.n_shards; ++s) {
    EXPECT_EQ(all_dead.primary_of(s), std::nullopt);
  }
}

TEST(ShardMapTest, ShardOfLineIsStableAndCoversAllShards) {
  std::vector<std::uint32_t> hits(12, 0);
  for (dslsim::LineId l = 0; l < 10000; ++l) {
    const std::uint32_t s = shard_of_line(l, 12);
    ASSERT_LT(s, 12U);
    ASSERT_EQ(s, shard_of_line(l, 12));  // pure
    ++hits[s];
  }
  for (std::uint32_t s = 0; s < 12; ++s) {
    EXPECT_GT(hits[s], 0U) << "shard " << s << " never hit";
  }
}

// ---- wire round-trips + adversarial decodes ----------------------------

/// Serialize with the payload writer and return the bytes.
template <typename T, typename WriteFn>
std::vector<std::uint8_t> wire_bytes(const T& value, WriteFn write) {
  net::PayloadWriter w;
  write(w, value);
  return w.take();
}

/// Every strict prefix of a valid payload must fail its typed read —
/// the reader latches on underflow, never crashes, never reads past.
template <typename T, typename ReadFn>
void expect_truncations_fail(const std::vector<std::uint8_t>& bytes,
                             ReadFn read) {
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    net::PayloadReader r(std::span<const std::uint8_t>(bytes).first(len));
    T out;
    EXPECT_FALSE(read(r, out) && r.done()) << "prefix length " << len;
  }
}

TEST(ClusterWire, ShardMapRoundTripsBitwise) {
  ShardMap map = make_shard_map(three_nodes(), 8, 2);
  map.epoch = 41;
  map.nodes[2].alive = false;
  const auto bytes = wire_bytes(map, write_shard_map);

  net::PayloadReader r(bytes);
  ShardMap out;
  ASSERT_TRUE(read_shard_map(r, out));
  EXPECT_TRUE(r.done());
  // Re-serialization byte-compares the whole structure at once.
  EXPECT_EQ(wire_bytes(out, write_shard_map), bytes);
  EXPECT_EQ(out.epoch, 41U);
  EXPECT_FALSE(out.nodes[2].alive);
  EXPECT_EQ(out.nodes[1].host, "127.0.0.1");

  expect_truncations_fail<ShardMap>(bytes, read_shard_map);
}

TEST(ClusterWire, InvalidShardMapRejectedOnRead) {
  ShardMap map = make_shard_map(three_nodes(), 4, 2);
  map.replicas[2] = {9};  // replica index out of range
  const auto bytes = wire_bytes(map, write_shard_map);
  net::PayloadReader r(bytes);
  ShardMap out;
  EXPECT_FALSE(read_shard_map(r, out));
}

TEST(ClusterWire, HeartbeatAndHealthRoundTrip) {
  const Heartbeat hb{3, 17, 999};
  const auto hb_bytes = wire_bytes(hb, write_heartbeat);
  net::PayloadReader r(hb_bytes);
  Heartbeat hb_out;
  ASSERT_TRUE(read_heartbeat(r, hb_out));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(hb_out.from, 3U);
  EXPECT_EQ(hb_out.map_epoch, 17U);
  EXPECT_EQ(hb_out.seq, 999U);
  expect_truncations_fail<Heartbeat>(hb_bytes, read_heartbeat);

  NodeHealth h;
  h.node = 1;
  h.map_epoch = 5;
  h.model_version = 2;
  h.n_lines = 100;
  h.measurements = 4400;
  h.tickets = 12;
  h.peers = {{0, PeerState::kUp}, {2, PeerState::kDead}};
  const auto h_bytes = wire_bytes(h, write_node_health);
  net::PayloadReader hr(h_bytes);
  NodeHealth h_out;
  ASSERT_TRUE(read_node_health(hr, h_out));
  EXPECT_TRUE(hr.done());
  EXPECT_EQ(wire_bytes(h_out, write_node_health), h_bytes);
  ASSERT_EQ(h_out.peers.size(), 2U);
  EXPECT_EQ(h_out.peers[1].state, PeerState::kDead);
  expect_truncations_fail<NodeHealth>(h_bytes, read_node_health);
}

TEST(ClusterWire, HandoffAndTopNShardsRequestsRoundTrip) {
  const HandoffRequest req{1, 6, 12, 512, 128};
  const auto bytes = wire_bytes(req, write_handoff_request);
  net::PayloadReader r(bytes);
  HandoffRequest out;
  ASSERT_TRUE(read_handoff_request(r, out));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(out.push, 1);
  EXPECT_EQ(out.shard, 6U);
  EXPECT_EQ(out.n_shards, 12U);
  EXPECT_EQ(out.cursor, 512U);
  EXPECT_EQ(out.max_lines, 128U);
  expect_truncations_fail<HandoffRequest>(bytes, read_handoff_request);

  TopNShardsRequest tq;
  tq.n = 25;
  tq.n_shards = 12;
  tq.shards = {0, 3, 6, 9};
  const auto tq_bytes = wire_bytes(tq, write_top_n_shards);
  net::PayloadReader tr(tq_bytes);
  TopNShardsRequest tq_out;
  ASSERT_TRUE(read_top_n_shards(tr, tq_out));
  EXPECT_TRUE(tr.done());
  EXPECT_EQ(tq_out.shards, tq.shards);
  expect_truncations_fail<TopNShardsRequest>(tq_bytes, read_top_n_shards);
}

TEST(ClusterWire, GarbagePayloadsNeverCrashTypedReads) {
  util::Rng rng = util::Rng::stream(4321, 0);
  for (int round = 0; round < 300; ++round) {
    std::vector<std::uint8_t> buf(rng.uniform_index(96));
    for (auto& b : buf) {
      b = static_cast<std::uint8_t>(rng.uniform_index(256));
    }
    // The property under test: bounded reads, no crash, no huge
    // count-driven allocations. Any return value is legal.
    {
      net::PayloadReader r(buf);
      ShardMap out;
      (void)read_shard_map(r, out);
    }
    {
      net::PayloadReader r(buf);
      NodeHealth out;
      (void)read_node_health(r, out);
    }
    {
      net::PayloadReader r(buf);
      HandoffPage out;
      (void)read_handoff_page(r, out);
    }
    {
      net::PayloadReader r(buf);
      serve::ExportedLine out;
      (void)read_exported_line(r, out);
    }
    {
      net::PayloadReader r(buf);
      TopNShardsRequest out;
      (void)read_top_n_shards(r, out);
    }
  }
}

// ---- export/import: the exact-state handoff primitive ------------------

void seed_store(serve::LineStateStore& store, int weeks) {
  for (dslsim::LineId line = 0; line < 5; ++line) {
    for (int week = 0; week < weeks; ++week) {
      serve::LineMeasurement m;
      m.line = line;
      m.week = week;
      m.profile = static_cast<dslsim::ProfileId>(1 + line % 3);
      for (std::size_t i = 0; i < m.metrics.size(); ++i) {
        m.metrics[i] = 0.25F * static_cast<float>(i + 1) +
                       0.125F * static_cast<float>(week) +
                       0.0625F * static_cast<float>(line);
      }
      store.ingest(m);
    }
  }
  store.ingest_ticket(2, 100);
  store.ingest_ticket(4, 55);
}

TEST(ClusterHandoff, ExportWireImportReExportIsBitExact) {
  serve::LineStateStore source(4);
  seed_store(source, 12);
  serve::LineStateStore target(8);  // different store sharding is fine
  for (const dslsim::LineId line : source.line_ids()) {
    const auto exported = source.export_line(line);
    ASSERT_TRUE(exported.has_value());
    const auto bytes = wire_bytes(*exported, write_exported_line);

    net::PayloadReader r(bytes);
    serve::ExportedLine decoded;
    ASSERT_TRUE(read_exported_line(r, decoded));
    EXPECT_TRUE(r.done());
    target.import_line(decoded);

    const auto re = target.export_line(line);
    ASSERT_TRUE(re.has_value());
    // The full Welford accumulators, window, and ticket state must
    // survive the trip bit for bit.
    EXPECT_EQ(wire_bytes(*re, write_exported_line), bytes);
    expect_truncations_fail<serve::ExportedLine>(bytes, read_exported_line);
  }
  EXPECT_EQ(target.n_lines(), source.n_lines());
}

TEST(ClusterHandoff, TicketOnlyLinesExportToo) {
  serve::LineStateStore store(2);
  store.ingest_ticket(11, 77);
  const auto exported = store.export_line(11);
  ASSERT_TRUE(exported.has_value());
  EXPECT_EQ(exported->week, -1);
  EXPECT_TRUE(exported->has_ticket);
  EXPECT_EQ(exported->last_ticket, 77);
  EXPECT_FALSE(store.export_line(12).has_value());
}

TEST(ClusterHandoff, HandoffPageRoundTrips) {
  serve::LineStateStore source(4);
  seed_store(source, 3);
  HandoffPage page;
  page.next_cursor = 5;
  page.done = 0;
  for (const dslsim::LineId line : source.line_ids()) {
    page.lines.push_back(*source.export_line(line));
  }
  const auto bytes = wire_bytes(page, write_handoff_page);
  net::PayloadReader r(bytes);
  HandoffPage out;
  ASSERT_TRUE(read_handoff_page(r, out));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(out.next_cursor, 5U);
  EXPECT_EQ(out.done, 0);
  ASSERT_EQ(out.lines.size(), page.lines.size());
  EXPECT_EQ(wire_bytes(out, write_handoff_page), bytes);
}

// ---- live two-node cluster through the router --------------------------

class ClusterEndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dslsim::SimConfig cfg;
    cfg.seed = 77;
    cfg.topology.n_lines = 200;
    data_ = new dslsim::SimDataset(dslsim::Simulator(cfg).run());
    core::PredictorConfig pcfg;
    pcfg.top_n = 10;
    pcfg.boost_iterations = 8;
    pcfg.use_derived_features = false;
    predictor_ = new core::TicketPredictor(pcfg);
    predictor_->train(*data_, 20, 30);
  }
  static void TearDownTestSuite() {
    delete predictor_;
    delete data_;
    predictor_ = nullptr;
    data_ = nullptr;
  }

  static ClusterNodeConfig node_config(NodeId id) {
    ClusterNodeConfig cfg;
    cfg.node_id = id;
    cfg.heartbeat_interval = 20ms;
    cfg.membership.suspect_after = 80ms;
    cfg.membership.dead_after = 200ms;
    return cfg;
  }

  static const dslsim::SimDataset* data_;
  static core::TicketPredictor* predictor_;
};

const dslsim::SimDataset* ClusterEndToEnd::data_ = nullptr;
core::TicketPredictor* ClusterEndToEnd::predictor_ = nullptr;

TEST_F(ClusterEndToEnd, ReplicatedServeSurvivesAKillByteIdentically) {
  constexpr int kWeeks = 8;  // score at week 7
  // Reference: one plain store fed the same stream.
  serve::LineStateStore ref_store;
  serve::ModelRegistry ref_registry;
  ref_registry.publish(predictor_->kernel());
  serve::ScoringService ref_service(ref_store, ref_registry);

  auto node0 = std::make_unique<ClusterNode>(node_config(0));
  auto node1 = std::make_unique<ClusterNode>(node_config(1));
  std::string error;
  ASSERT_TRUE(node0->start(&error)) << error;
  ASSERT_TRUE(node1->start(&error)) << error;
  const ShardMap map = make_shard_map(
      {{0, "127.0.0.1", node0->port(), true},
       {1, "127.0.0.1", node1->port(), true}},
      4, 2);

  ShardRouter router(map, {});
  ASSERT_TRUE(router.connect_all()) << router.last_error();
  ASSERT_TRUE(router.push_model(predictor_->kernel()));
  ASSERT_TRUE(router.broadcast_map());

  for (int week = 0; week < kWeeks; ++week) {
    for (std::size_t l = 0; l < data_->n_lines(); ++l) {
      serve::LineMeasurement m;
      m.line = static_cast<dslsim::LineId>(l);
      m.week = week;
      m.profile = data_->plant(m.line).profile;
      m.metrics = data_->measurement(week, m.line);
      ref_store.ingest(m);
      ASSERT_TRUE(router.ingest(m)) << router.last_error();
    }
  }
  ref_store.ingest_ticket(3, 40);
  ASSERT_TRUE(router.ingest_ticket(3, 40));

  // Replication 2 over 2 nodes: both hold every line.
  const auto h0 = router.health(0);
  const auto h1 = router.health(1);
  ASSERT_TRUE(h0.has_value() && h1.has_value());
  EXPECT_EQ(h0->n_lines, data_->n_lines());
  EXPECT_EQ(h1->n_lines, data_->n_lines());
  EXPECT_EQ(h0->measurements, h1->measurements);
  EXPECT_GE(h0->model_version, 1U);

  const auto expect_identical = [&] {
    for (std::size_t l = 0; l < data_->n_lines(); ++l) {
      const auto line = static_cast<dslsim::LineId>(l);
      const auto got = router.score(line);
      const auto want = ref_service.score_lines({&line, 1})[0];
      ASSERT_TRUE(got.has_value()) << router.last_error();
      ASSERT_TRUE(got->valid);
      ASSERT_EQ(got->week, want.week) << "line " << l;
      ASSERT_EQ(got->score, want.score) << "line " << l;
      ASSERT_EQ(got->probability, want.probability) << "line " << l;
    }
    const auto ranked = router.top_n(25);
    const auto ref_ranked = ref_service.top_n(25);
    ASSERT_TRUE(ranked.has_value()) << router.last_error();
    ASSERT_EQ(ranked->size(), ref_ranked.size());
    for (std::size_t i = 0; i < ranked->size(); ++i) {
      ASSERT_EQ((*ranked)[i].line, ref_ranked[i].line) << "rank " << i;
      ASSERT_EQ((*ranked)[i].score, ref_ranked[i].score) << "rank " << i;
    }
  };
  expect_identical();

  // Hard-kill node 1: every shard's surviving replica is node 0, and
  // nothing served may change by a single bit.
  const std::uint64_t epoch_before = router.map().epoch;
  node1->kill();
  expect_identical();
  EXPECT_GT(router.map().epoch, epoch_before);
  EXPECT_FALSE(router.map().nodes[1].alive);
  EXPECT_GE(router.stats().nodes_marked_dead, 1U);

  // Readmit a fresh node 1 via HANDOFF and verify the copy is exact by
  // re-exporting from both sides.
  auto node1b = std::make_unique<ClusterNode>(node_config(1));
  ASSERT_TRUE(node1b->start(&error)) << error;
  std::size_t restored = 0;
  const core::ScoringKernel& kernel = predictor_->kernel();
  ASSERT_TRUE(router.readmit({1, "127.0.0.1", node1b->port(), true}, &kernel,
                             &restored))
      << router.last_error();
  EXPECT_EQ(restored, data_->n_lines());
  EXPECT_EQ(node1b->store().n_lines(), data_->n_lines());
  for (const dslsim::LineId line : {dslsim::LineId{0}, dslsim::LineId{3},
                                    dslsim::LineId{199}}) {
    const auto a = node0->store().export_line(line);
    const auto b = node1b->store().export_line(line);
    ASSERT_TRUE(a.has_value() && b.has_value());
    EXPECT_EQ(wire_bytes(*a, write_exported_line),
              wire_bytes(*b, write_exported_line))
        << "line " << line;
  }

  node0->stop();
  node1b->stop();
}

TEST_F(ClusterEndToEnd, SurvivorsConvergeOnTheSameRebuiltMap) {
  auto node0 = std::make_unique<ClusterNode>(node_config(0));
  auto node1 = std::make_unique<ClusterNode>(node_config(1));
  auto node2 = std::make_unique<ClusterNode>(node_config(2));
  std::string error;
  ASSERT_TRUE(node0->start(&error)) << error;
  ASSERT_TRUE(node1->start(&error)) << error;
  ASSERT_TRUE(node2->start(&error)) << error;
  const ShardMap map = make_shard_map(
      {{0, "127.0.0.1", node0->port(), true},
       {1, "127.0.0.1", node1->port(), true},
       {2, "127.0.0.1", node2->port(), true}},
      6, 2);
  ShardRouter router(map, {});
  ASSERT_TRUE(router.broadcast_map());

  node2->kill();
  // Both survivors' failure detectors must notice and derive the same
  // epoch+1 map independently (pure rebuild of the same dead set).
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  ShardMap m0, m1;
  while (std::chrono::steady_clock::now() < deadline) {
    m0 = node0->map_snapshot();
    m1 = node1->map_snapshot();
    if (m0.epoch > map.epoch && m1.epoch == m0.epoch) break;
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_GT(m0.epoch, map.epoch) << "node 0 never detected the death";
  ASSERT_EQ(m1.epoch, m0.epoch) << "survivors diverged";
  EXPECT_EQ(wire_bytes(m0, write_shard_map), wire_bytes(m1, write_shard_map));
  EXPECT_FALSE(m0.nodes[2].alive);

  node0->stop();
  node1->stop();
}

}  // namespace
}  // namespace nevermind::cluster
