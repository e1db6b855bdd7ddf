// Serving-layer tests: the byte-identity anchor (served scores ==
// offline batch scores at every shard/thread configuration, including
// across a model hot-swap), the versioned artefact round-trips, and the
// store/registry unit semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "core/scoring_kernel.hpp"
#include "core/ticket_predictor.hpp"
#include "core/trouble_locator.hpp"
#include "serve/line_state_store.hpp"
#include "serve/model_registry.hpp"
#include "serve/replay.hpp"
#include "serve/scoring_service.hpp"
#include "util/calendar.hpp"

namespace nevermind::serve {
namespace {

constexpr int kWeek = 43;

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dslsim::SimConfig cfg;
    cfg.seed = 31;
    cfg.topology.n_lines = 2500;
    data_ = new dslsim::SimDataset(dslsim::Simulator(cfg).run());

    core::PredictorConfig pcfg;
    pcfg.top_n = 25;
    pcfg.boost_iterations = 60;
    predictor_ = new core::TicketPredictor(pcfg);
    predictor_->train(*data_, 30, 38);
    batch_ = new std::vector<core::Prediction>(
        predictor_->predict_week(*data_, kWeek));
  }
  static void TearDownTestSuite() {
    delete batch_;
    delete predictor_;
    delete data_;
    batch_ = nullptr;
    predictor_ = nullptr;
    data_ = nullptr;
  }

  /// Replay through kWeek at the given sharding/threading and return
  /// the full served ranking.
  static std::vector<ServeScore> replay_and_rank(std::size_t shards,
                                                 std::size_t threads,
                                                 bool swap_mid_stream) {
    const exec::ExecContext exec =
        threads > 1 ? exec::ExecContext(threads) : exec::ExecContext();
    LineStateStore store(shards);
    ModelRegistry registry;
    registry.publish(predictor_->kernel());
    ServiceConfig cfg;
    cfg.exec = exec;
    ScoringService service(store, registry, cfg);
    ReplayDriver replay(*data_, store);
    replay.feed_through(kWeek / 2, exec);
    if (swap_mid_stream) registry.publish(predictor_->kernel());
    replay.feed_through(kWeek, exec);
    return service.top_n(data_->n_lines());
  }

  static void expect_identical(const std::vector<ServeScore>& served) {
    ASSERT_EQ(served.size(), batch_->size());
    for (std::size_t i = 0; i < served.size(); ++i) {
      ASSERT_TRUE(served[i].valid);
      ASSERT_EQ(served[i].week, kWeek);
      // EQ, not NEAR: the served path must reproduce the batch path's
      // bits, not approximate them.
      ASSERT_EQ(served[i].line, (*batch_)[i].line) << "rank " << i;
      ASSERT_EQ(served[i].score, (*batch_)[i].score) << "rank " << i;
      ASSERT_EQ(served[i].probability, (*batch_)[i].probability)
          << "rank " << i;
    }
  }

  static const dslsim::SimDataset* data_;
  static core::TicketPredictor* predictor_;
  static std::vector<core::Prediction>* batch_;
};

const dslsim::SimDataset* ServeTest::data_ = nullptr;
core::TicketPredictor* ServeTest::predictor_ = nullptr;
std::vector<core::Prediction>* ServeTest::batch_ = nullptr;

TEST_F(ServeTest, ServedRankingIsByteIdenticalAtEveryConfiguration) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      expect_identical(replay_and_rank(shards, threads, false));
    }
  }
}

TEST_F(ServeTest, HotSwapMidReplayPreservesByteIdentity) {
  const auto served = replay_and_rank(4, 8, true);
  expect_identical(served);
  // The republished bundle's version is what answered the queries.
  EXPECT_EQ(served.front().model_version, 2U);
}

TEST_F(ServeTest, PointQueryMatchesRankedEntry) {
  LineStateStore store(4);
  ModelRegistry registry;
  registry.publish(predictor_->kernel());
  ScoringService service(store, registry);
  ReplayDriver replay(*data_, store);
  replay.feed_through(kWeek);

  for (std::size_t i = 0; i < batch_->size(); i += 311) {
    const auto s = service.score_lines({&(*batch_)[i].line, 1})[0];
    ASSERT_TRUE(s.valid);
    EXPECT_EQ(s.score, (*batch_)[i].score);
    EXPECT_EQ(s.probability, (*batch_)[i].probability);
  }
}

TEST_F(ServeTest, TopNTruncatesTheFullRanking) {
  LineStateStore store(4);
  ModelRegistry registry;
  registry.publish(predictor_->kernel());
  ScoringService service(store, registry);
  ReplayDriver replay(*data_, store);
  replay.feed_through(kWeek);

  const auto top10 = service.top_n(10);
  ASSERT_EQ(top10.size(), 10U);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(top10[i].line, (*batch_)[i].line);
    EXPECT_EQ(top10[i].score, (*batch_)[i].score);
  }
}

// ---- the score cache ---------------------------------------------------

/// The score a line has right now under `kernel`, computed from scratch:
/// the full encode_window_row row through score_row.
double fresh_score(const LineStateStore& store,
                   const core::ScoringKernel& kernel, dslsim::LineId line) {
  const auto snap = store.snapshot(line);
  EXPECT_TRUE(snap.has_value());
  std::vector<float> row(features::all_columns(kernel.encoder).size());
  features::encode_window_row(
      snap->window, snap->current, dslsim::profile(snap->profile),
      snap->last_ticket, util::saturday_of_week(snap->week), kernel.encoder,
      features::base_columns(kernel.encoder).size(), row);
  return kernel.score_row(row);
}

/// The trained kernel cut down to its first stump: every line scores one
/// of three values, so the ranking is almost all ties.
core::ScoringKernel one_stump_kernel(const core::ScoringKernel& trained) {
  core::ScoringKernel kernel = trained;
  kernel.model = ml::BStumpModel({trained.model.stumps().front()});
  return kernel;
}

TEST_F(ServeTest, EachStateChangeRescoresTheLine) {
  LineStateStore store(4);
  ModelRegistry registry;
  registry.publish(predictor_->kernel());
  const ScoringService service(store, registry);
  ReplayDriver replay(*data_, store);
  replay.feed_through(kWeek);
  const std::uint64_t n = data_->n_lines();
  const auto rescored_by = [&](const auto& read) {
    const std::uint64_t before = store.lines_rescored();
    read();
    return store.lines_rescored() - before;
  };
  const auto rank_all = [&] { (void)service.top_n(n); };

  EXPECT_EQ(rescored_by(rank_all), n);  // cold
  EXPECT_EQ(rescored_by(rank_all), 0U);  // every line cached
  expect_identical(service.top_n(n));

  const dslsim::LineId line = (*batch_)[7].line;
  const std::vector<dslsim::LineId> one{line};
  const auto read_line = [&] { (void)service.score_lines(one); };
  const auto expect_fresh = [&] {
    const ServeScore s = service.score_lines(one)[0];
    ASSERT_TRUE(s.valid);
    EXPECT_EQ(s.score, fresh_score(store, predictor_->kernel(), line));
  };

  // A measurement for the next week.
  store.ingest({line, kWeek + 1, data_->plant(line).profile,
                data_->measurement(kWeek + 1, line)});
  EXPECT_EQ(rescored_by(read_line), 1U);
  expect_fresh();
  EXPECT_EQ(rescored_by(read_line), 0U);

  // A stale week changes nothing, so nothing is rescored.
  store.ingest({line, kWeek - 3, data_->plant(line).profile,
                data_->measurement(kWeek - 3, line)});
  EXPECT_EQ(rescored_by(read_line), 0U);

  // A newer ticket moves the recency feature; an older one does not.
  store.ingest_ticket(line, util::saturday_of_week(kWeek + 1));
  EXPECT_EQ(rescored_by(read_line), 1U);
  expect_fresh();
  store.ingest_ticket(line, 0);
  EXPECT_EQ(rescored_by(read_line), 0U);

  // Installing handed-off state, even identical state.
  store.import_line(*store.export_line(line));
  EXPECT_EQ(rescored_by(read_line), 1U);
  expect_fresh();

  // A hot-swap stales every cached score, even for the same kernel.
  registry.publish(predictor_->kernel());
  EXPECT_EQ(rescored_by(rank_all), n);
  EXPECT_EQ(rescored_by(rank_all), 0U);
}

TEST_F(ServeTest, TwoRegistriesOverOneStoreNeverShareScores) {
  LineStateStore store(4);
  ReplayDriver replay(*data_, store);
  replay.feed_through(kWeek);
  const core::ScoringKernel stump = one_stump_kernel(predictor_->kernel());
  ModelRegistry full_registry;
  ModelRegistry stump_registry;
  // Both registries call their first model version 1.
  ASSERT_EQ(full_registry.publish(predictor_->kernel()), 1U);
  ASSERT_EQ(stump_registry.publish(stump), 1U);
  const ScoringService full(store, full_registry);
  const ScoringService cut(store, stump_registry);

  const std::size_t n = data_->n_lines();
  for (int round = 0; round < 2; ++round) {
    expect_identical(full.top_n(n));
    for (const ServeScore& s : cut.top_n(n)) {
      ASSERT_EQ(s.score, fresh_score(store, stump, s.line)) << s.line;
    }
  }
}

TEST_F(ServeTest, TiedScoresRankLikeStableSortedPredictWeek) {
  const core::ScoringKernel stump = one_stump_kernel(predictor_->kernel());
  const core::TicketPredictor offline(core::PredictorConfig{}, stump);
  const std::vector<core::Prediction> expect =
      offline.predict_week(*data_, kWeek);
  std::vector<double> distinct;
  for (const auto& p : expect) distinct.push_back(p.score);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  ASSERT_LE(distinct.size(), 3U);  // the ranking is ties all the way down

  LineStateStore store(4);
  ModelRegistry registry;
  registry.publish(stump);
  ServiceConfig cfg;
  cfg.exec = exec::ExecContext(4);
  const ScoringService service(store, registry, cfg);
  ReplayDriver replay(*data_, store);
  replay.feed_through(kWeek);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{25},
                              expect.size(), expect.size() + 100}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto ranked = service.top_n(n);
    ASSERT_EQ(ranked.size(), std::min(n, expect.size()));
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      ASSERT_EQ(ranked[i].line, expect[i].line) << "rank " << i;
      ASSERT_EQ(ranked[i].score, expect[i].score) << "rank " << i;
      ASSERT_EQ(ranked[i].probability, expect[i].probability) << "rank " << i;
    }
  }
}

TEST(ScoringKernelTiles, StumpLoopMatchesScoreRowOnNaNAndCategoricalStumps) {
  core::ScoringKernel kernel;
  kernel.selected = {4, 0, 2};
  const auto stump = [](std::size_t feature, bool categorical,
                        float threshold, double missing) {
    ml::Stump s;
    s.feature = feature;
    s.categorical = categorical;
    s.threshold = threshold;
    s.score_pass = 0.75 + static_cast<double>(feature);
    s.score_fail = -0.3125 * static_cast<double>(feature + 1);
    s.score_missing = missing;
    return s;
  };
  kernel.model = ml::BStumpModel({stump(0, true, 0.5F, 0.1),
                                  stump(1, false, 0.5F, -0.2),
                                  stump(2, true, 1.0F, 0.0),
                                  stump(1, false, -1.0F, 0.3),
                                  stump(0, false, 1.5F, 0.05)});
  // 150 rows of a 5-wide layout: categorical hits and misses, values on
  // both sides of every threshold, and NaN in each selected column.
  constexpr std::size_t kRows = 150;
  constexpr std::size_t kWidth = 5;
  std::vector<float> rows(kRows * kWidth);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < kWidth; ++c) {
      rows[r * kWidth + c] =
          (r + c) % 7 == 3 ? ml::kMissing
                           : static_cast<float>((r * 3 + c) % 5) * 0.5F - 1.0F;
    }
  }
  // Column-major copy of the selected columns, as the serving tiles are.
  std::vector<std::vector<float>> columns(kernel.selected.size(),
                                          std::vector<float>(kRows));
  std::vector<const float*> column_ptrs;
  for (std::size_t j = 0; j < kernel.selected.size(); ++j) {
    for (std::size_t r = 0; r < kRows; ++r) {
      columns[j][r] = rows[r * kWidth + kernel.selected[j]];
    }
    column_ptrs.push_back(columns[j].data());
  }
  std::vector<double> tiled(kRows, 0.0);
  kernel.add_stumps(column_ptrs, tiled);
  for (std::size_t r = 0; r < kRows; ++r) {
    const double want = kernel.score_row(
        std::span<const float>(rows.data() + r * kWidth, kWidth));
    ASSERT_EQ(std::memcmp(&tiled[r], &want, sizeof want), 0) << "row " << r;
  }
}

TEST_F(ServeTest, KernelArtifactRoundTripsBitExactly) {
  std::stringstream ss;
  predictor_->kernel().save(ss);
  std::string error;
  const auto loaded = core::ScoringKernel::load(ss, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  LineStateStore store(4);
  ModelRegistry registry;
  registry.publish(*loaded);  // serve from the *loaded* artefact
  ScoringService service(store, registry);
  ReplayDriver replay(*data_, store);
  replay.feed_through(kWeek);
  expect_identical(service.top_n(data_->n_lines()));
}

TEST_F(ServeTest, KernelLoadDistinguishesVersionMismatchFromCorruption) {
  std::stringstream ss;
  predictor_->kernel().save(ss);
  std::string text = ss.str();

  {
    std::stringstream bad("nmkernel v99" + text.substr(text.find('\n')));
    std::string error;
    EXPECT_FALSE(core::ScoringKernel::load(bad, &error).has_value());
    EXPECT_NE(error.find("version"), std::string::npos) << error;
    EXPECT_NE(error.find("v99"), std::string::npos) << error;
  }
  {
    std::stringstream bad("garbage " + text);
    std::string error;
    EXPECT_FALSE(core::ScoringKernel::load(bad, &error).has_value());
    EXPECT_NE(error.find("nmkernel"), std::string::npos) << error;
  }
  {
    std::stringstream truncated(text.substr(0, text.size() / 2));
    std::string error;
    EXPECT_FALSE(core::ScoringKernel::load(truncated, &error).has_value());
    EXPECT_EQ(error.find("version"), std::string::npos) << error;
  }
}

TEST(ServeLocatorArtifact, RoundTripsAndRanksIdentically) {
  dslsim::SimConfig cfg;
  cfg.seed = 33;
  cfg.topology.n_lines = 1500;
  const dslsim::SimDataset data = dslsim::Simulator(cfg).run();

  core::LocatorConfig lcfg;
  lcfg.boost_iterations = 20;
  lcfg.min_occurrences = 5;
  core::TroubleLocator locator(lcfg);
  locator.train(data, 20, 40);
  ASSERT_TRUE(locator.trained());

  std::stringstream ss;
  locator.save(ss);
  std::string error;
  const auto loaded = core::TroubleLocator::load(ss, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->covered().size(), locator.covered().size());

  const auto block = features::encode_at_dispatch(data, 41, 45,
                                                  locator.encoder_config());
  ASSERT_GT(block.dataset.n_rows(), 0U);
  std::vector<float> row(block.dataset.n_cols());
  for (std::size_t j = 0; j < row.size(); ++j) row[j] = block.dataset.at(0, j);
  for (const auto kind :
       {core::LocatorModelKind::kExperience, core::LocatorModelKind::kFlat,
        core::LocatorModelKind::kCombined}) {
    const auto a = locator.rank(row, kind);
    const auto b = loaded->rank(row, kind);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].disposition, b[i].disposition);
      EXPECT_EQ(a[i].probability, b[i].probability);
    }
  }

  std::stringstream bad("nmlocator v7\nrest");
  EXPECT_FALSE(core::TroubleLocator::load(bad, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

// ---- store semantics -------------------------------------------------

dslsim::MetricVector metrics_with_state(float state, float fill) {
  dslsim::MetricVector m;
  m.fill(fill);
  m[0] = state;  // LineMetric::kState
  return m;
}

TEST(LineStateStore, SnapshotBeforeAnyMeasurementIsEmpty) {
  LineStateStore store(4);
  EXPECT_FALSE(store.snapshot(7).has_value());
  EXPECT_EQ(store.n_lines(), 0U);
  // A ticket alone does not make the line scorable.
  store.ingest_ticket(7, 100);
  EXPECT_FALSE(store.snapshot(7).has_value());
  EXPECT_TRUE(store.line_ids().empty());
}

TEST(LineStateStore, IngestFoldsPreviousWeekIntoTheWindow) {
  LineStateStore store(4);
  store.ingest({5, 0, 1, metrics_with_state(1.0F, 10.0F)});
  auto snap = store.snapshot(5);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->week, 0);
  // Week 0 is still "current": nothing folded yet (matches the offline
  // emit-then-update order).
  EXPECT_EQ(snap->window.tests_seen, 0U);
  EXPECT_FALSE(snap->window.has_prev);

  store.ingest({5, 1, 1, metrics_with_state(1.0F, 12.0F)});
  snap = store.snapshot(5);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->week, 1);
  EXPECT_EQ(snap->window.tests_seen, 1U);
  EXPECT_TRUE(snap->window.has_prev);
  EXPECT_EQ(snap->window.prev[3], 10.0F);
  EXPECT_EQ(snap->current[3], 12.0F);
}

TEST(LineStateStore, StaleWeekIsDroppedNotFolded) {
  LineStateStore store(1);
  store.ingest({9, 5, 1, metrics_with_state(1.0F, 1.0F)});
  store.ingest({9, 3, 1, metrics_with_state(1.0F, 99.0F)});  // stale
  const auto snap = store.snapshot(9);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->week, 5);
  EXPECT_EQ(snap->current[3], 1.0F);
  EXPECT_EQ(snap->window.tests_seen, 0U);
}

TEST(LineStateStore, TicketRecencyKeepsTheLatestDay) {
  LineStateStore store(4);
  store.ingest({2, 0, 1, metrics_with_state(1.0F, 0.0F)});
  store.ingest_ticket(2, 50);
  store.ingest_ticket(2, 30);  // older report arriving late
  const auto snap = store.snapshot(2);
  ASSERT_TRUE(snap.has_value());
  ASSERT_TRUE(snap->last_ticket.has_value());
  EXPECT_EQ(*snap->last_ticket, 50);
}

TEST(LineStateStore, LineIdsAscendAcrossShardsAndPagesKeepEveryLine) {
  LineStateStore store(3);
  for (const dslsim::LineId u : {17U, 3U, 11U, 5U}) {
    for (int w = 0; w < 6; ++w) {
      store.ingest({u, w, 1, metrics_with_state(1.0F, static_cast<float>(w))});
    }
  }
  const auto ids = store.line_ids();
  ASSERT_EQ(ids.size(), 4U);
  EXPECT_EQ(ids, (std::vector<dslsim::LineId>{3, 5, 11, 17}));
  EXPECT_EQ(store.n_lines(), 4U);
  EXPECT_EQ(store.measurements_ingested(), 24U);

  // One shard, several slab pages: every line keeps its own state as
  // pages are added behind it.
  LineStateStore one(1);
  constexpr dslsim::LineId kLines = 1000;
  for (dslsim::LineId u = kLines; u-- > 0;) {
    one.ingest({u, 0, 1, metrics_with_state(1.0F, static_cast<float>(u))});
    one.ingest(
        {u, 1, 1, metrics_with_state(1.0F, static_cast<float>(u) + 0.5F)});
  }
  ASSERT_EQ(one.n_lines(), kLines);
  for (dslsim::LineId u = 0; u < kLines; ++u) {
    const auto snap = one.snapshot(u);
    ASSERT_TRUE(snap.has_value()) << u;
    EXPECT_EQ(snap->week, 1);
    EXPECT_EQ(snap->window.prev[3], static_cast<float>(u)) << u;
    EXPECT_EQ(snap->current[3], static_cast<float>(u) + 0.5F) << u;
  }
}

// ---- score reasons and registry --------------------------------------

TEST_F(ServeTest, ReasonsDistinguishNoModelFromNoMeasurement) {
  LineStateStore store(2);
  store.ingest({1, 0, 1, metrics_with_state(1.0F, 5.0F)});
  ModelRegistry registry;
  ScoringService service(store, registry);

  const dslsim::LineId measured = 1;
  const dslsim::LineId never_measured = 9;

  // Nothing published (an untrained kernel counts as nothing): kNoModel.
  EXPECT_EQ(service.score_lines({&measured, 1})[0].reason,
            ScoreReason::kNoModel);

  // Trained model published: the measured line scores kOk, while a
  // line that has never reported a measurement says so.
  registry.publish(predictor_->kernel());
  const auto known = service.score_lines({&measured, 1})[0];
  EXPECT_TRUE(known.valid);
  EXPECT_EQ(known.reason, ScoreReason::kOk);
  const auto unknown = service.score_lines({&never_measured, 1})[0];
  EXPECT_FALSE(unknown.valid);
  EXPECT_EQ(unknown.reason, ScoreReason::kNoMeasurement);
}

TEST(ModelRegistry, VersionsAdvanceAndAcquireIsStable) {
  ModelRegistry registry;
  EXPECT_EQ(registry.current_version(), 0U);
  EXPECT_EQ(registry.acquire(), nullptr);

  EXPECT_EQ(registry.publish(core::ScoringKernel{}), 1U);
  const auto v1 = registry.acquire();
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version, 1U);

  EXPECT_EQ(registry.publish(core::ScoringKernel{}), 2U);
  EXPECT_EQ(registry.current_version(), 2U);
  EXPECT_EQ(registry.swap_count(), 2U);
  // The old acquisition still points at its immutable bundle.
  EXPECT_EQ(v1->version, 1U);
}

TEST(ScoringServiceEdge, UnpublishedModelYieldsInvalidScores) {
  LineStateStore store(2);
  store.ingest({1, 0, 1, metrics_with_state(1.0F, 5.0F)});
  ModelRegistry registry;
  ScoringService service(store, registry);
  const dslsim::LineId line = 1;
  const auto s = service.score_lines({&line, 1})[0];
  EXPECT_FALSE(s.valid);
  EXPECT_EQ(s.line, 1U);
  EXPECT_TRUE(service.top_n(5).empty() || !service.top_n(5).front().valid);
}

}  // namespace
}  // namespace nevermind::serve
