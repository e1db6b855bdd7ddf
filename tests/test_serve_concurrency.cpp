// Concurrency smoke for the serving stack, built to run under
// -DNEVERMIND_SANITIZE=thread (ctest -L tsan): writer threads ingesting
// measurements and tickets, reader threads issuing rankings, batches
// and point queries, and a publisher thread
// hot-swapping the model — all against one store and registry, with
// full data-race coverage from TSan, including the score cache that
// const reads rewrite under the shard locks.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/ticket_predictor.hpp"
#include "dslsim/profile.hpp"
#include "exec/exec.hpp"
#include "features/encoder.hpp"
#include "serve/line_state_store.hpp"
#include "serve/model_registry.hpp"
#include "serve/replay.hpp"
#include "serve/scoring_service.hpp"
#include "util/calendar.hpp"
#include "util/rng.hpp"

namespace nevermind::serve {
namespace {

TEST(ServeConcurrency, ConcurrentIngestQueryAndHotSwap) {
  dslsim::SimConfig cfg;
  cfg.seed = 77;
  cfg.topology.n_lines = 400;
  const dslsim::SimDataset data = dslsim::Simulator(cfg).run();

  core::PredictorConfig pcfg;
  pcfg.top_n = 10;
  pcfg.boost_iterations = 8;
  pcfg.use_derived_features = false;
  core::TicketPredictor predictor(pcfg);
  predictor.train(data, 20, 30);

  LineStateStore store(8);
  ModelRegistry registry;
  registry.publish(predictor.kernel());
  ScoringService service(store, registry);

  std::atomic<bool> feeding{true};
  std::atomic<std::uint64_t> answered{0};

  // Writer: replays the whole year, week by week.
  std::thread writer([&] {
    ReplayDriver replay(data, store);
    while (!replay.exhausted()) replay.feed_next_week();
    feeding.store(false, std::memory_order_release);
  });

  // Publisher: hot-swaps the model while queries are in flight.
  std::thread publisher([&] {
    while (feeding.load(std::memory_order_acquire)) {
      registry.publish(predictor.kernel());
      std::this_thread::yield();
    }
  });

  // Readers: point queries (batches of one) against whatever state and
  // model version are current.
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      util::Rng rng = util::Rng::stream(cfg.seed, 100 + r);
      for (int q = 0; q < 200; ++q) {
        const auto line = static_cast<dslsim::LineId>(
            rng.uniform_index(data.n_lines()));
        const ServeScore s = service.score_lines({&line, 1})[0];
        EXPECT_EQ(s.line, line);
        if (s.valid) {
          EXPECT_GE(s.probability, 0.0);
          EXPECT_LE(s.probability, 1.0);
          EXPECT_GE(s.model_version, 1U);
        }
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (auto& t : readers) t.join();
  writer.join();
  publisher.join();

  EXPECT_EQ(answered.load(), 800U);
  EXPECT_EQ(store.measurements_ingested(),
            static_cast<std::uint64_t>(data.n_lines()) *
                static_cast<std::uint64_t>(data.n_weeks()));
  EXPECT_GE(registry.swap_count(), 1U);

  // After the dust settles the store serves the final week everywhere.
  const auto top = service.top_n(5);
  ASSERT_EQ(top.size(), 5U);
  for (const auto& s : top) {
    EXPECT_TRUE(s.valid);
    EXPECT_EQ(s.week, data.n_weeks() - 1);
  }
}

TEST(ServeConcurrency, CachedScoresStayExactUnderRankingIngestAndHotSwap) {
  // The score cache is rewritten from const reads (top_n, score_lines)
  // under the shard locks while writers change line state and a
  // publisher swaps models. Afterwards every cached score must equal a
  // fresh encode + score_row of the line's final state.
  dslsim::SimConfig cfg;
  cfg.seed = 79;
  cfg.topology.n_lines = 300;
  const dslsim::SimDataset data = dslsim::Simulator(cfg).run();

  core::PredictorConfig pcfg;
  pcfg.top_n = 10;
  pcfg.boost_iterations = 8;
  pcfg.use_derived_features = false;
  core::TicketPredictor predictor(pcfg);
  predictor.train(data, 20, 30);

  LineStateStore store(8);
  ModelRegistry registry;
  registry.publish(predictor.kernel());
  ServiceConfig service_cfg;
  service_cfg.exec = exec::ExecContext(3);
  ScoringService service(store, registry, service_cfg);

  std::atomic<bool> measured{false};
  std::atomic<bool> tickets_done{false};
  std::atomic<int> rankings_after_replay{0};

  // Measurement writer: the whole year, tickets included.
  std::thread replayer([&] {
    ReplayDriver replay(data, store);
    while (!replay.exhausted()) replay.feed_next_week();
    measured.store(true, std::memory_order_release);
  });
  // Ticket writer: tickets on random lines, some newer than a line's
  // last one (a state change) and some older (none), until the readers
  // have ranked a few times after the replay finished.
  std::thread ticketer([&] {
    util::Rng rng = util::Rng::stream(cfg.seed, 7);
    while (rankings_after_replay.load(std::memory_order_acquire) < 6) {
      store.ingest_ticket(
          static_cast<dslsim::LineId>(rng.uniform_index(data.n_lines())),
          static_cast<util::Day>(rng.uniform_index(400)));
    }
    tickets_done.store(true, std::memory_order_release);
  });
  // Publisher: hot-swaps until the replay is done.
  std::thread publisher([&] {
    while (!measured.load(std::memory_order_acquire)) {
      registry.publish(predictor.kernel());
      std::this_thread::yield();
    }
  });
  // Readers: rankings, batches and point queries.
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      util::Rng rng = util::Rng::stream(cfg.seed, 200 + r);
      while (!tickets_done.load(std::memory_order_acquire)) {
        const bool after_replay = measured.load(std::memory_order_acquire);
        for (const ServeScore& s : service.top_n(10)) EXPECT_TRUE(s.valid);
        if (after_replay) rankings_after_replay.fetch_add(1);
        std::vector<dslsim::LineId> batch(16);
        for (auto& line : batch) {
          line = static_cast<dslsim::LineId>(rng.uniform_index(data.n_lines()));
        }
        const auto scored = service.score_lines(batch);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          EXPECT_EQ(scored[i].line, batch[i]);
        }
        EXPECT_EQ(service.score_lines({batch.data(), 1})[0].line, batch[0]);
      }
    });
  }

  replayer.join();
  publisher.join();
  ticketer.join();
  for (auto& t : readers) t.join();

  const auto model = registry.acquire();
  const core::ScoringKernel& kernel = model->kernel;
  const std::vector<dslsim::LineId> lines = store.line_ids();
  ASSERT_EQ(lines.size(), data.n_lines());
  std::vector<ScoreCell> cells(lines.size());
  const std::uint64_t rescored_before = store.lines_rescored();
  store.read_scores(lines, *model, cells);
  // Most cells were written during the race and read back as cached.
  EXPECT_LT(store.lines_rescored() - rescored_before, lines.size());
  std::vector<float> row(features::all_columns(kernel.encoder).size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto snap = store.snapshot(lines[i]);
    ASSERT_TRUE(snap.has_value());
    features::encode_window_row(
        snap->window, snap->current, dslsim::profile(snap->profile),
        snap->last_ticket, util::saturday_of_week(snap->week), kernel.encoder,
        features::base_columns(kernel.encoder).size(), row);
    const double want = kernel.score_row(row);
    ASSERT_EQ(cells[i].stamp, model->stamp) << lines[i];
    ASSERT_EQ(cells[i].week, snap->week) << lines[i];
    ASSERT_EQ(cells[i].score, want) << lines[i];
    ASSERT_EQ(cells[i].probability, kernel.probability(want)) << lines[i];
  }
}

TEST(ServeConcurrency, ParallelReplayMatchesSerialReplay) {
  dslsim::SimConfig cfg;
  cfg.seed = 78;
  cfg.topology.n_lines = 300;
  const dslsim::SimDataset data = dslsim::Simulator(cfg).run();

  const auto state_of = [&](std::size_t shards, std::size_t threads) {
    const exec::ExecContext exec =
        threads > 1 ? exec::ExecContext(threads) : exec::ExecContext();
    LineStateStore store(shards);
    ReplayDriver replay(data, store);
    replay.feed_through(30, exec);
    std::vector<LineSnapshot> snaps;
    for (const auto line : store.line_ids()) {
      snaps.push_back(*store.snapshot(line));
    }
    return snaps;
  };

  const auto serial = state_of(1, 1);
  const auto parallel = state_of(4, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].week, parallel[i].week);
    EXPECT_EQ(serial[i].window.tests_seen, parallel[i].window.tests_seen);
    EXPECT_EQ(serial[i].window.tests_off, parallel[i].window.tests_off);
    for (std::size_t m = 0; m < dslsim::kNumLineMetrics; ++m) {
      EXPECT_EQ(serial[i].window.history[m].count(),
                parallel[i].window.history[m].count());
      EXPECT_EQ(serial[i].window.history[m].mean(),
                parallel[i].window.history[m].mean());
    }
  }
}

}  // namespace
}  // namespace nevermind::serve
