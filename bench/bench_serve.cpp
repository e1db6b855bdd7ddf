// Benchmark and correctness gate for the online serving stack: train a
// predictor, then
//
//  1. replay-identity — replay the year's feeds into the sharded line
//     store and verify the served full-population ranking is
//     byte-identical to the offline batch ranking
//     (TicketPredictor::predict_week) at every (shards, threads)
//     configuration — including with a model hot-swap mid-replay
//     (republishing the same kernel must not perturb a single bit);
//  2. ingest throughput — rows/s through LineStateStore::ingest over a
//     full-year replay;
//  3. query throughput + latency — concurrent client threads issuing
//     point queries (one-line score_lines calls) while a swapper thread
//     republishes the model; reports queries/s and p50/p99 latency, and
//     verifies every answer matches the batch-path score.
//
// Writes BENCH_serve.json (throughputs are *_per_s fields — higher is
// better under tools/check_bench.py) and exits 1 on any identity
// failure.
//
// Usage: bench_serve [--lines N] [--seed S] [--rounds R] [--queries Q]
//                    [--clients C] [--out FILE]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/ticket_predictor.hpp"
#include "dslsim/simulator.hpp"
#include "exec/exec.hpp"
#include "serve/line_state_store.hpp"
#include "serve/model_registry.hpp"
#include "serve/replay.hpp"
#include "serve/scoring_service.hpp"
#include "util/rng.hpp"

namespace {

using namespace nevermind;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr int kScoreWeek = 43;  // the paper's 10/31 proactive Saturday

/// Full served ranking with the store replayed through kScoreWeek,
/// optionally hot-swapping (republishing) the kernel mid-replay.
std::vector<serve::ServeScore> served_ranking(
    const dslsim::SimDataset& data, const core::ScoringKernel& kernel,
    std::size_t shards, std::size_t threads, bool swap_mid_replay) {
  const exec::ExecContext exec =
      threads > 1 ? exec::ExecContext(threads) : exec::ExecContext();
  serve::LineStateStore store(shards);
  serve::ModelRegistry registry;
  registry.publish(kernel);
  serve::ServiceConfig cfg;
  cfg.exec = exec;
  serve::ScoringService service(store, registry, cfg);
  serve::ReplayDriver replay(data, store);
  replay.feed_through(kScoreWeek / 2, exec);
  if (swap_mid_replay) registry.publish(kernel);
  replay.feed_through(kScoreWeek, exec);
  return service.top_n(data.n_lines());
}

bool ranking_matches(const std::vector<core::Prediction>& batch,
                     const std::vector<serve::ServeScore>& served) {
  if (batch.size() != served.size()) return false;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!served[i].valid || served[i].week != kScoreWeek ||
        batch[i].line != served[i].line ||
        batch[i].score != served[i].score ||
        batch[i].probability != served[i].probability) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t lines = 4000;
  std::uint64_t seed = 42;
  std::size_t rounds = 120;
  std::size_t queries = 4000;
  std::size_t clients = 8;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    const auto flag = [&](const char* name) {
      return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
    };
    if (flag("--lines")) {
      lines = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (flag("--seed")) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag("--rounds")) {
      rounds = std::strtoul(argv[++i], nullptr, 10);
    } else if (flag("--queries")) {
      queries = std::strtoul(argv[++i], nullptr, 10);
    } else if (flag("--clients")) {
      clients = std::max<std::size_t>(1, std::strtoul(argv[++i], nullptr, 10));
    } else if (flag("--out")) {
      out_path = argv[++i];
    }
  }

  const exec::ExecContext exec(2);
  dslsim::SimConfig sim_cfg;
  sim_cfg.seed = seed;
  sim_cfg.topology.n_lines = lines;
  std::cerr << "simulating " << lines << " lines...\n";
  const dslsim::SimDataset data = dslsim::Simulator(sim_cfg).run(exec);

  core::PredictorConfig pred_cfg;
  pred_cfg.exec = exec;
  pred_cfg.top_n = std::max<std::size_t>(lines / 100, 10);
  pred_cfg.boost_iterations = rounds;
  std::cerr << "training predictor (" << rounds << " rounds)...\n";
  core::TicketPredictor predictor(pred_cfg);
  predictor.train(data, 30, 38);
  const core::ScoringKernel& kernel = predictor.kernel();

  // ---- 1. replay identity vs the offline batch path -------------------
  const std::vector<core::Prediction> batch =
      predictor.predict_week(data, kScoreWeek);
  bool identical = true;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                   std::size_t{16}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const bool swap = shards == 4;  // exercise hot-swap on one config
      const auto served =
          served_ranking(data, kernel, shards, threads, swap);
      const bool ok = ranking_matches(batch, served);
      std::cerr << "identity shards=" << shards << " threads=" << threads
                << (swap ? " +hot-swap" : "") << ": "
                << (ok ? "ok" : "MISMATCH") << "\n";
      identical = identical && ok;
    }
  }

  // ---- 2. ingest throughput -------------------------------------------
  serve::LineStateStore store(16);
  serve::ReplayDriver replay(data, store);
  auto start = Clock::now();
  replay.feed_through(data.n_weeks() - 1, exec);
  const double ingest_s = seconds_since(start);
  const double ingest_rows = static_cast<double>(replay.measurements_fed());
  const double ingest_rows_per_s = ingest_rows / std::max(ingest_s, 1e-9);

  // ---- 3. concurrent point queries --------------------------------------
  serve::ModelRegistry registry;
  registry.publish(kernel);
  serve::ServiceConfig service_cfg;
  service_cfg.exec = exec;
  serve::ScoringService service(store, registry, service_cfg);

  // Expected score per line from one direct batch pass over the full
  // store (same model version; served answers must agree bitwise).
  const auto all_lines = store.line_ids();
  const auto expected = service.score_lines(all_lines);

  const std::size_t per_client = std::max<std::size_t>(1, queries / clients);
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<bool> stop_swapper{false};

  std::thread swapper([&] {
    // Hot-swap churn during the query storm: republish the same kernel
    // so answers stay comparable while versions advance underneath.
    while (!stop_swapper.load(std::memory_order_relaxed)) {
      registry.publish(kernel);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      util::Rng rng = util::Rng::stream(seed, 1000 + c);
      auto& lat = latencies[c];
      lat.reserve(per_client);
      for (std::size_t q = 0; q < per_client; ++q) {
        const auto line = static_cast<std::size_t>(
            rng.uniform_index(all_lines.size()));
        const auto t0 = Clock::now();
        const serve::ServeScore s =
            service.score_lines({&all_lines[line], 1})[0];
        lat.push_back(seconds_since(t0));
        const serve::ServeScore& e = expected[line];
        if (!s.valid || s.score != e.score ||
            s.probability != e.probability || s.week != e.week) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double query_s = seconds_since(start);
  stop_swapper.store(true, std::memory_order_relaxed);
  swapper.join();

  std::vector<double> all_lat;
  for (const auto& l : latencies) {
    all_lat.insert(all_lat.end(), l.begin(), l.end());
  }
  std::sort(all_lat.begin(), all_lat.end());
  const auto pct = [&](double p) {
    if (all_lat.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(all_lat.size() - 1));
    return all_lat[idx];
  };
  const double n_queries = static_cast<double>(all_lat.size());
  const double query_per_s = n_queries / std::max(query_s, 1e-9);

  const bool query_identical = mismatches.load() == 0;
  std::cerr << "queries: " << n_queries << " in " << query_s
            << "s, mismatches " << mismatches.load() << "\n";

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"serve\",\n"
       << "  \"lines\": " << lines << ",\n"
       << "  \"seed\": " << seed << ",\n"
       << "  \"clients\": " << clients << ",\n"
       << "  \"deterministic\": "
       << (identical && query_identical ? "true" : "false") << ",\n"
       << "  \"ingest_rows\": " << ingest_rows << ",\n"
       << "  \"ingest_s\": " << ingest_s << ",\n"
       << "  \"ingest_rows_per_s\": " << ingest_rows_per_s << ",\n"
       << "  \"queries\": " << n_queries << ",\n"
       << "  \"query_wall_s\": " << query_s << ",\n"
       << "  \"query_per_s\": " << query_per_s << ",\n"
       << "  \"p50_latency_s\": " << pct(0.50) << ",\n"
       << "  \"p99_latency_s\": " << pct(0.99) << ",\n"
       << "  \"model_swaps\": " << registry.swap_count() << "\n"
       << "}\n";

  std::ofstream(out_path) << json.str();
  std::cout << json.str();
  if (!identical) {
    std::cerr << "ERROR: served ranking differs from the batch path\n";
    return 1;
  }
  if (!query_identical) {
    std::cerr << "ERROR: point-query answers differ from the batch path\n";
    return 1;
  }
  return 0;
}
