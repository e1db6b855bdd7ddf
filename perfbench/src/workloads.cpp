#include "workloads.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/scoring_kernel.hpp"
#include "core/ticket_predictor.hpp"
#include "dslsim/profile.hpp"
#include "dslsim/simulator.hpp"
#include "exec/exec.hpp"
#include "features/dataset_io.hpp"
#include "features/encoder.hpp"
#include "heap_probe.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "open_loop.hpp"
#include "serve/line_state_store.hpp"
#include "serve/model_registry.hpp"
#include "serve/replay.hpp"
#include "serve/scoring_service.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/calendar.hpp"

namespace perfbench {
namespace {

using namespace nevermind;
namespace fs = std::filesystem;

// ---- sizes -----------------------------------------------------------

/// Populations and load levels. The full sizes are the benchmark; the
/// smoke sizes only prove every path runs.
struct Sizes {
  std::uint32_t batch_lines = 10000;
  std::size_t rounds = 300;
  std::size_t batch_threads = 4;  // the host's nproc
  std::uint32_t serve_lines = 100000;
  std::uint32_t kernel_lines = 10000;
  std::size_t server_threads = 2;
  std::size_t connections = 4;
  double saturday_score_rate = 1000.0;
  /// SCORE rate of weekly_batch's traced wire probe.
  double probe_rate = 5000.0;
  double ping_rate = 100.0;
  std::size_t ingest_window = 64;
  /// serve_saturday's operator TOP_N calls per week.
  std::size_t topn_per_week = 8;
  std::size_t probe_calls = 20000;
  /// Generator lateness beyond which a run's numbers are void.
  double max_late_p99_ms = 2.0;
};

Sizes sizes_for(bool smoke) {
  Sizes s;
  if (!smoke) return s;
  s.batch_lines = 1200;
  s.rounds = 30;
  s.serve_lines = 2000;
  s.kernel_lines = 1200;
  s.saturday_score_rate = 200.0;
  s.probe_rate = 200.0;
  s.ping_rate = 50.0;
  s.probe_calls = 500;
  s.topn_per_week = 2;
  // Smoke runs share a loaded test machine; they check paths, not time.
  s.max_late_p99_ms = 1e9;
  return s;
}

const int kWeek = util::test_week_of(util::day_from_date(10, 31));
const int kTrainFrom = util::test_week_of(util::day_from_date(8, 1));
const int kTrainTo = util::test_week_of(util::day_from_date(9, 30));
/// serve_saturday replays through this week, then ingests the rest.
constexpr int kReplayThrough = 39;
/// serve_saturday's kernel is trained on this seed's population, so
/// every run serves the same model. The features a model selects, and
/// with them the cost of scoring a line, follow its training seed: one
/// seed's model made TOP_N take 135 ms, another's 162 ms, every time.
/// The workload seed varies the served population and the load.
constexpr std::uint64_t kKernelSeed = 42;
/// Set-ups per run; setup_s is their median.
constexpr int kBatchSetupReps = 9;
constexpr int kServeSetupReps = 5;
/// Least share of a cycle its stage spans must cover in a traced run.
constexpr double kMinStageCoverage = 0.9;

double ms(double s) { return s * 1e3; }

std::size_t budget_of(std::uint32_t lines) {
  return std::max<std::size_t>(lines / 100, 10);
}

dslsim::Simulator simulator(std::uint64_t seed, std::uint32_t lines) {
  dslsim::SimConfig cfg;
  cfg.seed = seed;
  cfg.topology.n_lines = lines;
  return dslsim::Simulator(cfg);
}

core::PredictorConfig predictor_config(const exec::ExecContext& exec,
                                       std::size_t rounds,
                                       std::uint32_t lines) {
  core::PredictorConfig cfg;
  cfg.exec = exec;
  cfg.binning = ml::BinningMode::kHistogram;
  cfg.boost_iterations = rounds;
  cfg.top_n = budget_of(lines);
  return cfg;
}

bool same(const serve::ServeScore& s, const core::Prediction& p) {
  return s.valid && s.line == p.line && s.score == p.score &&
         s.probability == p.probability;
}

/// A kernel's serialized bytes, for byte-identity checks.
std::string saved(const core::ScoringKernel& kernel) {
  std::ostringstream os;
  kernel.save(os);
  return os.str();
}

// ---- the Saturday cycle ----------------------------------------------

const char* const kStages[] = {"dslsim.build_tables", "features.base_pass",
                               "ml.mmap_load",        "core.plan",
                               "features.full_pass",  "core.train",
                               "serve.rank"};

struct Cycle {
  std::unique_ptr<serve::LineStateStore> store;
  core::ScoringKernel kernel;
  std::vector<serve::ServeScore> ranked;
  double seconds = 0.0;
  double peak_heap_mb = 0.0;  // above the live heap at the cycle's start
  std::uint64_t artefact_bytes = 0;
};

/// The streamed Saturday cycle of `nevermind predict --stream`: one
/// span per call into a layer, under one root span named `root`.
Cycle run_cycle(const dslsim::Simulator& sim, const exec::ExecContext& exec,
                std::size_t rounds, std::uint32_t lines,
                const std::string& dir, const char* root) {
  Cycle out;
  const trace::Span cycle(root, /*track_heap=*/true);
  core::TicketPredictor predictor(predictor_config(exec, rounds, lines));
  const features::TicketLabeler labeler{predictor.config().horizon_days};
  std::optional<dslsim::SimDataset> tables;
  {
    const trace::Span s("dslsim.build_tables", true);
    tables.emplace(sim.build_tables(exec));
  }
  features::EncoderConfig base_cfg = predictor.config().encoder;
  base_cfg.include_quadratic = false;
  base_cfg.product_pairs.clear();
  out.store = std::make_unique<serve::LineStateStore>();
  serve::ReplayDriver replay(*tables, *out.store);

  const std::string base_path = dir + "/base.nmarena";
  const std::string full_path = dir + "/full.nmarena";
  ml::StoreStatus st;
  {
    const trace::Span s("features.base_pass", true);
    features::StreamPipelineOptions opts;
    opts.stream_through = kWeek;
    opts.tap = [&](const dslsim::WeekChunk& chunk) {
      if (chunk.week <= kWeek) replay.feed_week_chunk(chunk, exec);
    };
    st = features::stream_save_predictor_dataset(base_path, sim, *tables, exec,
                                                 kTrainFrom, kTrainTo, base_cfg,
                                                 labeler, opts);
  }
  if (!st.ok()) throw std::runtime_error("base pass: " + st.message);
  features::EncoderConfig full_cfg;
  {
    std::optional<features::PredictorDataset> base;
    {
      const trace::Span s("ml.mmap_load", true);
      base = features::load_predictor_dataset(base_path,
                                              ml::ArenaLoadMode::kMapped, &st);
    }
    if (!base) throw std::runtime_error("base load: " + st.message);
    const trace::Span s("core.plan", true);
    full_cfg = predictor.plan_full_encoder(base->block);
  }
  fs::remove(base_path);
  {
    const trace::Span s("features.full_pass", true);
    st = features::stream_save_predictor_dataset(full_path, sim, *tables, exec,
                                                 kTrainFrom, kTrainTo, full_cfg,
                                                 labeler);
  }
  if (!st.ok()) throw std::runtime_error("full pass: " + st.message);
  out.artefact_bytes = fs::file_size(full_path);
  {
    std::optional<features::PredictorDataset> full;
    {
      const trace::Span s("ml.mmap_load", true);
      full = features::load_predictor_dataset(full_path,
                                              ml::ArenaLoadMode::kMapped, &st);
    }
    if (!full) throw std::runtime_error("full load: " + st.message);
    const trace::Span s("core.train", true);
    predictor.train_from_block(full->block, full->encoder);
  }
  fs::remove(full_path);
  out.kernel = predictor.kernel();
  {
    const trace::Span s("serve.rank", true);
    serve::ModelRegistry registry;
    registry.publish(predictor.kernel());
    serve::ServiceConfig service_cfg;
    service_cfg.exec = exec;
    const serve::ScoringService service(*out.store, registry, service_cfg);
    out.ranked = service.top_n(budget_of(lines));
  }
  out.seconds = cycle.elapsed_s();
  out.peak_heap_mb = heap::to_mb(cycle.heap_peak() - cycle.heap_base());
  return out;
}

/// Stage metrics from the traced cycles: medians over the roots named
/// `root`, plus exec scaling against the roots named `serial_root`.
/// Returns the median share of a cycle its stage spans cover.
double stage_metrics(const std::vector<trace::SpanRecord>& spans,
                   const char* root, const char* serial_root,
                   double sweep_s, double sweep_serial_s,
                   double sweep_peak_mb, std::uint64_t artefact_bytes,
                   std::vector<Metric>& out) {
  const auto med = [&](const char* r, const char* name) {
    return median(trace::per_root_seconds(spans, r, name));
  };
  const double base = med(root, "features.base_pass");
  const double full = med(root, "features.full_pass");
  out.push_back({"dslsim.build_tables_s", med(root, "dslsim.build_tables"), "s"});
  out.push_back({"dslsim.sweep_s", sweep_s, "s"});
  out.push_back({"features.base_pass_s", base, "s"});
  out.push_back({"features.full_pass_s", full, "s"});
  out.push_back({"features.encode_write_self_s", base + full - sweep_s, "s"});
  out.push_back({"ml.artefact_mb", heap::to_mb(static_cast<std::int64_t>(artefact_bytes)), "MiB"});
  out.push_back({"ml.mmap_load_s", med(root, "ml.mmap_load"), "s"});
  out.push_back({"core.plan_s", med(root, "core.plan"), "s"});
  out.push_back({"core.train_s", med(root, "core.train"), "s"});
  out.push_back({"serve.rank_s", med(root, "serve.rank"), "s"});
  for (const char* stage : kStages) {
    out.push_back({std::string(stage) + ".peak_heap_mb",
                   median(trace::per_root_peak_heap_mb(spans, root, stage)),
                   "MiB"});
  }
  out.push_back({"dslsim.sweep.peak_heap_mb", sweep_peak_mb, "MiB"});
  for (const char* stage : kStages) {
    const double parallel = med(root, stage);
    out.push_back({std::string("exec.scaling.") + stage,
                   parallel > 0 ? med(serial_root, stage) / parallel : 0.0,
                   "ratio"});
  }
  out.push_back({"exec.scaling.dslsim.sweep",
                 sweep_s > 0 ? sweep_serial_s / sweep_s : 0.0, "ratio"});
  // Share of each cycle its stage spans cover: 1 - self time / duration.
  std::vector<double> coverage;
  for (const auto& s : spans) {
    if (s.name == root) {
      coverage.push_back(1.0 - trace::self_seconds(spans, s) / s.seconds());
    }
  }
  out.push_back({"trace.stage_coverage", median(coverage), "ratio"});
  return median(coverage);
}

/// Simulator::stream_weeks with an empty sink over the weeks the two
/// passes sweep (through kWeek, then through kTrainTo).
double timed_sweep(const dslsim::Simulator& sim,
                   const dslsim::SimDataset& tables,
                   const exec::ExecContext& exec, double* peak_mb) {
  const trace::Span root("sweep", true);
  for (const int through : {kWeek, kTrainTo}) {
    const trace::Span s("dslsim.sweep", true);
    sim.stream_weeks(tables, exec, [](const dslsim::WeekChunk&) {}, through);
  }
  if (peak_mb != nullptr) {
    *peak_mb = heap::to_mb(root.heap_peak() - root.heap_base());
  }
  return root.elapsed_s();
}

/// The offline-stage layer metrics of a traced workload: the traced
/// cycles already recorded under "cycle", one serial cycle, and the
/// sweep probe at both thread counts. Stage spans that cover too little
/// of a cycle count as a failed operation: the stage metrics would miss
/// the rest.
void offline_layer_metrics(const dslsim::Simulator& sim,
                           const exec::ExecContext& exec, std::size_t rounds,
                           std::uint32_t lines, const std::string& dir,
                           std::uint64_t artefact_bytes, Result& res) {
  (void)run_cycle(sim, exec::ExecContext::serial(), rounds, lines, dir,
                  "cycle.serial");
  const dslsim::SimDataset tables = sim.build_tables(exec);
  double sweep_peak_mb = 0.0;
  const double sweep_s = timed_sweep(sim, tables, exec, &sweep_peak_mb);
  const double sweep_serial_s =
      timed_sweep(sim, tables, exec::ExecContext::serial(), nullptr);
  const double coverage =
      stage_metrics(trace::spans(), "cycle", "cycle.serial", sweep_s,
                    sweep_serial_s, sweep_peak_mb, artefact_bytes,
                    res.per_layer);
  ++res.attempted;
  if (coverage < kMinStageCoverage) {
    ++res.failed;
    res.notes.push_back("stage spans cover " + std::to_string(coverage) +
                        " of a cycle, below " +
                        std::to_string(kMinStageCoverage));
  }
}

// ---- serve-side probes -----------------------------------------------

/// Keeps the probed calls' results observable, so none is optimized out.
volatile double g_probe_sink = 0.0;

/// Median per-call time of each public serve-path call, over random
/// lines of a replayed store. Mutates the store last (ingest probe).
void serve_probes(serve::LineStateStore& store,
                  const serve::ScoringService& service,
                  const core::ScoringKernel& kernel, std::uint32_t n_lines,
                  std::uint64_t seed, std::size_t calls,
                  std::vector<Metric>& out) {
  std::mt19937_64 rng(seed ^ 0x9E3779B97F4A7C15ULL);
  std::vector<dslsim::LineId> lines(calls);
  for (auto& l : lines) l = static_cast<dslsim::LineId>(rng() % n_lines);
  const std::size_t n_cols = features::all_columns(kernel.encoder).size();
  const std::size_t n_base = features::base_columns(kernel.encoder).size();

  std::vector<serve::LineSnapshot> snaps;
  snaps.reserve(calls);
  for (const auto line : lines) {
    const trace::Span s("serve.snapshot");
    snaps.push_back(*store.snapshot(line));
  }
  std::vector<float> rows(calls * n_cols);
  for (std::size_t i = 0; i < calls; ++i) {
    const trace::Span s("features.encode_row");
    features::encode_window_row(
        snaps[i].window, snaps[i].current, dslsim::profile(snaps[i].profile),
        snaps[i].last_ticket, util::saturday_of_week(snaps[i].week),
        kernel.encoder, n_base,
        std::span<float>(rows.data() + i * n_cols, n_cols));
  }
  double sink = 0.0;
  for (std::size_t i = 0; i < calls; ++i) {
    const trace::Span s("core.score_row");
    sink += kernel.score_row(
        std::span<const float>(rows.data() + i * n_cols, n_cols));
  }
  for (std::size_t i = 0; i < calls; ++i) {
    const trace::Span s("serve.score_lines.b1");
    sink += service.score_lines(std::span(lines.data() + i, 1))[0].score;
  }
  for (std::size_t i = 0; i + 64 <= calls; i += 64) {
    const trace::Span s("serve.score_lines.b64");
    sink += service.score_lines(std::span(lines.data() + i, 64))[0].score;
  }
  for (int i = 0; i < 3; ++i) {
    const trace::Span s("serve.top_n");
    sink += service.top_n(budget_of(n_lines)).front().score;
  }
  for (std::size_t i = 0; i < calls; ++i) {
    serve::LineMeasurement m;
    m.line = lines[i];
    m.week = snaps[i].week + 1;
    m.profile = snaps[i].profile;
    m.metrics = snaps[i].current;
    const trace::Span s("serve.ingest");
    store.ingest(m);
  }
  const auto spans = trace::spans();
  const auto med_us = [&](const char* name, double per) {
    return median(trace::durations(spans, name)) * 1e6 / per;
  };
  out.push_back({"serve.snapshot_us", med_us("serve.snapshot", 1), "us"});
  out.push_back({"features.encode_row_us", med_us("features.encode_row", 1), "us"});
  out.push_back({"core.score_row_us", med_us("core.score_row", 1), "us"});
  out.push_back({"serve.score_lines_us_per_line.b1",
                 med_us("serve.score_lines.b1", 1), "us"});
  out.push_back({"serve.score_lines_us_per_line.b64",
                 med_us("serve.score_lines.b64", 64), "us"});
  out.push_back({"serve.ingest_us", med_us("serve.ingest", 1), "us"});
  out.push_back({"serve.top_n_ms", med_us("serve.top_n", 1) / 1e3, "ms"});
  g_probe_sink = sink;
}

// ---- the in-process server -------------------------------------------

/// CPU placement of the server runs on a host with at least four:
/// the generator, the server's event loop and the exec pool's worker
/// each get a CPU of their own, so every run places the threads the
/// same way. Other threads stay free to run on any CPU.
struct Placement {
  int generator = -1;
  int event_loop = -1;
  int exec_worker = -1;
};

Placement placement() {
  const unsigned n = std::thread::hardware_concurrency();
  if (n < 4) return {};
  const int last = static_cast<int>(n) - 1;
  return {last, last - 1, last - 2};
}

class ServerRun {
 public:
  ServerRun(serve::LineStateStore& store, const core::ScoringKernel& kernel,
            std::size_t threads)
      : store_(store) {
    const Placement cpus = placement();
    registry_.publish(kernel);
    serve::ServiceConfig cfg;
    {
      // The pool's worker threads inherit the creating thread's pin.
      cpu_set_t all;
      ::pthread_getaffinity_np(::pthread_self(), sizeof all, &all);
      pin_current_thread(cpus.exec_worker);
      cfg.exec = exec::ExecContext(threads);
      ::pthread_setaffinity_np(::pthread_self(), sizeof all, &all);
    }
    service_ = std::make_unique<serve::ScoringService>(store_, registry_, cfg);
    server_ = std::make_unique<net::Server>(store_, *service_, registry_);
    std::string error;
    if (!server_->start(&error)) {
      throw std::runtime_error("server start: " + error);
    }
    thread_ = std::thread([this, cpu = cpus.event_loop] {
      pin_current_thread(cpu);
      server_->run();
    });
  }
  ~ServerRun() { stop(); }
  ServerRun(const ServerRun&) = delete;
  ServerRun& operator=(const ServerRun&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] const serve::ScoringService& service() const {
    return *service_;
  }

  /// Drain and stop; the stats are final afterwards.
  const net::ServerStats& stop() {
    if (thread_.joinable()) {
      server_->request_stop();
      thread_.join();
    }
    return server_->stats();
  }

 private:
  serve::LineStateStore& store_;
  serve::ModelRegistry registry_;
  std::unique_ptr<serve::ScoringService> service_;
  std::unique_ptr<net::Server> server_;
  std::thread thread_;
};

/// Expected (score, probability) per (week, line) for weeks
/// [from, to]: predict_week's arithmetic — the offline WeekEncoder's
/// rows scored by the kernel — over streamed weeks, because a
/// materialized year of 100K lines would hold 520 MB of measurements.
struct Reference {
  int from = 0;
  std::vector<std::vector<core::Prediction>> by_week;  // [week - from][line]

  [[nodiscard]] const core::Prediction* find(int week,
                                             std::uint32_t line) const {
    if (week < from || week >= from + static_cast<int>(by_week.size())) {
      return nullptr;
    }
    const auto& v = by_week[static_cast<std::size_t>(week - from)];
    return line < v.size() ? &v[line] : nullptr;
  }

  /// predict_week's ranking head: stable sort by descending score over
  /// ascending line ids.
  [[nodiscard]] std::vector<core::Prediction> ranking(int week,
                                                      std::size_t n) const {
    std::vector<core::Prediction> r =
        by_week[static_cast<std::size_t>(week - from)];
    std::stable_sort(r.begin(), r.end(),
                     [](const core::Prediction& a, const core::Prediction& b) {
                       return a.score > b.score;
                     });
    if (r.size() > n) r.resize(n);
    return r;
  }
};

/// Set-up of serve_saturday. Untimed: a kernel trained by the streamed
/// cycle on a smaller population of the same seed (weekly_batch times
/// that cycle). Timed, several times, the median reported: the serving
/// population's tables built and its history replayed into a fresh
/// store through kReplayThrough. Untimed again: the held-back weeks'
/// measurements for ingest, and the reference scores of the weeks the
/// run serves.
struct ServeSetup {
  core::ScoringKernel kernel;
  std::uint64_t artefact_bytes = 0;
  std::optional<dslsim::SimDataset> tables;
  std::unique_ptr<serve::LineStateStore> store;
  Reference reference;
  std::vector<std::vector<dslsim::MetricVector>> held;  // weeks after replay
  std::int64_t store_bytes = 0;  // live-heap growth over the last replay
  double seconds = 0.0;
};

ServeSetup serve_setup(const Options& opt, const Sizes& sz,
                       const exec::ExecContext& exec) {
  ServeSetup out;
  {
    const Cycle c = run_cycle(simulator(kKernelSeed, sz.kernel_lines), exec,
                              sz.rounds, sz.kernel_lines, opt.workdir, "cycle");
    out.kernel = c.kernel;
    out.artefact_bytes = c.artefact_bytes;
  }
  const dslsim::Simulator sim = simulator(opt.seed, sz.serve_lines);
  std::vector<double> setups;
  for (int i = 0; i < kServeSetupReps; ++i) {
    out.store.reset();
    out.tables.reset();
    const trace::Span setup("setup");
    {
      const trace::Span s("dslsim.build_tables", true);
      out.tables.emplace(sim.build_tables(exec));
    }
    out.store = std::make_unique<serve::LineStateStore>();
    serve::ReplayDriver replay(*out.tables, *out.store);
    const std::int64_t before = heap::live_bytes();
    {
      const trace::Span s("serve.replay", true);
      sim.stream_weeks(
          *out.tables, exec,
          [&](const dslsim::WeekChunk& chunk) {
            replay.feed_week_chunk(chunk, exec);
          },
          kReplayThrough);
    }
    out.store_bytes = heap::live_bytes() - before;
    setups.push_back(setup.elapsed_s());
  }
  out.seconds = median(setups);

  const dslsim::SimDataset& tables = *out.tables;
  const std::uint32_t n = tables.n_lines();
  out.reference.from = kReplayThrough;
  out.reference.by_week.assign(
      static_cast<std::size_t>(kWeek - kReplayThrough + 1),
      std::vector<core::Prediction>(n));
  out.held.assign(static_cast<std::size_t>(kWeek - kReplayThrough),
                  std::vector<dslsim::MetricVector>(n));
  const core::ScoringKernel& kernel = out.kernel;
  features::WeekEncoder reference_encoder(
      tables, kReplayThrough, kWeek, kernel.encoder,
      features::TicketLabeler{28},
      [&](std::span<const float> row, bool, dslsim::LineId line, int week) {
        core::Prediction& p =
            out.reference.by_week[static_cast<std::size_t>(week -
                                                           kReplayThrough)]
                                 [line];
        p.line = line;
        p.score = kernel.score_row(row);
        p.probability = kernel.probability(p.score);
      });
  sim.stream_weeks(
      tables, exec,
      [&](const dslsim::WeekChunk& chunk) {
        if (chunk.week > kReplayThrough) {
          std::copy(chunk.measurements.begin(), chunk.measurements.end(),
                    out.held[static_cast<std::size_t>(chunk.week -
                                                      kReplayThrough - 1)]
                        .begin());
        }
        reference_encoder.on_week(chunk.week, chunk.measurements);
      },
      kWeek);
  return out;
}

/// Tickets a week's burst carries for each line: customer-edge tickets
/// reported after the previous Saturday, up to and including this one.
std::vector<std::vector<std::int32_t>> tickets_of_week(
    const dslsim::SimDataset& tables, int week) {
  std::vector<std::vector<std::int32_t>> out(tables.n_lines());
  const util::Day hi = util::saturday_of_week(week);
  const util::Day lo = util::saturday_of_week(week - 1);
  for (const auto& t : tables.tickets()) {
    if (t.category == dslsim::TicketCategory::kCustomerEdge &&
        t.reported > lo && t.reported <= hi) {
      out[t.line].push_back(t.reported);
    }
  }
  return out;
}

struct ScoreCheck {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Every SCORE reply must equal the reference for the week it reports;
/// every PING must have come back.
ScoreCheck check_requests(const std::deque<Request>& reqs,
                          const Reference& ref) {
  ScoreCheck c;
  for (const Request& r : reqs) {
    ++c.attempted;
    if (!r.ok || r.done_ns < 0) {
      ++c.failed;
      continue;
    }
    if (r.op != net::Op::kScore) continue;
    const core::Prediction* e = ref.find(r.score.week, r.line);
    if (e == nullptr || r.score.line != r.line || !same(r.score, *e)) {
      ++c.failed;
    }
  }
  return c;
}

/// Latencies (ms, from due time) of the answered SCORE requests.
std::vector<double> score_latencies_ms(const std::deque<Request>& reqs) {
  std::vector<double> v;
  for (const Request& r : reqs) {
    if (r.op == net::Op::kScore && r.done_ns >= 0) {
      v.push_back(static_cast<double>(r.done_ns - r.due_ns) * 1e-6);
    }
  }
  return v;
}

struct GenStats {
  double late_p99_ms = 0.0;
  double ping_p50_ms = 0.0;
};

GenStats gen_stats(const std::deque<Request>& reqs) {
  std::vector<double> late;
  std::vector<double> ping;
  late.reserve(reqs.size());
  for (const Request& r : reqs) {
    late.push_back(static_cast<double>(r.send_ns - r.due_ns) * 1e-6);
    if (r.op == net::Op::kPing && r.done_ns >= 0) {
      ping.push_back(static_cast<double>(r.done_ns - r.send_ns) * 1e-6);
    }
  }
  std::sort(late.begin(), late.end());
  return {percentile_sorted(late, 0.99), median(ping)};
}

void record_request_spans(const std::deque<Request>& reqs,
                          std::uint32_t parent) {
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& r = reqs[i];
    if (r.done_ns < 0) continue;
    trace::record(r.op == net::Op::kScore ? "net.score" : "net.ping",
                  r.due_ns, r.done_ns, parent, i + 1);
  }
}

void net_layer_metrics(const net::ServerStats& stats, const GenStats& gen,
                       Result& res) {
  std::vector<Metric>& out = res.per_layer;
  res.notes.push_back("net.protocol_errors = " +
                      std::to_string(stats.protocol_errors));
  out.push_back({"net.ping_rtt_p50_ms", gen.ping_p50_ms, "ms"});
  out.push_back({"net.frames_in", static_cast<double>(stats.frames_in), "count"});
  out.push_back({"net.replies_out", static_cast<double>(stats.replies_out), "count"});
  out.push_back({"gen.late_p99_ms", gen.late_p99_ms, "ms"});
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

/// Per-layer metrics of a traced serve workload: the wire requests as
/// spans, the net counters, the offline stages of the set-up's training
/// cycle, and the direct serve-path calls over the replayed store.
void serve_layer_metrics(const Options& opt, const Sizes& sz,
                         const exec::ExecContext& exec, const ServeSetup& setup,
                         const ServerRun& server,
                         const std::deque<Request>& reqs,
                         const net::ServerStats& stats, const GenStats& g,
                         std::uint32_t phase_id, Result& res) {
  const std::uint32_t n = setup.tables->n_lines();
  record_request_spans(reqs, phase_id);
  net_layer_metrics(stats, g, res);
  const dslsim::Simulator kernel_sim = simulator(kKernelSeed, sz.kernel_lines);
  offline_layer_metrics(kernel_sim, exec, sz.rounds, sz.kernel_lines,
                        opt.workdir, setup.artefact_bytes, res);
  serve_probes(*setup.store, server.service(), setup.kernel, n, opt.seed,
               sz.probe_calls, res.per_layer);
  res.per_layer.push_back(
      {"serve.bytes_per_line", static_cast<double>(setup.store_bytes) / n,
       "B"});
}

// ---- weekly_batch ------------------------------------------------------

Result weekly_batch(const Options& opt, const Sizes& sz) {
  Result res;
  const dslsim::Simulator sim = simulator(opt.seed, sz.batch_lines);

  // Set-up: the thread pool and the materialized run() the ranking is
  // checked against; timed several times, the median reported.
  std::vector<double> setups;
  std::optional<exec::ExecContext> exec;
  std::optional<dslsim::SimDataset> reference;
  for (int i = 0; i < kBatchSetupReps; ++i) {
    reference.reset();
    exec.reset();
    const trace::Span s("setup");
    exec.emplace(sz.batch_threads);
    reference.emplace(sim.run(*exec));
    setups.push_back(s.elapsed_s());
  }

  std::vector<Cycle> cycles;
  std::vector<double> cycle_s;
  std::vector<double> peak_mb;
  const auto t0 = trace::Clock::now();
  do {
    cycles.push_back(run_cycle(sim, *exec, sz.rounds, sz.batch_lines,
                               opt.workdir, "cycle"));
    cycle_s.push_back(cycles.back().seconds);
    peak_mb.push_back(cycles.back().peak_heap_mb);
    cycles.back().store.reset();
  } while (std::chrono::duration<double>(trace::Clock::now() - t0).count() <
               opt.seconds ||
           cycles.size() < 2);

  // The offline batch path, trained once outside the timing: every
  // cycle's kernel must be byte-identical to TicketPredictor::train() on
  // the materialized dataset, and its ranking must equal that
  // predictor's predict_week, bit for bit.
  core::TicketPredictor checker(
      predictor_config(*exec, sz.rounds, sz.batch_lines));
  checker.train(*reference, kTrainFrom, kTrainTo);
  const std::string want_kernel = saved(checker.kernel());
  const std::vector<core::Prediction> expect =
      checker.predict_week(*reference, kWeek);
  const std::size_t budget = budget_of(sz.batch_lines);
  for (std::size_t k = 0; k < cycles.size(); ++k) {
    const Cycle& c = cycles[k];
    ++res.attempted;
    const bool same_kernel = saved(c.kernel) == want_kernel;
    bool same_ranking = c.ranked.size() == budget && expect.size() >= budget;
    for (std::size_t i = 0; same_ranking && i < budget; ++i) {
      same_ranking = same(c.ranked[i], expect[i]);
    }
    if (!same_kernel || !same_ranking) {
      ++res.failed;
      res.notes.push_back("cycle " + std::to_string(k) + ":" +
                          (same_kernel ? "" : " kernel differs from train()") +
                          (same_ranking ? "" : " ranking differs from predict_week"));
    }
  }

  const double cycle_med = median(cycle_s);
  const Tail cycle_tail = tail_of(cycle_s);
  const double setup_med = median(setups);
  const double peak_med = median(peak_mb);
  res.end_to_end = {
      {"setup_s", setup_med, "s"},
      {"latency_p50_ms", ms(cycle_med), "ms"},
      {"latency_tail_ms", ms(cycle_tail.value), "ms"},
      {"throughput_per_s", sz.batch_lines / cycle_med, "1/s"},
      {"heap_mb", peak_med, "MiB"},
  };
  res.named = {
      {"setup_s", setup_med, "s"},
      {"cycle_s", cycle_med, "s"},
      {"cycle_tail_s.p" + fmt(cycle_tail.pct), cycle_tail.value, "s"},
      {"cycle_s.samples", static_cast<double>(cycle_s.size()), "count"},
      {"peak_heap_mb", peak_med, "MiB"},
      {"vm_hwm_mb", heap::to_mb(heap::vm_hwm_bytes()), "MiB"},
  };

  if (opt.trace) {
    // Per-layer: the cycles above were traced; add the serial cycle
    // and the sweep probe, then the serve and net layers over a final
    // cycle's replayed store.
    offline_layer_metrics(sim, *exec, sz.rounds, sz.batch_lines, opt.workdir,
                          cycles[0].artefact_bytes, res);
    Cycle last = run_cycle(sim, *exec, sz.rounds, sz.batch_lines, opt.workdir,
                           "cycle.probe");
    std::vector<core::Prediction> by_line(expect.size());
    for (const auto& p : expect) by_line.at(p.line) = p;
    Reference ref{kWeek, {by_line}};
    {
      ServerRun server(*last.store, last.kernel, sz.server_threads);
      OpenLoopConfig gc;
      gc.port = server.port();
      gc.connections = sz.connections;
      gc.seed = opt.seed;
      gc.n_lines = sz.batch_lines;
      gc.rate_per_s = sz.probe_rate;
      gc.seconds = std::max(1.0, opt.seconds / 10);
      gc.ping_rate_per_s = sz.ping_rate;
      OpenLoop gen(gc);
      std::string error;
      const trace::Span phase("net.probe");
      if (!gen.start(&error)) throw std::runtime_error(error);
      const bool drained = gen.join();
      const net::ServerStats stats = server.stop();
      const ScoreCheck check = check_requests(gen.requests(), ref);
      res.attempted += check.attempted;
      res.failed += check.failed + (drained ? 0 : 1) +
                    (stats.frames_in == stats.replies_out ? 0 : 1);
      if (!drained) res.notes.push_back("generator: " + gen.error());
      record_request_spans(gen.requests(), phase.id());
      net_layer_metrics(stats, gen_stats(gen.requests()), res);
      serve_probes(*last.store, server.service(), last.kernel, sz.batch_lines,
                   opt.seed, sz.probe_calls, res.per_layer);
    }
    // Bytes the store holds: the live heap it gives back when freed.
    const std::int64_t before = heap::live_bytes();
    last.store.reset();
    res.per_layer.push_back(
        {"serve.bytes_per_line",
         static_cast<double>(before - heap::live_bytes()) / sz.batch_lines,
         "B"});
  }
  return res;
}

// ---- serve_saturday ----------------------------------------------------

Result serve_saturday(const Options& opt, const Sizes& sz) {
  Result res;
  const exec::ExecContext exec(sz.batch_threads);
  ServeSetup setup = serve_setup(opt, sz, exec);
  const dslsim::SimDataset& tables = *setup.tables;
  const std::uint32_t n = tables.n_lines();
  const std::size_t budget = budget_of(n);
  ServerRun server(*setup.store, setup.kernel, sz.server_threads);

  OpenLoopConfig gc;
  gc.port = server.port();
  gc.connections = sz.connections;
  gc.seed = opt.seed;
  gc.n_lines = n;
  gc.rate_per_s = sz.saturday_score_rate;
  gc.ping_rate_per_s = sz.ping_rate;
  gc.ingest_window = sz.ingest_window;
  gc.cpu = placement().generator;
  OpenLoop gen(gc);
  std::string error;
  net::Client operator_client;
  if (!operator_client.connect("127.0.0.1", server.port())) {
    throw std::runtime_error("operator connect: " +
                             operator_client.last_error());
  }

  std::vector<double> burst_rates;
  std::vector<double> topn_ms;
  std::uint64_t topn_attempted = 0;
  std::uint64_t topn_failed = 0;
  std::uint64_t burst_failed = 0;
  std::uint32_t phase_id = 0;
  const double week_slice = opt.seconds / (kWeek - kReplayThrough);
  {
    const trace::Span phase("serve_saturday.load");
    phase_id = phase.id();
    if (!gen.start(&error)) throw std::runtime_error(error);
    for (int week = kReplayThrough + 1; week <= kWeek; ++week) {
      const trace::Span wk("saturday.week");
      const auto tickets = tickets_of_week(tables, week);
      const auto& metrics =
          setup.held[static_cast<std::size_t>(week - kReplayThrough - 1)];
      std::vector<IngestItem> items;
      items.reserve(n);
      std::size_t frames = 0;
      for (std::uint32_t line = 0; line < n; ++line) {
        IngestItem it;
        it.line = line;
        it.week = week;
        it.profile = tables.plant(line).profile;
        it.metrics = &metrics[line];
        it.ticket_days = tickets[line];
        frames += 1 + it.ticket_days.size();
        items.push_back(std::move(it));
      }
      double burst_s = 0.0;
      {
        const trace::Span b("net.ingest_burst");
        burst_s = gen.run_burst(std::move(items));
      }
      if (burst_s <= 0) {
        ++burst_failed;
        break;
      }
      burst_rates.push_back(static_cast<double>(frames) / burst_s);
      const std::vector<core::Prediction> expect =
          setup.reference.ranking(week, budget);
      // A fixed number of TOP_N calls, evenly spread over the rest of
      // the week's share of the run. Back to back, a SCORE that arrived
      // during one TOP_N could also wait for the next one, which the
      // event loop may read first.
      const auto first = trace::Clock::now();
      const double gap_s =
          std::max(0.0, week_slice - wk.elapsed_s()) / sz.topn_per_week;
      for (std::size_t call = 0; call < sz.topn_per_week; ++call) {
        std::this_thread::sleep_until(
            first + std::chrono::duration_cast<trace::Clock::duration>(
                        std::chrono::duration<double>(gap_s * call)));
        ++topn_attempted;
        const auto t = trace::Clock::now();
        std::optional<std::vector<serve::ServeScore>> ranked;
        {
          const trace::Span s("net.top_n");
          ranked = operator_client.top_n(static_cast<std::uint32_t>(budget));
        }
        topn_ms.push_back(
            std::chrono::duration<double, std::milli>(trace::Clock::now() - t)
                .count());
        bool ok = ranked.has_value() && ranked->size() == expect.size();
        for (std::size_t i = 0; ok && i < expect.size(); ++i) {
          ok = (*ranked)[i].week == week && same((*ranked)[i], expect[i]);
        }
        if (!ok) ++topn_failed;
      }
    }
    gen.stop();
  }
  const bool drained = gen.join();
  operator_client.close();
  const net::ServerStats stats = server.stop();
  if (!drained) res.notes.push_back("generator: " + gen.error());
  const std::deque<Request>& reqs = gen.requests();
  const ScoreCheck check = check_requests(reqs, setup.reference);
  res.attempted = check.attempted + topn_attempted + gen.ingest_sent();
  res.failed = check.failed + topn_failed + gen.ingest_failed() +
               burst_failed + (drained ? 0 : 1) +
               (stats.frames_in == stats.replies_out ? 0 : 1);
  const GenStats g = gen_stats(reqs);
  if (g.late_p99_ms > sz.max_late_p99_ms) {
    res.invalid = "generator p99 lateness " + fmt(g.late_p99_ms) +
                  " ms exceeds " + fmt(sz.max_late_p99_ms) + " ms";
  }

  const Tail mixed = tail_of(score_latencies_ms(reqs));
  const Tail topn_tail = tail_of(topn_ms);
  const double topn_p50 = median(topn_ms);
  const double ingest_rate = median(burst_rates);
  const double resident_mb = heap::to_mb(setup.store_bytes);
  res.end_to_end = {
      {"setup_s", setup.seconds, "s"},
      {"latency_p50_ms", topn_p50, "ms"},
      {"latency_tail_ms", mixed.value, "ms"},
      {"throughput_per_s", ingest_rate, "1/s"},
      {"heap_mb", resident_mb, "MiB"},
  };
  res.named = {
      {"setup_s", setup.seconds, "s"},
      {"ingest_per_s", ingest_rate, "1/s"},
      {"topn_p50_ms", topn_p50, "ms"},
      {"topn_tail_ms.p" + fmt(topn_tail.pct), topn_tail.value, "ms"},
      {"topn_samples", static_cast<double>(topn_ms.size()), "count"},
      {"mixed_score_p99_ms", mixed.value, "ms"},
      {"mixed_score_samples", static_cast<double>(mixed.samples), "count"},
      {"resident_mb", resident_mb, "MiB"},
      {"gen.late_p99_ms", g.late_p99_ms, "ms"},
  };
  res.notes.push_back("mixed_score_p99_ms is the p" + fmt(mixed.pct) + " of " +
                      std::to_string(mixed.samples) + " SCORE replies");

  if (opt.trace) {
    serve_layer_metrics(opt, sz, exec, setup, server, reqs, stats, g,
                        phase_id, res);
  }
  return res;
}

}  // namespace

Result run_workload(const Options& options) {
  const Sizes sz = sizes_for(options.smoke);
  fs::create_directories(options.workdir);
  trace::set_enabled(options.trace);
  trace::clear();
  Result r;
  if (options.workload == "weekly_batch") {
    r = weekly_batch(options, sz);
  } else if (options.workload == "serve_saturday") {
    r = serve_saturday(options, sz);
  } else {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  if (options.trace) {
    const std::string path = options.workdir + "/trace_" + options.workload +
                             "_" + std::to_string(options.seed) + ".json";
    if (!trace::write_chrome_json(path)) {
      throw std::runtime_error("cannot write " + path);
    }
    r.notes.push_back("trace written to " + path);
  }
  return r;
}

}  // namespace perfbench
