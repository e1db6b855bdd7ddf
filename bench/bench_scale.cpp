// Scale benchmark of the streaming week pipeline: prices the
// simulate→encode chain at 10K/100K/1M lines through the streamed path
// (Simulator::build_tables + stream_save_predictor_dataset, which holds
// one week's measurements at a time next to each line's LineWindow) and
// reports line throughput and phase-peak RSS (via memprobe.hpp) per
// scale into BENCH_scale.json. At scales where it is tractable the
// materialized path (run() + save_predictor_dataset) runs alongside for
// an apples-to-apples time/RSS comparison; at 1M lines materializing
// every week would cost n_weeks × lines × sizeof(MetricVector) ≈ 5.2 GB
// just for the measurement table, which is exactly what the streamed
// path avoids.
//
// Before the scale runs, an identity section re-proves the streaming
// contract at a small size so a perf refactor cannot silently fork the
// two paths (exit 1 on any divergence):
//   - the streamed week chunks hash bit-identically to the materialized
//     run()'s per-week measurements, at 1 and 8 threads;
//   - the streamed dataset artefact is byte-identical to
//     save_predictor_dataset over the materialized run, at both thread
//     counts;
//   - the full streamed training chain (base-matrix pass →
//     plan_full_encoder → full-matrix pass → mmap → train_from_block)
//     serializes a kernel byte-identical to train() over the
//     materialized dataset, at both thread counts.
//
// The rss_bounded verdict per scale run asserts the point of the PR:
// the stream-encode phase's peak RSS stays under the cost of
// materializing every week's measurements. It is only enforced when
// the kernel's clear_refs watermark reset is available (exact phase
// attribution); on restricted /proc the value is still reported but
// flagged approximate.
//
// Usage: bench_scale [--scales N,N,...] [--lines N (identity scale)]
//                    [--seed S] [--rounds R] [--out FILE]
#define NEVERMIND_MEMPROBE_IMPL
#include "memprobe.hpp"

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/ticket_predictor.hpp"
#include "dslsim/simulator.hpp"
#include "exec/exec.hpp"
#include "features/dataset_io.hpp"
#include "features/encoder.hpp"

namespace {

using namespace nevermind;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// FNV-1a over raw bytes — order-sensitive, so hashing week chunks in
/// stream order pins both content and delivery order.
std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t hash_week(std::uint64_t h, int week,
                        std::span<const dslsim::MetricVector> measurements) {
  h = fnv1a(&week, sizeof(week), h);
  return fnv1a(measurements.data(),
               measurements.size() * sizeof(dslsim::MetricVector), h);
}

constexpr std::uint64_t kFnvSeed = 0xCBF29CE484222325ULL;

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

std::string scratch_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("bench_scale_") + tag + ".nmarena"))
      .string();
}

core::PredictorConfig predictor_config(std::uint32_t lines, std::size_t rounds,
                                       const exec::ExecContext& exec) {
  core::PredictorConfig cfg;
  cfg.exec = exec;
  cfg.boost_iterations = rounds;
  cfg.top_n = std::max<std::uint32_t>(lines / 100, 10);
  return cfg;
}

features::EncoderConfig base_config() {
  features::EncoderConfig cfg;  // defaults carry no derived features
  cfg.include_quadratic = false;
  cfg.product_pairs.clear();
  return cfg;
}

std::string kernel_text(const core::ScoringKernel& kernel) {
  std::ostringstream os;
  kernel.save(os);
  return os.str();
}

// ---------------------------------------------------------------------
// Identity: streamed vs materialized, at 1 and 8 threads.
// ---------------------------------------------------------------------

struct IdentityResult {
  std::uint32_t lines = 0;
  bool chunks_identical = true;
  bool artefact_identical = true;
  bool kernel_identical = true;
  [[nodiscard]] bool ok() const {
    return chunks_identical && artefact_identical && kernel_identical;
  }
};

/// The streamed training chain the CLI's --stream path runs: base pass,
/// stage-1 plan off the mmap'ed base artefact, full pass, mmap,
/// train_from_block. Returns the serialized kernel.
std::optional<std::string> streamed_chain_kernel(
    const dslsim::Simulator& sim, const dslsim::SimDataset& tables,
    const exec::ExecContext& exec, std::uint32_t lines, std::size_t rounds,
    int train_from, int train_to) {
  core::TicketPredictor predictor(predictor_config(lines, rounds, exec));
  const features::TicketLabeler labeler{predictor.config().horizon_days};

  const std::string base_path = scratch_path("chain_base");
  ml::StoreStatus st = features::stream_save_predictor_dataset(
      base_path, sim, tables, exec, train_from, train_to, base_config(),
      labeler);
  if (!st.ok()) {
    std::cerr << "identity: base pass failed: " << st.message << "\n";
    return std::nullopt;
  }
  features::EncoderConfig full_cfg;
  {
    auto base = features::load_predictor_dataset(
        base_path, ml::ArenaLoadMode::kMapped, &st);
    if (!base.has_value()) {
      std::cerr << "identity: base load failed: " << st.message << "\n";
      return std::nullopt;
    }
    full_cfg = predictor.plan_full_encoder(base->block);
  }
  std::filesystem::remove(base_path);

  const std::string full_path = scratch_path("chain_full");
  st = features::stream_save_predictor_dataset(full_path, sim, tables, exec,
                                               train_from, train_to, full_cfg,
                                               labeler);
  if (!st.ok()) {
    std::cerr << "identity: full pass failed: " << st.message << "\n";
    return std::nullopt;
  }
  {
    auto full = features::load_predictor_dataset(
        full_path, ml::ArenaLoadMode::kMapped, &st);
    if (!full.has_value()) {
      std::cerr << "identity: full load failed: " << st.message << "\n";
      return std::nullopt;
    }
    predictor.train_from_block(full->block, full->encoder);
  }
  std::filesystem::remove(full_path);
  return kernel_text(predictor.kernel());
}

IdentityResult run_identity(std::uint32_t lines, std::uint64_t seed,
                            std::size_t rounds,
                            const bench::PaperSplits& splits) {
  IdentityResult res;
  res.lines = lines;
  dslsim::SimConfig cfg;
  cfg.seed = seed;
  cfg.topology.n_lines = lines;
  const dslsim::Simulator sim(cfg);
  const features::TicketLabeler labeler{core::PredictorConfig{}.horizon_days};

  std::cerr << "identity: materialized reference (" << lines
            << " lines)...\n";
  const exec::ExecContext serial = exec::ExecContext::serial();
  const dslsim::SimDataset data = sim.run(serial);
  std::uint64_t mat_hash = kFnvSeed;
  for (int w = 0; w < data.n_weeks(); ++w) {
    mat_hash = hash_week(mat_hash, w, data.week_measurements(w));
  }
  const std::string mat_path = scratch_path("materialized");
  ml::StoreStatus st = features::save_predictor_dataset(
      mat_path, data, splits.train_from, splits.train_to, base_config(),
      labeler);
  if (!st.ok()) {
    std::cerr << "identity: materialized save failed: " << st.message << "\n";
    res.artefact_identical = false;
    return res;
  }
  const auto mat_artefact = read_file(mat_path);
  std::filesystem::remove(mat_path);

  core::TicketPredictor mat_predictor(
      predictor_config(lines, rounds, serial));
  mat_predictor.train(data, splits.train_from, splits.train_to);
  const std::string mat_kernel = kernel_text(mat_predictor.kernel());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    std::cerr << "identity: streamed path at " << threads
              << " thread(s)...\n";
    const exec::ExecContext exec(threads);
    const dslsim::SimDataset tables = sim.build_tables(exec);

    std::uint64_t stream_hash = kFnvSeed;
    features::StreamPipelineOptions opts;
    opts.stream_through = cfg.n_weeks - 1;
    opts.tap = [&](const dslsim::WeekChunk& chunk) {
      stream_hash = hash_week(stream_hash, chunk.week, chunk.measurements);
    };
    const std::string stream_path = scratch_path("streamed");
    st = features::stream_save_predictor_dataset(
        stream_path, sim, tables, exec, splits.train_from, splits.train_to,
        base_config(), labeler, opts);
    if (!st.ok()) {
      std::cerr << "identity: streamed save failed: " << st.message << "\n";
      res.artefact_identical = false;
      return res;
    }
    const auto stream_artefact = read_file(stream_path);
    std::filesystem::remove(stream_path);

    if (stream_hash != mat_hash) {
      std::cerr << "identity FAILED: streamed week chunks diverge from "
                   "run() at "
                << threads << " thread(s)\n";
      res.chunks_identical = false;
    }
    if (!stream_artefact.has_value() || !mat_artefact.has_value() ||
        *stream_artefact != *mat_artefact) {
      std::cerr << "identity FAILED: streamed artefact differs from "
                   "materialized save at "
                << threads << " thread(s)\n";
      res.artefact_identical = false;
    }

    const auto chain_kernel = streamed_chain_kernel(
        sim, tables, exec, lines, rounds, splits.train_from, splits.train_to);
    if (!chain_kernel.has_value() || *chain_kernel != mat_kernel) {
      std::cerr << "identity FAILED: streamed-chain kernel differs from "
                   "train() at "
                << threads << " thread(s)\n";
      res.kernel_identical = false;
    }
  }
  return res;
}

// ---------------------------------------------------------------------
// Scale runs: throughput + phase-peak RSS per line count.
// ---------------------------------------------------------------------

struct ScaleRun {
  std::uint32_t lines = 0;
  std::uint64_t rows = 0;
  double tables_s = 0.0;
  std::uint64_t tables_peak_rss_bytes = 0;
  double stream_encode_s = 0.0;
  double stream_lines_per_s = 0.0;
  double stream_line_weeks_per_s = 0.0;
  std::uint64_t stream_peak_rss_bytes = 0;
  std::uint64_t materialized_budget_bytes = 0;
  std::uint64_t artefact_file_bytes = 0;
  double materialized_s = 0.0;
  std::uint64_t materialized_peak_rss_bytes = 0;
  bool rss_exact = false;
  bool rss_bounded = true;
};

ScaleRun run_scale(std::uint32_t lines, std::uint64_t seed,
                   std::uint32_t materialize_max,
                   const bench::PaperSplits& splits) {
  ScaleRun run;
  run.lines = lines;
  dslsim::SimConfig cfg;
  cfg.seed = seed;
  cfg.topology.n_lines = lines;
  const dslsim::Simulator sim(cfg);
  const exec::ExecContext exec = exec::ExecContext::serial();
  const features::TicketLabeler labeler{core::PredictorConfig{}.horizon_days};
  const int emit_weeks = splits.train_to - splits.train_from + 1;
  const int swept_weeks = splits.train_to + 1;  // history from week 0
  run.rows = static_cast<std::uint64_t>(lines) *
             static_cast<std::uint64_t>(emit_weeks);
  run.materialized_budget_bytes = static_cast<std::uint64_t>(cfg.n_weeks) *
                                  lines * sizeof(dslsim::MetricVector);

  std::cerr << "scale " << lines << ": building tables...\n";
  std::optional<dslsim::SimDataset> tables;
  {
    const bench::memprobe::PhaseRssProbe probe;
    const auto start = Clock::now();
    tables = sim.build_tables(exec);
    run.tables_s = seconds_since(start);
    run.tables_peak_rss_bytes = probe.sample().bytes;
  }

  std::cerr << "scale " << lines << ": streaming encode (weeks "
            << splits.train_from << "-" << splits.train_to << ")...\n";
  const std::string path = scratch_path("scale");
  {
    const bench::memprobe::PhaseRssProbe probe;
    const auto start = Clock::now();
    const ml::StoreStatus st = features::stream_save_predictor_dataset(
        path, sim, *tables, exec, splits.train_from, splits.train_to,
        base_config(), labeler);
    run.stream_encode_s = seconds_since(start);
    const auto peak = probe.sample();
    run.stream_peak_rss_bytes = peak.bytes;
    run.rss_exact = peak.exact;
    if (!st.ok()) {
      std::cerr << "scale " << lines << ": streamed save failed: "
                << st.message << "\n";
      return run;
    }
  }
  std::error_code ec;
  run.artefact_file_bytes = std::filesystem::file_size(path, ec);
  std::filesystem::remove(path);
  if (run.stream_encode_s > 0.0) {
    run.stream_lines_per_s = lines / run.stream_encode_s;
    run.stream_line_weeks_per_s =
        static_cast<double>(lines) * swept_weeks / run.stream_encode_s;
  }
  // The bound this PR exists to honour: streaming must cost less
  // resident memory than materializing every week's measurements.
  // Only a verdict when phase attribution is exact.
  run.rss_bounded = !run.rss_exact ||
                    run.stream_peak_rss_bytes < run.materialized_budget_bytes;
  tables.reset();

  if (lines <= materialize_max) {
    std::cerr << "scale " << lines
              << ": materialized run() + encode for comparison...\n";
    const bench::memprobe::PhaseRssProbe probe;
    const auto start = Clock::now();
    const dslsim::SimDataset data = sim.run(exec);
    const std::string mat_path = scratch_path("scale_mat");
    const ml::StoreStatus st = features::save_predictor_dataset(
        mat_path, data, splits.train_from, splits.train_to, base_config(),
        labeler);
    run.materialized_s = seconds_since(start);
    run.materialized_peak_rss_bytes = probe.sample().bytes;
    std::filesystem::remove(mat_path);
    if (!st.ok()) {
      std::cerr << "scale " << lines << ": materialized save failed: "
                << st.message << "\n";
    }
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint32_t> scales = {10000, 100000, 1000000};
  std::uint32_t identity_lines = 10000;
  std::uint64_t seed = 42;
  std::size_t rounds = 60;
  std::uint32_t materialize_max = 100000;
  std::string out_path = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    const auto flag = [&](const char* name) {
      return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
    };
    if (flag("--scales")) {
      scales.clear();
      const char* p = argv[++i];
      while (*p != '\0') {
        char* end = nullptr;
        scales.push_back(
            static_cast<std::uint32_t>(std::strtoul(p, &end, 10)));
        p = (*end == ',') ? end + 1 : end;
      }
    } else if (flag("--lines")) {
      identity_lines =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (flag("--seed")) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag("--rounds")) {
      rounds = std::strtoul(argv[++i], nullptr, 10);
    } else if (flag("--materialize-max")) {
      materialize_max =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (flag("--out")) {
      out_path = argv[++i];
    }
  }
  if (scales.empty() || identity_lines == 0) {
    std::cerr << "bench_scale: nothing to do (empty --scales or zero "
                 "--lines)\n";
    return 2;
  }

  const bench::PaperSplits splits;
  const IdentityResult identity =
      run_identity(identity_lines, seed, rounds, splits);

  std::vector<ScaleRun> runs;
  runs.reserve(scales.size());
  for (const std::uint32_t lines : scales) {
    runs.push_back(run_scale(lines, seed, materialize_max, splits));
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"scale\",\n"
       << "  \"seed\": " << seed << ",\n"
       << "  \"identity\": {\n"
       << "    \"lines\": " << identity.lines << ",\n"
       << "    \"rounds\": " << rounds << ",\n"
       << "    \"chunks_identical\": "
       << (identity.chunks_identical ? "true" : "false") << ",\n"
       << "    \"artefact_identical\": "
       << (identity.artefact_identical ? "true" : "false") << ",\n"
       << "    \"kernel_identical\": "
       << (identity.kernel_identical ? "true" : "false") << "\n"
       << "  },\n"
       << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ScaleRun& r = runs[i];
    json << "    {\n"
         << "      \"lines\": " << r.lines << ",\n"
         << "      \"rows\": " << r.rows << ",\n"
         << "      \"tables_s\": " << r.tables_s << ",\n"
         << "      \"tables_peak_rss_bytes\": " << r.tables_peak_rss_bytes
         << ",\n"
         << "      \"stream_encode_s\": " << r.stream_encode_s << ",\n"
         << "      \"stream_lines_per_s\": " << r.stream_lines_per_s << ",\n"
         << "      \"stream_line_weeks_per_s\": " << r.stream_line_weeks_per_s
         << ",\n"
         << "      \"stream_peak_rss_bytes\": " << r.stream_peak_rss_bytes
         << ",\n"
         << "      \"materialized_budget_bytes\": "
         << r.materialized_budget_bytes << ",\n"
         << "      \"artefact_file_bytes\": " << r.artefact_file_bytes
         << ",\n"
         << "      \"materialized_s\": " << r.materialized_s << ",\n"
         << "      \"materialized_peak_rss_bytes\": "
         << r.materialized_peak_rss_bytes << ",\n"
         << "      \"rss_exact\": " << (r.rss_exact ? "true" : "false")
         << ",\n"
         << "      \"rss_bounded\": " << (r.rss_bounded ? "true" : "false")
         << "\n    }" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::ofstream(out_path) << json.str();
  std::cout << json.str();

  if (!identity.ok()) {
    std::cerr << "ERROR: streamed path diverges from the materialized path\n";
    return 1;
  }
  for (const ScaleRun& r : runs) {
    if (!r.rss_bounded) {
      std::cerr << "ERROR: stream-encode peak RSS at " << r.lines
                << " lines exceeds the materialized measurement budget\n";
      return 1;
    }
  }
  return 0;
}
