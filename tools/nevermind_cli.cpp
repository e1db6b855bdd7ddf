// nevermind — command-line driver for the library's main workflows,
// for running the system without writing C++:
//
//   nevermind simulate --lines N --seed S --out DIR
//       simulate a year and export every data feed as CSV
//   nevermind predict  --lines N --seed S [--week W] [--top K] [--model F]
//       train the ticket predictor on the paper's split, print the top-K
//       ranked lines for week W (default 10/31), optionally save the
//       model bundle
//   nevermind locate   --lines N --seed S
//       train the trouble locator and print ranked test plans for the
//       current week's dispatches
//   nevermind serve    --lines N --seed S [--week W] [--shards P]
//       replay the year through the online serving stack (sharded line
//       store + model registry + scoring service) and print the same
//       top-K ranking predict would
//   nevermind serve    --lines N --seed S --listen PORT
//       train (or --load-models) and expose the scoring service on a
//       TCP port speaking the framed binary protocol; runs until
//       SIGINT/SIGTERM, then drains in-flight requests and exits
//   nevermind loadgen  --port P [--host H] [--connections C] [--week W]
//       simulate the same dataset, replay its feeds against a live
//       server over C connections, fetch every score over the wire and
//       print per-op throughput/latency plus the served top-K
//   nevermind cluster-node --listen PORT [--node-id I] [--shards P]
//       run one member of a serving cluster: idles until a coordinator
//       pushes a model and shard map, then serves its shard subset,
//       heartbeats its peers, and fails over around dead ones; runs
//       until SIGINT/SIGTERM
//   nevermind serve    ... --cluster HOST:PORT,HOST:PORT,...
//       coordinator mode: train (or --load-models), push the model and
//       a fresh shard map to the listed cluster-node processes, replay
//       the feeds through a replicating ShardRouter, and print the
//       cluster-merged top-K — byte-identical to single-node serve
//   nevermind spatial  --lines N --seed S [--week W]
//       simulate a year with correlated infrastructure faults enabled,
//       aggregate per-line anomaly evidence up the crossbox/DSLAM/ATM
//       hierarchy for week W, and print network-vs-premise verdicts
//       next to the injected ground-truth events
//   nevermind summary  --lines N --seed S
//       dataset overview (ticket trends, location shares)
//   nevermind dataset FILE [--verify]
//       inspect a persisted feature-store artefact (kind, shape, aux
//       row mappings, checksum verification)
//
// Trained artefacts round-trip through --save-models DIR /
// --load-models DIR: predict and serve use DIR/predictor.kernel
// ("nmkernel v1"), locate uses DIR/locator.model ("nmlocator v1").
//
// Encoded training matrices round-trip through --save-dataset FILE /
// --load-dataset FILE: a FILE ending in .nmarena is the binary
// columnar feature store (loaded zero-copy via mmap by default, or
// eagerly with --dataset-load eager), anything else the portable text
// fallback. Training from a loaded artefact skips the encode pass and
// reproduces the directly-trained model byte for byte.
//
// --stream (simulate/predict/locate/serve) runs the same workflows
// without materializing the year of weekly measurements: the simulator
// streams per-week chunks into the encoder and the serving replay,
// training goes through a .nmarena artefact + mmap load, and every
// output is byte-identical to the materialized command.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/node.hpp"
#include "cluster/router.hpp"
#include "cluster/types.hpp"
#include "core/scoring_kernel.hpp"
#include "core/ticket_predictor.hpp"
#include "core/trouble_locator.hpp"
#include "exec/exec.hpp"
#include "dslsim/export.hpp"
#include "dslsim/summary.hpp"
#include "features/dataset_io.hpp"
#include "ml/feature_store.hpp"
#include "ml/serialization.hpp"
#include "ml/simd.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "serve/line_state_store.hpp"
#include "spatial/aggregator.hpp"
#include "serve/model_registry.hpp"
#include "serve/replay.hpp"
#include "serve/scoring_service.hpp"
#include "util/calendar.hpp"
#include "util/table.hpp"

using namespace nevermind;

namespace {

struct CliArgs {
  std::uint32_t lines = 10000;
  // Plant shape knobs (Fig 1 hierarchy): defaults match TopologyConfig.
  std::uint32_t lines_per_dslam = 48;
  std::uint32_t dslams_per_atm = 24;
  std::uint32_t crossboxes_per_dslam = 6;
  std::uint64_t seed = 42;
  int week = util::test_week_of(util::day_from_date(10, 31));
  std::size_t top = 25;
  std::string out_dir = ".";
  std::string model_path;
  std::string save_models_dir;
  std::string load_models_dir;
  std::string save_dataset_path;
  std::string load_dataset_path;
  ml::ArenaLoadMode dataset_mode = ml::ArenaLoadMode::kMapped;
  std::size_t threads = 1;
  std::size_t shards = 16;
  ml::BinningMode binning = ml::BinningMode::kExact;
  // Network front-end (serve --listen / loadgen).
  std::optional<std::uint16_t> listen_port;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t connections = 8;
  // Cluster coordinator mode (serve --cluster).
  std::string cluster_peers;
  std::size_t cluster_shards = 12;
  std::size_t replication = 2;
  // Streamed pipeline (--stream): simulate→encode→train without a
  // materialized year of measurements.
  bool stream = false;

  /// Shared pool for the run; serial when --threads 1 (the default).
  [[nodiscard]] exec::ExecContext exec() const {
    return threads > 1 ? exec::ExecContext(threads) : exec::ExecContext();
  }
};

void usage();

[[noreturn]] void die_usage(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  usage();
  std::exit(2);
}

/// Checked unsigned parse: the whole token must be a decimal number in
/// [min, max] — "foo", "12foo", "-3", "" and out-of-range values all
/// die with the flag named, instead of silently becoming 0 as atoi
/// would make them.
std::uint64_t parse_uint(const char* flag, const char* text,
                         std::uint64_t min_value, std::uint64_t max_value) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-' || errno == ERANGE ||
      value < min_value || value > max_value) {
    die_usage(std::string(flag) + " expects an integer in [" +
              std::to_string(min_value) + ", " + std::to_string(max_value) +
              "], got '" + text + "'");
  }
  return value;
}

/// Checked signed parse with the same full-token discipline.
std::int64_t parse_int(const char* flag, const char* text,
                       std::int64_t min_value, std::int64_t max_value) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < min_value ||
      value > max_value) {
    die_usage(std::string(flag) + " expects an integer in [" +
              std::to_string(min_value) + ", " + std::to_string(max_value) +
              "], got '" + text + "'");
  }
  return value;
}

CliArgs parse(int argc, char** argv, int first) {
  CliArgs args;
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) die_usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--lines") {
      args.lines = static_cast<std::uint32_t>(
          parse_uint("--lines", value(), 1, 10'000'000));
    } else if (flag == "--lines-per-dslam") {
      args.lines_per_dslam = static_cast<std::uint32_t>(
          parse_uint("--lines-per-dslam", value(), 1, 4096));
    } else if (flag == "--dslams-per-atm") {
      args.dslams_per_atm = static_cast<std::uint32_t>(
          parse_uint("--dslams-per-atm", value(), 1, 4096));
    } else if (flag == "--crossboxes-per-dslam") {
      args.crossboxes_per_dslam = static_cast<std::uint32_t>(
          parse_uint("--crossboxes-per-dslam", value(), 1, 1024));
    } else if (flag == "--seed") {
      args.seed = parse_uint("--seed", value(), 0,
                             std::numeric_limits<std::uint64_t>::max());
    } else if (flag == "--week") {
      args.week = static_cast<int>(parse_int("--week", value(), 0, 52));
    } else if (flag == "--top") {
      args.top = static_cast<std::size_t>(
          parse_uint("--top", value(), 1, 10'000'000));
    } else if (flag == "--out") {
      args.out_dir = value();
    } else if (flag == "--model") {
      args.model_path = value();
    } else if (flag == "--save-models") {
      args.save_models_dir = value();
    } else if (flag == "--load-models") {
      args.load_models_dir = value();
    } else if (flag == "--save-dataset") {
      args.save_dataset_path = value();
    } else if (flag == "--load-dataset") {
      args.load_dataset_path = value();
    } else if (flag == "--dataset-load") {
      const std::string mode = value();
      if (mode == "mmap") {
        args.dataset_mode = ml::ArenaLoadMode::kMapped;
      } else if (mode == "eager") {
        args.dataset_mode = ml::ArenaLoadMode::kEager;
      } else {
        die_usage("unknown --dataset-load mode '" + mode +
                  "' (expected eager|mmap)");
      }
    } else if (flag == "--threads") {
      // 0 stays accepted as an explicit "serial" (exec() treats <2 as
      // serial); non-numeric input is rejected rather than silently 0.
      args.threads =
          static_cast<std::size_t>(parse_uint("--threads", value(), 0, 256));
    } else if (flag == "--shards") {
      args.shards =
          static_cast<std::size_t>(parse_uint("--shards", value(), 1, 4096));
    } else if (flag == "--listen") {
      args.listen_port = static_cast<std::uint16_t>(
          parse_uint("--listen", value(), 0, 65535));
    } else if (flag == "--host") {
      args.host = value();
    } else if (flag == "--port") {
      args.port =
          static_cast<std::uint16_t>(parse_uint("--port", value(), 1, 65535));
    } else if (flag == "--connections") {
      args.connections = static_cast<std::size_t>(
          parse_uint("--connections", value(), 1, 1024));
    } else if (flag == "--stream") {
      args.stream = true;
    } else if (flag == "--cluster") {
      args.cluster_peers = value();
    } else if (flag == "--cluster-shards") {
      args.cluster_shards = static_cast<std::size_t>(
          parse_uint("--cluster-shards", value(), 1, 65536));
    } else if (flag == "--replication") {
      args.replication = static_cast<std::size_t>(
          parse_uint("--replication", value(), 1, 64));
    } else if (flag == "--binning") {
      const std::string mode = value();
      if (mode == "hist" || mode == "histogram") {
        args.binning = ml::BinningMode::kHistogram;
      } else if (mode == "exact") {
        args.binning = ml::BinningMode::kExact;
      } else {
        die_usage("unknown --binning mode '" + mode +
                  "' (expected exact|hist)");
      }
    } else if (flag == "--simd") {
      // Process-wide kernel dispatch override; without the flag the
      // NEVERMIND_SIMD environment variable (default auto) decides.
      const std::string mode = value();
      const auto parsed = ml::simd::parse_mode(mode);
      if (!parsed.has_value()) {
        die_usage("unknown --simd mode '" + mode +
                  "' (expected auto|scalar|avx2)");
      }
      ml::simd::set_mode(*parsed);
    } else {
      die_usage("unknown argument '" + flag + "'");
    }
  }
  return args;
}

constexpr const char* kPredictorFile = "predictor.kernel";
constexpr const char* kLocatorFile = "locator.model";

/// Load a "nmkernel v1" artefact from DIR/predictor.kernel, printing a
/// specific diagnostic (missing file vs version mismatch vs corruption)
/// on failure.
std::optional<core::ScoringKernel> load_kernel(const std::string& dir) {
  const std::string path = dir + "/" + kPredictorFile;
  std::ifstream is(path);
  if (!is) {
    std::cerr << "cannot read " << path << "\n";
    return std::nullopt;
  }
  std::string error;
  auto kernel = core::ScoringKernel::load(is, &error);
  if (!kernel.has_value()) {
    std::cerr << "failed to load " << path << ": " << error << "\n";
  }
  return kernel;
}

bool save_kernel(const std::string& dir, const core::ScoringKernel& kernel) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + kPredictorFile;
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  kernel.save(os);
  std::cerr << "saved predictor kernel to " << path << "\n";
  return true;
}

std::optional<core::TroubleLocator> load_locator(const std::string& dir) {
  const std::string path = dir + "/" + kLocatorFile;
  std::ifstream is(path);
  if (!is) {
    std::cerr << "cannot read " << path << "\n";
    return std::nullopt;
  }
  std::string error;
  auto locator = core::TroubleLocator::load(is, &error);
  if (!locator.has_value()) {
    std::cerr << "failed to load " << path << ": " << error << "\n";
  }
  return locator;
}

bool save_locator(const std::string& dir, const core::TroubleLocator& locator) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + kLocatorFile;
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  locator.save(os);
  std::cerr << "saved locator to " << path << "\n";
  return true;
}

/// Upfront validation of every artefact path the run will need, so a
/// long simulate/train pass cannot end in an unwritable-directory or
/// missing-file surprise. Violations are usage errors: named flag,
/// clear message, exit 2.
void validate_artefact_paths(const CliArgs& args, const std::string& cmd) {
  namespace fs = std::filesystem;
  const auto fail = [](const std::string& message) {
    std::cerr << "error: " << message << "\n";
    std::exit(2);
  };
  if (!args.load_models_dir.empty()) {
    const char* file = cmd == "locate" ? kLocatorFile : kPredictorFile;
    const std::string path = args.load_models_dir + "/" + file;
    if (::access(path.c_str(), R_OK) != 0) {
      fail("--load-models: cannot read " + path + ": " +
           std::strerror(errno));
    }
  }
  if (!args.save_models_dir.empty()) {
    std::error_code ec;
    fs::create_directories(args.save_models_dir, ec);
    if (!fs::is_directory(args.save_models_dir, ec) ||
        ::access(args.save_models_dir.c_str(), W_OK) != 0) {
      fail("--save-models: directory '" + args.save_models_dir +
           "' is not writable: " + std::strerror(errno));
    }
  }
  if (!args.load_dataset_path.empty()) {
    std::error_code ec;
    if (::access(args.load_dataset_path.c_str(), R_OK) != 0 ||
        fs::is_directory(args.load_dataset_path, ec)) {
      fail("--load-dataset: cannot read " + args.load_dataset_path + ": " +
           std::strerror(errno != 0 ? errno : EISDIR));
    }
  }
  if (!args.save_dataset_path.empty()) {
    fs::path parent = fs::path(args.save_dataset_path).parent_path();
    if (parent.empty()) parent = ".";
    std::error_code ec;
    if (!fs::is_directory(parent, ec)) {
      fail("--save-dataset: '" + parent.string() + "' is not a directory");
    }
    if (::access(parent.c_str(), W_OK) != 0) {
      fail("--save-dataset: directory '" + parent.string() +
           "' is not writable: " + std::strerror(errno));
    }
  }
}

/// Flag-combination checks for the streamed pipeline, in the same
/// exit-2 discipline as the artefact path validation: every rejected
/// combination names the flags and dies before any simulation runs.
void validate_stream_flags(const CliArgs& args, const std::string& cmd) {
  if (!args.stream) return;
  if (cmd != "simulate" && cmd != "predict" && cmd != "locate" &&
      cmd != "serve") {
    die_usage("--stream is not supported for '" + cmd + "'");
  }
  if (!args.load_dataset_path.empty()) {
    die_usage("--stream and --load-dataset are mutually exclusive (a loaded "
              "artefact replaces the pipeline being streamed)");
  }
  if (!args.load_models_dir.empty()) {
    die_usage("--stream and --load-models are mutually exclusive (a loaded "
              "model skips the streamed training pass)");
  }
  if (args.listen_port.has_value()) {
    die_usage("--stream is not supported with --listen");
  }
  if (!args.cluster_peers.empty()) {
    die_usage("--stream is not supported with --cluster");
  }
  if (!args.save_dataset_path.empty()) {
    constexpr std::string_view kExt = ".nmarena";
    const std::string& p = args.save_dataset_path;
    if (p.size() < kExt.size() ||
        p.compare(p.size() - kExt.size(), kExt.size(), kExt) != 0) {
      die_usage("--save-dataset with --stream requires a binary .nmarena "
                "path (the text form cannot be streamed)");
    }
  }
}

/// SimConfig shared by every command: the dataset shape comes from the
/// CLI knobs, everything else stays at the paper defaults.
dslsim::SimConfig sim_config(const CliArgs& args) {
  dslsim::SimConfig cfg;
  cfg.seed = args.seed;
  cfg.topology.n_lines = args.lines;
  cfg.topology.lines_per_dslam = args.lines_per_dslam;
  cfg.topology.dslams_per_atm = args.dslams_per_atm;
  cfg.topology.crossboxes_per_dslam = args.crossboxes_per_dslam;
  return cfg;
}

dslsim::SimDataset simulate(const CliArgs& args,
                            const exec::ExecContext& exec) {
  const dslsim::SimConfig cfg = sim_config(args);
  std::cerr << "simulating " << args.lines << " lines (seed " << args.seed
            << ", " << exec.threads() << " thread(s))...\n";
  return dslsim::Simulator(cfg).run(exec);
}

bool write_csv(const CliArgs& args, const char* name, auto&& writer) {
  const std::string path = args.out_dir + "/" + name;
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  writer(os);
  std::cerr << "wrote " << path << "\n";
  return true;
}

/// The four feeds that only need the simulation tables (no weekly
/// measurements) — shared by the materialized and streamed exports.
bool write_table_csvs(const CliArgs& args, const dslsim::SimDataset& data) {
  bool ok = true;
  ok &= write_csv(args, "tickets.csv", [&](std::ostream& os) {
    dslsim::export_tickets_csv(data, os);
  });
  ok &= write_csv(args, "notes.csv", [&](std::ostream& os) {
    dslsim::export_notes_csv(data, os);
  });
  ok &= write_csv(args, "profiles.csv", [&](std::ostream& os) {
    dslsim::export_profiles_csv(data, os);
  });
  ok &= write_csv(args, "outages.csv", [&](std::ostream& os) {
    dslsim::export_outages_csv(data, os);
  });
  return ok;
}

/// simulate --stream: build the tables only, then stream the weekly
/// measurements straight into measurements.csv one chunk at a time —
/// the year of measurements is never resident, and the file is byte
/// identical to the materialized export.
int cmd_simulate_stream(const CliArgs& args) {
  const exec::ExecContext exec = args.exec();
  const dslsim::Simulator sim(sim_config(args));
  std::cerr << "streaming " << args.lines << " lines (seed " << args.seed
            << ", " << exec.threads() << " thread(s))...\n";
  const dslsim::SimDataset tables = sim.build_tables(exec);

  const std::string path = args.out_dir + "/measurements.csv";
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  dslsim::export_measurements_csv_header(os);
  sim.stream_weeks(tables, exec, [&](const dslsim::WeekChunk& chunk) {
    dslsim::export_measurements_csv_chunk(chunk, os);
  });
  os.flush();
  if (!os) {
    std::cerr << "write failed for " << path << "\n";
    return 1;
  }
  std::cerr << "wrote " << path << " (streamed)\n";
  return write_table_csvs(args, tables) ? 0 : 1;
}

int cmd_simulate(const CliArgs& args) {
  if (args.stream) return cmd_simulate_stream(args);
  const auto data = simulate(args, args.exec());
  bool ok = write_csv(args, "measurements.csv", [&](std::ostream& os) {
    dslsim::export_measurements_csv(data, os, 0, data.n_weeks() - 1);
  });
  ok &= write_table_csvs(args, data);
  return ok ? 0 : 1;
}

/// Predictor for this run: loaded from --load-models when given (no
/// retraining), trained from a persisted --load-dataset artefact (no
/// encode pass), otherwise trained on the paper's split; optionally
/// saved to --save-models, with the encoded training matrix optionally
/// persisted to --save-dataset.
std::optional<core::TicketPredictor> make_predictor(
    const CliArgs& args, const exec::ExecContext& exec,
    const dslsim::SimDataset& data) {
  core::PredictorConfig cfg;
  cfg.exec = exec;
  cfg.binning = args.binning;
  cfg.top_n = std::max<std::size_t>(args.lines / 100, 10);
  const int horizon_days = cfg.horizon_days;
  if (!args.load_models_dir.empty()) {
    auto kernel = load_kernel(args.load_models_dir);
    if (!kernel.has_value()) return std::nullopt;
    std::cerr << "loaded predictor kernel (" << kernel->selected.size()
              << " features)\n";
    return core::TicketPredictor(std::move(cfg), std::move(*kernel));
  }
  const int train_from = util::test_week_of(util::day_from_date(8, 1));
  const int train_to = util::test_week_of(util::day_from_date(9, 30));
  core::TicketPredictor predictor(std::move(cfg));
  if (!args.load_dataset_path.empty()) {
    ml::StoreStatus st;
    auto loaded = features::load_predictor_dataset(args.load_dataset_path,
                                                   args.dataset_mode, &st);
    if (!loaded.has_value()) {
      std::cerr << "cannot load dataset " << args.load_dataset_path << ": "
                << st.message << "\n";
      return std::nullopt;
    }
    std::cerr << "training from "
              << (loaded->block.dataset.file_backed() ? "mmap'ed" : "loaded")
              << " dataset artefact (" << loaded->block.dataset.n_rows()
              << " x " << loaded->block.dataset.n_cols() << ")...\n";
    try {
      predictor.train_from_block(loaded->block, loaded->encoder);
    } catch (const std::invalid_argument& e) {
      std::cerr << "dataset artefact rejected: " << e.what() << "\n";
      return std::nullopt;
    }
  } else {
    std::cerr << "training on weeks " << train_from << "-" << train_to
              << "...\n";
    predictor.train(data, train_from, train_to);
  }
  if (!args.save_dataset_path.empty()) {
    const features::TicketLabeler labeler{horizon_days};
    const auto st = features::save_predictor_dataset(
        args.save_dataset_path, data, train_from, train_to,
        predictor.full_encoder_config(), labeler);
    if (!st.ok()) {
      std::cerr << "cannot write dataset " << args.save_dataset_path << ": "
                << st.message << "\n";
      return std::nullopt;
    }
    std::cerr << "saved training matrix to " << args.save_dataset_path
              << "\n";
  }
  if (!args.save_models_dir.empty() &&
      !save_kernel(args.save_models_dir, predictor.kernel())) {
    return std::nullopt;
  }
  return predictor;
}

/// Scratch artefact path for streamed runs that did not ask to keep
/// the training matrix (--save-dataset); removed after training.
std::string temp_artefact_path(const char* tag) {
  std::error_code ec;
  auto dir = std::filesystem::temp_directory_path(ec);
  if (ec) dir = ".";
  return (dir / ("nevermind_stream_" + std::string(tag) + "_" +
                 std::to_string(::getpid()) + ".nmarena"))
      .string();
}

/// Save the --model bundle exactly as cmd_predict does.
void maybe_save_bundle(const CliArgs& args,
                       const core::TicketPredictor& predictor) {
  if (args.model_path.empty()) return;
  ml::ModelBundle bundle;
  bundle.model = predictor.model();
  for (const auto& col : predictor.selected_columns()) {
    bundle.feature_names.push_back(col.name);
  }
  std::ofstream os(args.model_path);
  if (os) {
    ml::save_bundle(os, bundle);
    std::cerr << "saved model bundle to " << args.model_path << "\n";
  } else {
    std::cerr << "cannot write " << args.model_path << "\n";
  }
}

/// predict/serve --stream: the full pipeline without a materialized
/// year of measurements. Two streaming passes over the simulated
/// weeks:
///
///   pass 1  encodes the base-feature training matrix (the stage-1
///           planning input) while feeding the serving replay through
///           the scored week, so the line store ends in exactly the
///           state the offline encoder sees;
///   plan    runs stage-1 feature selection on the mmap'ed base
///           artefact to derive the full encoder configuration train()
///           would use;
///   pass 2  encodes the full derived-feature matrix to --save-dataset
///           (or a scratch artefact), which is mmap'ed and fed to
///           train_from_block — byte-identical to train() over a
///           materialized run.
///
/// The ranking comes from the scoring service over the replayed store,
/// which matches predict_week byte for byte, so `predict --stream`
/// prints exactly what `predict` does.
int run_stream_scoring(const CliArgs& args, bool serve_format) {
  const exec::ExecContext exec = args.exec();
  const dslsim::Simulator sim(sim_config(args));
  std::cerr << "streaming " << args.lines << " lines (seed " << args.seed
            << ", " << exec.threads() << " thread(s))...\n";
  const dslsim::SimDataset tables = sim.build_tables(exec);

  core::PredictorConfig cfg;
  cfg.exec = exec;
  cfg.binning = args.binning;
  cfg.top_n = std::max<std::size_t>(args.lines / 100, 10);
  const int horizon_days = cfg.horizon_days;
  const int train_from = util::test_week_of(util::day_from_date(8, 1));
  const int train_to = util::test_week_of(util::day_from_date(9, 30));
  core::TicketPredictor predictor(std::move(cfg));
  const features::TicketLabeler labeler{horizon_days};

  features::EncoderConfig base_cfg = predictor.config().encoder;
  base_cfg.include_quadratic = false;
  base_cfg.product_pairs.clear();

  serve::LineStateStore store(args.shards);
  serve::ReplayDriver replay(tables, store);

  // ---- pass 1: base matrix + serving replay ------------------------
  const std::string base_path = temp_artefact_path("base");
  features::StreamPipelineOptions base_opts;
  base_opts.stream_through = args.week;
  base_opts.tap = [&](const dslsim::WeekChunk& chunk) {
    if (chunk.week <= args.week) replay.feed_week_chunk(chunk, exec);
  };
  std::cerr << "pass 1/2: streaming base matrix (weeks " << train_from << "-"
            << train_to << ") + replay through week " << args.week
            << "...\n";
  ml::StoreStatus st = features::stream_save_predictor_dataset(
      base_path, sim, tables, exec, train_from, train_to, base_cfg, labeler,
      base_opts);
  if (!st.ok()) {
    std::cerr << "cannot write " << base_path << ": " << st.message << "\n";
    return 1;
  }

  features::EncoderConfig full_cfg;
  {
    auto base_loaded =
        features::load_predictor_dataset(base_path, args.dataset_mode, &st);
    if (!base_loaded.has_value()) {
      std::cerr << "cannot load " << base_path << ": " << st.message << "\n";
      return 1;
    }
    try {
      full_cfg = predictor.plan_full_encoder(base_loaded->block);
    } catch (const std::invalid_argument& e) {
      std::cerr << "stage-1 planning failed: " << e.what() << "\n";
      return 1;
    }
  }
  std::filesystem::remove(base_path);

  // ---- pass 2: full matrix → mmap → train_from_block ---------------
  const bool keep_dataset = !args.save_dataset_path.empty();
  const std::string full_path =
      keep_dataset ? args.save_dataset_path : temp_artefact_path("full");
  std::cerr << "pass 2/2: streaming full matrix (weeks " << train_from << "-"
            << train_to << ")...\n";
  st = features::stream_save_predictor_dataset(full_path, sim, tables, exec,
                                               train_from, train_to, full_cfg,
                                               labeler);
  if (!st.ok()) {
    std::cerr << "cannot write " << full_path << ": " << st.message << "\n";
    return 1;
  }
  if (keep_dataset) {
    std::cerr << "saved training matrix to " << full_path << "\n";
  }
  {
    auto loaded =
        features::load_predictor_dataset(full_path, args.dataset_mode, &st);
    if (!loaded.has_value()) {
      std::cerr << "cannot load " << full_path << ": " << st.message << "\n";
      return 1;
    }
    std::cerr << "training from "
              << (loaded->block.dataset.file_backed() ? "mmap'ed" : "loaded")
              << " streamed artefact (" << loaded->block.dataset.n_rows()
              << " x " << loaded->block.dataset.n_cols() << ")...\n";
    try {
      predictor.train_from_block(loaded->block, loaded->encoder);
    } catch (const std::invalid_argument& e) {
      std::cerr << "dataset artefact rejected: " << e.what() << "\n";
      return 1;
    }
  }
  if (!keep_dataset) std::filesystem::remove(full_path);
  if (!args.save_models_dir.empty() &&
      !save_kernel(args.save_models_dir, predictor.kernel())) {
    return 1;
  }
  if (!serve_format) maybe_save_bundle(args, predictor);

  serve::ModelRegistry registry;
  const std::uint64_t version = registry.publish(predictor.kernel());
  serve::ServiceConfig service_cfg;
  service_cfg.exec = exec;
  serve::ScoringService service(store, registry, service_cfg);
  std::cerr << "ranking from the replayed store (" << args.shards
            << " shards, model v" << version << ", "
            << store.measurements_ingested() << " measurements, "
            << store.tickets_ingested() << " tickets)...\n";
  const auto ranked = service.top_n(args.top);
  if (serve_format) {
    std::cout << "rank,line,dslam,week,score,probability,model_version\n";
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      std::cout << i + 1 << ',' << ranked[i].line << ','
                << tables.topology().dslam_of(ranked[i].line) << ','
                << ranked[i].week << ',' << ranked[i].score << ','
                << ranked[i].probability << ',' << ranked[i].model_version
                << '\n';
    }
  } else {
    std::cout << "rank,line,dslam,score,probability\n";
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      std::cout << i + 1 << ',' << ranked[i].line << ','
                << tables.topology().dslam_of(ranked[i].line) << ','
                << ranked[i].score << ',' << ranked[i].probability << '\n';
    }
  }
  return 0;
}

int cmd_predict(const CliArgs& args) {
  if (args.stream) return run_stream_scoring(args, /*serve_format=*/false);
  const exec::ExecContext exec = args.exec();
  const auto data = simulate(args, exec);
  auto predictor_opt = make_predictor(args, exec, data);
  if (!predictor_opt.has_value()) return 1;
  const core::TicketPredictor& predictor = *predictor_opt;
  maybe_save_bundle(args, predictor);

  const auto ranked = predictor.predict_week(data, args.week);
  std::cout << "rank,line,dslam,score,probability\n";
  for (std::size_t i = 0; i < args.top && i < ranked.size(); ++i) {
    std::cout << i + 1 << ',' << ranked[i].line << ','
              << data.topology().dslam_of(ranked[i].line) << ','
              << ranked[i].score << ',' << ranked[i].probability << '\n';
  }
  return 0;
}

/// locate --stream: one streaming pass encodes the training matrix to
/// a (possibly scratch) .nmarena artefact while a second dispatch
/// encoder riding the same chunks captures week --week's ranking rows
/// in memory; the locator then trains from the mmap'ed artefact.
int cmd_locate_stream(const CliArgs& args) {
  const exec::ExecContext exec = args.exec();
  const dslsim::Simulator sim(sim_config(args));
  std::cerr << "streaming " << args.lines << " lines (seed " << args.seed
            << ", " << exec.threads() << " thread(s))...\n";
  const dslsim::SimDataset tables = sim.build_tables(exec);

  core::LocatorConfig cfg;
  cfg.exec = exec;
  cfg.binning = args.binning;
  cfg.min_occurrences = std::max<std::size_t>(6, args.lines / 2000);
  const int train_from = util::test_week_of(util::day_from_date(8, 1));
  const int train_to = util::test_week_of(util::day_from_date(9, 18));
  core::TroubleLocator locator(cfg);

  std::vector<std::vector<float>> rank_rows;
  std::vector<std::uint32_t> rank_notes;
  features::DispatchEncoder rank_encoder(
      tables, args.week, args.week, locator.encoder_config(),
      [&](std::span<const float> row, std::uint32_t note_idx) {
        rank_rows.emplace_back(row.begin(), row.end());
        rank_notes.push_back(note_idx);
      });

  const bool keep_dataset = !args.save_dataset_path.empty();
  const std::string path =
      keep_dataset ? args.save_dataset_path : temp_artefact_path("locator");
  features::StreamPipelineOptions opts;
  opts.stream_through = args.week;
  opts.tap = [&](const dslsim::WeekChunk& chunk) {
    rank_encoder.on_week(chunk.week, chunk.measurements);
  };
  std::cerr << "streaming locator matrix (weeks " << train_from << "-"
            << train_to << ") + week " << args.week
            << " dispatch rows...\n";
  ml::StoreStatus st = features::stream_save_locator_dataset(
      path, sim, tables, exec, train_from, train_to, locator.encoder_config(),
      opts);
  if (!st.ok()) {
    std::cerr << "cannot write " << path << ": " << st.message << "\n";
    return 1;
  }
  if (keep_dataset) {
    std::cerr << "saved locator matrix to " << path << "\n";
  }
  {
    auto loaded =
        features::load_locator_dataset(path, args.dataset_mode, &st);
    if (!loaded.has_value()) {
      std::cerr << "cannot load " << path << ": " << st.message << "\n";
      return 1;
    }
    std::cerr << "training locator from "
              << (loaded->block.dataset.file_backed() ? "mmap'ed" : "loaded")
              << " streamed artefact (" << loaded->block.dataset.n_rows()
              << " dispatches)...\n";
    try {
      locator.train_from_block(tables, loaded->block);
    } catch (const std::invalid_argument& e) {
      std::cerr << "dataset artefact rejected: " << e.what() << "\n";
      return 1;
    }
  }
  if (!keep_dataset) std::filesystem::remove(path);
  if (!args.save_models_dir.empty() &&
      !save_locator(args.save_models_dir, locator)) {
    return 1;
  }

  std::cout << "ticket,line,plan\n";
  for (std::size_t r = 0; r < rank_rows.size(); ++r) {
    const auto& note = tables.notes()[rank_notes[r]];
    const auto plan =
        locator.rank(rank_rows[r], core::LocatorModelKind::kCombined);
    std::cout << note.ticket_id << ',' << note.line << ',';
    for (std::size_t i = 0; i < 5 && i < plan.size(); ++i) {
      if (i != 0) std::cout << '|';
      std::cout << tables.catalog().signature(plan[i].disposition).code;
    }
    std::cout << '\n';
  }
  return 0;
}

int cmd_locate(const CliArgs& args) {
  if (args.stream) return cmd_locate_stream(args);
  const exec::ExecContext exec = args.exec();
  const auto data = simulate(args, exec);
  std::optional<core::TroubleLocator> locator_opt;
  if (!args.load_models_dir.empty()) {
    locator_opt = load_locator(args.load_models_dir);
    if (!locator_opt.has_value()) return 1;
    std::cerr << "loaded locator (" << locator_opt->covered().size()
              << " dispositions)\n";
  } else {
    core::LocatorConfig cfg;
    cfg.exec = exec;
    cfg.binning = args.binning;
    cfg.min_occurrences = std::max<std::size_t>(6, args.lines / 2000);
    const int train_from = util::test_week_of(util::day_from_date(8, 1));
    const int train_to = util::test_week_of(util::day_from_date(9, 18));
    locator_opt.emplace(cfg);
    if (!args.load_dataset_path.empty()) {
      ml::StoreStatus st;
      auto loaded = features::load_locator_dataset(args.load_dataset_path,
                                                   args.dataset_mode, &st);
      if (!loaded.has_value()) {
        std::cerr << "cannot load dataset " << args.load_dataset_path << ": "
                  << st.message << "\n";
        return 1;
      }
      std::cerr << "training locator from "
                << (loaded->block.dataset.file_backed() ? "mmap'ed"
                                                        : "loaded")
                << " dataset artefact (" << loaded->block.dataset.n_rows()
                << " dispatches)...\n";
      try {
        locator_opt->train_from_block(data, loaded->block);
      } catch (const std::invalid_argument& e) {
        std::cerr << "dataset artefact rejected: " << e.what() << "\n";
        return 1;
      }
    } else {
      std::cerr << "training locator...\n";
      locator_opt->train(data, train_from, train_to);
    }
    if (!args.save_dataset_path.empty()) {
      // Under histogram binning the binary artefact also carries the
      // bin codes (nmarena v2), so a later --load-dataset run can skip
      // re-binning entirely.
      const bool with_bins = args.binning == ml::BinningMode::kHistogram;
      const auto st = features::save_locator_dataset(
          args.save_dataset_path, data, train_from, train_to,
          locator_opt->encoder_config(), with_bins);
      if (!st.ok()) {
        std::cerr << "cannot write dataset " << args.save_dataset_path
                  << ": " << st.message << "\n";
        return 1;
      }
      std::cerr << "saved locator matrix to " << args.save_dataset_path
                << "\n";
    }
    if (!args.save_models_dir.empty() &&
        !save_locator(args.save_models_dir, *locator_opt)) {
      return 1;
    }
  }
  const core::TroubleLocator& locator = *locator_opt;

  const auto block = features::encode_at_dispatch(data, args.week, args.week,
                                                  locator.encoder_config());
  std::cout << "ticket,line,plan\n";
  std::vector<float> row(block.dataset.n_cols());
  for (std::size_t r = 0; r < block.dataset.n_rows(); ++r) {
    const auto& note = data.notes()[block.note_of_row[r]];
    for (std::size_t j = 0; j < row.size(); ++j) row[j] = block.dataset.at(r, j);
    const auto plan = locator.rank(row, core::LocatorModelKind::kCombined);
    std::cout << note.ticket_id << ',' << note.line << ',';
    for (std::size_t i = 0; i < 5 && i < plan.size(); ++i) {
      if (i != 0) std::cout << '|';
      std::cout << data.catalog().signature(plan[i].disposition).code;
    }
    std::cout << '\n';
  }
  return 0;
}

/// The server being drained by the signal handlers. Handlers only call
/// Server::request_stop(), which is async-signal-safe by construction
/// (atomic store + eventfd write).
std::atomic<net::Server*> g_server{nullptr};

void handle_shutdown_signal(int) {
  if (net::Server* server = g_server.load(std::memory_order_acquire)) {
    server->request_stop();
  }
}

/// serve --listen PORT: expose the scoring service on TCP. The store
/// starts empty — measurements and tickets arrive over the wire
/// (INGEST_* ops) — and the model comes from local training or
/// --load-models.
int cmd_serve_listen(const CliArgs& args) {
  const exec::ExecContext exec = args.exec();
  const auto data = simulate(args, exec);
  auto predictor_opt = make_predictor(args, exec, data);
  if (!predictor_opt.has_value()) return 1;

  serve::LineStateStore store(args.shards);
  serve::ModelRegistry registry;
  const std::uint64_t version = registry.publish(predictor_opt->kernel());
  serve::ServiceConfig service_cfg;
  service_cfg.exec = exec;
  serve::ScoringService service(store, registry, service_cfg);

  net::ServerConfig server_cfg;
  server_cfg.port = *args.listen_port;
  net::Server server(store, service, registry, server_cfg);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "cannot listen on port " << *args.listen_port << ": "
              << error << "\n";
    return 1;
  }

  g_server.store(&server, std::memory_order_release);
  struct sigaction sa{};
  sa.sa_handler = handle_shutdown_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  std::cerr << "listening on " << server_cfg.bind_address << ":"
            << server.port() << " (model v" << version << ", "
            << args.shards << " shards); SIGINT/SIGTERM drains and exits\n";
  server.run();
  g_server.store(nullptr, std::memory_order_release);

  const net::ServerStats& stats = server.stats();
  std::cerr << "drained: " << stats.accepted << " connections, "
            << stats.frames_in << " frames in, " << stats.replies_out
            << " replies, " << stats.protocol_errors << " protocol errors, "
            << stats.idle_closed << " idle-closed, " << stats.slow_closed
            << " slow-closed\n";
  return 0;
}

/// "--cluster HOST:PORT,HOST:PORT,..." — node ids are assigned by list
/// position, so every process given the same list derives the same map.
std::vector<cluster::Endpoint> parse_cluster_peers(const std::string& spec) {
  std::vector<cluster::Endpoint> peers;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const auto comma = spec.find(',', start);
    const std::string item =
        spec.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!item.empty()) {
      const auto colon = item.rfind(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 == item.size()) {
        die_usage("--cluster expects HOST:PORT,HOST:PORT,..., got '" + item +
                  "'");
      }
      cluster::Endpoint ep;
      ep.node = static_cast<cluster::NodeId>(peers.size());
      ep.host = item.substr(0, colon);
      ep.port = static_cast<std::uint16_t>(
          parse_uint("--cluster", item.substr(colon + 1).c_str(), 1, 65535));
      peers.push_back(std::move(ep));
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (peers.empty()) die_usage("--cluster needs at least one HOST:PORT");
  return peers;
}

/// serve --cluster: coordinate a fleet of `cluster-node` processes —
/// push the trained model and an epoch-1 shard map, replay the feeds
/// through a replicating ShardRouter, and print the merged ranking.
int cmd_serve_cluster(const CliArgs& args) {
  const exec::ExecContext exec = args.exec();
  const auto data = simulate(args, exec);
  auto predictor_opt = make_predictor(args, exec, data);
  if (!predictor_opt.has_value()) return 1;

  const std::vector<cluster::Endpoint> peers =
      parse_cluster_peers(args.cluster_peers);
  if (args.replication > peers.size()) {
    die_usage("--replication " + std::to_string(args.replication) +
              " exceeds the " + std::to_string(peers.size()) +
              " nodes in --cluster");
  }
  const cluster::ShardMap map = cluster::make_shard_map(
      peers, static_cast<std::uint32_t>(args.cluster_shards),
      static_cast<std::uint32_t>(args.replication));
  cluster::ShardRouter router(map, {});
  if (!router.connect_all() || !router.push_model(predictor_opt->kernel()) ||
      !router.broadcast_map()) {
    std::cerr << "cluster bootstrap failed: " << router.last_error() << "\n";
    return 1;
  }
  std::cerr << "pushed model + shard map (" << args.cluster_shards
            << " shards, replication " << args.replication << ") to "
            << peers.size() << " nodes; replaying feeds through week "
            << args.week << "...\n";

  // Same feeds ReplayDriver would apply locally: customer-edge tickets
  // through the scored week's Saturday in day order, then every week's
  // measurements.
  const util::Day horizon = util::saturday_of_week(args.week);
  std::vector<std::pair<util::Day, dslsim::LineId>> tickets;
  for (const auto& ticket : data.tickets()) {
    if (ticket.category == dslsim::TicketCategory::kCustomerEdge &&
        ticket.reported <= horizon) {
      tickets.emplace_back(ticket.reported, ticket.line);
    }
  }
  std::stable_sort(
      tickets.begin(), tickets.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [day, line] : tickets) {
    if (!router.ingest_ticket(line, day)) {
      std::cerr << "ingest_ticket failed: " << router.last_error() << "\n";
      return 1;
    }
  }
  for (int week = 0; week <= args.week; ++week) {
    for (std::size_t l = 0; l < data.n_lines(); ++l) {
      serve::LineMeasurement m;
      m.line = static_cast<dslsim::LineId>(l);
      m.week = week;
      m.profile = data.plant(m.line).profile;
      m.metrics = data.measurement(week, m.line);
      if (!router.ingest(m)) {
        std::cerr << "ingest failed: " << router.last_error() << "\n";
        return 1;
      }
    }
  }

  const auto ranked = router.top_n(static_cast<std::uint32_t>(args.top));
  if (!ranked.has_value()) {
    std::cerr << "top_n failed: " << router.last_error() << "\n";
    return 1;
  }
  const cluster::RouterStats& stats = router.stats();
  std::cerr << "ingested " << data.n_lines() << " lines x "
            << (args.week + 1) << " weeks + " << tickets.size()
            << " tickets (" << stats.requests << " requests, "
            << stats.retries << " retries, " << stats.failovers
            << " failovers, " << stats.nodes_marked_dead
            << " nodes marked dead)\n";
  std::cout << "rank,line,dslam,week,score,probability,model_version\n";
  for (std::size_t i = 0; i < ranked->size(); ++i) {
    const auto& s = (*ranked)[i];
    std::cout << i + 1 << ',' << s.line << ','
              << data.topology().dslam_of(s.line) << ',' << s.week << ','
              << s.score << ',' << s.probability << ',' << s.model_version
              << '\n';
  }
  return 0;
}

int cmd_serve(const CliArgs& args) {
  if (!args.cluster_peers.empty() && args.listen_port.has_value()) {
    die_usage("--cluster and --listen are mutually exclusive");
  }
  if (!args.cluster_peers.empty()) return cmd_serve_cluster(args);
  if (args.listen_port.has_value()) return cmd_serve_listen(args);
  if (args.stream) return run_stream_scoring(args, /*serve_format=*/true);
  const exec::ExecContext exec = args.exec();
  const auto data = simulate(args, exec);
  auto predictor_opt = make_predictor(args, exec, data);
  if (!predictor_opt.has_value()) return 1;

  serve::LineStateStore store(args.shards);
  serve::ModelRegistry registry;
  const std::uint64_t version =
      registry.publish(predictor_opt->kernel());
  serve::ServiceConfig service_cfg;
  service_cfg.exec = exec;
  serve::ScoringService service(store, registry, service_cfg);

  std::cerr << "replaying feeds through week " << args.week << " ("
            << args.shards << " shards, model v" << version << ")...\n";
  serve::ReplayDriver replay(data, store);
  replay.feed_through(args.week, exec);
  std::cerr << "ingested " << store.measurements_ingested()
            << " measurements, " << store.tickets_ingested()
            << " tickets across " << store.n_lines() << " lines\n";

  const auto ranked = service.top_n(args.top);
  std::cout << "rank,line,dslam,week,score,probability,model_version\n";
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    std::cout << i + 1 << ',' << ranked[i].line << ','
              << data.topology().dslam_of(ranked[i].line) << ','
              << ranked[i].week << ',' << ranked[i].score << ','
              << ranked[i].probability << ',' << ranked[i].model_version
              << '\n';
  }
  return 0;
}

/// loadgen: replay the simulated feeds against a live `serve --listen`
/// server and fetch every score over the wire.
int cmd_loadgen(const CliArgs& args) {
  if (args.port == 0) die_usage("loadgen requires --port");
  const auto data = simulate(args, args.exec());

  net::LoadGenConfig cfg;
  cfg.host = args.host;
  cfg.port = args.port;
  cfg.connections = args.connections;
  cfg.through_week = args.week;
  cfg.top_n = static_cast<std::uint32_t>(args.top);
  std::cerr << "replaying through week " << args.week << " over "
            << cfg.connections << " connections to " << cfg.host << ":"
            << cfg.port << "...\n";
  const net::LoadGenReport report = net::LoadGen(data, cfg).run();
  if (!report.ok) {
    std::cerr << "loadgen failed: " << report.error << "\n";
    return 1;
  }

  const auto ms = [](double s) { return s * 1e3; };
  util::Table ops({"op", "count", "per_s", "p50_ms", "p99_ms"});
  const auto add = [&](const char* name, const net::OpStats& s) {
    if (s.count == 0) return;
    ops.add_row({name, std::to_string(s.count),
                 std::to_string(static_cast<std::uint64_t>(s.per_s())),
                 std::to_string(ms(s.percentile_s(0.50))),
                 std::to_string(ms(s.percentile_s(0.99)))});
  };
  add("ingest", report.ingest);
  add("score", report.score);
  add("ping", report.ping);
  add("top_n", report.top_n);
  ops.print(std::cerr);

  std::cout << "rank,line,week,score,probability,model_version\n";
  for (std::size_t i = 0; i < report.ranked.size(); ++i) {
    const auto& s = report.ranked[i];
    std::cout << i + 1 << ',' << s.line << ',' << s.week << ',' << s.score
              << ',' << s.probability << ',' << s.model_version << '\n';
  }
  return 0;
}

/// The cluster node being stopped by the signal handlers.
/// ClusterNode::request_stop() is async-signal-safe (atomic store +
/// eventfd write through the embedded server).
std::atomic<cluster::ClusterNode*> g_cluster_node{nullptr};

void handle_cluster_shutdown_signal(int) {
  if (cluster::ClusterNode* node =
          g_cluster_node.load(std::memory_order_acquire)) {
    node->request_stop();
  }
}

/// cluster-node: run one member of a serving cluster. The node starts
/// with an empty store, no model, and no shard map — a coordinator
/// (`serve --cluster` or a ShardRouter) pushes both; from then on the
/// beacon heartbeats every peer in the adopted map and routes around
/// deaths on its own.
int cmd_cluster_node(int argc, char** argv) {
  cluster::ClusterNodeConfig cfg;
  bool have_listen = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) die_usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--listen") {
      cfg.port =
          static_cast<std::uint16_t>(parse_uint("--listen", value(), 0, 65535));
      have_listen = true;
    } else if (flag == "--node-id") {
      cfg.node_id = static_cast<cluster::NodeId>(
          parse_uint("--node-id", value(), 0, 0xFFFFFFFFULL));
    } else if (flag == "--bind") {
      cfg.bind_address = value();
    } else if (flag == "--shards") {
      cfg.store_shards =
          static_cast<std::size_t>(parse_uint("--shards", value(), 1, 4096));
    } else if (flag == "--heartbeat-ms") {
      cfg.heartbeat_interval = std::chrono::milliseconds(
          parse_uint("--heartbeat-ms", value(), 1, 60'000));
    } else if (flag == "--suspect-ms") {
      cfg.membership.suspect_after = std::chrono::milliseconds(
          parse_uint("--suspect-ms", value(), 1, 600'000));
    } else if (flag == "--dead-ms") {
      cfg.membership.dead_after = std::chrono::milliseconds(
          parse_uint("--dead-ms", value(), 1, 600'000));
    } else {
      die_usage("unknown argument '" + flag + "' for cluster-node");
    }
  }
  if (!have_listen) {
    die_usage("cluster-node requires --listen PORT (0 = ephemeral)");
  }
  if (cfg.membership.dead_after <= cfg.membership.suspect_after) {
    die_usage("--dead-ms must exceed --suspect-ms");
  }

  cluster::ClusterNode node(cfg);
  std::string error;
  if (!node.start(&error)) {
    std::cerr << "cannot start cluster node on " << cfg.bind_address << ":"
              << cfg.port << ": " << error << "\n";
    return 1;
  }

  g_cluster_node.store(&node, std::memory_order_release);
  struct sigaction sa{};
  sa.sa_handler = handle_cluster_shutdown_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  std::cerr << "cluster node " << cfg.node_id << " listening on "
            << cfg.bind_address << ":" << node.port() << " ("
            << cfg.store_shards
            << " store shards); waiting for a model + shard map push; "
               "SIGINT/SIGTERM drains and exits\n";
  node.wait();
  g_cluster_node.store(nullptr, std::memory_order_release);
  node.stop();

  const cluster::NodeHealth health = node.health_snapshot();
  std::cerr << "stopped: map epoch " << health.map_epoch << ", model v"
            << health.model_version << ", " << health.n_lines << " lines, "
            << health.measurements << " measurements, " << health.tickets
            << " tickets\n";
  return 0;
}

/// dataset FILE [--verify]: open a feature-store artefact (binary via
/// mmap, text via the fallback reader) and print what it holds without
/// training anything. --verify additionally checks every per-column
/// payload checksum on the mapped path.
int cmd_dataset(int argc, char** argv) {
  std::string path;
  bool verify = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verify") {
      verify = true;
    } else if (!arg.empty() && arg[0] == '-') {
      die_usage("unknown argument '" + arg + "' for dataset");
    } else if (path.empty()) {
      path = arg;
    } else {
      die_usage("dataset takes exactly one FILE");
    }
  }
  if (path.empty()) die_usage("dataset requires a FILE to inspect");
  if (::access(path.c_str(), R_OK) != 0) {
    std::cerr << "error: cannot read " << path << ": " << std::strerror(errno)
              << "\n";
    return 2;
  }

  const bool binary = ml::is_arena_file(path);
  ml::ArenaLoadOptions opts;
  opts.mode = ml::ArenaLoadMode::kMapped;
  opts.verify_payload = verify;
  ml::StoreStatus st;
  const auto stored = ml::load_arena_auto(path, opts, &st);
  if (!stored.has_value()) {
    std::cerr << "error: " << path << ": " << st.message << " ["
              << ml::store_error_name(st.code) << "]\n";
    return 1;
  }

  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  const ml::FeatureArena& arena = stored->arena;
  std::size_t categorical = 0;
  for (std::size_t j = 0; j < arena.n_cols(); ++j) {
    if (arena.column_info(j).categorical) ++categorical;
  }
  const char* format = !binary             ? "text nmdataset v1"
                       : stored->bins ? "binary nmarena v2"
                                      : "binary nmarena v1";
  std::cout << "file: " << path << " (" << format << ", " << (ec ? 0 : size)
            << " bytes)\n"
            << "kind: "
            << features::dataset_kind(stored->meta).value_or("unknown")
            << "\n"
            << "rows: " << arena.n_rows() << " (" << arena.positives()
            << " positive)\n"
            << "columns: " << arena.n_cols() << " (" << categorical
            << " categorical)\n";
  std::cout << "aux:";
  if (stored->aux_names.empty()) std::cout << " (none)";
  for (const auto& name : stored->aux_names) std::cout << ' ' << name;
  std::cout << "\n"
            << "meta: " << stored->meta.size() << " bytes\n"
            << "backing: " << (arena.file_backed() ? "mmap" : "heap") << "\n";
  if (stored->bins != nullptr) {
    std::cout << "bins: " << stored->bins->n_cols()
              << " columns quantized (max_bins " << stored->bins->max_bins()
              << ")\n";
  }
  if (binary) {
    std::cout << "checksums: "
              << (verify ? "payload verified" : "header/meta/labels verified"
                                                " (use --verify for payload)")
              << "\n";
  }
  return 0;
}

int cmd_summary(const CliArgs& args) {
  const auto data = simulate(args, args.exec());
  const auto tickets = dslsim::summarize_tickets(data);
  const auto measurements = dslsim::summarize_measurements(data);
  std::cout << "customer-edge tickets: " << tickets.edge_total
            << " (dispatched " << tickets.dispatched << "), billing: "
            << tickets.billing_total << "\n"
            << "line-test records: " << measurements.records << ", missing: "
            << util::fmt_percent(measurements.missing_rate) << "\n";
  util::Table loc({"location", "dispatches", "share"});
  for (const auto& ls : dslsim::summarize_locations(data)) {
    loc.add_row({dslsim::major_location_name(ls.location),
                 std::to_string(ls.dispatches), util::fmt_percent(ls.share)});
  }
  loc.print(std::cout);
  return 0;
}

/// Spatial localization demo: simulate a year *with* correlated
/// infrastructure faults turned on (the default rates are 0 so every
/// other command's datasets stay untouched), aggregate per-line
/// evidence up the plant hierarchy for the requested week, and print
/// the network-side findings next to the injected ground truth.
int cmd_spatial(const CliArgs& args) {
  const auto exec = args.exec();
  dslsim::SimConfig cfg = sim_config(args);
  // Demo rates: enough shared-plant events in a year that most weeks
  // have something to localize, without drowning the premise baseline.
  cfg.infra.dslam_outages_per_dslam_year = 0.6;
  cfg.infra.crossbox_events_per_crossbox_year = 0.25;
  cfg.infra.weather_bursts_per_region_year = 1.0;
  cfg.infra.firmware_rollout_start = util::day_from_date(6, 1);
  std::cerr << "simulating " << args.lines << " lines with infrastructure "
            << "events (seed " << args.seed << ")...\n";
  const auto data = dslsim::Simulator(cfg).run(exec);

  const spatial::SpatialAggregator aggregator(data.topology());
  const auto report = aggregator.analyze_week(data, args.week, {}, exec);

  std::cout << "week " << report.week << ": " << report.evaluated
            << " lines evaluated, " << report.anomalous_lines
            << " anomalous (baseline rate "
            << util::fmt_percent(report.baseline_rate) << ")\n\n";

  std::size_t healthy = 0, premise = 0, network = 0;
  for (const auto v : report.verdicts) {
    healthy += v == spatial::LineVerdict::kHealthy ? 1 : 0;
    premise += v == spatial::LineVerdict::kPremise ? 1 : 0;
    network += v == spatial::LineVerdict::kNetwork ? 1 : 0;
  }
  std::cout << "verdicts: " << healthy << " healthy, " << premise
            << " premise-side, " << network << " network-side\n\n";

  util::Table findings({"scope", "id", "lines", "anomalous", "rate",
                        "baseline", "z", "confidence"});
  const std::size_t shown =
      std::min(report.network_findings.size(), args.top);
  for (std::size_t i = 0; i < shown; ++i) {
    const auto& f = report.network_findings[i];
    findings.add_row({spatial::group_scope_name(f.scope),
                      std::to_string(f.id), std::to_string(f.lines),
                      std::to_string(f.anomalous), util::fmt_percent(f.rate),
                      util::fmt_percent(f.baseline),
                      util::fmt_double(f.zscore, 1),
                      util::fmt_double(f.confidence, 3)});
  }
  if (report.network_findings.empty()) {
    std::cout << "no network-side findings this week\n";
  } else {
    std::cout << "network-side findings (top " << shown << " of "
              << report.network_findings.size() << "):\n";
    findings.print(std::cout);
  }

  // Injected ground truth active in this week, for eyeballing recall.
  const util::Day week_day = util::saturday_of_week(report.week);
  std::size_t active = 0;
  for (const auto& ev : data.infra_events()) {
    if (week_day < ev.start || week_day >= ev.end) continue;
    ++active;
  }
  std::cout << "\nground truth: " << active
            << " infrastructure event(s) active on test day " << week_day
            << " (of " << data.infra_events().size() << " all year)\n";
  util::Table truth({"kind", "scope", "start", "end", "severity"});
  for (const auto& ev : data.infra_events()) {
    if (week_day < ev.start || week_day >= ev.end) continue;
    truth.add_row({dslsim::infra_event_kind_name(ev.kind),
                   std::to_string(ev.scope), std::to_string(ev.start),
                   std::to_string(ev.end), util::fmt_double(ev.severity, 2)});
  }
  if (active > 0) truth.print(std::cout);
  return 0;
}

void usage() {
  std::cerr
      << "usage: nevermind "
         "<simulate|predict|locate|serve|loadgen|cluster-node|spatial|"
         "summary|dataset> "
         "[--lines N] [--seed S] [--week W] [--top K] [--out DIR] "
         "[--lines-per-dslam L] [--dslams-per-atm D] "
         "[--crossboxes-per-dslam C] "
         "[--model FILE] [--save-models DIR] [--load-models DIR] "
         "[--save-dataset FILE] [--load-dataset FILE] "
         "[--dataset-load eager|mmap] "
         "[--threads T] [--shards P] [--binning exact|hist] "
         "[--simd auto|scalar|avx2] [--stream]\n"
         "  --stream (simulate|predict|locate|serve)   run the streamed "
         "pipeline: weekly measurements are generated, encoded and "
         "consumed one week at a time instead of materializing the "
         "year; training goes through a .nmarena artefact + mmap, and "
         "the output is byte-identical to the materialized command\n"
         "  serve --listen PORT   expose the scoring service over TCP "
         "(0 = ephemeral port)\n"
         "  loadgen --port P [--host H] [--connections C]   drive a live "
         "server with the simulated feeds\n"
         "  cluster-node --listen PORT [--node-id I] [--bind H] "
         "[--shards P] [--heartbeat-ms H] [--suspect-ms S] [--dead-ms D]"
         "   run one cluster member until SIGINT/SIGTERM\n"
         "  serve --cluster H:P,H:P,... [--cluster-shards K] "
         "[--replication R]   coordinate the listed cluster-node "
         "processes and print the merged ranking\n"
         "  dataset FILE [--verify]   inspect a persisted feature-store "
         "artefact (.nmarena = binary, else text)\n"
         "  spatial [--lines N] [--seed S] [--week W]   simulate with "
         "correlated infrastructure faults and print network-vs-premise "
         "verdicts for week W\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "dataset") return cmd_dataset(argc, argv);
  if (cmd == "cluster-node") return cmd_cluster_node(argc, argv);
  const CliArgs args = parse(argc, argv, 2);
  validate_stream_flags(args, cmd);
  validate_artefact_paths(args, cmd);
  if (cmd == "simulate") return cmd_simulate(args);
  if (cmd == "predict") return cmd_predict(args);
  if (cmd == "locate") return cmd_locate(args);
  if (cmd == "serve") return cmd_serve(args);
  if (cmd == "loadgen") return cmd_loadgen(args);
  if (cmd == "spatial") return cmd_spatial(args);
  if (cmd == "summary") return cmd_summary(args);
  usage();
  return 2;
}
