// nmbench: runs one benchmark workload and prints a human-readable
// report followed, as the last line, by one JSON object:
//
//   {"correct": true, "valid": true, "attempted": N, "failed": 0,
//    "end_to_end": {...}, "named": {...}, "per_layer": {...},
//    "host": {...}}
//
// Usage: nmbench --workload weekly_batch|serve_saturday
//                [--seed N] [--seconds S] [--trace 0|1]
//                [--size full|smoke] [--workdir DIR]
//
// Exit codes: 0 all outputs correct; 1 an output was wrong or an
// operation failed; 2 usage error or a build that must not be timed;
// 3 the run is void (the open-loop generator fell behind).
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "host.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "nmbench: " << why << "\n"
            << "usage: nmbench --workload weekly_batch|serve_saturday "
               "[--seed N] [--seconds S] [--trace 0|1] "
               "[--size full|smoke] [--workdir DIR]\n";
  std::exit(2);
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string object(const std::vector<perfbench::Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "smoke") usage("--size takes full|smoke");
      opt.smoke = value == "smoke";
    } else if (flag == "--workdir") {
      opt.workdir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");

  const std::string refusal = perfbench::host::timing_refusal();
  if (!refusal.empty()) {
    std::cerr << "nmbench: refusing to time: " << refusal << "\n";
    return 2;
  }
  const perfbench::host::Stamp stamp = perfbench::host::stamp();
  std::cout << "host: " << perfbench::host::to_json(stamp) << "\n";

  perfbench::Result r;
  try {
    r = perfbench::run_workload(opt);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "nmbench: " << opt.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  const bool correct = r.failed == 0;
  const bool valid = r.invalid.empty();
  std::cout << opt.workload << " seed " << opt.seed << ": " << r.attempted
            << " operations, " << r.failed << " failed"
            << (correct ? "" : " (OUTPUT CHECK FAILED)") << "\n";
  if (!valid) {
    std::cout << "INVALID RUN: " << r.invalid << "; numbers withheld\n";
    r.end_to_end.clear();
    r.named.clear();
    r.per_layer.clear();
  }
  for (const auto& m : r.named) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
  }
  for (const auto& m : r.per_layer) {
    std::cout << "  [layer] " << m.name << " = " << number(m.value) << " "
              << m.unit << "\n";
  }
  for (const auto& note : r.notes) std::cout << "  note: " << note << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"valid\": " << (valid ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed
            << ", \"end_to_end\": " << object(r.end_to_end)
            << ", \"named\": " << object(r.named)
            << ", \"per_layer\": " << object(r.per_layer)
            << ", \"host\": " << perfbench::host::to_json(stamp) << "}"
            << std::endl;
  if (!valid) return 3;
  return correct ? 0 : 1;
}
