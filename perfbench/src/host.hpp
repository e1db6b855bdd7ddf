// Host and build stamp printed with every result, and the refusal to
// time a build whose numbers would mean nothing (no optimization, or a
// sanitizer in the binary).
#pragma once

#include <string>

namespace perfbench::host {

struct Stamp {
  unsigned nproc = 0;
  std::string cpu_model;
  bool avx2 = false;
  bool fma = false;
  std::string simd_arm;  // the stump-search kernel arm training will use
  std::string compiler;
  std::string build_type;
};

[[nodiscard]] Stamp stamp();

/// Empty when this build may be timed, otherwise why not.
[[nodiscard]] std::string timing_refusal();

/// One JSON object with the stamp's fields.
[[nodiscard]] std::string to_json(const Stamp& s);

}  // namespace perfbench::host
