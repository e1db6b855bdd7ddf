// Summary statistics the benchmark reports, and the seeded Poisson
// arrival schedule its open-loop generator sends on.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending sample, p in [0, 1].
[[nodiscard]] inline double percentile_sorted(const std::vector<double>& v,
                                              double p) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

[[nodiscard]] inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, 0.5);
}

/// The tail the benchmark reports for a timing: the highest percentile
/// of {99, 95, 90, 50} with at least ten samples beyond it, or the
/// maximum (pct 100) when even the median has fewer than ten. The
/// ladder stops at p99: further out, a few scheduler stalls of a shared
/// host decide the value.
struct Tail {
  double pct = 100.0;
  double value = 0.0;
  std::size_t samples = 0;
};

[[nodiscard]] inline Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  for (const double p : {0.99, 0.95, 0.90, 0.50}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    if (rank >= 1 && v.size() - rank >= 10) {
      t.pct = p * 100.0;
      t.value = v[rank - 1];
      return t;
    }
  }
  t.value = v.back();
  return t;
}

/// Seeded Poisson arrivals: exponential gaps at `rate_per_s`, each
/// arrival naming a line drawn uniformly from [0, n_lines). The same
/// (seed, rate, n_lines) always yields the same sequence.
class PoissonSchedule {
 public:
  struct Arrival {
    std::int64_t due_ns = 0;  // offset from the schedule start
    std::uint32_t line = 0;
  };

  PoissonSchedule(std::uint64_t seed, double rate_per_s, std::uint32_t n_lines)
      : rng_(seed), rate_per_ns_(rate_per_s * 1e-9), n_lines_(n_lines) {}

  [[nodiscard]] Arrival next() {
    // u in (0, 1]: the exponential gap -ln(u)/rate is finite.
    const double u =
        (static_cast<double>(rng_() >> 11) + 1.0) * 0x1.0p-53;
    t_ns_ += -std::log(u) / rate_per_ns_;
    const auto line = static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(rng_()) * n_lines_) >> 64);
    return {static_cast<std::int64_t>(t_ns_), line};
  }

 private:
  std::mt19937_64 rng_;
  double rate_per_ns_;
  std::uint32_t n_lines_;
  double t_ns_ = 0.0;
};

}  // namespace perfbench
