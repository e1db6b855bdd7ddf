// Unit tests for the benchmark's own helpers: the seeded Poisson
// schedule, the reported tail percentile, the live-heap probe and the
// span recorder. The smoke runs of each workload are separate ctest
// entries (see perfbench/CMakeLists.txt).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "heap_probe.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

TEST(PoissonSchedule, SameSeedSameArrivals) {
  PoissonSchedule a(7, 5000.0, 1000);
  PoissonSchedule b(7, 5000.0, 1000);
  for (int i = 0; i < 1000; ++i) {
    const auto x = a.next();
    const auto y = b.next();
    ASSERT_EQ(x.due_ns, y.due_ns);
    ASSERT_EQ(x.line, y.line);
  }
}

TEST(PoissonSchedule, OtherSeedOtherArrivals) {
  PoissonSchedule a(7, 5000.0, 1000);
  PoissonSchedule b(8, 5000.0, 1000);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next().due_ns == b.next().due_ns;
  EXPECT_LT(same, 5);
}

TEST(PoissonSchedule, RateAndLineRange) {
  constexpr double kRate = 2000.0;
  constexpr std::uint32_t kLines = 37;
  PoissonSchedule s(11, kRate, kLines);
  constexpr int kN = 200000;
  std::int64_t prev = 0;
  std::vector<int> hits(kLines, 0);
  double sum_gap = 0.0;
  double sum_gap2 = 0.0;
  for (int i = 0; i < kN; ++i) {
    const auto a = s.next();
    ASSERT_GE(a.due_ns, prev);
    ASSERT_LT(a.line, kLines);
    const double gap = static_cast<double>(a.due_ns - prev) * 1e-9;
    sum_gap += gap;
    sum_gap2 += gap * gap;
    prev = a.due_ns;
    ++hits[a.line];
  }
  const double mean = sum_gap / kN;
  // Exponential gaps: mean 1/rate and standard deviation 1/rate.
  EXPECT_NEAR(mean * kRate, 1.0, 0.01);
  const double sd = std::sqrt(sum_gap2 / kN - mean * mean);
  EXPECT_NEAR(sd * kRate, 1.0, 0.02);
  for (const int h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / kN, 1.0 / kLines, 0.01);
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailOf, PicksHighestPercentileWithTenBeyond) {
  // 1000 samples: p99 = 990 leaves 10 beyond.
  Tail t = tail_of(one_to(1000));
  EXPECT_EQ(t.pct, 99.0);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.samples, 1000U);
  // The ladder stops at p99 however many samples there are.
  t = tail_of(one_to(100000));
  EXPECT_EQ(t.pct, 99.0);
  EXPECT_EQ(t.value, 99000.0);
  // 999 samples: p99 leaves 9, p95 leaves 49.
  t = tail_of(one_to(999));
  EXPECT_EQ(t.pct, 95.0);
  EXPECT_EQ(t.value, 950.0);
  // 100 samples: p90 leaves exactly 10.
  t = tail_of(one_to(100));
  EXPECT_EQ(t.pct, 90.0);
  EXPECT_EQ(t.value, 90.0);
}

TEST(TailOf, FallsBackToMaximumOnSmallSamples) {
  const Tail t = tail_of(one_to(15));
  EXPECT_EQ(t.pct, 100.0);
  EXPECT_EQ(t.value, 15.0);
  EXPECT_EQ(tail_of({}).samples, 0U);
}

TEST(Median, NearestRank) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
}

TEST(HeapProbe, CountsLiveBytesAndHighWater) {
  const std::int64_t before = heap::live_bytes();
  heap::reset_peak();
  auto big = std::make_unique<char[]>(1 << 20);
  big[0] = 1;
  EXPECT_GE(heap::live_bytes() - before, 1 << 20);
  big.reset();
  EXPECT_LT(heap::live_bytes() - before, 1 << 20);
  EXPECT_GE(heap::peak_bytes() - before, 1 << 20);
  heap::reset_peak();
  EXPECT_LT(heap::peak_bytes() - before, 1 << 20);
}

TEST(Trace, NestedSpansSelfTimeAndHeapPeaks) {
  trace::set_enabled(true);
  trace::clear();
  {
    const trace::Span root("root", true);
    {
      const trace::Span a("child", true);
      auto block = std::make_unique<char[]>(4 << 20);
      block[0] = 1;
    }
    const trace::Span b("child", true);
  }
  trace::set_enabled(false);
  const auto spans = trace::spans();
  ASSERT_EQ(spans.size(), 3U);
  const trace::SpanRecord& root = spans.back();
  EXPECT_EQ(root.name, "root");
  EXPECT_EQ(spans[0].parent, root.id);
  EXPECT_EQ(spans[1].parent, root.id);
  // The root's high water includes its first child's 4 MiB block.
  EXPECT_GE(root.peak_heap_bytes - root.base_heap_bytes, 4 << 20);
  const auto peaks = trace::per_root_peak_heap_mb(spans, "root", "child");
  ASSERT_EQ(peaks.size(), 1U);
  EXPECT_GE(peaks[0], 4.0);
  const double self = trace::self_seconds(spans, root);
  EXPECT_GE(self, 0.0);
  EXPECT_LE(self, root.seconds());
  const auto sums = trace::per_root_seconds(spans, "root", "child");
  ASSERT_EQ(sums.size(), 1U);
  EXPECT_NEAR(sums[0], spans[0].seconds() + spans[1].seconds(), 1e-12);
}

TEST(Trace, DisabledRecordsNothingButStillTimes) {
  trace::set_enabled(false);
  trace::clear();
  {
    const trace::Span s("quiet");
    EXPECT_GE(s.elapsed_s(), 0.0);
  }
  EXPECT_TRUE(trace::spans().empty());
}

}  // namespace
}  // namespace perfbench
