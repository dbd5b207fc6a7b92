//===-- perfbench/tests/SelfTest.cpp - Tests of the benchmark's own code --===//
//
// Order statistics (percentile, median and quartile indexing, the tail
// sample rule), span self time, and the arithmetic behind
// blas.gemm_flops.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Trace.h"
#include "Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

using namespace perfbench;

namespace {

std::vector<double> oneTo(int N) {
  std::vector<double> V(static_cast<std::size_t>(N));
  std::iota(V.begin(), V.end(), 1.0);
  return V;
}

Span span(const char *Name, double Start, double End, int Parent) {
  Span S;
  S.Name = Name;
  S.Start = Start;
  S.End = End;
  S.Parent = Parent;
  S.OpId = 0;
  return S;
}

} // namespace

TEST(Stats, NearestRankPercentile) {
  EXPECT_EQ(percentileRank(90.0, 100), 90u);
  EXPECT_EQ(percentileRank(90.0, 10), 9u);
  EXPECT_EQ(percentileRank(99.0, 1000), 990u);
  EXPECT_EQ(percentileRank(50.0, 7), 4u);
  EXPECT_EQ(percentileRank(100.0, 5), 5u);
  EXPECT_EQ(percentileRank(1.0, 5), 1u);
  // Unsorted input: the percentile sorts a copy.
  std::vector<double> V = oneTo(100);
  std::reverse(V.begin(), V.end());
  EXPECT_DOUBLE_EQ(percentile(V, 90.0), 90.0);
  EXPECT_DOUBLE_EQ(percentile(V, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(percentile({}, 90.0), 0.0);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles(data, n=4) for each data set.
  auto Q = quartiles(oneTo(10));
  EXPECT_DOUBLE_EQ(Q[0], 2.75);
  EXPECT_DOUBLE_EQ(Q[1], 5.5);
  EXPECT_DOUBLE_EQ(Q[2], 8.25);
  Q = quartiles({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(Q[0], 1.0);
  EXPECT_DOUBLE_EQ(Q[1], 2.0);
  EXPECT_DOUBLE_EQ(Q[2], 3.0);
  // Two samples extrapolate past both ends, as Python does.
  Q = quartiles({5.0, 1.0});
  EXPECT_DOUBLE_EQ(Q[0], 0.0);
  EXPECT_DOUBLE_EQ(Q[1], 3.0);
  EXPECT_DOUBLE_EQ(Q[2], 6.0);
  Q = quartiles({0.5, 0.1, 0.9, 0.3, 0.7, 0.2});
  EXPECT_NEAR(Q[0], 0.175, 1e-15);
  EXPECT_NEAR(Q[1], 0.4, 1e-15);
  EXPECT_NEAR(Q[2], 0.75, 1e-15);
}

TEST(Stats, PercentileNeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(percentileReportable(90.0, 99));
  EXPECT_TRUE(percentileReportable(90.0, 100));
  EXPECT_FALSE(percentileReportable(99.0, 999));
  EXPECT_TRUE(percentileReportable(99.0, 1000));
  EXPECT_FALSE(percentileReportable(50.0, 19));
  EXPECT_TRUE(percentileReportable(50.0, 20));
  EXPECT_FALSE(percentileReportable(90.0, 0));
  EXPECT_EQ(samplesNeededFor(90.0), 100u);
  EXPECT_EQ(samplesNeededFor(99.0), 1000u);
  EXPECT_EQ(samplesNeededFor(50.0), 20u);
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  Tracer T(true);
  int Root = T.record(span("bench.solve", 0.0, 10.0, -1));
  // Two overlapping children cover [2, 6]; one sticks out past the end
  // and counts only up to it; a grandchild does not touch the root.
  int A = T.record(span("core.partition", 2.0, 4.0, Root));
  T.record(span("apps.layout", 3.0, 6.0, Root));
  T.record(span("apps.execute", 8.0, 12.0, Root));
  T.record(span("blas.inner", 2.5, 3.5, A));
  std::vector<double> All = T.selfTimes();
  ASSERT_EQ(All.size(), 5u);
  EXPECT_DOUBLE_EQ(All[0], 10.0 - 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(All[1], 2.0 - 1.0);
  EXPECT_DOUBLE_EQ(All[2], 3.0);
  EXPECT_DOUBLE_EQ(All[3], 4.0);
  EXPECT_DOUBLE_EQ(All[4], 1.0);
}

TEST(Trace, NestingFollowsOpenSpansAndOffRecordsNothing) {
  Tracer T(true);
  {
    Tracer::Scope Outer(T, "bench.solve", 3);
    Tracer::Scope Inner(T, "core.partition", 3);
  }
  ASSERT_EQ(T.spans().size(), 2u);
  EXPECT_EQ(T.spans()[0].Parent, -1);
  EXPECT_EQ(T.spans()[1].Parent, 0);
  EXPECT_EQ(T.spans()[1].OpId, 3);
  EXPECT_LE(T.spans()[1].End, T.spans()[0].End);
  T.setEnabled(false);
  { Tracer::Scope Off(T, "core.partition", 4); }
  EXPECT_EQ(T.spans().size(), 2u);
}

TEST(GemmFlops, TilingPerformsTwiceTheCubeOfTheMatrixEdge) {
  using fupermod::GridRect;
  // A 3-rank column layout of a 4x4 grid of 8x8 blocks.
  std::vector<GridRect> Rects = {{0, 0, 2, 4, 0}, {2, 0, 2, 3, 1},
                                 {2, 3, 2, 1, 2}};
  const int NBlocks = 4, B = 8;
  double Edge = NBlocks * B;
  EXPECT_DOUBLE_EQ(matmulGemmFlops(Rects, NBlocks, B),
                   2.0 * Edge * Edge * Edge);
  // One rank: NBlocks steps of (H*B x B) * (B x W*B).
  EXPECT_DOUBLE_EQ(matmulGemmFlops({&Rects[1], 1}, NBlocks, B),
                   NBlocks * 2.0 * (3 * B) * (2 * B) * B);
}
