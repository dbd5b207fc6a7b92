//===-- tests/JacobiTest.cpp - Jacobi application tests -------------------===//

#include "apps/Jacobi.h"

#include "core/Metrics.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

using namespace fupermod;

namespace {

JacobiOptions smallOptions() {
  JacobiOptions O;
  O.N = 96;
  O.MaxIterations = 40;
  O.Tolerance = 1e-9;
  O.Balance = false;
  return O;
}

} // namespace

TEST(JacobiSystem, DiagonallyDominant) {
  const int N = 50;
  for (int Row = 0; Row < N; ++Row) {
    double OffSum = 0.0;
    for (int Col = 0; Col < N; ++Col)
      if (Col != Row)
        OffSum += std::fabs(jacobiMatrixEntry(N, Row, Col));
    EXPECT_GT(std::fabs(jacobiMatrixEntry(N, Row, Row)), OffSum)
        << "row " << Row;
  }
}

TEST(JacobiSystem, EntriesAreDeterministic) {
  EXPECT_DOUBLE_EQ(jacobiMatrixEntry(64, 3, 7), jacobiMatrixEntry(64, 3, 7));
  EXPECT_DOUBLE_EQ(jacobiRhsEntry(64, 5), jacobiRhsEntry(64, 5));
}

TEST(Jacobi, ConvergesWithoutBalancing) {
  Cluster Cl = makeUniformCluster(3, 100.0);
  Cl.NoiseSigma = 0.0;
  JacobiReport R = runJacobi(Cl, smallOptions());
  EXPECT_TRUE(R.Converged);
  EXPECT_LT(R.Residual, 1e-6);
  EXPECT_FALSE(R.Iterations.empty());
  // Distribution never moved.
  for (const JacobiIteration &It : R.Iterations)
    EXPECT_EQ(It.Rows[0], 32);
}

TEST(Jacobi, ConvergesWithBalancing) {
  Cluster Cl = makeHclLikeCluster(false);
  Cl.NoiseSigma = 0.01;
  JacobiOptions O = smallOptions();
  O.Balance = true;
  JacobiReport R = runJacobi(Cl, O);
  EXPECT_TRUE(R.Converged);
  EXPECT_LT(R.Residual, 1e-6);
}

TEST(Jacobi, SameSolutionWithAndWithoutBalancing) {
  Cluster Cl = makeHclLikeCluster(false);
  Cl.NoiseSigma = 0.0;
  JacobiOptions O = smallOptions();
  JacobiReport Plain = runJacobi(Cl, O);
  O.Balance = true;
  JacobiReport Balanced = runJacobi(Cl, O);
  ASSERT_EQ(Plain.Solution.size(), Balanced.Solution.size());
  for (std::size_t I = 0; I < Plain.Solution.size(); ++I)
    EXPECT_NEAR(Plain.Solution[I], Balanced.Solution[I], 1e-8);
}

TEST(Jacobi, BalancingMovesRowsAwayFromSlowDevices) {
  Cluster Cl = makeUniformCluster(2, 100.0);
  Cl.Devices[1] = makeConstantProfile("slow", 25.0); // 4x slower.
  Cl.NoiseSigma = 0.0;
  JacobiOptions O = smallOptions();
  O.N = 100;
  O.Balance = true;
  JacobiReport R = runJacobi(Cl, O);
  ASSERT_GE(R.Iterations.size(), 3u);
  // Starts even.
  EXPECT_EQ(R.Iterations.front().Rows[0], 50);
  // Converges to the 4:1 split.
  EXPECT_NEAR(static_cast<double>(R.Iterations.back().Rows[0]), 80.0, 5.0);
}

TEST(Jacobi, BalancingReducesPerIterationImbalance) {
  Cluster Cl = makeHclLikeCluster(false);
  Cl.NoiseSigma = 0.01;
  JacobiOptions O = smallOptions();
  O.N = 240;
  O.Balance = true;
  O.MaxIterations = 12;
  O.Tolerance = 0.0; // Run all iterations.
  JacobiReport R = runJacobi(Cl, O);
  ASSERT_GE(R.Iterations.size(), 6u);
  double First = imbalance(R.Iterations.front().ComputeTimes);
  double Last = imbalance(R.Iterations.back().ComputeTimes);
  EXPECT_LT(Last, 0.6 * First);
}

TEST(Jacobi, BalancingBeatsEvenDistributionOnMakespan) {
  Cluster Cl = makeUniformCluster(2, 100.0);
  Cl.Devices[1] = makeConstantProfile("slow", 20.0);
  Cl.NoiseSigma = 0.0;
  JacobiOptions O = smallOptions();
  O.N = 120;
  O.MaxIterations = 15;
  O.Tolerance = 0.0;
  JacobiReport Even = runJacobi(Cl, O);
  O.Balance = true;
  JacobiReport Balanced = runJacobi(Cl, O);
  EXPECT_LT(Balanced.Makespan, 0.8 * Even.Makespan);
}

TEST(Jacobi, RowCountsAlwaysSumToN) {
  Cluster Cl = makeHclLikeCluster(false);
  JacobiOptions O = smallOptions();
  O.N = 150;
  O.Balance = true;
  JacobiReport R = runJacobi(Cl, O);
  for (const JacobiIteration &It : R.Iterations) {
    std::int64_t Sum = 0;
    for (std::int64_t Rows : It.Rows)
      Sum += Rows;
    EXPECT_EQ(Sum, 150);
  }
}

TEST(Jacobi, DeterministicAcrossRuns) {
  Cluster Cl = makeHclLikeCluster(false);
  JacobiOptions O = smallOptions();
  O.Balance = true;
  JacobiReport A = runJacobi(Cl, O);
  JacobiReport B = runJacobi(Cl, O);
  EXPECT_DOUBLE_EQ(A.Makespan, B.Makespan);
  ASSERT_EQ(A.Iterations.size(), B.Iterations.size());
  for (std::size_t I = 0; I < A.Iterations.size(); ++I)
    EXPECT_EQ(A.Iterations[I].Rows, B.Iterations[I].Rows);
}

TEST(Jacobi, ThresholdSuppressesMarginalRebalancing) {
  Cluster Cl = makeHclLikeCluster(false);
  Cl.NoiseSigma = 0.01;
  JacobiOptions O = smallOptions();
  O.N = 240;
  O.Balance = true;
  O.MaxIterations = 12;
  O.Tolerance = 0.0;

  JacobiReport Always = runJacobi(Cl, O);
  O.Equalize.Policy = "threshold";
  O.Equalize.Monitor.TriggerThreshold = 0.15;
  JacobiReport Thresholded = runJacobi(Cl, O);

  // Every-round balancing solves every iteration; the threshold policy
  // stops once its episode settles the imbalance.
  EXPECT_EQ(Always.Rebalances, 12);
  EXPECT_LT(Thresholded.Rebalances, 12);
  EXPECT_GE(Thresholded.Rebalances, 1);
  // Quality stays comparable: both end clearly better balanced than the
  // even start.
  double ImbT = imbalance(Thresholded.Iterations.back().ComputeTimes);
  EXPECT_LT(ImbT, 0.5 * imbalance(Thresholded.Iterations.front().ComputeTimes));
}

TEST(Jacobi, HugeThresholdMeansNoRedistribution) {
  Cluster Cl = makeHclLikeCluster(false);
  Cl.NoiseSigma = 0.0;
  JacobiOptions O = smallOptions();
  O.Balance = true;
  O.Equalize.Policy = "threshold";
  O.Equalize.Monitor.TriggerThreshold = 0.99;
  JacobiReport R = runJacobi(Cl, O);
  EXPECT_EQ(R.Rebalances, 0);
  for (const JacobiIteration &It : R.Iterations)
    EXPECT_EQ(It.Rows[0], It.Rows[1]); // Still the even distribution.
}

namespace {

std::uint64_t reportHash(const JacobiReport &R) {
  std::uint64_t H = fnv1a(std::as_bytes(std::span<const double>(R.Solution)));
  return fnv1a(std::as_bytes(std::span<const double>(&R.Makespan, 1)), H);
}

} // namespace

// Bit-exact regression pins over the solution AND the virtual-time trace
// (the hash folds the Makespan bits in): any change to message sizes,
// counts, or ordering moves these values. The static pin was captured
// from the pre-container Jacobi. The balanced pin was re-captured when
// the balancing gather's payload shrank from a 40-byte Point to a
// 16-byte {time, failed} sample: per-iteration rows, the rebalance count
// and the solution bytes stayed identical, only virtual time moved.
TEST(JacobiRegression, StaticRunBitIdenticalToPreContainerApp) {
  Cluster Cl = makeUniformCluster(3, 100.0);
  Cl.NoiseSigma = 0.0;
  JacobiReport R = runJacobi(Cl, smallOptions());
  ASSERT_TRUE(R.Converged);
  EXPECT_EQ(reportHash(R), 748872079813229312ull);
}

TEST(JacobiRegression, BalancedRunBitIdenticalToPreContainerApp) {
  Cluster Cl = makeHclLikeCluster(false);
  Cl.NoiseSigma = 0.01;
  JacobiOptions O = smallOptions();
  O.Balance = true;
  JacobiReport R = runJacobi(Cl, O);
  ASSERT_TRUE(R.Converged);
  EXPECT_EQ(R.Rebalances, 6);
  EXPECT_EQ(reportHash(R), 1970142803994941069ull);
}
