//===-- tests/StencilTest.cpp - heat stencil application tests ------------===//

#include "apps/Stencil.h"

#include "core/Metrics.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

using namespace fupermod;

namespace {

StencilOptions smallOptions() {
  StencilOptions O;
  O.Rows = 34; // 32 interior rows.
  O.Cols = 24;
  O.Iterations = 15;
  O.Balance = false;
  return O;
}

} // namespace

TEST(StencilInitial, BoundaryValuesDeterministicAndFixed) {
  EXPECT_DOUBLE_EQ(stencilInitial(34, 24, 0, 5),
                   stencilInitial(34, 24, 0, 5));
  EXPECT_GT(stencilInitial(34, 24, 0, 5), 80.0);  // Hot top edge.
  EXPECT_DOUBLE_EQ(stencilInitial(34, 24, 33, 5), 0.0); // Cool bottom.
  EXPECT_DOUBLE_EQ(stencilInitial(34, 24, 10, 0), 50.0); // Side walls.
}

TEST(Stencil, MatchesSerialOnSingleRank) {
  Cluster Cl = makeUniformCluster(1, 100.0);
  Cl.NoiseSigma = 0.0;
  StencilReport R = runStencil(Cl, smallOptions());
  EXPECT_LT(R.MaxError, 1e-12);
  EXPECT_EQ(R.HaloRowsSent, 0);
}

TEST(Stencil, MatchesSerialAcrossRanks) {
  for (int P : {2, 3, 5}) {
    Cluster Cl = makeUniformCluster(P, 100.0);
    Cl.NoiseSigma = 0.0;
    StencilReport R = runStencil(Cl, smallOptions());
    EXPECT_LT(R.MaxError, 1e-12) << "P=" << P;
    // P bands exchange 2 halo rows per interior border per iteration.
    EXPECT_EQ(R.HaloRowsSent, 2LL * (P - 1) * 15) << "P=" << P;
  }
}

TEST(Stencil, MatchesSerialWithBalancingAndMigration) {
  Cluster Cl = makeHclLikeCluster(false);
  Cl.NoiseSigma = 0.01;
  StencilOptions O = smallOptions();
  O.Rows = 62; // 60 interior rows over 6 devices.
  O.Balance = true;
  StencilReport R = runStencil(Cl, O);
  // Correctness must survive row migration between devices.
  EXPECT_LT(R.MaxError, 1e-12);
  EXPECT_GT(R.Rebalances, 0);
}

TEST(Stencil, BalancingMovesRowsAwayFromSlowDevices) {
  Cluster Cl = makeUniformCluster(2, 100.0);
  Cl.Devices[1] = makeConstantProfile("slow", 25.0);
  Cl.NoiseSigma = 0.0;
  StencilOptions O = smallOptions();
  O.Rows = 102; // 100 interior rows.
  O.Balance = true;
  StencilReport R = runStencil(Cl, O);
  EXPECT_LT(R.MaxError, 1e-12);
  EXPECT_EQ(R.Iterations.front().Rows[0], 50);
  EXPECT_NEAR(static_cast<double>(R.Iterations.back().Rows[0]), 80.0,
              5.0);
}

TEST(Stencil, BalancingReducesMakespan) {
  Cluster Cl = makeUniformCluster(2, 100.0);
  Cl.Devices[1] = makeConstantProfile("slow", 20.0);
  Cl.NoiseSigma = 0.0;
  StencilOptions O = smallOptions();
  O.Rows = 102;
  O.Iterations = 20;
  StencilReport Even = runStencil(Cl, O);
  O.Balance = true;
  StencilReport Balanced = runStencil(Cl, O);
  EXPECT_LT(Balanced.Makespan, 0.8 * Even.Makespan);
  EXPECT_LT(Balanced.MaxError, 1e-12);
}

TEST(Stencil, HonoursPlatformEqualizeLine) {
  // examples/heat's configuration: a `.cluster` `equalize threshold`
  // line must reach the stencil's balancer and gate its solves, where a
  // platform without the line balances every round.
  Cluster Cl = makeHclLikeCluster(false);
  Cl.NoiseSigma = 0.01;
  StencilOptions O;
  O.Rows = 122;
  O.Cols = 96;
  O.Iterations = 25;
  O.Balance = true;
  StencilReport EveryRound = runStencil(Cl, O);

  Cl.Equalize.Policy = "threshold";
  Cl.Equalize.TriggerThreshold = 0.10;
  StencilReport Gated = runStencil(Cl, O);

  ASSERT_TRUE(Gated.Error.empty()) << Gated.Error;
  EXPECT_EQ(EveryRound.Rebalances, O.Iterations);
  EXPECT_GE(Gated.Rebalances, 1);
  EXPECT_LT(Gated.Rebalances, EveryRound.Rebalances);
  EXPECT_LT(Gated.MaxError, 1e-12);
}

TEST(Stencil, HeatFlowsIntoTheGrid) {
  // Physical sanity: after some iterations the row below the hot edge
  // has warmed up from its speckle-scale initial values.
  Cluster Cl = makeUniformCluster(2, 100.0);
  Cl.NoiseSigma = 0.0;
  StencilOptions O = smallOptions();
  O.Iterations = 30;
  StencilReport R = runStencil(Cl, O);
  ASSERT_FALSE(R.Grid.empty());
  double RowMean = 0.0;
  for (int Col = 1; Col + 1 < O.Cols; ++Col)
    RowMean += R.Grid[static_cast<std::size_t>(O.Cols) + Col];
  RowMean /= (O.Cols - 2);
  EXPECT_GT(RowMean, 40.0);
}

TEST(Stencil, DeterministicAcrossRuns) {
  Cluster Cl = makeHclLikeCluster(false);
  StencilOptions O = smallOptions();
  O.Balance = true;
  StencilReport A = runStencil(Cl, O);
  StencilReport B = runStencil(Cl, O);
  EXPECT_DOUBLE_EQ(A.Makespan, B.Makespan);
  EXPECT_EQ(A.HaloRowsSent, B.HaloRowsSent);
}

namespace {

std::uint64_t reportHash(const StencilReport &R) {
  std::uint64_t H = fnv1a(std::as_bytes(std::span<const double>(R.Grid)));
  return fnv1a(std::as_bytes(std::span<const double>(&R.Makespan, 1)), H);
}

} // namespace

// Bit-exact regression pins over the grid AND the virtual-time trace (the
// hash folds the Makespan bits in): any change to message sizes, counts,
// or ordering moves these values. The static pin was captured from the
// pre-container stencil. The balanced pin was re-captured when the
// balancing gather's payload shrank from a 40-byte Point to a 16-byte
// {time, failed} sample: per-iteration rows, the rebalance count and the
// grid bytes stayed identical, only virtual time moved.
TEST(StencilRegression, StaticRunBitIdenticalToPreContainerApp) {
  Cluster Cl = makeUniformCluster(3, 100.0);
  Cl.NoiseSigma = 0.0;
  StencilReport R = runStencil(Cl, smallOptions());
  EXPECT_EQ(R.HaloRowsSent, 60);
  EXPECT_EQ(reportHash(R), 9589953436033517911ull);
}

TEST(StencilRegression, BalancedRunBitIdenticalToPreContainerApp) {
  Cluster Cl = makeHclLikeCluster(false);
  Cl.NoiseSigma = 0.01;
  StencilOptions O = smallOptions();
  O.Rows = 62;
  O.Balance = true;
  StencilReport R = runStencil(Cl, O);
  EXPECT_EQ(R.HaloRowsSent, 150);
  EXPECT_EQ(R.Rebalances, 15);
  EXPECT_EQ(reportHash(R), 18088685343984157053ull);
}
