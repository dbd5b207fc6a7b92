//===-- tests/MatMulTest.cpp - parallel matmul tests ----------------------===//

#include "apps/AdaptiveMatMul.h"

#include "blas/Gemm.h"
#include "support/ThreadPool.h"

#include <cstring>
#include <gtest/gtest.h>

using namespace fupermod;

namespace {

MatMulOptions smallOptions() {
  MatMulOptions O;
  O.NBlocks = 6;
  O.BlockSize = 4;
  O.Verify = true;
  return O;
}

} // namespace

TEST(Gemm, NaiveMatchesBlocked) {
  const std::size_t M = 17, N = 23, K = 9;
  std::vector<double> A(M * K), B(K * N), C1(M * N, 0.0), C2(M * N, 0.0);
  fillDeterministic(A, 1);
  fillDeterministic(B, 2);
  gemmNaive(M, N, K, A, B, C1);
  gemmBlocked(M, N, K, A, B, C2, 8);
  EXPECT_LT(maxAbsDiff(C1, C2), 1e-12);
}

TEST(Gemm, AccumulatesIntoC) {
  std::vector<double> A = {1.0}, B = {2.0}, C = {10.0};
  gemmNaive(1, 1, 1, A, B, C);
  EXPECT_DOUBLE_EQ(C[0], 12.0);
}

TEST(Gemm, ParallelBitIdenticalToBlocked) {
  // The row-band decomposition must not change any element's accumulation
  // order, so the parallel kernel is bit-identical, not merely close.
  for (unsigned Workers : {1u, 3u}) {
    ThreadPool Pool(Workers);
    for (std::size_t M : {1u, 5u, 64u, 131u}) {
      const std::size_t N = 37, K = 29;
      std::vector<double> A(M * K), B(K * N), C1(M * N, 0.5), C2(M * N, 0.5);
      fillDeterministic(A, 3);
      fillDeterministic(B, 4);
      gemmBlocked(M, N, K, A, B, C1, 16);
      gemmParallel(M, N, K, A, B, C2, Pool, 16);
      EXPECT_EQ(0,
                std::memcmp(C1.data(), C2.data(), C1.size() * sizeof(double)))
          << Workers << " workers, M=" << M;
    }
  }
}

TEST(Gemm, ThreadSpeedupIsMonotoneAndBounded) {
  EXPECT_DOUBLE_EQ(gemmThreadSpeedup(1), 1.0);
  double Prev = 1.0;
  for (unsigned T : {2u, 4u, 8u, 16u}) {
    double S = gemmThreadSpeedup(T);
    EXPECT_GT(S, Prev);
    EXPECT_LT(S, static_cast<double>(T));
    Prev = S;
  }
}

TEST(ParallelMatMul, SingleRankMatchesSerial) {
  Cluster Cl = makeUniformCluster(1, 100.0);
  Cl.NoiseSigma = 0.0;
  std::vector<GridRect> Rects = {{0, 0, 6, 6, 0}};
  MatMulReport R = runParallelMatMul(Cl, Rects, smallOptions());
  EXPECT_LT(R.MaxError, 1e-10);
  EXPECT_EQ(R.BlocksCommunicated, 0);
  EXPECT_GT(R.Makespan, 0.0);
}

TEST(ParallelMatMul, TwoRankRowSplitCorrect) {
  Cluster Cl = makeUniformCluster(2, 100.0);
  Cl.NoiseSigma = 0.0;
  std::vector<GridRect> Rects = {{0, 0, 6, 3, 0}, {0, 3, 6, 3, 1}};
  MatMulReport R = runParallelMatMul(Cl, Rects, smallOptions());
  EXPECT_LT(R.MaxError, 1e-10);
  EXPECT_GT(R.BlocksCommunicated, 0);
}

TEST(ParallelMatMul, GeneratedMatricesPinnedAtEveryOptimisationLevel) {
  // The block generator's seed is computed without signed overflow, so
  // every optimisation level generates the same matrices (an overflowing
  // seed let -O3 builds diverge from -O2 ones).
  Cluster Cl = makeUniformCluster(2, 100.0);
  Cl.NoiseSigma = 0.0;
  MatMulOptions O;
  O.NBlocks = 12;
  O.BlockSize = 8;
  O.Verify = true;
  std::vector<GridRect> Rects = {{0, 0, 12, 6, 0}, {0, 6, 12, 6, 1}};
  MatMulReport R = runParallelMatMul(Cl, Rects, O);
  EXPECT_LT(R.MaxError, 1e-10);
  EXPECT_EQ(R.ResultHash, 6760758328381694304ull);

  // Rectangles of 72, 30 and 42 rows by 42, 30 and 30 columns: 30 and 42
  // are multiples of neither the micro-kernel's 4-row nor its 8-column
  // tile, so its edge paths run inside the app, in a single row band (30
  // rows) and across several. Threads only changes the charged time.
  Cluster Cl3 = makeUniformCluster(3, 100.0);
  Cl3.NoiseSigma = 0.0;
  O.BlockSize = 6;
  std::vector<GridRect> Edges = {
      {0, 0, 7, 12, 0}, {7, 0, 5, 5, 1}, {7, 5, 5, 7, 2}};
  for (unsigned Threads : {1u, 3u}) {
    O.Threads = Threads;
    MatMulReport E = runParallelMatMul(Cl3, Edges, O);
    EXPECT_EQ(E.MaxError, 0.0) << "Threads " << Threads;
    EXPECT_EQ(E.ResultHash, 3575245395042594931ull) << "Threads " << Threads;
  }
}

TEST(ParallelMatMul, PerfbenchLayoutPinned) {
  // perfbench's matmul-static layout at seed 7: 8, 4 and 12 block rows of
  // widths 5, 5 and 7. Ranks with more block rows than host lanes, and
  // rows of unequal cost, are where the arithmetic job finishes a rank's
  // rows out of order; every run must still digest each rectangle's rows
  // once each, in order.
  Cluster Cl = makeUniformCluster(3, 100.0);
  Cl.NoiseSigma = 0.0;
  MatMulOptions O;
  O.NBlocks = 12;
  O.BlockSize = 8;
  O.Verify = true;
  std::vector<GridRect> Rects = {
      {7, 0, 5, 8, 0}, {7, 8, 5, 4, 1}, {0, 0, 7, 12, 2}};
  for (int Run = 0; Run < 4; ++Run) {
    MatMulReport R = runParallelMatMul(Cl, Rects, O);
    EXPECT_EQ(R.MaxError, 0.0) << "run " << Run;
    EXPECT_EQ(R.ResultHash, 6379097238111544081ull) << "run " << Run;
  }
  // perfbench's own block size: the hash its seed-7 solves reproduce.
  // Rows this long finish out of order in most runs, so one lane often
  // digests several rows other lanes finished.
  O.BlockSize = 48;
  O.Verify = false;
  for (int Run = 0; Run < 4; ++Run)
    EXPECT_EQ(runParallelMatMul(Cl, Rects, O).ResultHash,
              6371063590800408731ull)
        << "run " << Run;
}

TEST(ParallelMatMul, FourRankGridCorrect) {
  Cluster Cl = makeUniformCluster(4, 100.0);
  Cl.NoiseSigma = 0.0;
  std::vector<GridRect> Rects = {{0, 0, 3, 3, 0},
                                 {3, 0, 3, 3, 1},
                                 {0, 3, 3, 3, 2},
                                 {3, 3, 3, 3, 3}};
  MatMulReport R = runParallelMatMul(Cl, Rects, smallOptions());
  EXPECT_LT(R.MaxError, 1e-10);
}

TEST(ParallelMatMul, HeterogeneousRectsFromLayoutCorrect) {
  Cluster Cl = makeUniformCluster(3, 100.0);
  Cl.Devices[1] = makeConstantProfile("slow", 25.0);
  Cl.Devices[2] = makeConstantProfile("mid", 50.0);
  Cl.NoiseSigma = 0.0;
  std::vector<double> Areas = {100.0, 25.0, 50.0};
  auto Rects = scaleToGrid(partitionColumnBased(Areas), 6);
  MatMulReport R = runParallelMatMul(Cl, Rects, smallOptions());
  EXPECT_LT(R.MaxError, 1e-10);
}

TEST(ParallelMatMul, BalancedBeatsEvenOnHeterogeneousCluster) {
  Cluster Cl = makeUniformCluster(2, 200.0);
  Cl.Devices[1] = makeConstantProfile("slow", 40.0); // 5x slower.
  Cl.NoiseSigma = 0.0;

  MatMulOptions O;
  O.NBlocks = 10;
  O.BlockSize = 4;
  O.Verify = false;

  std::vector<GridRect> Even = {{0, 0, 10, 5, 0}, {0, 5, 10, 5, 1}};
  // Speed-proportional areas: 200:40 -> rows 8.33 vs 1.67 -> 8/2.
  std::vector<GridRect> Balanced = {{0, 0, 10, 8, 0}, {0, 8, 10, 2, 1}};

  MatMulReport REven = runParallelMatMul(Cl, Even, O);
  MatMulReport RBal = runParallelMatMul(Cl, Balanced, O);
  EXPECT_LT(RBal.Makespan, 0.6 * REven.Makespan);
}

TEST(ParallelMatMul, CommunicationCountedPerBlockTransfer) {
  Cluster Cl = makeUniformCluster(2, 100.0);
  Cl.NoiseSigma = 0.0;
  MatMulOptions O;
  O.NBlocks = 4;
  O.BlockSize = 2;
  O.Verify = false;
  // Column split: each rank owns a 2x4 slab; every iteration k, the A
  // pivot column owner sends 4 blocks, the B pivot row owner sends 2.
  std::vector<GridRect> Rects = {{0, 0, 2, 4, 0}, {2, 0, 2, 4, 1}};
  MatMulReport R = runParallelMatMul(Cl, Rects, O);
  // A: for each of the 4 iterations, the 4 blocks of pivot column k go to
  // the non-owner (both rectangles span all rows): 4 * 4 transfers.
  // B: pivot-row block (k, col) is owned by the rank owning column col,
  // which is also the only rank that needs it: 0 transfers.
  EXPECT_EQ(R.BlocksCommunicated, 16);
}

TEST(ParallelMatMul, DeterministicAcrossRuns) {
  Cluster Cl = makeHclLikeCluster(false);
  MatMulOptions O;
  O.NBlocks = 6;
  O.BlockSize = 4;
  O.Verify = false;
  std::vector<double> Areas;
  for (const DeviceProfile &P : Cl.Devices)
    Areas.push_back(P.speed(100.0));
  auto Rects = scaleToGrid(partitionColumnBased(Areas), 6);
  MatMulReport A = runParallelMatMul(Cl, Rects, O);
  MatMulReport B = runParallelMatMul(Cl, Rects, O);
  EXPECT_DOUBLE_EQ(A.Makespan, B.Makespan);
  EXPECT_EQ(A.BlocksCommunicated, B.BlocksCommunicated);
}

TEST(ParallelMatMul, AllOptimisationModesBitIdentical) {
  // Zero-copy fan-out, overlap pipeline and threaded GEMM each claim to
  // leave the result matrix bit-identical to the serial schedule; the
  // folded per-rank hash makes that claim checkable without gathering.
  Cluster Cl = makeHclLikeCluster(true);
  MatMulOptions Base;
  Base.NBlocks = 6;
  Base.BlockSize = 8;
  Base.Verify = true;

  std::vector<double> Areas;
  for (const DeviceProfile &P : Cl.Devices)
    Areas.push_back(P.speed(100.0));
  auto Rects = scaleToGrid(partitionColumnBased(Areas), Base.NBlocks);

  MatMulOptions Baseline = Base;
  Baseline.ZeroCopy = false;
  Baseline.Overlap = false;
  Baseline.Threads = 1;
  MatMulReport Ref = runParallelMatMul(Cl, Rects, Baseline);
  EXPECT_LT(Ref.MaxError, 1e-10);
  EXPECT_NE(Ref.ResultHash, 0u);

  struct {
    bool ZeroCopy;
    bool Overlap;
    unsigned Threads;
  } Modes[] = {{true, false, 1}, {true, true, 1}, {true, true, 4}};
  for (const auto &M : Modes) {
    MatMulOptions O = Base;
    O.Verify = false;
    O.ZeroCopy = M.ZeroCopy;
    O.Overlap = M.Overlap;
    O.Threads = M.Threads;
    MatMulReport R = runParallelMatMul(Cl, Rects, O);
    EXPECT_EQ(R.ResultHash, Ref.ResultHash)
        << "zerocopy=" << M.ZeroCopy << " overlap=" << M.Overlap
        << " threads=" << M.Threads;
    EXPECT_EQ(R.BlocksCommunicated, Ref.BlocksCommunicated);
  }
}

TEST(ParallelMatMul, OverlapNeverSlowerAndCutsIdleTime) {
  Cluster Cl = makeHclLikeCluster(true);
  // Slow fabric so pivot transfers are worth hiding.
  Cl.Inter = LinkCost{2e-4, 4e-7};
  MatMulOptions O;
  O.NBlocks = 6;
  O.BlockSize = 16;
  O.Verify = false;

  std::vector<double> Areas;
  for (const DeviceProfile &P : Cl.Devices)
    Areas.push_back(P.speed(100.0));
  auto Rects = scaleToGrid(partitionColumnBased(Areas), O.NBlocks);

  MatMulReport Serial = runParallelMatMul(Cl, Rects, O);
  O.Overlap = true;
  MatMulReport Overlap = runParallelMatMul(Cl, Rects, O);

  EXPECT_EQ(Overlap.ResultHash, Serial.ResultHash);
  EXPECT_LE(Overlap.Makespan, Serial.Makespan * (1.0 + 1e-12));
  EXPECT_LT(Overlap.MaxIdleTime, Serial.MaxIdleTime);
}

TEST(ParallelMatMul, ZeroCopyEliminatesPhysicalCopies) {
  Cluster Cl = makeUniformCluster(4, 100.0);
  Cl.NoiseSigma = 0.0;
  MatMulOptions O;
  O.NBlocks = 6;
  O.BlockSize = 4;
  O.Verify = false;
  std::vector<GridRect> Rects = {{0, 0, 3, 3, 0},
                                 {3, 0, 3, 3, 1},
                                 {0, 3, 3, 3, 2},
                                 {3, 3, 3, 3, 3}};
  O.ZeroCopy = false;
  MatMulReport Copy = runParallelMatMul(Cl, Rects, O);
  O.ZeroCopy = true;
  MatMulReport Shared = runParallelMatMul(Cl, Rects, O);
  EXPECT_EQ(Shared.ResultHash, Copy.ResultHash);
  EXPECT_EQ(Shared.Comm.BytesCopied, 0u);
  EXPECT_GT(Copy.Comm.BytesCopied, 0u);
  // Same messages and logical traffic either way: the option changes the
  // copies, not the schedule.
  EXPECT_EQ(Shared.Comm.Messages, Copy.Comm.Messages);
  EXPECT_EQ(Shared.Comm.BytesLogical, Copy.Comm.BytesLogical);
}

TEST(ParallelMatMul, VerificationIsNotCountedAsTraffic) {
  // Verify compares the product with a serial GEMM on the host, so it
  // sends nothing: with it on, the run must report the same messages,
  // bytes and result as without it, in copy and in zero-copy mode.
  Cluster Cl = makeHclLikeCluster(true);
  MatMulOptions O;
  O.NBlocks = 6;
  O.BlockSize = 8;
  std::vector<double> Areas;
  for (const DeviceProfile &P : Cl.Devices)
    Areas.push_back(P.speed(100.0));
  auto Rects = scaleToGrid(partitionColumnBased(Areas), O.NBlocks);
  for (bool ZeroCopy : {false, true}) {
    O.ZeroCopy = ZeroCopy;
    O.Verify = false;
    MatMulReport Off = runParallelMatMul(Cl, Rects, O);
    O.Verify = true;
    MatMulReport On = runParallelMatMul(Cl, Rects, O);
    EXPECT_EQ(On.MaxError, 0.0) << "zerocopy=" << ZeroCopy;
    EXPECT_EQ(On.Comm.Messages, Off.Comm.Messages) << "zerocopy=" << ZeroCopy;
    EXPECT_EQ(On.Comm.BytesLogical, Off.Comm.BytesLogical)
        << "zerocopy=" << ZeroCopy;
    EXPECT_EQ(On.Comm.BytesCopied, Off.Comm.BytesCopied)
        << "zerocopy=" << ZeroCopy;
    EXPECT_EQ(On.ResultHash, Off.ResultHash) << "zerocopy=" << ZeroCopy;
  }
}

TEST(AdaptiveMatMul, MakespanDropsAcrossRounds) {
  Cluster Cl = makeHclLikeCluster(false);
  Cl.NoiseSigma = 0.01;
  AdaptiveMatMulOptions O;
  O.NBlocks = 12;
  O.BlockSize = 4;
  O.Rounds = 5;
  AdaptiveMatMulReport R = runAdaptiveMatMul(Cl, O);
  ASSERT_EQ(R.RoundMakespans.size(), 5u);
  // The even first round is dominated by the slow devices; adaptation
  // recovers a visibly faster layout.
  EXPECT_LT(R.RoundMakespans.back(), 0.75 * R.RoundMakespans.front());
  EXPECT_LT(R.MaxError, 1e-9);
}

TEST(AdaptiveMatMul, AreasMigrateToFastDevices) {
  Cluster Cl = makeUniformCluster(2, 200.0);
  Cl.Devices[1] = makeConstantProfile("slow", 50.0); // 4x slower.
  Cl.NoiseSigma = 0.0;
  AdaptiveMatMulOptions O;
  O.NBlocks = 10;
  O.BlockSize = 4;
  O.Rounds = 4;
  AdaptiveMatMulReport R = runAdaptiveMatMul(Cl, O);
  // Round 1 is even; by the last round the fast device owns ~4x.
  EXPECT_EQ(R.RoundAreas.front()[0], 50);
  EXPECT_NEAR(static_cast<double>(R.RoundAreas.back()[0]), 80.0, 8.0);
}

TEST(AdaptiveMatMul, SingleRoundIsJustEvenMatMul) {
  Cluster Cl = makeUniformCluster(3, 100.0);
  Cl.NoiseSigma = 0.0;
  AdaptiveMatMulOptions O;
  O.NBlocks = 6;
  O.BlockSize = 4;
  O.Rounds = 1;
  AdaptiveMatMulReport R = runAdaptiveMatMul(Cl, O);
  ASSERT_EQ(R.RoundMakespans.size(), 1u);
  EXPECT_LT(R.MaxError, 1e-10);
}
