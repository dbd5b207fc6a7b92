//===-- tests/GemmMicroTest.cpp - register-blocked micro-kernel tests -----===//
//
// The micro-kernel's contract (blas/Gemm.h): gemmMicro, and
// gemmMicroUnpacked on strided operands, are bit-identical to gemmBlocked
// whichever tile body runs — each product and each sum is rounded
// separately, in the same ascending-l order per element; banding
// in gemmParallel never changes that order, so the parallel micro path is
// bit-identical too; and the ISA is resolved once per process by CPUID
// dispatch. gemmBlocked accumulated block by block equals one call over
// the whole matrices, which MatMul's Verify relies on, and maxAbsDiff
// reports NaN for any pair with a NaN in it.
//
//===----------------------------------------------------------------------===//

#include "blas/Gemm.h"
#include "blas/MicroKernel.h"

#include "core/GemmKernel.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <vector>

using namespace fupermod;

namespace {

struct Shape {
  std::size_t M, N, K;
};

bool bytesEqual(const std::vector<double> &X, const std::vector<double> &Y) {
  return X.size() == Y.size() &&
         std::memcmp(X.data(), Y.data(), X.size() * sizeof(double)) == 0;
}

/// \p Dense (Rows x Cols, row-major) stored at row stride \p Ld, with
/// \p Pad in every element past the end of a row.
std::vector<double> strided(const std::vector<double> &Dense, std::size_t Rows,
                            std::size_t Cols, std::size_t Ld, double Pad) {
  std::vector<double> Out(Rows * Ld, Pad);
  for (std::size_t I = 0; I < Rows; ++I)
    std::copy_n(Dense.begin() + static_cast<std::ptrdiff_t>(I * Cols), Cols,
                Out.begin() + static_cast<std::ptrdiff_t>(I * Ld));
  return Out;
}

} // namespace

TEST(GemmMicro, BitIdenticalToBlocked) {
  // Edge shapes on purpose: remainder rows (M % 4 != 0), remainder
  // columns (N % 8 != 0), K = 1, a tile-aligned square for the fast
  // path, and K > 256, whose two K strips store and reload C in between.
  const Shape Shapes[] = {
      {17, 23, 31}, {4, 8, 1}, {5, 9, 7}, {64, 64, 64},
      {33, 40, 5},  {1, 1, 1}, {3, 70, 2}, {13, 21, 300},
  };
  ASSERT_NE(gemmMicroTile(GemmIsa::Portable), nullptr);
  // gemmMicroUnpacked reads every operand in place at its own row
  // stride, so it also runs with each operand inside wider rows: it must
  // leave the elements between C's rows alone, and A and B are padded
  // with NaN, so a read past a row's end shows in C.
  const double Untouched = 12345.0;
  const double Poison = std::numeric_limits<double>::quiet_NaN();

  std::uint64_t Seed = 0x5eed;
  for (Shape S : Shapes) {
    std::vector<double> A(S.M * S.K), B(S.K * S.N), C0(S.M * S.N);
    fillDeterministic(A, Seed);
    fillDeterministic(B, Seed + 1);
    fillDeterministic(C0, Seed + 2);
    ++Seed;
    std::vector<double> Blocked = C0;
    gemmBlocked(S.M, S.N, S.K, A, B, Blocked);

    std::vector<double> Dispatched = C0;
    gemmMicro(S.M, S.N, S.K, A, B, Dispatched);
    EXPECT_TRUE(bytesEqual(Dispatched, Blocked))
        << "gemmMicro (" << gemmIsaName(gemmMicroIsa()) << ") on " << S.M
        << "x" << S.N << "x" << S.K;
    // Every tile body this host can run, not only the dispatched one.
    for (GemmIsa Isa : {GemmIsa::Portable, GemmIsa::Avx2}) {
      GemmTileFn Tile = gemmMicroTile(Isa);
      if (!Tile)
        continue;
      std::vector<double> Micro = C0;
      gemmMicroWithTile(Tile, S.M, S.N, S.K, A, B, Micro);
      EXPECT_TRUE(bytesEqual(Micro, Blocked))
          << gemmIsaName(Isa) << " tile on " << S.M << "x" << S.N << "x"
          << S.K;
    }

    for (std::size_t Pad : {0u, 3u, 8u}) {
      const std::size_t Lda = S.K + Pad, Ldb = S.N + 2 * Pad,
                        Ldc = S.N + 3 * Pad;
      std::vector<double> As = strided(A, S.M, S.K, Lda, Poison);
      std::vector<double> Bs = strided(B, S.K, S.N, Ldb, Poison);
      std::vector<double> Want = strided(Blocked, S.M, S.N, Ldc, Untouched);
      std::vector<double> Unpacked = strided(C0, S.M, S.N, Ldc, Untouched);
      gemmMicroUnpacked(S.M, S.N, S.K, As, Lda, Bs, Ldb, Unpacked, Ldc);
      EXPECT_TRUE(bytesEqual(Unpacked, Want))
          << "gemmMicroUnpacked (" << gemmIsaName(gemmMicroIsa()) << ") on "
          << S.M << "x" << S.N << "x" << S.K << ", pad " << Pad;
      for (GemmIsa Isa : {GemmIsa::Portable, GemmIsa::Avx2}) {
        GemmTileFn Tile = gemmMicroTile(Isa);
        if (!Tile)
          continue;
        std::vector<double> Cs = strided(C0, S.M, S.N, Ldc, Untouched);
        gemmMicroUnpackedWithTile(Tile, S.M, S.N, S.K, As, Lda, Bs, Ldb, Cs,
                                  Ldc);
        EXPECT_TRUE(bytesEqual(Cs, Want))
            << gemmIsaName(Isa) << " unpacked tile on " << S.M << "x" << S.N
            << "x" << S.K << ", pad " << Pad;
      }
    }
  }
}

TEST(GemmMicro, BlockwiseAccumulationIsBitIdenticalToWholeMatrices) {
  // What MatMul's Verify relies on: each C block accumulated from zero
  // over its K-ascending block products is byte-equal to that block of
  // one gemmBlocked over the assembled matrices, since every element
  // still sums the same products in ascending l. Edges 72 and 96 exceed
  // gemmBlocked's 64 tile, so a block's products span two tiles.
  const std::size_t Blocks = 3;
  for (std::size_t E : {8u, 48u, 72u, 96u}) {
    const std::size_t NB = Blocks * E;
    std::vector<double> A(NB * NB), B(NB * NB), Whole(NB * NB, 0.0);
    fillDeterministic(A, 11 + E);
    fillDeterministic(B, 12 + E);
    gemmBlocked(NB, NB, NB, A, B, Whole);
    // Block (Row, Col) of the NB x NB matrix \p M, copied out contiguously.
    auto BlockOf = [&](const std::vector<double> &M, std::size_t Row,
                       std::size_t Col) {
      std::vector<double> Out(E * E);
      for (std::size_t I = 0; I < E; ++I)
        std::copy_n(M.begin() + static_cast<std::ptrdiff_t>(
                                    (Row * E + I) * NB + Col * E),
                    E, Out.begin() + static_cast<std::ptrdiff_t>(I * E));
      return Out;
    };
    for (std::size_t Row = 0; Row < Blocks; ++Row)
      for (std::size_t Col = 0; Col < Blocks; ++Col) {
        std::vector<double> Block(E * E, 0.0);
        for (std::size_t K = 0; K < Blocks; ++K)
          gemmBlocked(E, E, E, BlockOf(A, Row, K), BlockOf(B, K, Col), Block);
        EXPECT_TRUE(bytesEqual(Block, BlockOf(Whole, Row, Col)))
            << "edge " << E << ", block (" << Row << ", " << Col << ")";
      }
  }
}

TEST(GemmMicro, MaxAbsDiffSeesEveryUnorderedPair) {
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Inf = std::numeric_limits<double>::infinity();
  auto Diff = [](std::vector<double> X, std::vector<double> Y) {
    return maxAbsDiff(X, Y);
  };
  // A NaN on either side, even between equal neighbours, gives NaN.
  EXPECT_TRUE(std::isnan(Diff({1.0, NaN, 2.0}, {1.0, 0.0, 2.0})));
  EXPECT_TRUE(std::isnan(Diff({1.0, 0.0, 2.0}, {1.0, NaN, 2.0})));
  EXPECT_TRUE(std::isnan(Diff({NaN}, {NaN})));
  EXPECT_TRUE(std::isnan(Diff({0.5, NaN}, {0.0, 0.0})));
  // Equal infinities and signed zeros count 0; a finite value against an
  // infinity differs by infinity.
  EXPECT_EQ(Diff({Inf}, {Inf}), 0.0);
  EXPECT_EQ(Diff({-Inf}, {-Inf}), 0.0);
  EXPECT_EQ(Diff({Inf}, {1.0}), Inf);
  EXPECT_EQ(Diff({-0.0}, {0.0}), 0.0);
  EXPECT_EQ(Diff({1.0, 3.0, -2.0}, {1.5, 3.0, 0.0}), 2.0);
  EXPECT_EQ(Diff({}, {}), 0.0);
}

TEST(GemmMicro, ParallelBandingIsBitIdenticalToSerial) {
  // Row bands write disjoint rows of C over one shared packed panel per K
  // strip and never reorder any element's accumulation, so the pooled
  // micro path must match serial gemmMicro byte for byte (memcmp, so a
  // -0.0 where serial has 0.0 counts too). M covers a single short band,
  // remainder rows and several bands; N with and without edge columns;
  // K = 300 sends two KC strips through the shared panel.
  for (unsigned Workers : {1u, 3u}) {
    ThreadPool Pool(Workers);
    for (std::size_t M : {1u, 5u, 61u, 131u})
      for (std::size_t N : {37u, 40u})
        for (std::size_t K : {33u, 300u}) {
          std::vector<double> A(M * K), B(K * N), C0(M * N);
          fillDeterministic(A, 7 + M);
          fillDeterministic(B, 8 + N);
          fillDeterministic(C0, 9 + K);
          std::vector<double> Serial = C0, Banded = C0;
          gemmMicro(M, N, K, A, B, Serial);
          gemmParallel(M, N, K, A, B, Banded, Pool, /*Tile=*/16,
                       /*UseMicro=*/true);
          EXPECT_TRUE(bytesEqual(Serial, Banded))
              << Workers << " workers, " << M << "x" << N << "x" << K;
        }
  }
}

TEST(GemmMicro, DispatchReportsAResolvedIsa) {
  GemmIsa Isa = gemmMicroIsa();
  EXPECT_TRUE(Isa == GemmIsa::Portable || Isa == GemmIsa::Avx2);
  // The resolution is per-process and stable, and it picks the AVX2 tile
  // exactly when this host can run it.
  EXPECT_EQ(gemmMicroIsa(), Isa);
  EXPECT_EQ(Isa == GemmIsa::Avx2, gemmMicroTile(GemmIsa::Avx2) != nullptr);
  EXPECT_STREQ(gemmIsaName(GemmIsa::Portable), "portable");
  EXPECT_STREQ(gemmIsaName(GemmIsa::Avx2), "avx2");
}

TEST(GemmMicro, GemmKernelRunsMicroModeSerialAndPooled) {
  // The kernel wrapper replicates the application's block-update pattern;
  // micro mode must run it end to end in both the serial and the
  // row-banded configuration, with the complexity accounting unchanged.
  for (unsigned Threads : {1u, 2u}) {
    GemmKernel K(/*BlockSize=*/8, /*UseBlockedGemm=*/true, Threads,
                 /*UseMicroGemm=*/true);
    EXPECT_DOUBLE_EQ(K.complexity(5.0), 2.0 * 5.0 * 512.0);
    ASSERT_TRUE(K.initialize(12));
    K.execute();
    K.execute();
    K.finalize();
  }
}
