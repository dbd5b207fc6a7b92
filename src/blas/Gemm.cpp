//===-- blas/Gemm.cpp - Dense matrix multiply kernels ---------------------===//

#include "blas/Gemm.h"
#include "blas/MicroKernel.h"

#include "support/Random.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

// The AVX2 tile is compiled on every x86 compiler that supports
// per-function target attributes; the TU itself stays baseline, and the
// tile is only ever *called* after a CPUID check.
#if (defined(__x86_64__) || defined(__i386__)) &&                             \
    (defined(__GNUC__) || defined(__clang__))
#define FUPERMOD_HAVE_AVX2_TILE 1
#include <immintrin.h>
#else
#define FUPERMOD_HAVE_AVX2_TILE 0
#endif

using namespace fupermod;

void fupermod::gemmNaive(std::size_t M, std::size_t N, std::size_t K,
                         std::span<const double> A, std::span<const double> B,
                         std::span<double> C) {
  assert(A.size() >= M * K && B.size() >= K * N && C.size() >= M * N &&
         "matrix buffers too small");
  for (std::size_t I = 0; I < M; ++I) {
    for (std::size_t L = 0; L < K; ++L) {
      double AIL = A[I * K + L];
      if (AIL == 0.0)
        continue;
      const double *BRow = &B[L * N];
      double *CRow = &C[I * N];
      for (std::size_t J = 0; J < N; ++J)
        CRow[J] += AIL * BRow[J];
    }
  }
}

void fupermod::gemmBlocked(std::size_t M, std::size_t N, std::size_t K,
                           std::span<const double> A,
                           std::span<const double> B, std::span<double> C,
                           std::size_t Tile) {
  assert(A.size() >= M * K && B.size() >= K * N && C.size() >= M * N &&
         "matrix buffers too small");
  assert(Tile > 0 && "tile must be positive");
  for (std::size_t I0 = 0; I0 < M; I0 += Tile) {
    std::size_t IMax = std::min(I0 + Tile, M);
    for (std::size_t L0 = 0; L0 < K; L0 += Tile) {
      std::size_t LMax = std::min(L0 + Tile, K);
      for (std::size_t J0 = 0; J0 < N; J0 += Tile) {
        std::size_t JMax = std::min(J0 + Tile, N);
        for (std::size_t I = I0; I < IMax; ++I) {
          for (std::size_t L = L0; L < LMax; ++L) {
            double AIL = A[I * K + L];
            const double *BRow = &B[L * N];
            double *CRow = &C[I * N];
            for (std::size_t J = J0; J < JMax; ++J)
              CRow[J] += AIL * BRow[J];
          }
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// gemmMicro: register-blocked micro-kernel with runtime ISA dispatch
//===----------------------------------------------------------------------===//

namespace {

/// Register-tile shape: MR rows of C held as NR-wide accumulators. With
/// AVX2 that is 4 x 2 ymm accumulators plus 2 B vectors, 1 A broadcast
/// and 1 product — 12 of 16 vector registers.
constexpr std::size_t MR = 4;
constexpr std::size_t NR = 8;
/// K-strip depth: one packed B panel (KC x NR = 16 KiB) stays L1-resident
/// while every row block of A streams over it.
constexpr std::size_t KC = 256;
/// Row-band height of gemmParallel's micro path: a multiple of MR, so
/// only the last band can hold the remainder rows a serial call leaves to
/// the scalar edge.
constexpr std::size_t BandRows = 32;
static_assert(BandRows % MR == 0, "bands must hold whole register tiles");

// Both tile bodies accumulate each C element over l ascending with the
// product and the sum rounded separately, exactly like gemmBlocked, so
// every tile is bit-identical to it. The library is built with
// -ffp-contract=off so the compiler never fuses them either.

void tilePortable(std::size_t Kb, const double *A, std::size_t Lda,
                  const double *B, std::size_t Ldb, double *C,
                  std::size_t Ldc) {
  double Acc[MR][NR];
  for (std::size_t R = 0; R < MR; ++R)
    for (std::size_t J = 0; J < NR; ++J)
      Acc[R][J] = C[R * Ldc + J];
  for (std::size_t L = 0; L < Kb; ++L) {
    const double *BRow = B + L * Ldb;
    for (std::size_t R = 0; R < MR; ++R) {
      double AR = A[R * Lda + L];
#pragma omp simd
      for (std::size_t J = 0; J < NR; ++J)
        Acc[R][J] += AR * BRow[J];
    }
  }
  for (std::size_t R = 0; R < MR; ++R)
    for (std::size_t J = 0; J < NR; ++J)
      C[R * Ldc + J] = Acc[R][J];
}

#if FUPERMOD_HAVE_AVX2_TILE
// Target "avx2" without "fma": the multiply and the add stay two
// instructions, two roundings. The row loops are unrolled so the eight
// accumulators live in registers at -O2 too, not on the stack.
__attribute__((target("avx2"))) void
tileAvx2(std::size_t Kb, const double *A, std::size_t Lda, const double *B,
         std::size_t Ldb, double *C, std::size_t Ldc) {
  __m256d Acc[MR][2];
#pragma GCC unroll 4
  for (std::size_t R = 0; R < MR; ++R) {
    Acc[R][0] = _mm256_loadu_pd(C + R * Ldc);
    Acc[R][1] = _mm256_loadu_pd(C + R * Ldc + 4);
  }
  for (std::size_t L = 0; L < Kb; ++L) {
    __m256d B0 = _mm256_loadu_pd(B + L * Ldb);
    __m256d B1 = _mm256_loadu_pd(B + L * Ldb + 4);
#pragma GCC unroll 4
    for (std::size_t R = 0; R < MR; ++R) {
      __m256d AR = _mm256_broadcast_sd(A + R * Lda + L);
      Acc[R][0] = _mm256_add_pd(Acc[R][0], _mm256_mul_pd(AR, B0));
      Acc[R][1] = _mm256_add_pd(Acc[R][1], _mm256_mul_pd(AR, B1));
    }
  }
#pragma GCC unroll 4
  for (std::size_t R = 0; R < MR; ++R) {
    _mm256_storeu_pd(C + R * Ldc, Acc[R][0]);
    _mm256_storeu_pd(C + R * Ldc + 4, Acc[R][1]);
  }
}
#endif

/// CPUID dispatch, decided once per process.
struct MicroDispatch {
  GemmIsa Isa = gemmMicroTile(GemmIsa::Avx2) ? GemmIsa::Avx2
                                              : GemmIsa::Portable;
  GemmTileFn Tile = gemmMicroTile(Isa);
};

const MicroDispatch &microDispatch() {
  static MicroDispatch D;
  return D;
}

/// Scalar edge accumulation for rows [I0, IMax) x cols [J0, JMax) over
/// depth Kb, each operand at its own row stride: each element is
/// finished in a register, l ascending — the same per-element order as
/// the tiles.
void microEdge(std::size_t I0, std::size_t IMax, std::size_t J0,
               std::size_t JMax, std::size_t Kb, const double *A,
               std::size_t Lda, const double *B, std::size_t Ldb, double *C,
               std::size_t Ldc) {
  for (std::size_t I = I0; I < IMax; ++I) {
    const double *ARow = A + I * Lda;
    for (std::size_t J = J0; J < JMax; ++J) {
      double S = C[I * Ldc + J];
      const double *BCol = B + J;
      for (std::size_t L = 0; L < Kb; ++L)
        S += ARow[L] * BCol[L * Ldb];
      C[I * Ldc + J] = S;
    }
  }
}

/// Packs the K strip [L0, L0 + Kb) of B into \p Packed: panel p holds
/// columns [p*NR, (p+1)*NR) as a contiguous Kb x NR block, so the tile
/// streams it with unit stride. Columns past the last full panel are left
/// to microEdge, which reads B directly.
void packStrip(std::size_t L0, std::size_t Kb, std::size_t N,
               const double *B, double *Packed) {
  for (std::size_t P = 0; P < N / NR; ++P) {
    double *Dst = Packed + P * Kb * NR;
    const double *Src = B + L0 * N + P * NR;
    for (std::size_t L = 0; L < Kb; ++L)
      std::copy_n(Src + L * N, NR, Dst + L * NR);
  }
}

/// Where the tiles find B's full NR-column panels: panel p starts at
/// First + p * Step and its rows are Ld apart. A packed strip has Step =
/// Kb * NR and Ld = NR; B read in place has Step = NR and Ld = its row
/// stride.
struct Panels {
  const double *First;
  std::size_t Step;
  std::size_t Ld;
};

/// Rows [I0, I1) of C (N columns, row stride Ldc) += A (depth Kb, row
/// stride Lda) * B (row stride Ldb), with the tiles reading B's full
/// panels from \p Bp and microEdge reading the remainder columns from B.
/// \p I0 is a multiple of MR, so every row gets the same tile or edge
/// path a call over all rows gives it.
void microRows(GemmTileFn Tile, std::size_t I0, std::size_t I1, std::size_t N,
               std::size_t Kb, const double *A, std::size_t Lda,
               const double *B, std::size_t Ldb, Panels Bp, double *C,
               std::size_t Ldc) {
  const std::size_t NPanels = N / NR;
  const std::size_t NFull = NPanels * NR;
  const std::size_t IFull = I0 + (I1 - I0) / MR * MR;
  for (std::size_t I = I0; I < IFull; I += MR) {
    for (std::size_t P = 0; P < NPanels; ++P)
      Tile(Kb, A + I * Lda, Lda, Bp.First + P * Bp.Step, Bp.Ld,
           C + I * Ldc + P * NR, Ldc);
    if (NFull < N)
      microEdge(I, I + MR, NFull, N, Kb, A, Lda, B, Ldb, C, Ldc);
  }
  if (IFull < I1)
    microEdge(IFull, I1, 0, N, Kb, A, Lda, B, Ldb, C, Ldc);
}

} // namespace

GemmTileFn fupermod::gemmMicroTile(GemmIsa Isa) {
  if (Isa == GemmIsa::Portable)
    return tilePortable;
#if FUPERMOD_HAVE_AVX2_TILE
  if (__builtin_cpu_supports("avx2"))
    return tileAvx2;
#endif
  return nullptr;
}

GemmIsa fupermod::gemmMicroIsa() { return microDispatch().Isa; }

const char *fupermod::gemmIsaName(GemmIsa Isa) {
  return Isa == GemmIsa::Avx2 ? "avx2" : "portable";
}

void fupermod::gemmMicro(std::size_t M, std::size_t N, std::size_t K,
                         std::span<const double> A, std::span<const double> B,
                         std::span<double> C) {
  gemmMicroWithTile(microDispatch().Tile, M, N, K, A, B, C);
}

void fupermod::gemmMicroWithTile(GemmTileFn Tile, std::size_t M,
                                 std::size_t N, std::size_t K,
                                 std::span<const double> A,
                                 std::span<const double> B,
                                 std::span<double> C) {
  assert(A.size() >= M * K && B.size() >= K * N && C.size() >= M * N &&
         "matrix buffers too small");
  // One K strip of B at a time, packed into a thread-local buffer so
  // repeated calls reuse the allocation. Sized to the deepest strip this
  // call packs, so a shallow K (the matmul app's K is one block edge)
  // does not allocate and zero-fill a full KC strip.
  static thread_local std::vector<double> Packed;
  const std::size_t PackedSize = std::min(K, KC) * (N / NR * NR);
  if (Packed.size() < PackedSize)
    Packed.resize(PackedSize);
  for (std::size_t L0 = 0; L0 < K; L0 += KC) {
    const std::size_t Kb = std::min(KC, K - L0);
    packStrip(L0, Kb, N, B.data(), Packed.data());
    microRows(Tile, 0, M, N, Kb, A.data() + L0, K, B.data() + L0 * N, N,
              {Packed.data(), Kb * NR, NR}, C.data(), N);
  }
}

void fupermod::gemmMicroUnpacked(std::size_t M, std::size_t N, std::size_t K,
                                 std::span<const double> A, std::size_t Lda,
                                 std::span<const double> B, std::size_t Ldb,
                                 std::span<double> C, std::size_t Ldc) {
  gemmMicroUnpackedWithTile(microDispatch().Tile, M, N, K, A, Lda, B, Ldb, C,
                            Ldc);
}

void fupermod::gemmMicroUnpackedWithTile(
    GemmTileFn Tile, std::size_t M, std::size_t N, std::size_t K,
    std::span<const double> A, std::size_t Lda, std::span<const double> B,
    std::size_t Ldb, std::span<double> C, std::size_t Ldc) {
  assert(Lda >= K && Ldb >= N && Ldc >= N && "row stride below row length");
  assert((M == 0 || (A.size() >= (M - 1) * Lda + K &&
                     C.size() >= (M - 1) * Ldc + N)) &&
         (K == 0 || B.size() >= (K - 1) * Ldb + N) &&
         "matrix buffers too small");
  // The tiles read B's panels in place, so the whole depth is one strip:
  // each element still accumulates over l ascending.
  microRows(Tile, 0, M, N, K, A.data(), Lda, B.data(), Ldb,
            {B.data(), NR, Ldb}, C.data(), Ldc);
}

void fupermod::gemmParallel(std::size_t M, std::size_t N, std::size_t K,
                            std::span<const double> A,
                            std::span<const double> B, std::span<double> C,
                            ThreadPool &Pool, std::size_t Tile,
                            bool UseMicro) {
  assert(A.size() >= M * K && B.size() >= K * N && C.size() >= M * N &&
         "matrix buffers too small");
  assert(Tile > 0 && "tile must be positive");
  // Bands own disjoint row ranges of C and never change any element's
  // accumulation order, so the banded result is bit-identical to one
  // serial call of either kernel. The blocked path bands by whole tiles,
  // the tiling gemmBlocked would use for those rows.
  const std::size_t Height = UseMicro ? BandRows : Tile;
  const std::size_t Bands = (M + Height - 1) / Height;
  if (Bands <= 1) {
    if (UseMicro)
      gemmMicro(M, N, K, A, B, C);
    else
      gemmBlocked(M, N, K, A, B, C, Tile);
    return;
  }
  if (!UseMicro) {
    parallelFor(Pool, Bands, [&](std::size_t Band) {
      std::size_t Row0 = Band * Tile;
      std::size_t Rows = std::min(Tile, M - Row0);
      gemmBlocked(Rows, N, K, A.subspan(Row0 * K, Rows * K), B,
                  C.subspan(Row0 * N, Rows * N), Tile);
    });
    return;
  }
  // The caller packs each K strip of B once, and every band's tiles read
  // that one shared panel; the strips run in order, so each element still
  // accumulates over l ascending.
  const GemmTileFn TileFn = microDispatch().Tile;
  auto Packed =
      std::make_unique_for_overwrite<double[]>(std::min(K, KC) * (N / NR * NR));
  for (std::size_t L0 = 0; L0 < K; L0 += KC) {
    const std::size_t Kb = std::min(KC, K - L0);
    packStrip(L0, Kb, N, B.data(), Packed.get());
    parallelFor(Pool, Bands, [&](std::size_t Band) {
      std::size_t Row0 = Band * BandRows;
      microRows(TileFn, Row0, std::min(M, Row0 + BandRows), N, Kb,
                A.data() + L0, K, B.data() + L0 * N, N,
                {Packed.get(), Kb * NR, NR}, C.data(), N);
    });
  }
}

double fupermod::gemmThreadSpeedup(unsigned Threads) {
  assert(Threads >= 1 && "need at least one thread");
  // Serial fraction ~6%: band fork/join plus the memory-bound tails of
  // each band that a shared bus serialises. Gives 1.0, ~1.9, ~3.1, ~4.4
  // for 1, 2, 4, 8 threads — the shape vendor multithreaded BLAS curves
  // show on small-to-medium matrices.
  constexpr double SerialFraction = 0.06;
  double T = static_cast<double>(Threads);
  return 1.0 / (SerialFraction + (1.0 - SerialFraction) / T);
}

void fupermod::fillDeterministic(std::span<double> Data, std::uint64_t Seed) {
  SplitMix64 Rng(Seed);
  for (double &E : Data)
    E = Rng.uniform(-1.0, 1.0);
}

double fupermod::maxAbsDiff(std::span<const double> A,
                            std::span<const double> B) {
  assert(A.size() == B.size() && "mismatched buffers");
  double Max = 0.0;
  for (std::size_t I = 0; I < A.size(); ++I) {
    if (std::isunordered(A[I], B[I]))
      return std::numeric_limits<double>::quiet_NaN();
    // Equal elements count 0, equal infinities included.
    if (A[I] != B[I])
      Max = std::max(Max, std::fabs(A[I] - B[I]));
  }
  return Max;
}
