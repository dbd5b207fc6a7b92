//===-- blas/Gemm.h - Dense matrix multiply kernels -------------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense double-precision GEMM kernels. The paper's computation kernels are
/// built on BLAS GEMM (Fig. 1(b): Ci += A(b) x B(b)); since no vendor BLAS
/// is assumed, two implementations are provided:
///
///  - gemmNaive: straightforward triple loop, the stand-in for the
///    reference Netlib BLAS whose speed function Fig. 2 plots;
///  - gemmBlocked: cache-tiled variant, the stand-in for an optimised BLAS;
///  - gemmMicro: register-blocked micro-kernel (packed B panels, 4x8
///    register tiles) dispatched at runtime by CPUID between an AVX2
///    implementation and a portable `#pragma omp simd` tile — the
///    stand-in for a tuned vendor BLAS; gemmMicroUnpacked runs the same
///    tiles on strided operands read in place;
///  - gemmParallel: gemmBlocked (or gemmMicro) over horizontal row bands
///    spread by parallelFor over a ThreadPool, the stand-in for a
///    multithreaded BLAS.
///
/// All matrices are row-major and, except for gemmMicroUnpacked's,
/// contiguous: C (MxN) += A (MxK) * B (KxN).
/// Every kernel accumulates each C element over l = 0..K-1 in ascending
/// order with separate multiply and add roundings (the library is built
/// with -ffp-contract=off, and the AVX2 tile uses no FMA), so for
/// identical inputs all of them produce bit-identical results on every
/// ISA: tiling, register blocking, vectorization across columns and
/// row-band decomposition only reorder *independent* elements.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_BLAS_GEMM_H
#define FUPERMOD_BLAS_GEMM_H

#include <cstddef>
#include <cstdint>
#include <span>

namespace fupermod {

class ThreadPool;

/// C += A * B with the textbook i-k-j loop nest.
void gemmNaive(std::size_t M, std::size_t N, std::size_t K,
               std::span<const double> A, std::span<const double> B,
               std::span<double> C);

/// C += A * B with square cache tiles of the given edge length.
void gemmBlocked(std::size_t M, std::size_t N, std::size_t K,
                 std::span<const double> A, std::span<const double> B,
                 std::span<double> C, std::size_t Tile = 64);

/// C += A * B through the register-blocked micro-kernel: B is packed into
/// contiguous K-strip panels of 8 columns, and 4x8 tiles of C are held in
/// registers across the whole K strip (one load/store of C per strip
/// instead of one per multiply). The tile body is chosen once per process
/// by CPUID dispatch: AVX2 intrinsics when the CPU supports them, else a
/// portable `#pragma omp simd` tile. Bit-identical to gemmBlocked
/// whichever tile runs.
void gemmMicro(std::size_t M, std::size_t N, std::size_t K,
               std::span<const double> A, std::span<const double> B,
               std::span<double> C);

/// C += A * B through gemmMicro's register tiles, reading every operand in
/// place at its own row stride: A is M x K at row stride \p Lda, B is
/// K x N at row stride \p Ldb and C is M x N at row stride \p Ldc. B is
/// not packed, so a caller can multiply blocks that sit in separate
/// buffers, or inside larger matrices, without copying them. Bit-identical
/// to gemmBlocked on the same elements.
void gemmMicroUnpacked(std::size_t M, std::size_t N, std::size_t K,
                       std::span<const double> A, std::size_t Lda,
                       std::span<const double> B, std::size_t Ldb,
                       std::span<double> C, std::size_t Ldc);

/// Instruction set the micro-kernel dispatcher resolved to on this
/// machine (decided once, on first use or query).
enum class GemmIsa { Portable, Avx2 };
GemmIsa gemmMicroIsa();

/// Human-readable name of \p Isa ("portable", "avx2").
const char *gemmIsaName(GemmIsa Isa);

/// C += A * B with the M dimension split into row bands that the calling
/// thread and \p Pool's workers claim through parallelFor. The blocked
/// path bands by \p Tile rows and runs gemmBlocked on each band. With
/// \p UseMicro, the caller packs each K strip of B once and 32-row bands
/// run the micro-kernel's tiles over that shared panel (\p Tile is then
/// unused). Bands write disjoint rows of C and never change any element's
/// accumulation order, so the result is bit-identical to a single serial
/// call of gemmBlocked or gemmMicro. Runs the serial kernel when M is a
/// single band.
void gemmParallel(std::size_t M, std::size_t N, std::size_t K,
                  std::span<const double> A, std::span<const double> B,
                  std::span<double> C, ThreadPool &Pool,
                  std::size_t Tile = 64, bool UseMicro = false);

/// Modelled speedup of gemmParallel with \p Threads workers: Amdahl's law
/// with a small serial fraction covering band fork/join and the shared
/// memory bus. Used to charge virtual compute time for multithreaded
/// devices: every simulated rank shares the same host cores, so a
/// device's thread-scaling curve is modelled rather than measured (see
/// DESIGN.md §8).
double gemmThreadSpeedup(unsigned Threads);

/// Floating point operations performed by one C += A*B call.
inline double gemmFlops(std::size_t M, std::size_t N, std::size_t K) {
  return 2.0 * static_cast<double>(M) * static_cast<double>(N) *
         static_cast<double>(K);
}

/// Fills \p Data with deterministic pseudo-random values in [-1, 1).
void fillDeterministic(std::span<double> Data, std::uint64_t Seed);

/// Largest absolute elementwise difference between \p A and \p B: NaN as
/// soon as one pair is unordered (a NaN on either side), and 0 for equal
/// elements, equal infinities included.
double maxAbsDiff(std::span<const double> A, std::span<const double> B);

} // namespace fupermod

#endif // FUPERMOD_BLAS_GEMM_H
