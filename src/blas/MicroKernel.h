//===-- blas/MicroKernel.h - gemmMicro's tile driver ------------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Private to the blas library and its tests: gemmMicro (packed) and
/// gemmMicroUnpacked (in place) with the register-tile body passed in.
/// The public kernels pass the tile CPUID dispatch picked; tests pass
/// every tile body the host supports, so the portable tile stays covered
/// on AVX2 machines.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_BLAS_MICROKERNEL_H
#define FUPERMOD_BLAS_MICROKERNEL_H

#include "blas/Gemm.h"

namespace fupermod {

/// One register tile: C (4 x 8, row stride Ldc) += A (4 rows at row
/// stride Lda, depth Kb) * B (Kb x 8 at row stride Ldb; a packed panel
/// has Ldb = 8).
using GemmTileFn = void (*)(std::size_t Kb, const double *A, std::size_t Lda,
                            const double *B, std::size_t Ldb, double *C,
                            std::size_t Ldc);

/// The tile body for \p Isa, or nullptr when this build or this CPU
/// cannot run it. The portable tile is always available.
GemmTileFn gemmMicroTile(GemmIsa Isa);

/// gemmMicro with \p Tile as the register-tile body.
void gemmMicroWithTile(GemmTileFn Tile, std::size_t M, std::size_t N,
                       std::size_t K, std::span<const double> A,
                       std::span<const double> B, std::span<double> C);

/// gemmMicroUnpacked with \p Tile as the register-tile body.
void gemmMicroUnpackedWithTile(GemmTileFn Tile, std::size_t M, std::size_t N,
                               std::size_t K, std::span<const double> A,
                               std::size_t Lda, std::span<const double> B,
                               std::size_t Ldb, std::span<double> C,
                               std::size_t Ldc);

} // namespace fupermod

#endif // FUPERMOD_BLAS_MICROKERNEL_H
