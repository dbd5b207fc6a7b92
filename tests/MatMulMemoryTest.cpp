//===-- tests/MatMulMemoryTest.cpp - heap high-water mark of Verify -------===//
//
// Verify checks the product one C block at a time, in place, so a verified
// solve may hold no more heap than an unverified one beyond a block-sized
// reference: no full-matrix copy of A, B, C or the reference. This binary
// replaces the global allocation functions to count live heap bytes and
// their high-water mark. It is a binary of its own so that no other test
// runs with them.
//
//===----------------------------------------------------------------------===//

#include "apps/MatMul.h"

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

using namespace fupermod;

namespace {

std::atomic<std::size_t> Live{0};
std::atomic<std::size_t> Peak{0};

void *allocate(std::size_t Size) {
  void *P = std::malloc(Size ? Size : 1);
  if (!P)
    return nullptr;
  std::size_t Now = Live += malloc_usable_size(P);
  std::size_t Seen = Peak;
  while (Seen < Now && !Peak.compare_exchange_weak(Seen, Now)) {
  }
  return P;
}

// Not inlined: at -O3 GCC would inline it into a replaced operator delete
// that frees a replaced operator new's block, and -Wmismatched-new-delete
// would take that free() for a mismatch.
[[gnu::noinline]] void release(void *P) {
  if (!P)
    return;
  Live -= malloc_usable_size(P);
  std::free(P);
}

/// Heap bytes \p O's solve holds at its peak above what was live before it.
std::size_t peakHeapOf(const Cluster &Cl, std::span<const GridRect> Rects,
                       const MatMulOptions &O, MatMulReport &Report) {
  std::size_t Before = Live;
  Peak = Before;
  Report = runParallelMatMul(Cl, Rects, O);
  return Peak - Before;
}

} // namespace

// Every replaceable form except the aligned ones, so no form left to the
// runtime frees a block allocated here. Aligned new and delete stay paired
// in the runtime, uncounted; a solve uses neither.
void *operator new(std::size_t Size) {
  if (void *P = allocate(Size))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) { return ::operator new(Size); }
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  return allocate(Size);
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  return allocate(Size);
}
void operator delete(void *P) noexcept { release(P); }
void operator delete[](void *P) noexcept { release(P); }
void operator delete(void *P, std::size_t) noexcept { release(P); }
void operator delete[](void *P, std::size_t) noexcept { release(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { release(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  release(P);
}

TEST(MatMulMemory, VerifiedSolveHoldsNoMatrixCopy) {
  // perfbench's seed-7 layout at its 12 x 12 blocks of 48: a full matrix
  // is 2.65 MB, a block 18 KiB.
  Cluster Cl = makeUniformCluster(3, 100.0);
  Cl.NoiseSigma = 0.0;
  MatMulOptions O;
  O.NBlocks = 12;
  O.BlockSize = 48;
  std::vector<GridRect> Rects = {
      {7, 0, 5, 8, 0}, {7, 8, 5, 4, 1}, {0, 0, 7, 12, 2}};
  MatMulReport Report;
  // A first solve starts the host pool and any other state that outlives
  // a solve, so none of it lands in a measured peak.
  O.Verify = false;
  peakHeapOf(Cl, Rects, O, Report);

  std::size_t Unverified = peakHeapOf(Cl, Rects, O, Report);
  // The count sees the solve's own buffers: the blocks of A and B alone
  // are 2 x 144 blocks of 48 x 48 doubles.
  EXPECT_GE(Unverified, 2u * 144u * 48u * 48u * sizeof(double));
  O.Verify = true;
  std::size_t Verified = peakHeapOf(Cl, Rects, O, Report);
  EXPECT_EQ(Report.MaxError, 0.0);
  EXPECT_LE(Verified, Unverified + 64 * 1024)
      << "verified peak " << Verified << " B, unverified " << Unverified
      << " B";
}
