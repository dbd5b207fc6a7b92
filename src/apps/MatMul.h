//===-- apps/MatMul.h - Heterogeneous parallel matmul -----------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Heterogeneous parallel matrix multiplication (paper Section 4.1,
/// Fig. 1(a)): square matrices of N x N blocks (blocking factor b) are
/// partitioned over processes as 2D rectangles; at iteration k the pivot
/// block column of A and pivot block row of B are communicated to the
/// processes whose rectangles intersect them, and every process updates
/// its C rectangle with them.
///
/// The computation is performed for real (block GEMMs on real data, so
/// the result can be verified against a serial product), while per-rank
/// computation *cost* is charged to the virtual clock from the simulated
/// device profiles, and communication is costed by the mpp runtime. The
/// two are separate: the SPMD step loop communicates, charges each
/// step's cost and records the step's pivot fragments, and the real work
/// runs around it on the process-wide hostPool(), one thread per core.
/// One job generates every block before the loop; one job after it runs
/// a task per (rank, C block row) that zeroes the row and accumulates it
/// over the rank's recorded steps in order, on the register-blocked
/// micro-kernel reading the fragments in place. The result is
/// bit-identical to the gemmBlocked reference. Blocks and C rectangles
/// are allocated uninitialised on the calling thread, which initialises
/// nothing, and each rank's rows are digested in order as they finish,
/// by the lane that finishes the first undigested one.
///
/// Three independent options are switchable per run, and all of them
/// leave the result matrix bit-identical to the serial schedule:
///  - ZeroCopy: pivot fan-out enqueues one shared payload per receiver
///    instead of deep-copying the block per destination;
///  - Overlap: step k+1's pivots are sent and their receives posted
///    before step k computes, so the transfer hides behind compute
///    (double-buffered pipeline on nonblocking receives);
///  - Threads: each simulated device is a Threads-core processor, so its
///    charged compute time is scaled by the modelled thread speedup. It
///    changes no real execution.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_APPS_MATMUL_H
#define FUPERMOD_APPS_MATMUL_H

#include "apps/MatrixPartition2D.h"
#include "mpp/Group.h"
#include "sim/Cluster.h"

#include <cstdint>
#include <vector>

namespace fupermod {

/// Parameters of one parallel matmul run.
struct MatMulOptions {
  /// Matrices are NBlocks x NBlocks blocks.
  int NBlocks = 8;
  /// Block edge b (a block is b x b doubles).
  int BlockSize = 8;
  /// Compare the product with a serial GEMM on the host (no messages).
  bool Verify = true;
  /// Share pivot payloads across receivers instead of copying per send.
  bool ZeroCopy = true;
  /// Prefetch step k+1's pivots (irecv) while step k computes.
  bool Overlap = false;
  /// GEMM threads of each simulated device: the charged compute time is
  /// divided by gemmThreadSpeedup(Threads). No rank spawns threads.
  unsigned Threads = 1;
};

/// Outcome of one parallel matmul run.
struct MatMulReport {
  /// Virtual completion time of the whole run.
  double Makespan = 0.0;
  /// Per-rank total virtual computation time.
  std::vector<double> ComputeTimes;
  /// Number of b x b blocks sent over links (per receiver; independent of
  /// ZeroCopy, which changes the copies, not the messages).
  long long BlocksCommunicated = 0;
  /// Largest per-rank virtual time spent stalled in pivot receives.
  double MaxIdleTime = 0.0;
  /// fnv1a() over the ranks' digests in rank order, each digest being
  /// fnv1aStriped() over that rank's C rectangle bytes (support/Hash.h).
  /// Equal hashes across option combinations prove bit-identical
  /// results.
  std::uint64_t ResultHash = 0;
  /// World communication counters for the whole run.
  CommStatsSnapshot Comm;
  /// Largest |parallel - serial| element difference (0 when Verify off).
  double MaxError = 0.0;
};

/// Runs the parallel multiplication on the given cluster; \p Rects (one
/// per rank) must tile the NBlocks grid.
MatMulReport runParallelMatMul(const Cluster &Platform,
                               std::span<const GridRect> Rects,
                               const MatMulOptions &Options);

} // namespace fupermod

#endif // FUPERMOD_APPS_MATMUL_H
