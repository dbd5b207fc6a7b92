//===-- mpp/Runtime.h - SPMD runtime ----------------------------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Launches an SPMD body on N ranks (threads) sharing a world
/// communicator — the stand-in for `mpirun`.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_MPP_RUNTIME_H
#define FUPERMOD_MPP_RUNTIME_H

#include "mpp/Comm.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace fupermod {

/// How one rank of an SPMD run ended.
struct RankStatus {
  /// The rank's body returned normally.
  bool Ok = true;
  /// Diagnostic when !Ok: what() of the escaped exception (a CommError
  /// for ranks that died observing a peer's failure).
  std::string Error;
};

/// Outcome of one SPMD run.
struct SpmdResult {
  /// Final virtual time of each rank (completion times).
  std::vector<double> FinalTimes;
  /// Per-rank success/failure (parallel to FinalTimes).
  std::vector<RankStatus> Ranks;
  /// World-wide communication totals (messages, logical bytes moved,
  /// bytes physically copied) accumulated over the whole run.
  CommStatsSnapshot Comm;

  /// Largest final time — the makespan of the run.
  double makespan() const;

  /// True when every rank's body returned normally.
  bool allOk() const;

  /// Smallest rank that failed, or -1 when all ranks succeeded.
  int firstFailedRank() const;
};

/// Tuning knobs of an SPMD run. The defaults reproduce the historical
/// behaviour at small P and scale transparently to thousands of ranks.
struct SpmdOptions {
  /// Group size from which topology-aware two-level collectives engage
  /// when the cost model carries a multi-node topology
  /// (CostModel::topology()). <= 0 disables them entirely (always flat).
  int TwoLevelMinRanks = Group::DefaultTwoLevelMinRanks;
};

/// Runs \p Body on \p NumRanks ranks, each on its own thread with its own
/// virtual clock starting at zero. Blocks until every rank returns.
/// Throws std::invalid_argument when \p NumRanks <= 0. Rank threads get
/// the platform's default stack below 512 ranks and 1 MiB from 512 up,
/// so a P=2048 world reserves 2 GiB instead of the ~16 GiB of 2048
/// default 8 MiB stacks (platforms without pthreads always use the
/// default).
///
/// A body that throws does not take the process down: the escaping
/// exception poisons the world (so peers blocked in communication get a
/// CommError instead of deadlocking) and the rank is reported failed in
/// the result. A body that *catches* the CommError and returns normally
/// counts as Ok — that is the graceful-degradation path.
///
/// \p Cost models communication; when null, communication is free.
SpmdResult runSpmd(int NumRanks, const std::function<void(Comm &)> &Body,
                   std::shared_ptr<const CostModel> Cost = nullptr,
                   const SpmdOptions &Options = {});

} // namespace fupermod

#endif // FUPERMOD_MPP_RUNTIME_H
