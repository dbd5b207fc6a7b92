//===-- engine/Balance.h - Shared dynamic-balancing driver ------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine-side driver of the apps' dynamic load-balancing loop (the
/// paper's `fupermod_balance_iterate`, Section 4.4). Every round the
/// iterative applications (Jacobi, the stencil) time their iteration on
/// the current share, feed the measurements into the partial models and
/// let an equalization policy decide whether to repartition — the
/// session's policy (Session::makeEqualizer), which balances every round
/// unless configured otherwise. BalancedLoop owns the replicated dynamic
/// context and the distribution epoch that tells the apps' containers
/// when to migrate data.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_ENGINE_BALANCE_H
#define FUPERMOD_ENGINE_BALANCE_H

#include "core/Dynamic.h"

#include <cstdint>

namespace fupermod {

class Comm;

namespace equalize {
class Equalizer;
} // namespace equalize

namespace engine {

/// One application's balancing state: the dynamic context (partial
/// models + current distribution) plus the policy-gated rebalance step.
/// Each SPMD rank owns one (replicated) instance.
class BalancedLoop {
public:
  /// \p Algorithm must be non-null (obtain it via
  /// Session::makeBalancedLoop, which pre-validates the name).
  BalancedLoop(Partitioner Algorithm, const std::string &ModelKind,
               std::int64_t Total, int NumProcs,
               double StalenessDecay = 1.0);

  DynamicContext &context() { return Ctx; }
  const DynamicContext &context() const { return Ctx; }

  /// Current distribution.
  const Dist &dist() const { return Ctx.dist(); }

  /// The per-iteration balance step, collective on \p C: gathers every
  /// rank's iteration duration since \p IterStart and failure flag in
  /// one allgather, feeds them into the partial models, asks the
  /// replicated \p Eq policy (equalize::Equalizer decides *whether* this
  /// round warrants a solve), and on a trigger repartitions — then lets
  /// the policy's approve() step veto adoption (cost arbitration). A
  /// vetoed solve keeps the measurements in the partial models but
  /// restores the previous distribution, so the running data layout
  /// never moves for a non-amortizing rebalance. A device failure
  /// anywhere forces both the solve and adoption. Bumps distEpoch() only
  /// on adopted repartitions that moved units. Returns true when a solve
  /// ran (adopted or vetoed). Every rank must pass an identically
  /// configured policy instance; only rank 0 publishes the policy's
  /// statistics deltas into the world counters (Comm::accumulateCounter,
  /// "equalize.*" keys).
  bool balanceEqualized(Comm &C, double IterStart, equalize::Equalizer &Eq,
                        bool DeviceFailed = false);

  /// Distribution epoch: starts at zero and increments every time a
  /// balance step adopts a repartition that changed the per-rank unit
  /// counts (skipped, vetoed and no-op solves do not count). Data
  /// structures synchronised to an older epoch must redistribute.
  std::uint64_t distEpoch() const { return DistEpoch; }

  /// Migrates \p V (a dist::PartitionedVector or anything exposing
  /// syncedEpoch()/setSyncedEpoch()/redistribute(const Dist &)) to the
  /// current distribution iff it is synced to an older epoch — so data
  /// moves exactly when a repartition changed unit counts and never
  /// otherwise. Collective when it fires; call it at the same loop point
  /// on every rank. Returns true when a redistribution ran.
  template <typename Container> bool redistributeIfChanged(Container &V) {
    if (V.syncedEpoch() == DistEpoch)
      return false;
    V.redistribute(Ctx.dist());
    V.setSyncedEpoch(DistEpoch);
    return true;
  }

private:
  DynamicContext Ctx;
  std::uint64_t DistEpoch = 0;
};

} // namespace engine
} // namespace fupermod

#endif // FUPERMOD_ENGINE_BALANCE_H
