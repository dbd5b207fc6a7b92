//===-- equalize/Policy.h - Equalization policies ---------------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision layer of the dynamic equalization subsystem: an
/// Equalizer answers, each application round, whether the measured
/// iteration times should be fed into the partial models and a candidate
/// repartition solved ("should we look?"), and whether a solved
/// candidate should actually be adopted ("does it pay?"). Four policies
/// register in the equalizer registry:
///
///   off         never repartition (device failures still force one —
///               a dead rank's units must move regardless of policy);
///   every       repartition on a fixed cadence of K rounds (K = 1 is
///               the apps' historical every-round balancing);
///   threshold   open a rebalancing episode when the ImbalanceMonitor
///               triggers (EWMA-windowed imbalance over a
///               drift-adaptive baseline, with hysteresis, cooldown and
///               consecutive-breach damping), keep settling until the
///               episode converges, then go quiet;
///   arbitrated  price a candidate repartition every round with the
///               CostArbiter and adopt it only when the projected
///               makespan saving amortizes the migration + solve + halo
///               cost within the benefit horizon — converged
///               distributions quote no amortizable benefit, so the
///               policy goes quiet without an imbalance knob.
///
/// Every SPMD rank owns a replica fed identical gathered times, so all
/// replicas decide in lockstep; an Equalizer therefore performs no
/// communication of its own.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_EQUALIZE_POLICY_H
#define FUPERMOD_EQUALIZE_POLICY_H

#include "equalize/CostArbiter.h"
#include "equalize/Monitor.h"
#include "support/Registry.h"
#include "support/Result.h"

#include <memory>
#include <span>
#include <string>

namespace fupermod {

struct EqualizeSpec;

namespace equalize {

/// Full configuration of an equalization policy instance.
struct EqualizeConfig {
  /// Registered policy name; empty = not configured (a session then
  /// balances every round, see engine::Session::makeEqualizer).
  std::string Policy;
  /// Cadence of the "every" policy (1 = every round).
  int Period = 1;
  MonitorConfig Monitor;
  ArbiterConfig Arbiter;
};

/// Range-checks every knob of \p Cfg and, when the policy name is
/// non-empty, resolves it against the registry. Returns a failure naming
/// the offending knob (or listing the registered policies).
Status validateConfig(const EqualizeConfig &Cfg);

/// Converts a parsed `.cluster` `equalize` line into a policy
/// configuration (validated).
Result<EqualizeConfig> configFromSpec(const EqualizeSpec &Spec);

/// Lifetime tallies of one equalizer, for reports, SpmdResult counters
/// and the bench tripwires.
struct EqualizeStats {
  /// Rounds observed (shouldSolve calls).
  std::uint64_t Rounds = 0;
  /// Rebalance requests: monitor triggers (threshold policy) or
  /// approved quotes (arbitrated policy).
  std::uint64_t Triggers = 0;
  /// Candidates vetoed by the arbiter.
  std::uint64_t Vetoes = 0;
  /// Repartitions adopted.
  std::uint64_t Rebalances = 0;
  /// Of Rebalances: forced by a device failure, bypassing the policy.
  std::uint64_t ForcedByFailure = 0;
  /// Breach rounds swallowed by the cooldown / the hysteresis disarm.
  std::uint64_t CooldownSuppressed = 0;
  std::uint64_t HysteresisSuppressed = 0;
  /// Sum of the arbiter's projected net benefit over approved quotes.
  double PredictedSavings = 0.0;
  /// Priced migration bytes of the approved quotes.
  unsigned long long MigrationBytes = 0;
};

/// One policy instance: replicated per rank, stateful across rounds.
class Equalizer {
public:
  virtual ~Equalizer() = default;

  /// Phase 1, called once per round with the gathered per-rank iteration
  /// times, the active mask (non-excluded, non-failed, non-empty ranks)
  /// and whether any rank reported a hard device failure: should the
  /// models be updated and a candidate repartition solved this round?
  /// Base implementation counts the round and forces a solve on failure.
  virtual bool shouldSolve(std::span<const double> Times,
                           std::span<const std::uint8_t> Active,
                           bool AnyFailed);

  /// Phase 2, called after a solve produced \p Candidate: adopt it?
  /// Policies without an arbiter always adopt. Not consulted when a
  /// device failure forced the solve — the dead rank's units move
  /// regardless of cost.
  virtual bool approve(const Dist &Current, const Dist &Candidate);

  /// Outcome report from the driving loop: the solve's candidate was
  /// adopted (or the whole round resolved without a solve). Keeps the
  /// stats and the monitor's hysteresis state in step.
  virtual void noteOutcome(bool Adopted, bool ForcedByFailure);

  const EqualizeStats &stats() const { return Stats; }

  /// The policy's monitor/arbiter, when it has one (introspection).
  virtual const ImbalanceMonitor *monitor() const { return nullptr; }
  virtual const CostArbiter *arbiter() const { return nullptr; }

protected:
  EqualizeStats Stats;
};

/// The equalization-policy registry ("off", "every", "threshold",
/// "arbitrated"; factories take the full config).
using EqualizerRegistry =
    Registry<std::unique_ptr<Equalizer>, const EqualizeConfig &>;
EqualizerRegistry &equalizerRegistry();

/// Creates the policy named by \p Cfg (validated first). Fails with the
/// offending knob or the registry's unknown-name diagnostic.
Result<std::unique_ptr<Equalizer>> makeEqualizer(const EqualizeConfig &Cfg);

} // namespace equalize
} // namespace fupermod

#endif // FUPERMOD_EQUALIZE_POLICY_H
