//===-- equalize/CostArbiter.h - Pricing candidate rebalances ---*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The economics side of the dynamic equalization subsystem: given the
/// current distribution, a candidate repartition and the monitor's
/// per-rank time window, the CostArbiter prices what adopting the
/// candidate would *cost* —
///
///  - migration: the provably minimal units the interval-overlap
///    redistribution would move (dist::minimalTransferUnits), priced in
///    bytes through the link's Hockney parameters, with the makespan hit
///    taken as the busiest single rank's send + receive volume (the
///    moves of different rank pairs overlap in the runtime);
///  - the repartition solve itself (cheap but not free — the caller
///    estimates it, e.g. from the session's repartition solve latency);
///  - halo re-setup after the ranges shift;
///
/// — against what it would *save*: the difference between the measured
/// current round time (max over the windowed per-rank times) and the
/// candidate's projected round time (per-rank EWMA rates scaled to the
/// new unit counts), amortized over a benefit horizon of future rounds.
/// A rebalance whose projected saving does not amortize its price within
/// the horizon is vetoed.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_EQUALIZE_COSTARBITER_H
#define FUPERMOD_EQUALIZE_COSTARBITER_H

#include "core/Partition.h"
#include "mpp/CostModel.h"

#include <cstdint>
#include <span>

namespace fupermod {
namespace equalize {

/// Tuning knobs of a CostArbiter.
struct ArbiterConfig {
  /// Payload bytes one computation unit carries during migration (e.g.
  /// (N + 1) * sizeof(double) for Jacobi's interleaved [A | b] rows).
  double BytesPerUnit = sizeof(double);
  /// Link parameters pricing migration traffic (per-message latency +
  /// per-byte period, the platform's intra-node link by default).
  LinkCost Link{/*Latency=*/1e-5, /*BytePeriod=*/1.0 / 1e9};
  /// Estimated cost of the repartition solve itself, per rebalance.
  double SolverSeconds = 0.0;
  /// Estimated halo re-setup cost after the ranges shift.
  double HaloSeconds = 0.0;
  /// Rounds over which a projected per-round saving may amortize the
  /// rebalance price.
  int HorizonRounds = 10;
  /// Minimum net benefit (seconds over the horizon) required to approve;
  /// 0 approves any rebalance that at least breaks even.
  double MinNetBenefit = 0.0;
  /// Minimum projected per-round saving as a fraction of the current
  /// round time, in [0, 1). On a fast network the absolute migration
  /// cost approves almost any positive saving, so without a relative
  /// floor the arbiter degenerates into every-round balancing; the floor
  /// makes it consolidate a tail of small refinements into fewer, larger
  /// moves (a vetoed candidate's improvement is not lost — the models
  /// keep learning, and a later candidate carries the accumulated gain).
  double MinRelativeSaving = 0.02;
};

/// One priced candidate rebalance.
struct RebalanceQuote {
  /// Units the minimal-move redistribution would transfer.
  std::int64_t MovedUnits = 0;
  /// MovedUnits priced into bytes (BytesPerUnit).
  unsigned long long MigrationBytes = 0;
  /// Virtual seconds of the migration: busiest rank's send + receive
  /// volume over the configured link.
  double MigrationSeconds = 0.0;
  /// Solver + halo re-setup overhead.
  double OverheadSeconds = 0.0;
  /// Measured round time under the current distribution (max windowed
  /// per-rank time over the active ranks).
  double CurrentRoundSeconds = 0.0;
  /// Projected round time under the candidate (per-rank EWMA rates
  /// scaled to the candidate's unit counts).
  double CandidateRoundSeconds = 0.0;
  /// CurrentRoundSeconds - CandidateRoundSeconds (may be negative).
  double SavingsPerRound = 0.0;
  /// SavingsPerRound * HorizonRounds - (migration + overhead).
  double NetBenefit = 0.0;
  /// True when the net benefit clears the approval bar.
  bool Approved = false;
};

/// Lifetime tallies of one arbiter, for reports and tripwires.
struct ArbiterCounters {
  std::uint64_t Quotes = 0;
  std::uint64_t Approvals = 0;
  std::uint64_t Vetoes = 0;
  /// Sum of NetBenefit over approved quotes (projected seconds saved).
  double ApprovedBenefit = 0.0;
  /// Sum of MigrationBytes over approved quotes.
  unsigned long long ApprovedBytes = 0;
};

/// Deterministic, communication-free pricing of candidate rebalances.
/// Replicated per rank like the monitor: identical inputs yield the same
/// verdict everywhere without coordination.
class CostArbiter {
public:
  explicit CostArbiter(const ArbiterConfig &Cfg);

  /// Prices adopting \p Candidate in place of \p Current. \p EwmaTimes
  /// and \p Active are the monitor's window: per-rank smoothed times and
  /// the active mask (one entry per rank; inactive ranks contribute
  /// neither rate nor round time). Updates the counters.
  RebalanceQuote quote(const Dist &Current, const Dist &Candidate,
                       std::span<const double> EwmaTimes,
                       std::span<const std::uint8_t> Active);

  const ArbiterCounters &counters() const { return Counters; }
  const ArbiterConfig &config() const { return Cfg; }

private:
  ArbiterConfig Cfg;
  ArbiterCounters Counters;
};

} // namespace equalize
} // namespace fupermod

#endif // FUPERMOD_EQUALIZE_COSTARBITER_H
