//===-- engine/Balance.cpp - Shared dynamic-balancing driver --------------===//

#include "engine/Balance.h"

#include "equalize/Policy.h"
#include "mpp/Runtime.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace fupermod;
using namespace fupermod::engine;

BalancedLoop::BalancedLoop(Partitioner Algorithm,
                           const std::string &ModelKind, std::int64_t Total,
                           int NumProcs, double StalenessDecay)
    : Ctx(std::move(Algorithm), ModelKind, Total, NumProcs) {
  Ctx.setStalenessDecay(StalenessDecay);
}

namespace {

/// One rank's contribution to the equalization gather.
struct EqualizeSample {
  double IterTime;
  double Failed; // 0 or 1 (double keeps the struct homogeneous).
};

/// Publishes the delta between two policy-stat snapshots into the world
/// counters. Rank 0 only (the replicas hold identical stats; one
/// publisher avoids double counting).
void publishStatsDelta(Comm &C, const equalize::EqualizeStats &Before,
                       const equalize::EqualizeStats &After) {
  auto Bump = [&C](const char *Key, double Delta) {
    if (Delta != 0.0)
      C.accumulateCounter(Key, Delta);
  };
  Bump("equalize.rounds",
       static_cast<double>(After.Rounds - Before.Rounds));
  Bump("equalize.triggers",
       static_cast<double>(After.Triggers - Before.Triggers));
  Bump("equalize.vetoes",
       static_cast<double>(After.Vetoes - Before.Vetoes));
  Bump("equalize.rebalances",
       static_cast<double>(After.Rebalances - Before.Rebalances));
  Bump("equalize.forced",
       static_cast<double>(After.ForcedByFailure - Before.ForcedByFailure));
  Bump("equalize.cooldown_suppressed",
       static_cast<double>(After.CooldownSuppressed -
                           Before.CooldownSuppressed));
  Bump("equalize.hysteresis_suppressed",
       static_cast<double>(After.HysteresisSuppressed -
                           Before.HysteresisSuppressed));
  Bump("equalize.migrated_bytes",
       static_cast<double>(After.MigrationBytes - Before.MigrationBytes));
  Bump("equalize.predicted_savings",
       After.PredictedSavings - Before.PredictedSavings);
}

} // namespace

bool BalancedLoop::balanceEqualized(Comm &C, double IterStart,
                                    equalize::Equalizer &Eq,
                                    bool DeviceFailed) {
  assert(Ctx.size() == C.size() && "context/communicator size mismatch");
  // Snapshot the local duration before the collective (the gather
  // synchronises the clocks, erasing the per-rank timing signal).
  EqualizeSample Mine;
  Mine.IterTime = C.time() - IterStart;
  Mine.Failed = DeviceFailed ? 1.0 : 0.0;
  std::vector<EqualizeSample> All =
      C.allgatherv(std::span<const EqualizeSample>(&Mine, 1));

  std::size_t P = All.size();
  std::vector<double> Times(P);
  std::vector<std::uint8_t> Active(P);
  bool AnyFailed = false;
  for (std::size_t R = 0; R < P; ++R) {
    Times[R] = All[R].IterTime;
    bool Failed = All[R].Failed > 0.0;
    AnyFailed = AnyFailed || Failed;
    Active[R] = (!Failed && !Ctx.isExcluded(static_cast<int>(R)) &&
                 Ctx.dist().Parts[R].Units > 0)
                    ? 1
                    : 0;
  }

  // Each rank's measurement: the iteration it just finished on its
  // current share (paper Fig. 4 usage). An empty rank still reports one
  // unit so its model gets data.
  std::vector<Point> Points(P);
  for (std::size_t R = 0; R < P; ++R) {
    Point &Pt = Points[R];
    Pt.Units = static_cast<double>(
        std::max<std::int64_t>(Ctx.dist().Parts[R].Units, 1));
    if (All[R].Failed > 0.0) {
      Pt.Reps = 0;
      Pt.Time = std::numeric_limits<double>::infinity();
      Pt.Status = PointStatus::DeviceFailed;
    } else {
      Pt.Time = Times[R];
      Pt.Reps = 1;
      if (Pt.Time <= 0.0) {
        // Degenerate timing: contribute nothing. TimedOut (a health
        // status) keeps Model::update from misreading the share as an
        // infeasible *size*.
        Pt.Reps = 0;
        Pt.Status = PointStatus::TimedOut;
      }
    }
  }
  // Models are fed on *every* round — monitoring is free, and the partial
  // models have already tracked a drift by the time a trigger fires, so
  // one repartition lands near the new optimum instead of needing a long
  // settling chain.
  Ctx.updateAll(Points);

  equalize::EqualizeStats StatsBefore = Eq.stats();
  bool Solve = Eq.shouldSolve(Times, Active, AnyFailed);
  if (!Solve) {
    Eq.noteOutcome(/*Adopted=*/false, /*ForcedByFailure=*/false);
    if (C.rank() == 0)
      publishStatsDelta(C, StatsBefore, Eq.stats());
    return false;
  }

  Dist Before = Ctx.dist();
  Ctx.repartitionNow();
  bool Moved = !Ctx.dist().sameUnits(Before);

  if (!Moved) {
    // The solver reproduced the current shares: nothing to adopt or
    // veto. The models still absorbed the measurements.
    Eq.noteOutcome(/*Adopted=*/false, /*ForcedByFailure=*/false);
  } else if (!AnyFailed && !Eq.approve(Before, Ctx.dist())) {
    // Vetoed: the models keep the fresh points (later quotes stay
    // sharp), but the running distribution must not move.
    Ctx.restoreDist(Before);
    Eq.noteOutcome(/*Adopted=*/false, /*ForcedByFailure=*/false);
  } else {
    ++DistEpoch;
    Eq.noteOutcome(/*Adopted=*/true, AnyFailed);
  }
  if (C.rank() == 0)
    publishStatsDelta(C, StatsBefore, Eq.stats());
  return true;
}
