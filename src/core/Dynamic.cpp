//===-- core/Dynamic.cpp - Dynamic partitioning & balancing ---------------===//

#include "core/Dynamic.h"

#include "mpp/Comm.h"

#include <cassert>
#include <cmath>
#include <limits>

using namespace fupermod;

DynamicContext::DynamicContext(Partitioner Algorithm,
                               const std::string &ModelKind,
                               std::int64_t Total, int NumProcs)
    : Algorithm(std::move(Algorithm)) {
  assert(this->Algorithm && "null partitioning algorithm");
  assert(NumProcs > 0 && "need at least one process");
  Models.reserve(static_cast<std::size_t>(NumProcs));
  for (int I = 0; I < NumProcs; ++I)
    Models.push_back(makeModel(ModelKind));
  Exclusions.assign(static_cast<std::size_t>(NumProcs), std::string());
  Current = Dist::even(Total, NumProcs);
}

void DynamicContext::setStalenessDecay(double Factor) {
  assert(Factor > 0.0 && Factor <= 1.0 && "decay factor must be in (0, 1]");
  DecayFactor = Factor;
}

void DynamicContext::excludeRank(int Rank, std::string Reason) {
  assert(Rank >= 0 && Rank < size() && "rank out of range");
  std::string &Slot = Exclusions[static_cast<std::size_t>(Rank)];
  if (!Slot.empty())
    return;
  Slot = Reason.empty() ? std::string("excluded") : std::move(Reason);
}

bool DynamicContext::isExcluded(int Rank) const {
  assert(Rank >= 0 && Rank < size() && "rank out of range");
  return !Exclusions[static_cast<std::size_t>(Rank)].empty();
}

const std::string &DynamicContext::exclusionReason(int Rank) const {
  assert(Rank >= 0 && Rank < size() && "rank out of range");
  return Exclusions[static_cast<std::size_t>(Rank)];
}

int DynamicContext::activeCount() const {
  int N = 0;
  for (const std::string &Reason : Exclusions)
    N += Reason.empty() ? 1 : 0;
  return N;
}

void DynamicContext::restoreDist(const Dist &Previous) {
  assert(Previous.Parts.size() == Current.Parts.size() &&
         "restored distribution changes the rank count");
  assert(Previous.Total == Current.Total &&
         "restored distribution changes the problem size");
  Current = Previous;
}

double DynamicContext::repartition() {
  std::vector<Model *> Active;
  std::vector<int> ActiveRanks;
  Active.reserve(Models.size());
  for (int R = 0; R < size(); ++R)
    if (!isExcluded(R)) {
      Active.push_back(Models[static_cast<std::size_t>(R)].get());
      ActiveRanks.push_back(R);
    }
  if (Active.empty())
    // Every device is gone; nothing can absorb the workload.
    return std::numeric_limits<double>::infinity();

  Dist Sub;
  if (!Algorithm(Current.Total, Active, Sub))
    // Models not all fitted yet (or capacity unknown): keep the current
    // distribution and report "not converged".
    return std::numeric_limits<double>::infinity();

  // Map the sub-distribution over the survivors back to global ranks;
  // excluded ranks hold zero units so the survivors carry the full total.
  Dist Next;
  Next.Total = Current.Total;
  Next.Parts.assign(Models.size(), Part());
  for (std::size_t I = 0; I < ActiveRanks.size(); ++I)
    Next.Parts[static_cast<std::size_t>(ActiveRanks[I])] = Sub.Parts[I];
  double Change = Next.relativeChange(Current);
  Current = Next;
  return Change;
}

double DynamicContext::updateAndRepartition(int Rank, Point P) {
  assert(Rank >= 0 && Rank < size() && "rank out of range");
  if (P.Status == PointStatus::DeviceFailed)
    excludeRank(Rank, "device reported hard failure");
  if (!isExcluded(Rank)) {
    Model &M = *Models[static_cast<std::size_t>(Rank)];
    M.decayWeights(DecayFactor);
    M.update(P);
  }
  return repartition();
}

void DynamicContext::updateAll(std::span<const Point> PerRank) {
  assert(static_cast<int>(PerRank.size()) == size() &&
         "one point per process expected");
  for (int R = 0; R < size(); ++R) {
    if (PerRank[R].Status == PointStatus::DeviceFailed)
      excludeRank(R, "device reported hard failure");
    if (isExcluded(R))
      continue;
    Model &M = *Models[static_cast<std::size_t>(R)];
    M.decayWeights(DecayFactor);
    M.update(PerRank[R]);
  }
}

double
DynamicContext::updateAllAndRepartition(std::span<const Point> PerRank) {
  updateAll(PerRank);
  return repartition();
}

bool fupermod::partitionIterate(DynamicContext &Ctx, Comm &C,
                                BenchmarkBackend &Backend,
                                const Precision &Prec, double Eps) {
  assert(Ctx.size() == C.size() && "context/communicator size mismatch");
  // Benchmark the representative kernel at this rank's current share; a
  // rank holding nothing still measures one unit so its model gets data.
  std::int64_t MyUnits = Ctx.dist().Parts[C.rank()].Units;
  double Units = static_cast<double>(std::max<std::int64_t>(MyUnits, 1));

  // Once a measurement has failed on this device (size beyond its
  // memory), sizes between the largest known success and the smallest
  // known failure are unknown territory. Probing the midpoint instead of
  // the assigned share bisects towards the true limit, so the feasibility
  // cap converges in logarithmically many iterations instead of shrinking
  // one unit per failure.
  const Model &Mine = Ctx.model(C.rank());
  double Limit = Mine.feasibleLimit();
  if (std::isfinite(Limit)) {
    double Known = Mine.fitted() ? Mine.points().back().Units : 0.0;
    if (Units > Known) {
      double Probe =
          std::floor(0.5 * (Known + std::min(Units, Limit)));
      if (Probe <= Known)
        Probe = Known + 1.0; // One-unit gap left: test it directly.
      Units = std::max(1.0, Probe);
    }
  }

  Point Measured = runBenchmark(Backend, Units, Prec, &C);

  // Exchange points; every rank then performs the identical model update
  // and repartitioning, keeping the contexts in lockstep without a root.
  std::vector<Point> All =
      C.allgatherv(std::span<const Point>(&Measured, 1));
  double Change = Ctx.updateAllAndRepartition(All);

  // Converged only when the distribution is stable AND every rank's
  // assignment lies in its known-feasible region; a capped device whose
  // exact limit is still being bisected keeps the loop alive even though
  // the (capped) distribution no longer moves.
  const Model &MineNow = Ctx.model(C.rank());
  double NewUnits = static_cast<double>(
      std::max<std::int64_t>(Ctx.dist().Parts[C.rank()].Units, 1));
  bool Settled = true;
  if (std::isfinite(MineNow.feasibleLimit())) {
    double Known =
        MineNow.fitted() ? MineNow.points().back().Units : 0.0;
    Settled = NewUnits <= Known;
  }
  bool AllSettled =
      C.allreduceValue(Settled ? 1.0 : 0.0, ReduceOp::Min) > 0.0;
  return Change <= Eps && AllSettled;
}

int fupermod::runDynamicPartitioning(DynamicContext &Ctx, Comm &C,
                                     BenchmarkBackend &Backend,
                                     const Precision &Prec, double Eps,
                                     int MaxIterations) {
  for (int It = 1; It <= MaxIterations; ++It)
    if (partitionIterate(Ctx, C, Backend, Prec, Eps))
      return It;
  return MaxIterations;
}
