//===-- core/Dynamic.h - Dynamic partitioning & balancing -------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dynamic data partitioning and dynamic load balancing (the paper's
/// `fupermod_dynamic`, `fupermod_partition_iterate` and
/// `fupermod_balance_iterate`, Section 4.4). Instead of full performance
/// models built in advance, these algorithms build *partial* estimates
/// from measurements taken at the problem sizes the partitioning itself
/// visits, converging to a balanced distribution at a fraction of the
/// model-construction cost. The balancing step that feeds application
/// iterations into a DynamicContext is engine::BalancedLoop
/// (engine/Balance.h).
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_CORE_DYNAMIC_H
#define FUPERMOD_CORE_DYNAMIC_H

#include "core/Benchmark.h"
#include "core/Partition.h"

#include <memory>
#include <string>

namespace fupermod {

class Comm;

/// Execution context of the dynamic algorithms: the partitioning
/// algorithm, one partial model per process, and the current distribution.
class DynamicContext {
public:
  /// Creates a context with empty partial models of \p ModelKind and an
  /// even starting distribution of \p Total over \p NumProcs.
  DynamicContext(Partitioner Algorithm, const std::string &ModelKind,
                 std::int64_t Total, int NumProcs);

  /// Current (most recently computed) distribution.
  const Dist &dist() const { return Current; }

  /// Partial model of one process.
  const Model &model(int Rank) const { return *Models[Rank]; }

  /// Number of processes.
  int size() const { return static_cast<int>(Models.size()); }

  /// Feeds one experimental point of process \p Rank into its partial
  /// model and recomputes the distribution with the context's algorithm.
  /// Returns the relative change between the old and new distributions,
  /// or +infinity when repartitioning was not possible yet (some model
  /// still has no successful point) so callers never mistake a skipped
  /// repartition for convergence. A point carrying
  /// PointStatus::DeviceFailed excludes the rank (see excludeRank).
  double updateAndRepartition(int Rank, Point P);

  /// Feeds one point per process (index = rank), then repartitions once.
  /// Before the updates, every active model's stored points are decayed
  /// by the staleness factor, so fresh measurements dominate after a
  /// device's behavior changes.
  double updateAllAndRepartition(std::span<const Point> PerRank);

  /// Feeds one point per process (index = rank) into the partial models
  /// without repartitioning: decays every active model by the staleness
  /// factor, applies the updates, and excludes ranks whose point carries
  /// PointStatus::DeviceFailed. Equalization policies call this on every
  /// round — monitoring is free — and pay for repartitionNow() only when
  /// a rebalance is actually requested, so the models have already
  /// tracked a drift by the time the trigger fires.
  void updateAll(std::span<const Point> PerRank);

  /// Recomputes the distribution from the current models over the active
  /// ranks. Returns the relative change between the old and new
  /// distributions, or +infinity when repartitioning was not possible
  /// (some model still has no successful point, or no rank survives).
  double repartitionNow() { return repartition(); }

  /// Sets the exponential staleness decay applied to every model's point
  /// weights per repartitioning round (1 = keep history forever, the
  /// default; smaller values make the models track regime changes like a
  /// mid-run slowdown). Must be in (0, 1].
  void setStalenessDecay(double Factor);

  /// Current staleness-decay factor.
  double stalenessDecay() const { return DecayFactor; }

  /// Removes \p Rank from partitioning: its share drops to zero and the
  /// total is redistributed over the surviving ranks from the next
  /// repartition on. Idempotent; the first reason is kept.
  void excludeRank(int Rank, std::string Reason);

  /// True when \p Rank has been excluded from partitioning.
  bool isExcluded(int Rank) const;

  /// Why \p Rank was excluded (empty for active ranks).
  const std::string &exclusionReason(int Rank) const;

  /// Number of ranks still participating in partitioning.
  int activeCount() const;

  /// Reverts the current distribution to \p Previous without touching the
  /// partial models. Used by cost-arbitrated equalization: a vetoed
  /// repartition keeps feeding measurements into the models (so later
  /// quotes stay sharp) but the running distribution must stay put.
  /// \p Previous must describe the same rank count and total as the
  /// current distribution.
  void restoreDist(const Dist &Previous);

private:
  /// Repartitions Current over the active ranks; excluded ranks receive
  /// zero units. Returns the relative change, or +infinity when no valid
  /// distribution could be produced.
  double repartition();

  Partitioner Algorithm;
  std::vector<std::unique_ptr<Model>> Models;
  /// Exclusion reason per rank; empty string = active.
  std::vector<std::string> Exclusions;
  Dist Current;
  double DecayFactor = 1.0;
};

/// One step of dynamic data partitioning, executed collectively on \p C.
///
/// Every rank benchmarks its backend at its current share (synchronised
/// measurement), the points are exchanged, all ranks update all partial
/// models identically and repartition. Returns true when the distribution
/// changed by no more than \p Eps (relative to the total) — the paper's
/// termination criterion.
bool partitionIterate(DynamicContext &Ctx, Comm &C,
                      BenchmarkBackend &Backend, const Precision &Prec,
                      double Eps);

/// Runs partitionIterate until convergence or \p MaxIterations; returns
/// the number of iterations performed.
int runDynamicPartitioning(DynamicContext &Ctx, Comm &C,
                           BenchmarkBackend &Backend, const Precision &Prec,
                           double Eps, int MaxIterations);

} // namespace fupermod

#endif // FUPERMOD_CORE_DYNAMIC_H
