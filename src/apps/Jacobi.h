//===-- apps/Jacobi.h - Jacobi method with load balancing -------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's second use case (Section 4.4, Fig. 4): the Jacobi method
/// with rows of the system distributed over heterogeneous processes and
/// redistributed at runtime by the dynamic load balancer. Each iteration:
///
///   1. every process sweeps its rows (real arithmetic; virtual cost from
///      its device profile, one computation unit = one row),
///   2. the compute duration feeds the balancing step
///      (engine::BalancedLoop), which updates the partial FPMs and, when
///      the equalization policy asks for it, repartitions,
///   3. rows of A and entries of b migrate to match the new distribution,
///   4. the updated solution fragments are allgathered.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_APPS_JACOBI_H
#define FUPERMOD_APPS_JACOBI_H

#include "core/Partition.h"
#include "equalize/Policy.h"
#include "mpp/Group.h"
#include "sim/Cluster.h"

#include <string>
#include <vector>

namespace fupermod {

/// Parameters of one Jacobi run.
struct JacobiOptions {
  /// Number of equations/unknowns.
  int N = 256;
  /// Application iteration cap.
  int MaxIterations = 30;
  /// Stop when the largest |x_new - x_old| falls below this.
  double Tolerance = 1e-10;
  /// Rebalance the row distribution at runtime (false = static even
  /// distribution, no balancing collectives at all).
  bool Balance = true;
  /// Partitioning algorithm used by the balancer.
  std::string Algorithm = "geometric";
  /// Partial-model kind used by the balancer.
  std::string ModelKind = "piecewise";
  /// Per-rebalance exponential down-weighting of old model points
  /// (1 = keep history forever). Values below 1 let the balancer track
  /// devices whose speed changes mid-run — e.g. an injected slowdown —
  /// instead of averaging the old and new regimes forever.
  double StalenessDecay = 1.0;
  /// Equalization policy deciding in which rounds the balancer
  /// repartitions (with Balance on). Left empty, the platform spec's
  /// `equalize` line applies, else every round is balanced. The
  /// "threshold" policy rebalances only when the measured imbalance
  /// warrants the redistribution cost (the threshold criterion of the
  /// paper's dynamic load balancing algorithm, ref [6]).
  equalize::EqualizeConfig Equalize;
};

/// Per-iteration record of one Jacobi run.
struct JacobiIteration {
  /// Virtual compute time of each rank during this iteration.
  std::vector<double> ComputeTimes;
  /// Rows held by each rank during this iteration.
  std::vector<std::int64_t> Rows;
  /// Largest |x_new - x_old| after the iteration.
  double Error = 0.0;
};

/// Outcome of one Jacobi run.
struct JacobiReport {
  std::vector<JacobiIteration> Iterations;
  /// Virtual completion time of the run.
  double Makespan = 0.0;
  /// True when the tolerance was reached within the iteration cap.
  bool Converged = false;
  /// Number of iterations in which the balancing policy solved for a
  /// new distribution (adopted or vetoed).
  int Rebalances = 0;
  /// Final solution vector (identical on all ranks; exposed for checks).
  std::vector<double> Solution;
  /// Infinity norm of A x - b for the returned solution.
  double Residual = 0.0;
  /// Ranks whose devices hard-failed during the run (excluded by the
  /// balancer; empty on a healthy run).
  std::vector<int> FailedRanks;
  /// Equalization-policy tallies (all zero when Balance is off).
  equalize::EqualizeStats Equalize;
  /// Communication counters of the run (redistribute/halo bytes plus the
  /// "equalize.*" named counters published by rank 0).
  CommStatsSnapshot Comm;
  /// Non-empty when the run could not start (e.g. an unknown algorithm
  /// or model-kind name); the diagnostic lists the registered names.
  std::string Error;
};

/// Runs the Jacobi method on the given simulated platform.
JacobiReport runJacobi(const Cluster &Platform, const JacobiOptions &Options);

/// Deterministic diagonally dominant test system: entry (\p Row, \p Col)
/// of A (diagonal = N, off-diagonal pseudo-random in [-0.5, 0.5]).
double jacobiMatrixEntry(int N, int Row, int Col);

/// Right-hand side entry \p Row of the test system.
double jacobiRhsEntry(int N, int Row);

} // namespace fupermod

#endif // FUPERMOD_APPS_JACOBI_H
