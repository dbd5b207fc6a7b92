//===-- apps/Stencil.h - 2D heat stencil with balancing ---------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A third data-parallel use case, from the application class the paper's
/// introduction motivates ("computer simulations, such as computational
/// fluid dynamics"): an explicit 2D Jacobi/heat stencil. Interior rows of
/// the grid are distributed over the heterogeneous devices as contiguous
/// bands; every iteration performs a halo exchange with the band
/// neighbours (point-to-point, unlike the matmul/Jacobi collectives),
/// sweeps the band with the 5-point stencil, and optionally rebalances
/// the band heights with the dynamic load balancer, migrating grid rows
/// between devices. The balancer follows the platform spec's `equalize`
/// policy, and balances every round when the spec has none.
///
/// One computation unit = one grid row of Cols cells.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_APPS_STENCIL_H
#define FUPERMOD_APPS_STENCIL_H

#include "core/Partition.h"
#include "sim/Cluster.h"

#include <string>
#include <vector>

namespace fupermod {

/// Parameters of one stencil run.
struct StencilOptions {
  /// Grid height (including the two fixed boundary rows).
  int Rows = 130;
  /// Grid width (first/last columns fixed).
  int Cols = 64;
  /// Number of sweeps.
  int Iterations = 30;
  /// Rebalance band heights at runtime (false = static even bands, no
  /// balancing collectives at all).
  bool Balance = true;
  /// Partitioning algorithm used by the balancer.
  std::string Algorithm = "geometric";
  /// Partial-model kind used by the balancer.
  std::string ModelKind = "piecewise";
};

/// Per-iteration record.
struct StencilIteration {
  /// Virtual compute time of each rank.
  std::vector<double> ComputeTimes;
  /// Interior rows held by each rank.
  std::vector<std::int64_t> Rows;
};

/// Outcome of one stencil run.
struct StencilReport {
  std::vector<StencilIteration> Iterations;
  /// Virtual completion time of the run.
  double Makespan = 0.0;
  /// Final grid, assembled on rank 0 (row-major Rows x Cols).
  std::vector<double> Grid;
  /// Largest |parallel - serial| cell difference.
  double MaxError = 0.0;
  /// Total halo rows sent between ranks.
  long long HaloRowsSent = 0;
  /// Iterations in which the balancing policy solved for a new
  /// distribution (adopted or vetoed).
  int Rebalances = 0;
  /// Non-empty when the run could not start (e.g. an unknown algorithm
  /// or model-kind name); the diagnostic lists the registered names.
  std::string Error;
};

/// Runs the stencil on the given simulated platform and verifies the
/// final grid against a serial sweep.
StencilReport runStencil(const Cluster &Platform,
                         const StencilOptions &Options);

/// Deterministic initial grid value at (\p Row, \p Col) for a grid of
/// \p Rows x \p Cols (boundary cells keep this value forever).
double stencilInitial(int Rows, int Cols, int Row, int Col);

} // namespace fupermod

#endif // FUPERMOD_APPS_STENCIL_H
