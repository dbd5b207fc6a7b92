//===-- solver/NewtonSolver.h - Multidimensional Newton ---------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Damped Newton iteration for systems of non-linear equations. This is the
/// "multidimensional solver" the numerical data partitioning algorithm
/// applies to the balance equations (paper Section 4.3, ref [15], which
/// used GSL's multiroot solvers).
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_SOLVER_NEWTONSOLVER_H
#define FUPERMOD_SOLVER_NEWTONSOLVER_H

#include <functional>
#include <span>
#include <vector>

namespace fupermod {

/// Evaluates the residual F(X) into \p Out (same length as \p X).
using VectorFunction =
    std::function<void(std::span<const double> X, std::span<double> Out)>;

/// Evaluates the Jacobian dF/dX at \p X into the row-major \p Out
/// (length N*N).
using JacobianFunction =
    std::function<void(std::span<const double> X, std::span<double> Out)>;

/// Options for solveNewton().
struct NewtonOptions {
  /// Stop when the infinity norm of the residual drops below this.
  double ResidualTolerance = 1e-9;
  /// Iteration cap.
  int MaxIterations = 100;
  /// Optional elementwise lower bounds (empty = unbounded).
  std::vector<double> LowerBounds;
  /// Optional elementwise upper bounds (empty = unbounded).
  std::vector<double> UpperBounds;
};

/// Result of solveNewton().
struct NewtonResult {
  /// Final iterate.
  std::vector<double> X;
  /// True when the residual tolerance was met.
  bool Converged = false;
  /// Iterations actually performed.
  int Iterations = 0;
  /// Infinity norm of the final residual.
  double ResidualNorm = 0.0;
};

/// Solves F(X) = 0 starting from \p X0 with damped Newton iteration.
///
/// When \p Jacobian is null, a forward-difference Jacobian is used. Each
/// Newton step is halved (at most 30 times) until the Euclidean residual
/// norm decreases; iterates are clamped to the option bounds. A step no
/// longer than 1e-12 ends the iteration. The solver never throws; on
/// stall it reports Converged = false with the best iterate found. A NaN
/// residual never counts as converged.
NewtonResult solveNewton(const VectorFunction &F, std::span<const double> X0,
                         const NewtonOptions &Options = NewtonOptions(),
                         const JacobianFunction &Jacobian = nullptr);

} // namespace fupermod

#endif // FUPERMOD_SOLVER_NEWTONSOLVER_H
