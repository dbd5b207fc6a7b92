//===-- solver/LinearAlgebra.h - Small dense linear algebra -----*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense LU factorisation with partial pivoting, sized for the Newton
/// systems of the numerical partitioner (one unknown per process, so tens
/// of unknowns at most).
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_SOLVER_LINEARALGEBRA_H
#define FUPERMOD_SOLVER_LINEARALGEBRA_H

#include <optional>
#include <span>
#include <vector>

namespace fupermod {

/// Solves the N x N dense system A x = b.
///
/// \p A is row-major with N*N entries and is consumed by value (the
/// factorisation overwrites it). Returns std::nullopt if the matrix is
/// numerically singular.
std::optional<std::vector<double>> luSolve(std::vector<double> A,
                                           std::span<const double> B);

/// Euclidean norm of \p V.
double norm2(std::span<const double> V);

/// Infinity norm of \p V; NaN when any element of \p V is NaN.
double normInf(std::span<const double> V);

} // namespace fupermod

#endif // FUPERMOD_SOLVER_LINEARALGEBRA_H
