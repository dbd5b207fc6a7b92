//===-- solver/LinearAlgebra.cpp - Small dense linear algebra -------------===//

#include "solver/LinearAlgebra.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace fupermod;

std::optional<std::vector<double>>
fupermod::luSolve(std::vector<double> A, std::span<const double> B) {
  std::size_t N = B.size();
  assert(A.size() == N * N && "matrix/vector size mismatch");
  std::vector<double> X(B.begin(), B.end());
  std::vector<std::size_t> Perm(N);
  for (std::size_t I = 0; I < N; ++I)
    Perm[I] = I;

  for (std::size_t Col = 0; Col < N; ++Col) {
    // Partial pivoting: pick the largest remaining entry in this column.
    std::size_t Pivot = Col;
    double Best = std::fabs(A[Perm[Col] * N + Col]);
    for (std::size_t Row = Col + 1; Row < N; ++Row) {
      double Cand = std::fabs(A[Perm[Row] * N + Col]);
      if (Cand > Best) {
        Best = Cand;
        Pivot = Row;
      }
    }
    if (Best < 1e-300)
      return std::nullopt;
    std::swap(Perm[Col], Perm[Pivot]);

    double Diag = A[Perm[Col] * N + Col];
    for (std::size_t Row = Col + 1; Row < N; ++Row) {
      double Factor = A[Perm[Row] * N + Col] / Diag;
      A[Perm[Row] * N + Col] = 0.0;
      if (Factor == 0.0)
        continue;
      for (std::size_t K = Col + 1; K < N; ++K)
        A[Perm[Row] * N + K] -= Factor * A[Perm[Col] * N + K];
      X[Perm[Row]] -= Factor * X[Perm[Col]];
    }
  }

  // Back substitution on the permuted upper-triangular system.
  std::vector<double> Result(N, 0.0);
  for (std::size_t I = N; I-- > 0;) {
    double Sum = X[Perm[I]];
    for (std::size_t K = I + 1; K < N; ++K)
      Sum -= A[Perm[I] * N + K] * Result[K];
    Result[I] = Sum / A[Perm[I] * N + I];
    if (!std::isfinite(Result[I]))
      return std::nullopt;
  }
  return Result;
}

double fupermod::norm2(std::span<const double> V) {
  double Sum = 0.0;
  for (double E : V)
    Sum += E * E;
  return std::sqrt(Sum);
}

double fupermod::normInf(std::span<const double> V) {
  double Max = 0.0;
  for (double E : V) {
    // std::max(Max, NaN) is Max, which would hide a NaN element.
    if (std::isnan(E))
      return std::numeric_limits<double>::quiet_NaN();
    Max = std::max(Max, std::fabs(E));
  }
  return Max;
}
