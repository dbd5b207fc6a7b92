//===-- solver/NewtonSolver.cpp - Multidimensional Newton -----------------===//

#include "solver/NewtonSolver.h"

#include "solver/LinearAlgebra.h"

#include <cassert>
#include <cmath>

using namespace fupermod;

namespace {

/// A step no longer than this (infinity norm) ends the iteration.
constexpr double MinStep = 1e-12;
/// The line search shrinks a rejected step by this factor...
constexpr double StepShrink = 0.5;
/// ...at most this many times per iteration.
constexpr int MaxShrinks = 30;

void clampToBounds(std::vector<double> &X, const NewtonOptions &Options) {
  if (!Options.LowerBounds.empty()) {
    assert(Options.LowerBounds.size() == X.size() && "bad lower bounds");
    for (std::size_t I = 0; I < X.size(); ++I)
      X[I] = std::max(X[I], Options.LowerBounds[I]);
  }
  if (!Options.UpperBounds.empty()) {
    assert(Options.UpperBounds.size() == X.size() && "bad upper bounds");
    for (std::size_t I = 0; I < X.size(); ++I)
      X[I] = std::min(X[I], Options.UpperBounds[I]);
  }
}

void numericJacobian(const VectorFunction &F, std::span<const double> X,
                     std::span<const double> FX, std::span<double> Out) {
  std::size_t N = X.size();
  std::vector<double> XP(X.begin(), X.end());
  std::vector<double> FP(N, 0.0);
  for (std::size_t Col = 0; Col < N; ++Col) {
    double H = 1e-7 * std::max(1.0, std::fabs(X[Col]));
    double Saved = XP[Col];
    XP[Col] = Saved + H;
    F(XP, FP);
    XP[Col] = Saved;
    for (std::size_t Row = 0; Row < N; ++Row)
      Out[Row * N + Col] = (FP[Row] - FX[Row]) / H;
  }
}

} // namespace

NewtonResult fupermod::solveNewton(const VectorFunction &F,
                                   std::span<const double> X0,
                                   const NewtonOptions &Options,
                                   const JacobianFunction &Jacobian) {
  std::size_t N = X0.size();
  assert(N > 0 && "empty system");

  NewtonResult Result;
  Result.X.assign(X0.begin(), X0.end());
  clampToBounds(Result.X, Options);

  std::vector<double> FX(N, 0.0);
  std::vector<double> Jac(N * N, 0.0);
  std::vector<double> Trial(N, 0.0);
  std::vector<double> FTrial(N, 0.0);

  F(Result.X, FX);
  double ResNorm = norm2(FX);

  for (int It = 0; It < Options.MaxIterations; ++It) {
    Result.Iterations = It;
    Result.ResidualNorm = normInf(FX);
    if (Result.ResidualNorm <= Options.ResidualTolerance) {
      Result.Converged = true;
      return Result;
    }

    if (Jacobian)
      Jacobian(Result.X, Jac);
    else
      numericJacobian(F, Result.X, FX, Jac);

    // Newton step: J * Step = -F.
    std::vector<double> NegF(N);
    for (std::size_t I = 0; I < N; ++I)
      NegF[I] = -FX[I];
    auto Step = luSolve(Jac, NegF);
    if (!Step)
      return Result; // Singular Jacobian: report the best iterate.

    // Backtracking line search on the Euclidean residual norm.
    double Lambda = 1.0;
    bool Improved = false;
    for (int BT = 0; BT <= MaxShrinks; ++BT) {
      for (std::size_t I = 0; I < N; ++I)
        Trial[I] = Result.X[I] + Lambda * (*Step)[I];
      clampToBounds(Trial, Options);
      F(Trial, FTrial);
      double TrialNorm = norm2(FTrial);
      if (std::isfinite(TrialNorm) && TrialNorm < ResNorm) {
        Improved = true;
        break;
      }
      Lambda *= StepShrink;
    }
    if (!Improved)
      return Result; // Stalled: no descent direction found.

    double StepSize = 0.0;
    for (std::size_t I = 0; I < N; ++I)
      StepSize = std::max(StepSize, std::fabs(Trial[I] - Result.X[I]));
    Result.X = Trial;
    FX = FTrial;
    ResNorm = norm2(FX);
    if (StepSize <= MinStep) {
      Result.ResidualNorm = normInf(FX);
      Result.Converged = Result.ResidualNorm <= Options.ResidualTolerance ||
                         Result.ResidualNorm <= 1e-6;
      Result.Iterations = It + 1;
      return Result;
    }
  }

  Result.Iterations = Options.MaxIterations;
  Result.ResidualNorm = normInf(FX);
  Result.Converged = Result.ResidualNorm <= Options.ResidualTolerance;
  return Result;
}
