//===-- tests/SolverTest.cpp - solver library tests -----------------------===//

#include "solver/LinearAlgebra.h"
#include "solver/NewtonSolver.h"
#include "solver/RootFinding.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

using namespace fupermod;

TEST(LuSolve, Identity) {
  std::vector<double> A = {1, 0, 0, 0, 1, 0, 0, 0, 1};
  std::vector<double> B = {3, -1, 7};
  auto X = luSolve(A, B);
  ASSERT_TRUE(X.has_value());
  EXPECT_NEAR((*X)[0], 3.0, 1e-12);
  EXPECT_NEAR((*X)[1], -1.0, 1e-12);
  EXPECT_NEAR((*X)[2], 7.0, 1e-12);
}

TEST(LuSolve, KnownSystem) {
  // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
  std::vector<double> A = {2, 1, 1, 3};
  std::vector<double> B = {5, 10};
  auto X = luSolve(A, B);
  ASSERT_TRUE(X.has_value());
  EXPECT_NEAR((*X)[0], 1.0, 1e-12);
  EXPECT_NEAR((*X)[1], 3.0, 1e-12);
}

TEST(LuSolve, RequiresPivoting) {
  // Zero on the leading diagonal forces a row swap.
  std::vector<double> A = {0, 1, 1, 0};
  std::vector<double> B = {2, 3};
  auto X = luSolve(A, B);
  ASSERT_TRUE(X.has_value());
  EXPECT_NEAR((*X)[0], 3.0, 1e-12);
  EXPECT_NEAR((*X)[1], 2.0, 1e-12);
}

TEST(LuSolve, DetectsSingular) {
  std::vector<double> A = {1, 2, 2, 4};
  std::vector<double> B = {1, 2};
  EXPECT_FALSE(luSolve(A, B).has_value());
}

TEST(LuSolve, LargerRandomSystemRoundTrips) {
  const std::size_t N = 12;
  std::vector<double> A(N * N);
  std::vector<double> XTrue(N);
  for (std::size_t I = 0; I < N; ++I) {
    XTrue[I] = static_cast<double>(I) - 5.0;
    for (std::size_t J = 0; J < N; ++J)
      A[I * N + J] = std::sin(static_cast<double>(I * 31 + J * 7)) +
                     (I == J ? static_cast<double>(N) : 0.0);
  }
  std::vector<double> B(N, 0.0);
  for (std::size_t I = 0; I < N; ++I)
    for (std::size_t J = 0; J < N; ++J)
      B[I] += A[I * N + J] * XTrue[J];
  auto X = luSolve(A, B);
  ASSERT_TRUE(X.has_value());
  for (std::size_t I = 0; I < N; ++I)
    EXPECT_NEAR((*X)[I], XTrue[I], 1e-9);
}

TEST(Norms, KnownValues) {
  std::vector<double> V = {3.0, -4.0};
  EXPECT_DOUBLE_EQ(norm2(V), 5.0);
  EXPECT_DOUBLE_EQ(normInf(V), 4.0);
}

TEST(Norms, NaNElementMakesTheNormNaN) {
  // std::max(Max, NaN) keeps Max, so a plain fold would read 2 and 0.
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> Mixed = {1.0, NaN, 2.0};
  std::vector<double> Only = {NaN};
  EXPECT_TRUE(std::isnan(normInf(Mixed)));
  EXPECT_TRUE(std::isnan(normInf(Only)));
}

/// bracketAndBisect without the fixed-point exit: all 100 steps.
template <typename Pred> double fullBisection(double Hi, Pred Below) {
  for (int I = 0; I < 200 && Below(Hi); ++I)
    Hi *= 2.0;
  if (Below(Hi))
    return Hi;
  double Lo = 0.0;
  for (int I = 0; I < 100; ++I) {
    double Mid = 0.5 * (Lo + Hi);
    (Below(Mid) ? Lo : Hi) = Mid;
  }
  return 0.5 * (Lo + Hi);
}

TEST(BracketAndBisect, FindsSqrtTwoAtItsFixedPoint) {
  int Evals = 0;
  auto Below = [&](double X) {
    ++Evals;
    return X * X < 2.0;
  };
  double R = bracketAndBisect(1e-3, Below);
  EXPECT_DOUBLE_EQ(R, std::sqrt(2.0));
  // Eleven doublings reach 2.048; the bisection then stops once the
  // bracket is two adjacent doubles, long before its 100 steps.
  EXPECT_LT(Evals, 12 + 60);
  EXPECT_EQ(R, fullBisection(1e-3, [](double X) { return X * X < 2.0; }));
}

TEST(BracketAndBisect, SameDoubleAsTheFullLoop) {
  for (double Target : {1e-9, 0.3, 1.0, 7.25, 1e6, 1e15}) {
    auto Below = [Target](double X) { return std::cbrt(X) < Target; };
    EXPECT_EQ(bracketAndBisect(1.0, Below), fullBisection(1.0, Below))
        << "target " << Target;
  }
}

TEST(BracketAndBisect, TestsHiAfterTheLastDoubling) {
  // Nothing brackets a predicate that always holds: the last Hi is 2^200.
  EXPECT_EQ(bracketAndBisect(1.0, [](double) { return true; }), 0x1p200);
  // Only the test after the 200th doubling brackets a crossing between
  // 2^199 and 2^200.
  EXPECT_DOUBLE_EQ(
      bracketAndBisect(1.0, [](double X) { return X < 0x1.8p199; }),
      0x1.8p199);
}

TEST(Newton, ScalarSquareRoot) {
  VectorFunction F = [](std::span<const double> X, std::span<double> R) {
    R[0] = X[0] * X[0] - 9.0;
  };
  std::vector<double> X0 = {1.0};
  NewtonResult Res = solveNewton(F, X0);
  EXPECT_TRUE(Res.Converged);
  EXPECT_NEAR(Res.X[0], 3.0, 1e-8);
}

TEST(Newton, TwoDimensionalSystem) {
  // x^2 + y^2 = 25, x - y = 1  ->  (4, 3) from a nearby start.
  VectorFunction F = [](std::span<const double> X, std::span<double> R) {
    R[0] = X[0] * X[0] + X[1] * X[1] - 25.0;
    R[1] = X[0] - X[1] - 1.0;
  };
  std::vector<double> X0 = {5.0, 2.0};
  NewtonResult Res = solveNewton(F, X0);
  EXPECT_TRUE(Res.Converged);
  EXPECT_NEAR(Res.X[0], 4.0, 1e-7);
  EXPECT_NEAR(Res.X[1], 3.0, 1e-7);
}

TEST(Newton, AnalyticJacobianMatchesNumeric) {
  VectorFunction F = [](std::span<const double> X, std::span<double> R) {
    R[0] = std::exp(X[0]) - 2.0;
    R[1] = X[0] + X[1] * X[1] - 2.0;
  };
  JacobianFunction J = [](std::span<const double> X, std::span<double> Out) {
    Out[0] = std::exp(X[0]);
    Out[1] = 0.0;
    Out[2] = 1.0;
    Out[3] = 2.0 * X[1];
  };
  std::vector<double> X0 = {0.0, 1.0};
  NewtonResult A = solveNewton(F, X0);
  NewtonResult B = solveNewton(F, X0, NewtonOptions(), J);
  EXPECT_TRUE(A.Converged);
  EXPECT_TRUE(B.Converged);
  EXPECT_NEAR(A.X[0], B.X[0], 1e-7);
  EXPECT_NEAR(A.X[1], B.X[1], 1e-6);
}

TEST(Newton, RespectsLowerBounds) {
  // Root at x = -2 excluded by the bound; solver must stay >= 0 and
  // report non-convergence rather than walking out of the box.
  VectorFunction F = [](std::span<const double> X, std::span<double> R) {
    R[0] = X[0] + 2.0;
  };
  NewtonOptions Opt;
  Opt.LowerBounds = {0.0};
  Opt.MaxIterations = 20;
  std::vector<double> X0 = {5.0};
  NewtonResult Res = solveNewton(F, X0, Opt);
  EXPECT_FALSE(Res.Converged);
  EXPECT_GE(Res.X[0], 0.0);
}

TEST(Newton, ReportsStallOnSingularJacobian) {
  VectorFunction F = [](std::span<const double> X, std::span<double> R) {
    (void)X;
    R[0] = 1.0; // Constant residual: no root, zero Jacobian.
  };
  std::vector<double> X0 = {0.0};
  NewtonResult Res = solveNewton(F, X0);
  EXPECT_FALSE(Res.Converged);
}

TEST(Newton, NaNResidualNeverConverges) {
  VectorFunction F = [](std::span<const double> X, std::span<double> R) {
    (void)X;
    R[0] = std::numeric_limits<double>::quiet_NaN();
  };
  std::vector<double> X0 = {1.0};
  NewtonResult Res = solveNewton(F, X0);
  EXPECT_FALSE(Res.Converged);
  EXPECT_TRUE(std::isnan(Res.ResidualNorm));
}

TEST(Newton, AlreadyConvergedAtStart) {
  VectorFunction F = [](std::span<const double> X, std::span<double> R) {
    R[0] = X[0] - 1.0;
  };
  std::vector<double> X0 = {1.0};
  NewtonResult Res = solveNewton(F, X0);
  EXPECT_TRUE(Res.Converged);
  EXPECT_EQ(Res.Iterations, 0);
}

// Property: Newton solves diagonal quadratic systems of any size.
class NewtonSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(NewtonSizeTest, DiagonalQuadratics) {
  std::size_t N = static_cast<std::size_t>(GetParam());
  VectorFunction F = [N](std::span<const double> X, std::span<double> R) {
    for (std::size_t I = 0; I < N; ++I) {
      double Target = static_cast<double>(I + 1);
      R[I] = X[I] * X[I] - Target * Target;
    }
  };
  std::vector<double> X0(N, 0.5);
  NewtonOptions Opt;
  Opt.MaxIterations = 200;
  NewtonResult Res = solveNewton(F, X0, Opt);
  EXPECT_TRUE(Res.Converged);
  for (std::size_t I = 0; I < N; ++I)
    EXPECT_NEAR(Res.X[I], static_cast<double>(I + 1), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, NewtonSizeTest,
                         ::testing::Values(1, 2, 4, 8, 16));
