//===-- tests/InterpTest.cpp - interp library tests -----------------------===//

#include "interp/AkimaSpline.h"
#include "interp/CubicSpline.h"
#include "interp/PiecewiseLinear.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

using namespace fupermod;

namespace {

const std::vector<double> XS = {0.0, 1.0, 2.0, 4.0, 8.0};
const std::vector<double> YS = {1.0, 3.0, 2.0, 6.0, 10.0};

} // namespace

TEST(PiecewiseLinear, PassesThroughKnots) {
  PiecewiseLinear PL(XS, YS);
  for (std::size_t I = 0; I < XS.size(); ++I)
    EXPECT_DOUBLE_EQ(PL.eval(XS[I]), YS[I]);
}

TEST(PiecewiseLinear, LinearBetweenKnots) {
  PiecewiseLinear PL(XS, YS);
  EXPECT_DOUBLE_EQ(PL.eval(0.5), 2.0);
  EXPECT_DOUBLE_EQ(PL.eval(3.0), 4.0);
  EXPECT_DOUBLE_EQ(PL.eval(6.0), 8.0);
}

TEST(PiecewiseLinear, DerivativeIsSegmentSlope) {
  PiecewiseLinear PL(XS, YS);
  EXPECT_DOUBLE_EQ(PL.derivative(0.5), 2.0);
  EXPECT_DOUBLE_EQ(PL.derivative(1.5), -1.0);
  EXPECT_DOUBLE_EQ(PL.derivative(3.0), 2.0);
  EXPECT_DOUBLE_EQ(PL.derivative(5.0), 1.0);
}

TEST(PiecewiseLinear, LinearExtrapolationContinuesEndSegments) {
  PiecewiseLinear PL(XS, YS, Extrapolation::Linear);
  EXPECT_DOUBLE_EQ(PL.eval(-1.0), -1.0); // Slope 2 through (0, 1).
  EXPECT_DOUBLE_EQ(PL.eval(10.0), 12.0); // Slope 1 through (8, 10).
}

TEST(PiecewiseLinear, ClampExtrapolationHoldsBoundaryValues) {
  PiecewiseLinear PL(XS, YS, Extrapolation::Clamp);
  EXPECT_DOUBLE_EQ(PL.eval(-5.0), 1.0);
  EXPECT_DOUBLE_EQ(PL.eval(50.0), 10.0);
  EXPECT_DOUBLE_EQ(PL.derivative(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(PL.derivative(50.0), 0.0);
}

TEST(PiecewiseLinear, SingleKnotIsConstant) {
  std::vector<double> X = {2.0}, Y = {5.0};
  PiecewiseLinear PL(X, Y);
  EXPECT_DOUBLE_EQ(PL.eval(0.0), 5.0);
  EXPECT_DOUBLE_EQ(PL.eval(100.0), 5.0);
  EXPECT_DOUBLE_EQ(PL.derivative(3.0), 0.0);
}

TEST(PiecewiseLinear, Refit) {
  PiecewiseLinear PL(XS, YS);
  std::vector<double> X2 = {0.0, 10.0}, Y2 = {0.0, 10.0};
  PL.fit(X2, Y2, Extrapolation::Linear);
  EXPECT_EQ(PL.size(), 2u);
  EXPECT_DOUBLE_EQ(PL.eval(5.0), 5.0);
}

TEST(IsStrictlyIncreasing, DetectsViolations) {
  std::vector<double> Good = {1.0, 2.0, 3.0};
  std::vector<double> Flat = {1.0, 2.0, 2.0};
  std::vector<double> Down = {1.0, 0.5};
  EXPECT_TRUE(isStrictlyIncreasing(Good));
  EXPECT_FALSE(isStrictlyIncreasing(Flat));
  EXPECT_FALSE(isStrictlyIncreasing(Down));
}

TEST(AkimaSpline, PassesThroughKnots) {
  AkimaSpline Ak(XS, YS);
  for (std::size_t I = 0; I < XS.size(); ++I)
    EXPECT_NEAR(Ak.eval(XS[I]), YS[I], 1e-12);
}

TEST(AkimaSpline, ReproducesStraightLineExactly) {
  std::vector<double> X = {0.0, 1.0, 2.5, 4.0, 7.0};
  std::vector<double> Y;
  for (double V : X)
    Y.push_back(3.0 * V - 2.0);
  AkimaSpline Ak(X, Y);
  for (double T = 0.0; T <= 7.0; T += 0.1) {
    EXPECT_NEAR(Ak.eval(T), 3.0 * T - 2.0, 1e-10);
    EXPECT_NEAR(Ak.derivative(T), 3.0, 1e-10);
  }
}

TEST(AkimaSpline, TwoKnotsDegradeToLine) {
  std::vector<double> X = {1.0, 3.0}, Y = {2.0, 8.0};
  AkimaSpline Ak(X, Y);
  EXPECT_NEAR(Ak.eval(2.0), 5.0, 1e-12);
  EXPECT_NEAR(Ak.derivative(2.0), 3.0, 1e-12);
}

TEST(AkimaSpline, SingleKnotIsConstant) {
  std::vector<double> X = {2.0}, Y = {5.0};
  AkimaSpline Ak(X, Y);
  EXPECT_DOUBLE_EQ(Ak.eval(7.0), 5.0);
}

TEST(AkimaSpline, C1ContinuityAtKnots) {
  AkimaSpline Ak(XS, YS);
  for (std::size_t I = 1; I + 1 < XS.size(); ++I) {
    double Left = Ak.derivative(XS[I] - 1e-9);
    double Right = Ak.derivative(XS[I] + 1e-9);
    EXPECT_NEAR(Left, Right, 1e-5) << "knot " << I;
  }
}

TEST(AkimaSpline, FlatRegionStaysFlat) {
  // Akima's hallmark: a locally flat stretch produces no oscillation.
  // Interior flat segments are exactly flat; the segment adjoining the
  // corner knot may wiggle slightly (the corner tangent is the average of
  // the adjacent slopes) but never by much.
  std::vector<double> X = {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  std::vector<double> Y = {1.0, 1.0, 1.0, 1.0, 3.0, 5.0, 7.0};
  AkimaSpline Ak(X, Y);
  for (double T = 0.0; T <= 2.0; T += 0.05)
    EXPECT_NEAR(Ak.eval(T), 1.0, 1e-9) << "at " << T;
  // The corner-adjacent Hermite segment (tangents 0 and 1) dips by at
  // most |min H11| = 4/27 of the slope step.
  for (double T = 2.0; T <= 3.0; T += 0.05)
    EXPECT_NEAR(Ak.eval(T), 1.0, 0.16) << "at " << T;
}

TEST(AkimaSpline, LinearExtrapolationUsesEndTangent) {
  std::vector<double> X = {0.0, 1.0, 2.0, 3.0};
  std::vector<double> Y = {0.0, 1.0, 2.0, 3.0};
  AkimaSpline Ak(X, Y, Extrapolation::Linear);
  EXPECT_NEAR(Ak.eval(5.0), 5.0, 1e-9);
  EXPECT_NEAR(Ak.eval(-2.0), -2.0, 1e-9);
}

TEST(AkimaSpline, ClampExtrapolation) {
  std::vector<double> X = {0.0, 1.0, 2.0};
  std::vector<double> Y = {0.0, 1.0, 2.0};
  AkimaSpline Ak(X, Y, Extrapolation::Clamp);
  EXPECT_DOUBLE_EQ(Ak.eval(10.0), 2.0);
  EXPECT_DOUBLE_EQ(Ak.eval(-10.0), 0.0);
  EXPECT_DOUBLE_EQ(Ak.derivative(10.0), 0.0);
}

TEST(AkimaSpline, DerivativeMatchesFiniteDifference) {
  AkimaSpline Ak(XS, YS);
  for (double T = 0.2; T < 7.8; T += 0.23) {
    double H = 1e-6;
    double FD = (Ak.eval(T + H) - Ak.eval(T - H)) / (2.0 * H);
    EXPECT_NEAR(Ak.derivative(T), FD, 1e-4) << "at " << T;
  }
}

// Interpolating a smooth function on a refined grid must reduce the error.
class AkimaConvergenceTest : public ::testing::TestWithParam<int> {};

TEST_P(AkimaConvergenceTest, ErrorShrinksWithRefinement) {
  auto F = [](double X) { return std::sin(X) + 0.3 * X; };
  auto MaxError = [&](int N) {
    std::vector<double> X, Y;
    for (int I = 0; I <= N; ++I) {
      X.push_back(6.0 * I / N);
      Y.push_back(F(X.back()));
    }
    AkimaSpline Ak(X, Y);
    double Err = 0.0;
    for (double T = 0.0; T <= 6.0; T += 0.01)
      Err = std::max(Err, std::fabs(Ak.eval(T) - F(T)));
    return Err;
  };
  int N = GetParam();
  EXPECT_LT(MaxError(2 * N), MaxError(N));
  EXPECT_LT(MaxError(4 * N), 0.02);
}

INSTANTIATE_TEST_SUITE_P(GridSizes, AkimaConvergenceTest,
                         ::testing::Values(8, 12, 16));

TEST(CubicSpline, PassesThroughKnots) {
  CubicSpline Cs(XS, YS);
  for (std::size_t I = 0; I < XS.size(); ++I)
    EXPECT_NEAR(Cs.eval(XS[I]), YS[I], 1e-12);
}

TEST(CubicSpline, ReproducesStraightLineExactly) {
  std::vector<double> X = {0.0, 1.0, 2.5, 4.0, 7.0};
  std::vector<double> Y;
  for (double V : X)
    Y.push_back(-2.0 * V + 1.0);
  CubicSpline Cs(X, Y);
  for (double T = 0.0; T <= 7.0; T += 0.1) {
    EXPECT_NEAR(Cs.eval(T), -2.0 * T + 1.0, 1e-10);
    EXPECT_NEAR(Cs.derivative(T), -2.0, 1e-10);
  }
}

TEST(CubicSpline, NaturalBoundaryConditions) {
  CubicSpline Cs(XS, YS);
  ASSERT_EQ(Cs.secondDerivatives().size(), XS.size());
  EXPECT_DOUBLE_EQ(Cs.secondDerivatives().front(), 0.0);
  EXPECT_DOUBLE_EQ(Cs.secondDerivatives().back(), 0.0);
}

TEST(CubicSpline, C2Continuity) {
  CubicSpline Cs(XS, YS);
  for (std::size_t I = 1; I + 1 < XS.size(); ++I) {
    double Left = Cs.derivative(XS[I] - 1e-9);
    double Right = Cs.derivative(XS[I] + 1e-9);
    EXPECT_NEAR(Left, Right, 1e-5) << "knot " << I;
  }
}

TEST(CubicSpline, DerivativeMatchesFiniteDifference) {
  CubicSpline Cs(XS, YS);
  for (double T = 0.2; T < 7.8; T += 0.31) {
    double H = 1e-6;
    double FD = (Cs.eval(T + H) - Cs.eval(T - H)) / (2.0 * H);
    EXPECT_NEAR(Cs.derivative(T), FD, 1e-4) << "at " << T;
  }
}

TEST(CubicSpline, InterpolatesSmoothFunctionsAccurately) {
  auto F = [](double X) { return std::cos(X) + 0.1 * X * X; };
  std::vector<double> X, Y;
  for (int I = 0; I <= 40; ++I) {
    X.push_back(6.0 * I / 40.0);
    Y.push_back(F(X.back()));
  }
  CubicSpline Cs(X, Y);
  for (double T = 0.3; T < 5.7; T += 0.07)
    EXPECT_NEAR(Cs.eval(T), F(T), 2e-4) << "at " << T;
}

TEST(CubicSpline, OscillatesMoreThanAkimaAroundOutlier) {
  // The design-choice check (paper ref [15]): a single outlier in
  // otherwise flat data makes the C2 cubic spline ring over several
  // segments, while Akima's local weights confine the disturbance.
  std::vector<double> X, Y;
  for (int I = 0; I <= 10; ++I) {
    X.push_back(static_cast<double>(I));
    Y.push_back(I == 5 ? 2.0 : 1.0);
  }
  CubicSpline Cubic(X, Y);
  AkimaSpline Akima(X, Y);
  // Measure the maximum deviation from the flat level far from the
  // outlier (segments [0,3] and [7,10]).
  double MaxCubic = 0.0, MaxAkima = 0.0;
  for (double T = 0.0; T <= 3.0; T += 0.01) {
    MaxCubic = std::max(MaxCubic, std::fabs(Cubic.eval(T) - 1.0));
    MaxAkima = std::max(MaxAkima, std::fabs(Akima.eval(T) - 1.0));
  }
  for (double T = 7.0; T <= 10.0; T += 0.01) {
    MaxCubic = std::max(MaxCubic, std::fabs(Cubic.eval(T) - 1.0));
    MaxAkima = std::max(MaxAkima, std::fabs(Akima.eval(T) - 1.0));
  }
  EXPECT_GT(MaxCubic, 5.0 * std::max(MaxAkima, 1e-12));
  EXPECT_LT(MaxAkima, 1e-9); // Akima: strictly local influence.
}
