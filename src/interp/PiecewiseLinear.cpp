//===-- interp/PiecewiseLinear.cpp - Piecewise-linear interp --------------===//

#include "interp/PiecewiseLinear.h"

#include <algorithm>
#include <cassert>

using namespace fupermod;

Interpolator::~Interpolator() = default;

bool fupermod::isStrictlyIncreasing(std::span<const double> Xs) {
  for (std::size_t I = 1; I < Xs.size(); ++I)
    if (Xs[I] <= Xs[I - 1])
      return false;
  return true;
}

PiecewiseLinear::PiecewiseLinear(std::span<const double> Xs,
                                 std::span<const double> Ys,
                                 Extrapolation Policy) {
  fit(Xs, Ys, Policy);
}

void PiecewiseLinear::fit(std::span<const double> InXs,
                          std::span<const double> InYs,
                          Extrapolation InPolicy) {
  assert(InXs.size() == InYs.size() && "mismatched sample lengths");
  assert(!InXs.empty() && "cannot fit an empty sample");
  assert(isStrictlyIncreasing(InXs) && "abscissae must strictly increase");
  Xs.assign(InXs.begin(), InXs.end());
  Ys.assign(InYs.begin(), InYs.end());
  Policy = InPolicy;
}

std::size_t PiecewiseLinear::segmentIndex(double X) const {
  assert(Xs.size() >= 2 && "segment lookup needs two knots");
  if (X <= Xs.front())
    return 0;
  if (X >= Xs[Xs.size() - 2])
    return Xs.size() - 2;
  // First knot strictly greater than X; the segment starts one before it.
  auto It = std::upper_bound(Xs.begin(), Xs.end(), X);
  return static_cast<std::size_t>(It - Xs.begin()) - 1;
}

double PiecewiseLinear::eval(double X) const {
  assert(!Xs.empty() && "interpolator not fitted");
  if (Xs.size() == 1)
    return Ys.front();
  if (Policy == Extrapolation::Clamp) {
    if (X <= Xs.front())
      return Ys.front();
    if (X >= Xs.back())
      return Ys.back();
  }
  std::size_t I = segmentIndex(X);
  double Slope = (Ys[I + 1] - Ys[I]) / (Xs[I + 1] - Xs[I]);
  return Ys[I] + Slope * (X - Xs[I]);
}

double PiecewiseLinear::derivative(double X) const {
  assert(!Xs.empty() && "interpolator not fitted");
  if (Xs.size() == 1)
    return 0.0;
  if (Policy == Extrapolation::Clamp &&
      (X < Xs.front() || X > Xs.back()))
    return 0.0;
  std::size_t I = segmentIndex(X);
  return (Ys[I + 1] - Ys[I]) / (Xs[I + 1] - Xs[I]);
}
