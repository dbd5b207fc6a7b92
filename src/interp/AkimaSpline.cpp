//===-- interp/AkimaSpline.cpp - Akima spline interpolation ---------------===//

#include "interp/AkimaSpline.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace fupermod;

AkimaSpline::AkimaSpline(std::span<const double> Xs,
                         std::span<const double> Ys, Extrapolation Policy) {
  fit(Xs, Ys, Policy);
}

void AkimaSpline::fit(std::span<const double> InXs,
                      std::span<const double> InYs, Extrapolation InPolicy) {
  assert(InXs.size() == InYs.size() && "mismatched sample lengths");
  assert(!InXs.empty() && "cannot fit an empty sample");
  assert(isStrictlyIncreasing(InXs) && "abscissae must strictly increase");
  Xs.assign(InXs.begin(), InXs.end());
  Ys.assign(InYs.begin(), InYs.end());
  Policy = InPolicy;
  computeTangents();
}

void AkimaSpline::computeTangents() {
  std::size_t N = Xs.size();
  Tangents.assign(N, 0.0);
  if (N == 1)
    return;
  if (N == 2) {
    double Slope = (Ys[1] - Ys[0]) / (Xs[1] - Xs[0]);
    Tangents[0] = Tangents[1] = Slope;
    return;
  }

  // Secant slopes with two ghost slopes at each end (Akima's boundary
  // prescription: quadratic extrapolation of the slope sequence).
  std::vector<double> M(N + 3, 0.0); // M[I+2] = slope of segment I.
  for (std::size_t I = 0; I + 1 < N; ++I)
    M[I + 2] = (Ys[I + 1] - Ys[I]) / (Xs[I + 1] - Xs[I]);
  M[1] = 2.0 * M[2] - M[3];
  M[0] = 2.0 * M[1] - M[2];
  M[N + 1] = 2.0 * M[N] - M[N - 1];
  M[N + 2] = 2.0 * M[N + 1] - M[N];

  for (std::size_t I = 0; I < N; ++I) {
    double W1 = std::fabs(M[I + 3] - M[I + 2]);
    double W2 = std::fabs(M[I + 1] - M[I]);
    if (W1 + W2 == 0.0) {
      // Locally linear data: use the average of the adjacent slopes.
      Tangents[I] = 0.5 * (M[I + 1] + M[I + 2]);
      continue;
    }
    Tangents[I] = (W1 * M[I + 1] + W2 * M[I + 2]) / (W1 + W2);
  }
}

std::size_t AkimaSpline::segmentIndex(double X) const {
  assert(Xs.size() >= 2 && "segment lookup needs two knots");
  if (X <= Xs.front())
    return 0;
  if (X >= Xs[Xs.size() - 2])
    return Xs.size() - 2;
  auto It = std::upper_bound(Xs.begin(), Xs.end(), X);
  return static_cast<std::size_t>(It - Xs.begin()) - 1;
}

double AkimaSpline::eval(double X) const {
  assert(!Xs.empty() && "interpolator not fitted");
  if (Xs.size() == 1)
    return Ys.front();
  if (X < Xs.front()) {
    if (Policy == Extrapolation::Clamp)
      return Ys.front();
    return Ys.front() + Tangents.front() * (X - Xs.front());
  }
  if (X > Xs.back()) {
    if (Policy == Extrapolation::Clamp)
      return Ys.back();
    return Ys.back() + Tangents.back() * (X - Xs.back());
  }

  std::size_t I = segmentIndex(X);
  double H = Xs[I + 1] - Xs[I];
  double T = (X - Xs[I]) / H;
  double T2 = T * T;
  double T3 = T2 * T;
  // Cubic Hermite basis.
  double H00 = 2.0 * T3 - 3.0 * T2 + 1.0;
  double H10 = T3 - 2.0 * T2 + T;
  double H01 = -2.0 * T3 + 3.0 * T2;
  double H11 = T3 - T2;
  return H00 * Ys[I] + H10 * H * Tangents[I] + H01 * Ys[I + 1] +
         H11 * H * Tangents[I + 1];
}

double AkimaSpline::derivative(double X) const {
  assert(!Xs.empty() && "interpolator not fitted");
  if (Xs.size() == 1)
    return 0.0;
  if (X < Xs.front())
    return Policy == Extrapolation::Clamp ? 0.0 : Tangents.front();
  if (X > Xs.back())
    return Policy == Extrapolation::Clamp ? 0.0 : Tangents.back();

  std::size_t I = segmentIndex(X);
  double H = Xs[I + 1] - Xs[I];
  double T = (X - Xs[I]) / H;
  double T2 = T * T;
  // Derivatives of the Hermite basis with respect to X (chain rule 1/H).
  double D00 = (6.0 * T2 - 6.0 * T) / H;
  double D10 = 3.0 * T2 - 4.0 * T + 1.0;
  double D01 = (-6.0 * T2 + 6.0 * T) / H;
  double D11 = 3.0 * T2 - 2.0 * T;
  return D00 * Ys[I] + D10 * Tangents[I] + D01 * Ys[I + 1] +
         D11 * Tangents[I + 1];
}
