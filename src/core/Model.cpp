//===-- core/Model.cpp - Computation performance models -------------------===//

#include "core/Model.h"

#include "solver/RootFinding.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace fupermod;

Model::~Model() = default;

bool Model::sameSize(double Known, double Units) {
  return std::fabs(Known - Units) <= 1e-9 * std::max(1.0, Units);
}

void Model::update(Point P) { updateAll(std::span<const Point>(&P, 1)); }

void Model::updateAll(std::span<const Point> Ps) {
  bool Refit = false;
  for (const Point &P : Ps)
    Refit = apply(P) || Refit;
  if (Refit)
    refit();
}

bool Model::apply(const Point &P) {
  if (P.deviceFault()) {
    // Timeout / hard failure: says nothing about the size's cost and
    // must not be mistaken for infeasibility of the size.
    return false;
  }
  if (P.Reps <= 0 || !std::isfinite(P.Time)) {
    // Failed measurement: the size exceeded what the device can execute
    // (e.g. GPU memory without an out-of-core mode). Remember the
    // tightest known limit so partitioners avoid the infeasible region.
    // The fit reads only the stored points, so it stays as it is.
    if (P.Units > 0.0 && P.Units < MinInfeasible)
      MinInfeasible = P.Units;
    return false;
  }
  assert(P.Units > 0.0 && P.Time > 0.0 && "invalid experimental point");
  // A success at or above the recorded limit supersedes it (the failure
  // may have been transient or an out-of-core mode became available).
  if (P.Units >= MinInfeasible)
    MinInfeasible =
        std::nextafter(P.Units, std::numeric_limits<double>::infinity());

  // Merge with an existing point at (numerically) the same size. The
  // existing side's weight has decayed with staleness, so a fresh
  // measurement after a regime change dominates the stale mean.
  for (std::size_t I = 0; I < Points.size(); ++I) {
    Point &Existing = Points[I];
    if (sameSize(Existing.Units, P.Units)) {
      double W1 = Weights[I];
      double W2 = static_cast<double>(P.Reps);
      Existing.Time = (Existing.Time * W1 + P.Time * W2) / (W1 + W2);
      // Saturate: a hostile model file can repeat a size with counts
      // near INT_MAX.
      Existing.Reps = static_cast<int>(
          std::min<long long>(std::numeric_limits<int>::max(),
                              static_cast<long long>(Existing.Reps) + P.Reps));
      Existing.ConfidenceInterval =
          std::max(Existing.ConfidenceInterval, P.ConfidenceInterval);
      Weights[I] = W1 + W2;
      return true;
    }
  }

  auto Pos = std::lower_bound(
      Points.begin(), Points.end(), P.Units,
      [](const Point &A, double Units) { return A.Units < Units; });
  Weights.insert(Weights.begin() + (Pos - Points.begin()),
                 static_cast<double>(P.Reps));
  Points.insert(Pos, P);
  return true;
}

void Model::setWeights(std::span<const double> NewWeights) {
  assert(NewWeights.size() == Points.size() &&
         "one weight per stored point expected");
  assert(std::all_of(NewWeights.begin(), NewWeights.end(),
                     [](double W) { return W > 0.0; }) &&
         "weights must be positive");
  Weights.assign(NewWeights.begin(), NewWeights.end());
}

void Model::decayWeights(double Factor) {
  assert(Factor > 0.0 && Factor <= 1.0 && "decay factor must be in (0, 1]");
  if (Factor == 1.0 || Points.empty())
    return;
  for (double &W : Weights)
    W *= Factor;
  // Forget points whose weight has decayed away, keeping the fit anchored
  // to recent behavior. Never drop the last point: an unfitted model
  // would stall the partitioners entirely.
  const double MinKeep = 0.5;
  double MaxW = *std::max_element(Weights.begin(), Weights.end());
  if (MaxW < MinKeep)
    return; // Everything is stale; keep the data until fresh points land.
  bool Dropped = false;
  for (std::size_t I = Points.size(); I-- > 0;) {
    if (Weights[I] < MinKeep && Points.size() > 1) {
      Points.erase(Points.begin() + static_cast<std::ptrdiff_t>(I));
      Weights.erase(Weights.begin() + static_cast<std::ptrdiff_t>(I));
      Dropped = true;
    }
  }
  if (Dropped)
    refit();
}

double Model::timeAt(double X) const {
  assert(fitted() && "model has no experimental points");
  assert(X >= 0.0 && "negative problem size");
  if (X == 0.0)
    return 0.0;
  double T = timeImpl(X);
  // Guard against non-monotone interpolants dipping below zero at the
  // fringes of the data.
  return std::max(T, 1e-300);
}

double Model::speedAt(double X) const {
  assert(X > 0.0 && "speed is defined for positive sizes");
  return X / timeAt(X);
}

double Model::timeDerivative(double X) const {
  double H = 1e-4 * std::max(1.0, std::fabs(X));
  double Lo = std::max(X - H, 1e-12);
  double Hi = X + H;
  return (timeAt(Hi) - timeAt(Lo)) / (Hi - Lo);
}

double Model::sizeForTime(double T) const {
  assert(fitted() && "model has no experimental points");
  if (T <= 0.0)
    return 0.0;
  // timeAt is 0 at x = 0, so once timeAt(Hi) >= T a crossing lies in
  // [0, Hi]. A degenerate model (e.g. flat extrapolation) never gets
  // there and saturates at the last doubled Hi.
  return bracketAndBisect(std::max(1.0, Points.back().Units),
                          [&](double X) { return timeAt(X) < T; });
}

//===----------------------------------------------------------------------===//
// ConstantModel
//===----------------------------------------------------------------------===//

void ConstantModel::refit() {
  // Equal-weight mean of the observed speeds: with a single point (the
  // usual CPM construction) this is exactly that point's speed.
  double Sum = 0.0;
  for (const Point &P : Points)
    Sum += P.speed();
  Speed = Sum / static_cast<double>(Points.size());
  assert(Speed > 0.0 && "constant model needs positive speed");
}

double ConstantModel::timeImpl(double X) const { return X / Speed; }

double ConstantModel::sizeForTime(double T) const {
  return T <= 0.0 ? 0.0 : Speed * T;
}

//===----------------------------------------------------------------------===//
// PiecewiseModel
//===----------------------------------------------------------------------===//

void PiecewiseModel::refit() {
  // Coarsening (paper Fig. 2(a)): the geometric algorithm requires each
  // line through the origin of the speed plane to cut the speed function
  // at most once. In time coordinates that is exactly strict monotone
  // growth of t(x), so lift any measured time below the running maximum
  // up to it (plus a hair, to keep the inverse well defined).
  std::size_t N = Points.size();
  Xs.resize(N);
  Ts.resize(N);
  double Prev = 0.0;
  for (std::size_t I = 0; I < N; ++I) {
    Xs[I] = Points[I].Units;
    double Floor = Prev + 1e-12 * std::max(1.0, Prev);
    Ts[I] = std::max(Points[I].Time, Floor);
    Prev = Ts[I];
  }
}

double PiecewiseModel::timeImpl(double X) const {
  // Left of the first knot the speed is held constant (line through the
  // origin); right of the last knot likewise.
  if (X <= Xs.front())
    return Ts.front() * X / Xs.front();
  if (X >= Xs.back())
    return Ts.back() * X / Xs.back();
  auto It = std::upper_bound(Xs.begin(), Xs.end(), X);
  std::size_t I = static_cast<std::size_t>(It - Xs.begin()) - 1;
  double Frac = (X - Xs[I]) / (Xs[I + 1] - Xs[I]);
  return Ts[I] + Frac * (Ts[I + 1] - Ts[I]);
}

double PiecewiseModel::timeDerivative(double X) const {
  if (X <= Xs.front())
    return Ts.front() / Xs.front();
  if (X >= Xs.back())
    return Ts.back() / Xs.back();
  auto It = std::upper_bound(Xs.begin(), Xs.end(), X);
  std::size_t I = static_cast<std::size_t>(It - Xs.begin()) - 1;
  return (Ts[I + 1] - Ts[I]) / (Xs[I + 1] - Xs[I]);
}

double PiecewiseModel::sizeForTime(double T) const {
  assert(fitted() && "model has no experimental points");
  if (T <= 0.0)
    return 0.0;
  // The coarsened time function is strictly increasing: invert exactly.
  if (T <= Ts.front())
    return Xs.front() * T / Ts.front();
  if (T >= Ts.back())
    return Xs.back() * T / Ts.back();
  auto It = std::upper_bound(Ts.begin(), Ts.end(), T);
  std::size_t I = static_cast<std::size_t>(It - Ts.begin()) - 1;
  double Frac = (T - Ts[I]) / (Ts[I + 1] - Ts[I]);
  return Xs[I] + Frac * (Xs[I + 1] - Xs[I]);
}

//===----------------------------------------------------------------------===//
// LinearModel
//===----------------------------------------------------------------------===//

void LinearModel::refit() {
  std::size_t N = Points.size();
  if (N == 1) {
    // One point cannot determine two parameters: assume no overhead.
    Intercept = 0.0;
    Slope = Points[0].Time / Points[0].Units;
    return;
  }
  // Unweighted least squares for t = a + b*x.
  double SumX = 0.0, SumT = 0.0, SumXX = 0.0, SumXT = 0.0;
  for (const Point &P : Points) {
    SumX += P.Units;
    SumT += P.Time;
    SumXX += P.Units * P.Units;
    SumXT += P.Units * P.Time;
  }
  double Nd = static_cast<double>(N);
  double Det = Nd * SumXX - SumX * SumX;
  if (Det <= 0.0) {
    Intercept = 0.0;
    Slope = SumT / SumX;
    return;
  }
  Slope = (Nd * SumXT - SumX * SumT) / Det;
  Intercept = (SumT - Slope * SumX) / Nd;
  if (Slope <= 0.0) {
    // Degenerate fit (noise dominated): fall back to the line through
    // the origin so the time function stays invertible.
    Intercept = 0.0;
    Slope = SumT / SumX;
  }
}

double LinearModel::timeImpl(double X) const { return Intercept + Slope * X; }

double LinearModel::timeDerivative(double X) const {
  (void)X;
  return Slope;
}

double LinearModel::sizeForTime(double T) const {
  if (T <= Intercept)
    return 0.0;
  return (T - Intercept) / Slope;
}

//===----------------------------------------------------------------------===//
// AkimaModel
//===----------------------------------------------------------------------===//

void AkimaModel::refit() {
  // Fit the spline through the origin plus every experimental point; the
  // time of zero work is zero, which anchors the left boundary.
  std::vector<double> Xs(Points.size() + 1);
  std::vector<double> Ts(Points.size() + 1);
  Xs[0] = 0.0;
  Ts[0] = 0.0;
  for (std::size_t I = 0; I < Points.size(); ++I) {
    Xs[I + 1] = Points[I].Units;
    Ts[I + 1] = Points[I].Time;
  }
  Spline.fit(Xs, Ts, Extrapolation::Linear);
}

double AkimaModel::timeImpl(double X) const { return Spline.eval(X); }

double AkimaModel::timeDerivative(double X) const {
  assert(fitted() && "model has no experimental points");
  return Spline.derivative(std::max(X, 0.0));
}

ModelRegistry &fupermod::modelRegistry() {
  static ModelRegistry R("model kind");
  return R;
}

namespace {

// Built-in model kinds self-register next to their implementations; the
// registrars run whenever this translation unit is linked, which any use
// of modelRegistry()/makeModel() guarantees.
Registrar<ModelRegistry> RegCpm(modelRegistry(), "cpm", [] {
  return std::unique_ptr<Model>(std::make_unique<ConstantModel>());
});
Registrar<ModelRegistry> RegPiecewise(modelRegistry(), "piecewise", [] {
  return std::unique_ptr<Model>(std::make_unique<PiecewiseModel>());
});
Registrar<ModelRegistry> RegAkima(modelRegistry(), "akima", [] {
  return std::unique_ptr<Model>(std::make_unique<AkimaModel>());
});
Registrar<ModelRegistry> RegLinear(modelRegistry(), "linear", [] {
  return std::unique_ptr<Model>(std::make_unique<LinearModel>());
});

} // namespace

std::unique_ptr<Model> fupermod::makeModel(const std::string &Kind,
                                           std::string *Err) {
  return modelRegistry().create(Kind, Err);
}
