//===-- core/Partitioners.cpp - Static partitioning algorithms ------------===//

#include "core/Partitioners.h"

#include "solver/NewtonSolver.h"
#include "solver/RootFinding.h"

#include <cassert>
#include <cmath>

using namespace fupermod;

namespace {

/// Fills predicted times of \p Out from the models and rounded units.
void fillPredictions(std::span<Model *const> Models, Dist &Out) {
  for (std::size_t I = 0; I < Out.Parts.size(); ++I) {
    Part &P = Out.Parts[I];
    P.PredictedTime =
        P.Units > 0 ? Models[I]->timeAt(static_cast<double>(P.Units)) : 0.0;
  }
}

bool modelsReady(std::span<Model *const> Models) {
  if (Models.empty())
    return false;
  for (Model *M : Models)
    if (!M || !M->fitted())
      return false;
  return true;
}

/// Per-model feasibility caps (smallest size known infeasible).
std::vector<double> feasibleCaps(std::span<Model *const> Models) {
  std::vector<double> Caps;
  Caps.reserve(Models.size());
  for (Model *M : Models)
    Caps.push_back(M->feasibleLimit());
  return Caps;
}

/// True when the devices can hold \p Total units at all under the caps.
bool capacitySufficient(std::span<const double> Caps, std::int64_t Total) {
  double Capacity = 0.0;
  for (double Cap : Caps) {
    Capacity += std::min(
        static_cast<double>(maxUnitsUnderCap(Cap)), 1e18);
    if (Capacity >= static_cast<double>(Total))
      return true;
  }
  return Capacity >= static_cast<double>(Total);
}

/// Real-valued geometric solution: the common completion time Tau with
/// sum_i min(t_i^{-1}(Tau), cap_i) = Total, returned, and the
/// corresponding shares. Shares are clipped to each device's feasibility
/// cap, so a device never receives sizes it cannot execute.
double solveGeometric(double Total, std::span<Model *const> Models,
                      std::vector<double> &Shares) {
  std::size_t P = Models.size();
  std::vector<double> Caps = feasibleCaps(Models);
  auto ShareAt = [&](std::size_t I, double T) {
    double Cap = static_cast<double>(
        std::min<std::int64_t>(maxUnitsUnderCap(Caps[I]),
                               std::int64_t(1) << 62));
    return std::min(Models[I]->sizeForTime(T), Cap);
  };
  auto SumAt = [&](double T) {
    double Sum = 0.0;
    for (std::size_t I = 0; I < P; ++I)
      Sum += ShareAt(I, T);
    return Sum;
  };

  // Tau = 0 allocates nothing; the search grows Tau until the processes
  // would absorb the whole problem. On a capacity-saturated platform it
  // never gets there, and every device takes all it can hold at the
  // last Tau (callers verified aggregate capacity, so this still covers
  // Total up to rounding).
  double Hi = Models[0]->timeAt(std::max(Total / static_cast<double>(P), 1.0));
  double Tau = bracketAndBisect(std::max(Hi, 1e-9),
                                [&](double T) { return SumAt(T) < Total; });
  Shares.resize(P);
  for (std::size_t I = 0; I < P; ++I)
    Shares[I] = ShareAt(I, Tau);
  return Tau;
}

/// Newton refinement half of the numerical partitioner: damped Newton on
/// the balance system t_i(x_i) = t_p(x_p), sum x_i = D starting from
/// \p X0. Returns true and fills \p Refined when Newton converged to a
/// sane (finite, non-negative) point; leaves \p Refined alone otherwise.
bool refineNumerical(double D, std::span<Model *const> Models,
                     std::span<const double> Caps, double TimeScale,
                     std::span<const double> X0,
                     std::vector<double> &Refined) {
  std::size_t P = Models.size();

  // Balance system: equal completion times and full coverage, scaled to
  // comparable magnitudes.
  VectorFunction F = [&](std::span<const double> X, std::span<double> R) {
    double TLast = Models[P - 1]->timeAt(std::max(X[P - 1], 0.0));
    for (std::size_t I = 0; I + 1 < P; ++I) {
      double TI = Models[I]->timeAt(std::max(X[I], 0.0));
      R[I] = (TI - TLast) / TimeScale;
    }
    double Sum = 0.0;
    for (double V : X)
      Sum += V;
    R[P - 1] = (Sum - D) / D;
  };
  JacobianFunction J = [&](std::span<const double> X, std::span<double> Jac) {
    std::fill(Jac.begin(), Jac.end(), 0.0);
    double DLast = Models[P - 1]->timeDerivative(std::max(X[P - 1], 0.0));
    for (std::size_t I = 0; I + 1 < P; ++I) {
      Jac[I * P + I] = Models[I]->timeDerivative(std::max(X[I], 0.0)) /
                       TimeScale;
      Jac[I * P + (P - 1)] = -DLast / TimeScale;
    }
    for (std::size_t Col = 0; Col < P; ++Col)
      Jac[(P - 1) * P + Col] = 1.0 / D;
  };

  NewtonOptions Options;
  Options.ResidualTolerance = 1e-10;
  Options.MaxIterations = 200;
  Options.LowerBounds.assign(P, 0.0);
  Options.UpperBounds.resize(P);
  for (std::size_t I = 0; I < P; ++I)
    Options.UpperBounds[I] = static_cast<double>(
        std::min<std::int64_t>(maxUnitsUnderCap(Caps[I]),
                               std::int64_t(1) << 62));
  NewtonResult Solved = solveNewton(F, X0, Options, J);

  bool Sane = Solved.Converged;
  for (double V : Solved.X)
    Sane = Sane && std::isfinite(V) && V >= 0.0;
  if (Sane)
    Refined = std::move(Solved.X);
  return Sane;
}

} // namespace

bool fupermod::partitionConstant(std::int64_t Total,
                                 std::span<Model *const> Models, Dist &Out) {
  if (!modelsReady(Models))
    return false;
  std::size_t P = Models.size();
  Out.Total = Total;
  Out.Parts.assign(P, Part());
  if (Total == 0)
    return true;
  std::vector<double> Caps = feasibleCaps(Models);
  if (!capacitySufficient(Caps, Total))
    return false;

  // Constant speeds, probed at the even share (exact for ConstantModel).
  double Probe =
      std::max(static_cast<double>(Total) / static_cast<double>(P), 1.0);
  std::vector<double> Speeds(P);
  double SpeedSum = 0.0;
  for (std::size_t I = 0; I < P; ++I) {
    Speeds[I] = Models[I]->speedAt(Probe);
    SpeedSum += Speeds[I];
  }
  assert(SpeedSum > 0.0 && "no process has positive speed");

  std::vector<double> Shares(P);
  for (std::size_t I = 0; I < P; ++I)
    Shares[I] = static_cast<double>(Total) * Speeds[I] / SpeedSum;
  std::vector<std::int64_t> Units = roundSharesCapped(Shares, Total, Caps);
  for (std::size_t I = 0; I < P; ++I)
    Out.Parts[I].Units = Units[I];
  fillPredictions(Models, Out);
  return true;
}

bool fupermod::partitionGeometric(std::int64_t Total,
                                  std::span<Model *const> Models, Dist &Out) {
  if (!modelsReady(Models))
    return false;
  std::size_t P = Models.size();
  Out.Total = Total;
  Out.Parts.assign(P, Part());
  if (Total == 0)
    return true;
  std::vector<double> Caps = feasibleCaps(Models);
  if (!capacitySufficient(Caps, Total))
    return false;

  std::vector<double> Shares;
  solveGeometric(static_cast<double>(Total), Models, Shares);
  std::vector<std::int64_t> Units = roundSharesCapped(Shares, Total, Caps);
  for (std::size_t I = 0; I < P; ++I)
    Out.Parts[I].Units = Units[I];
  fillPredictions(Models, Out);
  return true;
}

bool fupermod::partitionNumerical(std::int64_t Total,
                                  std::span<Model *const> Models, Dist &Out) {
  if (!modelsReady(Models))
    return false;
  std::size_t P = Models.size();
  Out.Total = Total;
  Out.Parts.assign(P, Part());
  if (Total == 0)
    return true;
  std::vector<double> Caps = feasibleCaps(Models);
  if (!capacitySufficient(Caps, Total))
    return false;
  if (P == 1) {
    Out.Parts[0].Units = Total;
    fillPredictions(Models, Out);
    return true;
  }

  // Initial guess: the geometric solution (always available through the
  // generic sizeForTime search, even on non-monotone splines).
  std::vector<double> Shares;
  double Tau = solveGeometric(static_cast<double>(Total), Models, Shares);
  double TimeScale = std::max(Tau, 1e-9);
  double D = static_cast<double>(Total);

  // Accept the Newton refinement only when it converged to a sane point;
  // otherwise keep the geometric shares (the paper's algorithms are
  // interchangeable on restricted shapes).
  std::vector<double> Refined;
  bool Sane = refineNumerical(D, Models, Caps, TimeScale, Shares, Refined);
  const std::vector<double> &Final = Sane ? Refined : Shares;

  std::vector<std::int64_t> Units = roundSharesCapped(Final, Total, Caps);
  for (std::size_t I = 0; I < P; ++I)
    Out.Parts[I].Units = Units[I];
  fillPredictions(Models, Out);
  return true;
}

PartitionerRegistry &fupermod::partitionerRegistry() {
  static PartitionerRegistry R("partitioner");
  return R;
}

namespace {
Registrar<PartitionerRegistry> RegConstant(partitionerRegistry(), "constant",
                                           [] { return partitionConstant; });
Registrar<PartitionerRegistry> RegGeometric(partitionerRegistry(), "geometric",
                                            [] { return partitionGeometric; });
Registrar<PartitionerRegistry> RegNumerical(partitionerRegistry(), "numerical",
                                            [] { return partitionNumerical; });
} // namespace

Partitioner fupermod::findPartitioner(const std::string &Name,
                                      std::string *Err) {
  return partitionerRegistry().create(Name, Err);
}
