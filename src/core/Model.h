//===-- core/Model.h - Computation performance models -----------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Computation performance models (the paper's `fupermod_model`,
/// Section 4.2). A model accumulates experimental points and approximates
/// the device's *time* function t(x); the speed function is derived as
/// s(x) = x / t(x) (units/second; multiply by the kernel's complexity per
/// unit to obtain FLOPS).
///
/// Implemented models:
///  - ConstantModel (CPM): one constant speed; needs a single point.
///  - PiecewiseModel (FPM): piecewise-linear time function, with the
///    coarsening that enforces the shape restrictions the geometric
///    partitioning algorithm requires (any line through the origin of the
///    speed plane cuts the speed function at most once, equivalently the
///    time function is strictly increasing) — Fig. 2(a).
///  - AkimaModel (FPM): Akima-spline time function; smooth, C1, no shape
///    restrictions — Fig. 2(b), input of the numerical partitioner.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_CORE_MODEL_H
#define FUPERMOD_CORE_MODEL_H

#include "core/Point.h"
#include "interp/AkimaSpline.h"
#include "support/Registry.h"

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace fupermod {

/// Base class of all computation performance models.
class Model {
public:
  virtual ~Model();

  /// Short model-kind name ("cpm", "piecewise", "akima").
  virtual const char *kind() const = 0;

  /// Adds an experimental point and refits the approximation. Points at
  /// an already-known size (see sameSize()) are merged (weight-averaged
  /// mean time, where a point's weight starts at its repetition count
  /// and decays with staleness — see decayWeights()). Points from failed
  /// measurements (Reps == 0) carry no timing but record that the size
  /// is infeasible on the device (e.g. exceeds GPU memory, paper Section
  /// 4.1) — see feasibleLimit(). Points whose Status marks a device fault
  /// (timeout or hard failure) are ignored entirely: they describe the
  /// device's health, not the size's cost, and must not shrink the
  /// feasible region. The same as updateAll() of the one point; the
  /// dynamic algorithms call it because they need the model after each
  /// point.
  void update(Point P);

  /// Adds finished points in order under update()'s merge, sort and
  /// feasibility-cap rules, then refits once. The result — points,
  /// weights, cap and fit — is bit-identical to calling update() on each
  /// point in turn, because every kind's refit reads only the stored
  /// points; a static campaign of n sizes thus costs one fit instead of
  /// n.
  void updateAll(std::span<const Point> Ps);

  /// True when a point at \p Units lands on the stored size \p Known,
  /// so update() merges the two: they differ by at most 1e-9 relative to
  /// Units (absolute below 1). Exposed so the model-file reader rejects
  /// exactly the sizes update() would merge.
  static bool sameSize(double Known, double Units);

  /// Exponentially down-weights every stored point by \p Factor in
  /// (0, 1]: a later measurement at the same size then dominates the
  /// stale mean, and points whose weight decays below a floor are
  /// dropped so the fit tracks the device's *current* behavior after a
  /// regime change (slowdown, recovery). At least one point is always
  /// retained. No-op with Factor == 1.
  void decayWeights(double Factor);

  /// Current merge weight of each stored point (parallel to points()).
  const std::vector<double> &weights() const { return Weights; }

  /// Overwrites the per-point merge weights (one per stored point, all
  /// positive). Used by model persistence to restore staleness-decay
  /// state: a reloaded model must merge future measurements exactly like
  /// the in-memory model it was saved from. Does not refit (weights only
  /// steer future merges and decay, never the current approximation).
  void setWeights(std::span<const double> NewWeights);

  /// Smallest problem size known to be infeasible on this device;
  /// +infinity when every measured size succeeded. Partitioning
  /// algorithms never allocate a device this many units or more.
  double feasibleLimit() const { return MinInfeasible; }

  /// Predicted execution time at size \p X (X >= 0). Requires at least
  /// one point.
  double timeAt(double X) const;

  /// Predicted speed (units/second) at size \p X > 0.
  double speedAt(double X) const;

  /// Derivative of the time function at \p X. The default is a central
  /// finite difference; smooth models override it analytically.
  virtual double timeDerivative(double X) const;

  /// Inverse of the time function: a size whose predicted time is \p T.
  /// For monotone models this is exact; for non-monotone models the
  /// default bracketAndBisect() over timeAt() returns one crossing. Used
  /// by the geometric partitioner (intersection of the speed function
  /// with a line through the origin at slope 1/T).
  virtual double sizeForTime(double T) const;

  /// Always 0: models keep no inverse-time cache. Kept only for
  /// perfbench's core.inverse_cache_* metrics, and removed together
  /// with them.
  std::uint64_t cacheLookups() const { return 0; }
  std::uint64_t cacheHits() const { return 0; }

  /// Experimental points, sorted by size.
  const std::vector<Point> &points() const { return Points; }

  /// True once at least one point has been accepted.
  bool fitted() const { return !Points.empty(); }

protected:
  /// Model-specific prediction; called with X > 0 and a fitted model.
  virtual double timeImpl(double X) const = 0;

  /// Model-specific refit after Points changed.
  virtual void refit() = 0;

  std::vector<Point> Points;

private:
  /// update()'s rules for one point without the refit: merges or inserts
  /// it into Points and Weights and moves MinInfeasible. Returns true
  /// when the stored points changed, so the fit must be redone.
  bool apply(const Point &P);

  /// Merge weight per point (parallel to Points); initialized to the
  /// point's repetition count and reduced by decayWeights().
  std::vector<double> Weights;
  double MinInfeasible = std::numeric_limits<double>::infinity();
};

/// Constant performance model: speed does not depend on problem size.
class ConstantModel : public Model {
public:
  const char *kind() const override { return "cpm"; }
  double sizeForTime(double T) const override;

protected:
  double timeImpl(double X) const override;
  void refit() override;

private:
  double Speed = 0.0;
};

/// Piecewise-linear functional model with monotone-time coarsening.
class PiecewiseModel : public Model {
public:
  const char *kind() const override { return "piecewise"; }
  double sizeForTime(double T) const override;
  double timeDerivative(double X) const override;

  /// The coarsened knots actually used by the approximation (sizes and
  /// adjusted times); exposed for tests and the Fig. 2(a) bench.
  const std::vector<double> &knotSizes() const { return Xs; }
  const std::vector<double> &knotTimes() const { return Ts; }

protected:
  double timeImpl(double X) const override;
  void refit() override;

private:
  std::vector<double> Xs;
  std::vector<double> Ts;
};

/// Linear time model t(x) = a + b*x (least squares), the approach of the
/// paper's ref [12] (Qilin): a fixed per-invocation overhead plus a
/// constant marginal cost per unit. Exact for GPU-like devices (staging
/// overhead + linear kernel time), wrong across cache cliffs — included
/// both as a useful model for that device class and as the comparison
/// point the paper discusses.
class LinearModel : public Model {
public:
  const char *kind() const override { return "linear"; }
  double sizeForTime(double T) const override;
  double timeDerivative(double X) const override;

  /// Fitted per-invocation overhead (seconds).
  double intercept() const { return Intercept; }
  /// Fitted marginal cost (seconds/unit).
  double slope() const { return Slope; }

protected:
  double timeImpl(double X) const override;
  void refit() override;

private:
  double Intercept = 0.0;
  double Slope = 0.0;
};

/// Akima-spline functional model.
class AkimaModel : public Model {
public:
  const char *kind() const override { return "akima"; }
  double timeDerivative(double X) const override;

protected:
  double timeImpl(double X) const override;
  void refit() override;

private:
  AkimaSpline Spline;
};

/// The model-kind registry ("cpm", "piecewise", "akima", "linear");
/// additional kinds can be registered by applications. Lookup through
/// makeModel below, or directly for name listings.
using ModelRegistry = Registry<std::unique_ptr<Model>>;
ModelRegistry &modelRegistry();

/// Factory by kind name via modelRegistry(). Returns null on unknown
/// kinds; when \p Err is non-null it then receives a diagnostic listing
/// every registered kind.
std::unique_ptr<Model> makeModel(const std::string &Kind,
                                 std::string *Err = nullptr);

} // namespace fupermod

#endif // FUPERMOD_CORE_MODEL_H
