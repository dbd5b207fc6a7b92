//===-- interp/PiecewiseLinear.h - Piecewise-linear interp ------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Piecewise-linear interpolation of empirical data, used by the
/// piecewise-linear functional performance model (paper Fig. 2(a)).
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_INTERP_PIECEWISELINEAR_H
#define FUPERMOD_INTERP_PIECEWISELINEAR_H

#include "interp/Interpolator.h"

namespace fupermod {

/// Piecewise-linear interpolant through a set of knots.
class PiecewiseLinear : public Interpolator {
public:
  PiecewiseLinear() = default;

  /// Convenience constructor that fits immediately.
  PiecewiseLinear(std::span<const double> Xs, std::span<const double> Ys,
                  Extrapolation Policy = Extrapolation::Linear);

  void fit(std::span<const double> Xs, std::span<const double> Ys,
           Extrapolation Policy) override;
  double eval(double X) const override;
  double derivative(double X) const override;
  std::size_t size() const override { return Xs.size(); }

  /// Fitted abscissae.
  const std::vector<double> &xs() const { return Xs; }
  /// Fitted ordinates.
  const std::vector<double> &ys() const { return Ys; }

private:
  /// Index of the segment [Xs[I], Xs[I+1]] containing X (clamped to the
  /// boundary segments for out-of-range X). Requires at least two knots.
  std::size_t segmentIndex(double X) const;

  std::vector<double> Xs;
  std::vector<double> Ys;
  Extrapolation Policy = Extrapolation::Linear;
};

} // namespace fupermod

#endif // FUPERMOD_INTERP_PIECEWISELINEAR_H
