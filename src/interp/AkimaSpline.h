//===-- interp/AkimaSpline.h - Akima spline interpolation -------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Akima (1970) spline interpolation. The Akima-spline functional
/// performance model (paper Fig. 2(b), ref [15]) uses this interpolant
/// because it is C1 (the numerical partitioner needs a continuous
/// derivative) and, unlike cubic splines, does not oscillate around
/// outliers in empirical performance data.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_INTERP_AKIMASPLINE_H
#define FUPERMOD_INTERP_AKIMASPLINE_H

#include "interp/Interpolator.h"

namespace fupermod {

/// Akima sub-spline interpolant.
///
/// Each interval uses a cubic Hermite segment whose endpoint tangents are
/// the Akima weighted averages of neighbouring secant slopes; two ghost
/// points are synthesised at each boundary following Akima's original
/// prescription. Degenerates gracefully: one knot is a constant, two knots
/// a straight line.
class AkimaSpline : public Interpolator {
public:
  AkimaSpline() = default;

  /// Convenience constructor that fits immediately.
  AkimaSpline(std::span<const double> Xs, std::span<const double> Ys,
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
  /// Knot tangents computed by the Akima rule.
  const std::vector<double> &tangents() const { return Tangents; }

private:
  std::size_t segmentIndex(double X) const;
  void computeTangents();

  std::vector<double> Xs;
  std::vector<double> Ys;
  std::vector<double> Tangents;
  Extrapolation Policy = Extrapolation::Linear;
};

} // namespace fupermod

#endif // FUPERMOD_INTERP_AKIMASPLINE_H
