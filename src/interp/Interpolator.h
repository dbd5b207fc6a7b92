//===-- interp/Interpolator.h - Interpolation interface ---------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Common interface for 1-D interpolators of empirical (x, y) data. The
/// functional performance models (paper Section 4.2) approximate the time
/// function of a device from measured points with either piecewise-linear
/// interpolation or Akima splines; both implement this interface.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_INTERP_INTERPOLATOR_H
#define FUPERMOD_INTERP_INTERPOLATOR_H

#include <cstddef>
#include <span>
#include <vector>

namespace fupermod {

/// How an interpolator behaves outside the fitted abscissa range.
enum class Extrapolation {
  /// Hold the boundary value constant.
  Clamp,
  /// Continue the boundary segment/tangent linearly.
  Linear,
};

/// Interface for interpolating a scalar function from samples.
///
/// Implementations are fitted with strictly increasing abscissae; evaluation
/// inside the range interpolates and outside the range follows the
/// extrapolation policy supplied at fit time.
class Interpolator {
public:
  virtual ~Interpolator();

  /// Fits the interpolant to the samples (\p Xs[i], \p Ys[i]).
  ///
  /// \p Xs must be strictly increasing and non-empty, and the two spans must
  /// have equal length.
  virtual void fit(std::span<const double> Xs, std::span<const double> Ys,
                   Extrapolation Policy) = 0;

  /// Value of the interpolant at \p X.
  virtual double eval(double X) const = 0;

  /// First derivative of the interpolant at \p X. At knots, the derivative
  /// of the right-hand segment is reported (left-hand at the last knot).
  virtual double derivative(double X) const = 0;

  /// Number of knots the interpolant was fitted with.
  virtual std::size_t size() const = 0;
};

/// Returns true if \p Xs is strictly increasing.
bool isStrictlyIncreasing(std::span<const double> Xs);

} // namespace fupermod

#endif // FUPERMOD_INTERP_INTERPOLATOR_H
