//===-- solver/RootFinding.h - Bracket-and-bisect search --------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one scalar search of the geometric partitioner (Lastovetsky and
/// Reddy's algorithm): it bisects on the common completion time tau, and
/// for each device it bisects on the size x until t(x) = tau. Both levels
/// are bracketAndBisect(): solveGeometric() on tau, Model::sizeForTime()
/// on x.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_SOLVER_ROOTFINDING_H
#define FUPERMOD_SOLVER_ROOTFINDING_H

namespace fupermod {

/// Finds where \p Below, true below some point of [0, inf) and false
/// above it, turns false. Doubles \p Hi (> 0) up to 200 times while
/// Below(Hi) holds; if it still holds, nothing brackets the crossing and
/// the last Hi is returned. Otherwise bisects [0, Hi], moving the end on
/// Below(Mid)'s side to Mid, and returns the final midpoint.
///
/// The bisection stops when the end a step would move already equals
/// Mid: (Lo, Hi) can then never change again, so the midpoint is the
/// same double that all 100 steps return. The test is on the end that
/// moves, so it holds without relying on Below(Lo) && !Below(Hi).
///
/// The predicate is a template parameter, so a nested search (a
/// predicate that runs its own search) stays inlined.
template <typename Pred> double bracketAndBisect(double Hi, Pred Below) {
  bool Bracketed = !Below(Hi);
  for (int I = 0; I < 200 && !Bracketed; ++I) {
    Hi *= 2.0;
    Bracketed = !Below(Hi);
  }
  if (!Bracketed)
    return Hi;
  double Lo = 0.0;
  for (int I = 0; I < 100; ++I) {
    double Mid = 0.5 * (Lo + Hi);
    double &End = Below(Mid) ? Lo : Hi;
    if (End == Mid)
      break;
    End = Mid;
  }
  return 0.5 * (Lo + Hi);
}

} // namespace fupermod

#endif // FUPERMOD_SOLVER_ROOTFINDING_H
