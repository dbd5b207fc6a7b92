//===-- perfbench/cpp/Stats.h - Sample summaries ----------------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Order statistics of the benchmark's samples:
///
///  - median: the middle sample, or the mean of the two middle samples;
///  - percentile: nearest rank, the smallest sample with at least P% of
///    the samples at or below it (rank ceil(P/100 * n), 1-based);
///  - quartiles: Python's statistics.quantiles(data, n=4) with its
///    default 'exclusive' method, so spreads computed here and by the
///    steadiness script over the same values agree digit for digit.
///
/// A percentile is reported only when at least MinTailSamples samples lie
/// strictly above its rank; below that, the value is one or two outliers
/// and says nothing about the tail.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples a percentile needs above its rank before it is reported.
inline constexpr std::size_t MinTailSamples = 10;

/// 1-based nearest rank of percentile \p P (0 < P <= 100) among \p N
/// samples.
inline std::size_t percentileRank(double P, std::size_t N) {
  auto Rank = static_cast<std::size_t>(std::ceil(P / 100.0 * N - 1e-9));
  return std::clamp<std::size_t>(Rank, 1, N);
}

/// True when percentile \p P of \p N samples has at least MinTailSamples
/// samples above it.
inline bool percentileReportable(double P, std::size_t N) {
  return N > 0 && N - percentileRank(P, N) >= MinTailSamples;
}

/// Smallest \p N for which percentile \p P is reportable.
inline std::size_t samplesNeededFor(double P) {
  std::size_t N = 1;
  while (!percentileReportable(P, N))
    ++N;
  return N;
}

/// Nearest-rank percentile of \p Values (unsorted; 0 when empty).
inline double percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  return Values[percentileRank(P, Values.size()) - 1];
}

/// Median of \p Values (unsorted; 0 when empty).
inline double median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  std::size_t N = Values.size();
  return N % 2 ? Values[N / 2] : 0.5 * (Values[N / 2 - 1] + Values[N / 2]);
}

/// First, second and third quartile, as statistics.quantiles(data, n=4)
/// computes them: position i * (n + 1) / 4 in the sorted data, clamped to
/// the interior and linearly interpolated. Needs at least two samples.
inline std::array<double, 3> quartiles(std::vector<double> Values) {
  std::array<double, 3> Out{};
  std::size_t N = Values.size();
  if (N < 2)
    return Out;
  std::sort(Values.begin(), Values.end());
  std::size_t M = N + 1;
  for (std::size_t I = 1; I <= 3; ++I) {
    std::size_t J = std::clamp<std::size_t>(I * M / 4, 1, N - 1);
    double Delta = static_cast<double>(I * M) - static_cast<double>(J * 4);
    Out[I - 1] = (Values[J - 1] * (4.0 - Delta) + Values[J] * Delta) / 4.0;
  }
  return Out;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
