//===-- perfbench/cpp/Workloads.h - The benchmark's workloads ---*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workloads and the layer probes they share. Each workload
/// generates its inputs from Args::Seed, runs a closed loop with one
/// solve in flight for Args::Seconds, checks every output, and fills a
/// RunResult with the end-to-end metrics (untraced run) or the per-layer
/// metrics (traced run). perfbench/README.md defines every metric.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"
#include "Stats.h"
#include "Trace.h"

#include "apps/MatrixPartition2D.h"
#include "blas/Gemm.h"

#include <cstddef>
#include <span>
#include <vector>

namespace fupermod::engine {
class Session;
}

namespace perfbench {

/// The Section 4.1 pipeline with the geometric algorithm on piecewise
/// models. Its traced run adds the Jacobi drift probe.
RunResult runMatmulStatic(const Args &A, Tracer &T);
/// The same pipeline with the numerical algorithm on Akima models. Its
/// traced run adds the serve-repeat and serve-churn probes.
RunResult runMatmulNumerical(const Args &A, Tracer &T);

/// Runs the paper's Section 4.4 Jacobi under drift a few times, checks
/// every solve, and adds the metrics of the layers only it reaches
/// (equalize, dist, mpp collectives) plus its own wall time and makespan
/// ratio.
void addJacobiDriftLayers(const Args &A, RunResult &R);

/// Runs the `partitioner --serve REQFILE` traffic for a few seconds,
/// warm and read-only, checks every reply, and adds the serve path's
/// metrics; every other request is traced through \p T.
void addServeRepeatLayers(const Args &A, RunResult &R, Tracer &T);

/// Runs the serve-churn traffic for a couple of seconds, checks every
/// reply, and adds the metrics of the server, reload and cold-solve paths
/// only it reaches.
void addServeChurnLayers(const Args &A, RunResult &R);

/// Floating-point operations runParallelMatMul performs on \p Rects: each
/// rank runs NBlocks packed GEMMs of (H*B x B) * (B x W*B). Over a tiling
/// of the grid this is 2 * (NBlocks * B)^3.
inline double matmulGemmFlops(std::span<const fupermod::GridRect> Rects,
                              int NBlocks, int B) {
  double Flops = 0.0;
  auto BS = static_cast<std::size_t>(B);
  for (const fupermod::GridRect &R : Rects)
    Flops += NBlocks * fupermod::gemmFlops(static_cast<std::size_t>(R.H) * BS,
                                           static_cast<std::size_t>(R.W) * BS,
                                           BS);
  return Flops;
}

/// Wall microseconds per barrier and per allgatherv of \p FragmentDoubles
/// doubles per rank, over \p Reps calls in one runSpmd at \p P ranks
/// (median of three runs).
struct CollectiveCost {
  double BarrierUs = 0.0;
  double AllgatherUs = 0.0;
};
CollectiveCost probeCollectives(int P, std::size_t FragmentDoubles, int Reps);

/// Operation latencies of a run split by whether tracing was on, plus the
/// tracing overhead they imply: (traced - untraced) / untraced medians,
/// in percent.
struct SplitLatencies {
  std::vector<double> Traced;
  std::vector<double> Untraced;
  void add(bool WasTraced, double Seconds) {
    (WasTraced ? Traced : Untraced).push_back(Seconds);
  }
  double overheadPct() const;
};

/// Model::cacheHits and Model::cacheLookups summed over a session's
/// models.
struct InverseCacheCounts {
  double Hits = 0.0;
  double Lookups = 0.0;
};
InverseCacheCounts inverseCacheCounts(fupermod::engine::Session &S);
/// Adds core.inverse_cache_hit_ratio and core.inverse_cache_lookups.
void addInverseCache(RunResult &R, const InverseCacheCounts &C);

/// Solves a run needs before its window may close: enough for a median
/// with MinTailSamples above it.
inline std::size_t minOperations() { return samplesNeededFor(50.0); }

/// Adds the end-to-end metrics every workload reports, each over the
/// whole measured window: the median of \p Latency (one entry per solve)
/// and of \p SetupTimes, the makespan ratio, the correct ratio and
/// \p PeakRssMib, read when the window closes so output checks after it
/// do not count.
void addEndToEnd(RunResult &R, const std::vector<double> &Latency,
                 double MakespanRatio, const std::vector<double> &SetupTimes,
                 double PeakRssMib);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
