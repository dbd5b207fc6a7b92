//===-- core/Benchmark.h - Performance measurement --------------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statistically reliable performance measurement (the paper's
/// `fupermod_benchmark`, Section 4.1). A benchmark repeats a timed kernel
/// execution until the Student-t confidence interval around the mean is
/// tight enough (or a repetition/time cap is hit) and returns a Point.
///
/// Two backends:
///  - NativeKernelBackend: really executes a Kernel and measures wall
///    clock (for model building on the host machine);
///  - SimDeviceBackend: draws a noisy sample from a simulated device and
///    (when attached to a communicator) advances the rank's virtual clock,
///    so benchmarking costs simulated time just like on a real platform.
///
/// Passing a Comm synchronises every repetition across the processes that
/// share resources — the paper's `comm_sync`, which maximises memory
/// traffic during measurement on multicore nodes.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_CORE_BENCHMARK_H
#define FUPERMOD_CORE_BENCHMARK_H

#include "core/Kernel.h"
#include "core/Model.h"
#include "core/Point.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"

#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace fupermod {

class Comm;
class SimDevice;
struct Cluster;

/// Statistical parameters of a measurement (the paper's
/// `fupermod_precision`).
struct Precision {
  /// Minimum repetitions before the confidence test may stop the run.
  int MinReps = 3;
  /// Hard cap on repetitions.
  int MaxReps = 30;
  /// Target relative half-width of the confidence interval.
  double TargetRelativeError = 0.025;
  /// Confidence level of the interval.
  ConfidenceLevel Level = ConfidenceLevel::CL95;
  /// Stop repeating once this much measurement time has accumulated.
  double TimeLimit = std::numeric_limits<double>::infinity();
  /// Drop repetitions further than 3.5 scaled MADs from the median
  /// before computing the final mean/interval — robust against the
  /// occasional scheduler hiccup on real machines.
  bool RejectOutliers = false;
  /// A single repetition taking longer than this is treated as hung.
  /// The default (infinity) preserves the historical wait-forever
  /// behavior.
  double RepTimeout = std::numeric_limits<double>::infinity();
  /// How many times a hung/failed repetition is retried before the whole
  /// measurement is abandoned as a failed Point.
  int MaxRetries = 2;
  /// Seconds to wait before the first retry; doubles on each subsequent
  /// retry. 0 retries immediately.
  double RetryBackoff = 0.0;
};

/// The outcome of one guarded repetition (see runOnceChecked).
struct RunOutcome {
  /// Elapsed seconds as far as the caller can observe; for a timed-out
  /// repetition this is capped at the timeout the caller waited.
  double Seconds = 0.0;
  /// The repetition exceeded the per-repetition timeout.
  bool TimedOut = false;
  /// The backend reported hard device failure; Seconds is meaningless.
  bool Failed = false;
};

/// How a single timed repetition is obtained.
class BenchmarkBackend {
public:
  virtual ~BenchmarkBackend();

  /// Prepares the execution context for \p Units; returns false when the
  /// size cannot be executed on this device (e.g. exceeds memory).
  virtual bool prepare(double Units) = 0;

  /// Runs the kernel once and returns the elapsed time in seconds.
  virtual double runOnce() = 0;

  /// Runs the kernel once under a hang guard. The default implementation
  /// cannot preempt runOnce, so it flags the timeout post-hoc (the
  /// repetition still blocks, but the sample is discarded and the run
  /// can be abandoned). Backends with interruptible execution — like the
  /// simulator — override this to stop waiting at \p Timeout.
  virtual RunOutcome runOnceChecked(double Timeout);

  /// Waits \p Seconds before a retry. The default sleeps nothing (retry
  /// immediately); clocked backends advance virtual time instead.
  virtual void backoffWait(double Seconds) { (void)Seconds; }

  /// Releases the execution context.
  virtual void teardown() {}
};

/// Executes a real Kernel and measures wall-clock time.
class NativeKernelBackend : public BenchmarkBackend {
public:
  explicit NativeKernelBackend(Kernel &K) : K(K) {}

  bool prepare(double Units) override;
  double runOnce() override;
  void teardown() override;

private:
  Kernel &K;
};

/// Samples execution times from a simulated device. When a communicator
/// is attached, each repetition advances the rank's virtual clock by the
/// sampled time, so model construction has a visible cost in experiments.
class SimDeviceBackend : public BenchmarkBackend {
public:
  explicit SimDeviceBackend(SimDevice &Device, Comm *Clocked = nullptr)
      : Device(Device), Clocked(Clocked) {}

  bool prepare(double Units) override;
  double runOnce() override;
  RunOutcome runOnceChecked(double Timeout) override;
  void backoffWait(double Seconds) override;

  /// Re-points the virtual-clock target (e.g. after a split).
  void attachComm(Comm *C) { Clocked = C; }

  /// Makes simulated measurements cost real wall time: each repetition
  /// blocks the calling thread for Scale * sampled seconds, the way a
  /// host thread blocks while its device executes a kernel. Sampled
  /// values (and thus Points) are unaffected, so throughput benches can
  /// exercise the parallel build path with realistic wall-clock cost
  /// while remaining bit-deterministic. 0 (the default) disables it.
  void emulateWallTime(double Scale) { WallScale = Scale; }

private:
  SimDevice &Device;
  Comm *Clocked;
  double Units = 0.0;
  double WallScale = 0.0;
};

/// Measures \p Backend at problem size \p Units under the given precision.
///
/// When \p Sync is non-null, all ranks of that communicator barrier before
/// every repetition (synchronous measurement on shared resources). Returns
/// a Point with Reps = 0 when the backend cannot execute the size
/// (Status = Infeasible) or when hangs/failures exhaust the retry budget
/// before MinReps good samples accumulate (Status = TimedOut /
/// DeviceFailed). A failing rank still joins every collective, so
/// synchronous measurement never deadlocks on a sick device.
Point runBenchmark(BenchmarkBackend &Backend, double Units,
                   const Precision &Prec, Comm *Sync = nullptr);

/// How to build one performance model per device of a cluster (the
/// builder tool's measurement campaign, paper Section 4.1 + 4.2).
struct ModelBuildPlan {
  /// Model kind per rank ("cpm", "piecewise", "akima", "linear").
  std::string Kind = "piecewise";
  /// Smallest and largest benchmarked problem size.
  double MinSize = 32.0;
  double MaxSize = 1024.0;
  /// Number of sizes, spread evenly over [MinSize, MaxSize].
  int NumPoints = 10;
  /// Statistical stopping rule of every measurement.
  Precision Prec;
  /// Devices benchmarked at once. 1 runs the ranks inline in order (the
  /// serial reference path). The default, hostLanes(), runs them on the
  /// process-wide hostPool(); a larger value gets a pool of its own for
  /// the call (only worth it when repetitions block, see WallScale).
  int Jobs = static_cast<int>(hostLanes());
  /// Wall-time emulation scale forwarded to every SimDeviceBackend (see
  /// SimDeviceBackend::emulateWallTime); 0 disables.
  double WallScale = 0.0;
};

/// One rank's build outcome: the fitted model plus the raw measured
/// points in benchmark order (kept separately because failed points are
/// filtered or merged by Model::updateAll, and the determinism tests
/// compare the raw sequences bit-for-bit).
struct BuiltModel {
  std::unique_ptr<Model> M;
  std::vector<Point> Raw;
};

/// Benchmarks every device of \p Cl and fits one model per rank, once,
/// from the rank's finished point list (Model::updateAll).
///
/// Each rank's device, repetition loop, fault guards and Student-t
/// stopping rule run independently; devices carry per-rank RNG streams
/// (Cluster::Seed + rank), so the resulting Point sets and models are
/// bit-identical for any Plan.Jobs, including 1. Up to Plan.Jobs ranks
/// run at once through parallelFor, on hostPool() unless Jobs exceeds
/// hostLanes(). The first exception a rank throws reaches the caller
/// through parallelFor, once the ranks already running have finished.
std::vector<BuiltModel> buildModelsParallel(const Cluster &Cl,
                                            const ModelBuildPlan &Plan);

/// The benchmark size grid of \p Plan: NumPoints sizes evenly spaced over
/// [MinSize, MaxSize] (a single point sits at MinSize). Exposed so tools
/// and tests iterate exactly the sizes the build used.
std::vector<double> buildSizeGrid(const ModelBuildPlan &Plan);

} // namespace fupermod

#endif // FUPERMOD_CORE_BENCHMARK_H
