//===-- core/Benchmark.cpp - Performance measurement ----------------------===//

#include "core/Benchmark.h"

#include "mpp/Comm.h"
#include "sim/Cluster.h"
#include "sim/SimDevice.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>

using namespace fupermod;

BenchmarkBackend::~BenchmarkBackend() = default;

RunOutcome BenchmarkBackend::runOnceChecked(double Timeout) {
  RunOutcome O;
  O.Seconds = runOnce();
  O.Failed = !std::isfinite(O.Seconds);
  O.TimedOut = !O.Failed && O.Seconds > Timeout;
  if (O.TimedOut)
    O.Seconds = Timeout;
  return O;
}

bool NativeKernelBackend::prepare(double Units) {
  assert(Units >= 1.0 && "kernel sizes are whole units");
  return K.initialize(static_cast<std::int64_t>(std::llround(Units)));
}

double NativeKernelBackend::runOnce() {
  auto Start = std::chrono::steady_clock::now();
  K.execute();
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count();
}

void NativeKernelBackend::teardown() { K.finalize(); }

bool SimDeviceBackend::prepare(double InUnits) {
  if (!Device.profile().canExecute(InUnits))
    return false;
  Units = InUnits;
  return true;
}

namespace {

/// Blocks the calling thread for \p Seconds of real time — the cost a
/// host thread pays while its (simulated) device executes. sleep_for
/// rather than a spin so parallel builds overlap waits even on a
/// single-core host, exactly like real device-offloaded measurement.
void blockWallTime(double Seconds) {
  if (Seconds > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double>(Seconds));
}

} // namespace

double SimDeviceBackend::runOnce() {
  double T = Device.measureTime(Units);
  if (Clocked)
    Clocked->compute(T);
  blockWallTime(T * WallScale);
  return T;
}

RunOutcome SimDeviceBackend::runOnceChecked(double Timeout) {
  Measurement M = Device.measure(Units);
  RunOutcome O;
  if (M.Status == MeasureStatus::Failed) {
    // The device produced nothing; no virtual time passes.
    O.Failed = true;
    return O;
  }
  // The simulator can stop waiting: a repetition that would run past the
  // timeout only costs the caller the timeout itself.
  O.TimedOut = M.Seconds > Timeout;
  O.Seconds = O.TimedOut ? Timeout : M.Seconds;
  if (Clocked)
    Clocked->compute(O.Seconds);
  blockWallTime(O.Seconds * WallScale);
  return O;
}

void SimDeviceBackend::backoffWait(double Seconds) {
  if (Clocked)
    Clocked->compute(Seconds);
}

Point fupermod::runBenchmark(BenchmarkBackend &Backend, double Units,
                             const Precision &Prec, Comm *Sync) {
  assert(Prec.MinReps >= 1 && Prec.MaxReps >= Prec.MinReps &&
         "invalid precision");
  Point Result;
  Result.Units = Units;
  bool Prepared = Backend.prepare(Units);
  if (!Prepared && !Sync) {
    // Size not executable on this device (e.g. out of memory with no
    // out-of-core mode). Reps = 0 flags the failure to the caller.
    Result.Reps = 0;
    Result.Time = std::numeric_limits<double>::infinity();
    Result.Status = PointStatus::Infeasible;
    return Result;
  }

  // With synchronised measurement every rank must execute the *same*
  // number of loop rounds — the continue/stop decision is collective
  // (any rank still needing repetitions keeps everyone going), and a
  // rank whose device cannot run the size — or has stopped responding —
  // still joins every barrier.
  RunningStat Stat;
  std::vector<double> Samples;
  double Accumulated = 0.0;
  bool Alive = Prepared; // Still attempting measurements.
  PointStatus FailStatus =
      Prepared ? PointStatus::Ok : PointStatus::Infeasible;
  for (int Rep = 0; Rep < Prec.MaxReps; ++Rep) {
    // Synchronise processes sharing resources so that every repetition
    // runs under full contention (paper Section 4.1).
    if (Sync)
      Sync->barrier();
    if (Alive) {
      // One guarded repetition with a bounded retry budget: a hung or
      // failed attempt is retried after an (exponentially growing)
      // backoff; exhausting the budget abandons the whole measurement.
      double Backoff = Prec.RetryBackoff;
      for (int Attempt = 0;; ++Attempt) {
        RunOutcome O = Backend.runOnceChecked(Prec.RepTimeout);
        if (!O.TimedOut && !O.Failed) {
          Stat.push(O.Seconds);
          Samples.push_back(O.Seconds);
          Accumulated += O.Seconds;
          break;
        }
        Accumulated += O.Seconds; // Time lost waiting still counts.
        if (Attempt >= Prec.MaxRetries) {
          Alive = false;
          FailStatus =
              O.Failed ? PointStatus::DeviceFailed : PointStatus::TimedOut;
          break;
        }
        if (Backoff > 0.0) {
          Backend.backoffWait(Backoff);
          Accumulated += Backoff;
          Backoff *= 2.0;
        }
      }
    }
    bool WantMore = false;
    if (Alive) {
      bool EnoughReps =
          Stat.count() >= static_cast<std::size_t>(Prec.MinReps);
      bool Tight =
          relativeError(Stat, Prec.Level) <= Prec.TargetRelativeError;
      bool OutOfTime = Accumulated >= Prec.TimeLimit;
      WantMore = !(EnoughReps && Tight) && !OutOfTime;
    }
    if (Sync)
      WantMore = Sync->allreduceValue(WantMore ? 1.0 : 0.0,
                                      ReduceOp::Max) > 0.0;
    if (!WantMore)
      break;
  }
  if (Prepared)
    Backend.teardown();

  // A rank that died mid-run may still have gathered enough good samples
  // to report a usable point; otherwise the whole measurement failed.
  bool Usable = Alive || (FailStatus != PointStatus::Infeasible &&
                          Stat.count() >=
                              static_cast<std::size_t>(Prec.MinReps));
  if (!Usable) {
    Result.Reps = 0;
    Result.Time = std::numeric_limits<double>::infinity();
    Result.Status = FailStatus;
    return Result;
  }
  if (Prec.RejectOutliers && Samples.size() >= 3) {
    std::vector<double> Kept = rejectOutliers(Samples);
    if (!Kept.empty() && Kept.size() < Samples.size()) {
      Stat.clear();
      for (double T : Kept)
        Stat.push(T);
    }
  }
  Result.Time = Stat.mean();
  Result.Reps = static_cast<int>(Stat.count());
  Result.ConfidenceInterval = confidenceHalfWidth(Stat, Prec.Level);
  if (!std::isfinite(Result.ConfidenceInterval))
    Result.ConfidenceInterval = 0.0; // Single-rep measurement: no interval.
  return Result;
}

std::vector<double> fupermod::buildSizeGrid(const ModelBuildPlan &Plan) {
  assert(Plan.NumPoints >= 1 && Plan.MinSize > 0.0 &&
         Plan.MaxSize >= Plan.MinSize && "invalid build plan");
  std::vector<double> Sizes(static_cast<std::size_t>(Plan.NumPoints));
  for (int I = 0; I < Plan.NumPoints; ++I)
    Sizes[static_cast<std::size_t>(I)] =
        Plan.NumPoints == 1
            ? Plan.MinSize
            : Plan.MinSize + (Plan.MaxSize - Plan.MinSize) *
                                 static_cast<double>(I) /
                                 static_cast<double>(Plan.NumPoints - 1);
  return Sizes;
}

std::vector<BuiltModel>
fupermod::buildModelsParallel(const Cluster &Cl, const ModelBuildPlan &Plan) {
  const std::vector<double> Sizes = buildSizeGrid(Plan);
  const int Ranks = Cl.size();
  std::vector<BuiltModel> Out(static_cast<std::size_t>(Ranks));

  // One self-contained job per rank. The device is created inside the
  // job from the cluster description (per-rank RNG stream Seed + rank,
  // fault plan attached), so no state is shared between jobs and the
  // Point sequence of a rank cannot depend on scheduling.
  auto BuildRank = [&](std::size_t Rank) {
    SimDevice Dev = Cl.makeDevice(static_cast<int>(Rank));
    SimDeviceBackend Backend(Dev);
    Backend.emulateWallTime(Plan.WallScale);
    BuiltModel &Built = Out[Rank];
    Built.Raw.reserve(Sizes.size());
    for (double D : Sizes)
      Built.Raw.push_back(runBenchmark(Backend, D, Plan.Prec));
    Built.M = makeModel(Plan.Kind);
    Built.M->updateAll(Built.Raw);
  };

  const std::size_t Lanes =
      static_cast<std::size_t>(std::clamp(Plan.Jobs, 1, std::max(Ranks, 1)));
  if (Lanes == 1) {
    // Serial reference path: rank order, no pool.
    for (std::size_t R = 0; R < Out.size(); ++R)
      BuildRank(R);
    return Out;
  }
  // Lanes claim ranks from one counter, so at most Lanes are in flight.
  std::atomic<std::size_t> Next{0};
  auto Lane = [&](std::size_t) {
    for (std::size_t R = Next++; R < Out.size(); R = Next++)
      BuildRank(R);
  };
  std::optional<ThreadPool> Local;
  if (Lanes > hostLanes())
    Local.emplace(static_cast<unsigned>(Lanes - 1));
  parallelFor(Local ? *Local : hostPool(), Lanes, Lane);
  return Out;
}
