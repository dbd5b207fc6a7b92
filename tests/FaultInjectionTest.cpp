//===-- tests/FaultInjectionTest.cpp - fault injection & degradation ------===//
//
// Deterministic coverage of the four scripted fault kinds (latency spike,
// permanent slowdown, hang, hard failure) and of the graceful-degradation
// paths they exercise: the guarded benchmark loop, rank exclusion in the
// dynamic algorithms, and the Jacobi balancer's reconvergence after a
// mid-run regime change.
//
//===----------------------------------------------------------------------===//

#include "apps/Jacobi.h"
#include "core/Dynamic.h"
#include "core/Metrics.h"
#include "core/Partitioners.h"
#include "engine/Balance.h"
#include "equalize/Policy.h"
#include "mpp/Runtime.h"
#include "sim/Cluster.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

using namespace fupermod;

namespace {

/// Noise-free 10 units/s device: measure(10) is exactly 1 s, so faulted
/// calls are exactly distinguishable.
SimDevice makeQuietDevice() {
  return SimDevice(makeConstantProfile("quiet", 10.0), /*NoiseSigma=*/0.0);
}

FaultPlan planOf(std::initializer_list<FaultEvent> Events) {
  FaultPlan Plan;
  Plan.Events = Events;
  return Plan;
}

/// A plan that hangs every one of the first \p Calls measurements —
/// enough to outlast any retry budget under test.
FaultPlan hangEverywhere(int Calls, double HangSeconds) {
  FaultPlan Plan;
  for (int I = 0; I < Calls; ++I)
    Plan.Events.push_back(FaultPlan::hang(I, HangSeconds));
  return Plan;
}

} // namespace

TEST(FaultSpike, OneShotInflatesExactlyOneCall) {
  SimDevice Dev = makeQuietDevice();
  Dev.setFaultPlan(planOf({FaultPlan::spike(/*AfterCalls=*/2, 8.0)}));
  EXPECT_DOUBLE_EQ(Dev.measure(10.0).Seconds, 1.0);
  EXPECT_DOUBLE_EQ(Dev.measure(10.0).Seconds, 1.0);
  Measurement Spiked = Dev.measure(10.0);
  EXPECT_DOUBLE_EQ(Spiked.Seconds, 8.0);
  EXPECT_EQ(Spiked.Status, MeasureStatus::Ok); // A spike is not a hang.
  EXPECT_DOUBLE_EQ(Dev.measure(10.0).Seconds, 1.0); // One-shot.
}

TEST(FaultSpike, PeriodicSpikesRepeat) {
  SimDevice Dev = makeQuietDevice();
  Dev.setFaultPlan(
      planOf({FaultPlan::spike(/*AfterCalls=*/2, 8.0, /*Period=*/3)}));
  // Calls 2, 5, 8 spike; all others are clean.
  for (int Call = 0; Call < 9; ++Call) {
    double Expected = (Call >= 2 && (Call - 2) % 3 == 0) ? 8.0 : 1.0;
    EXPECT_DOUBLE_EQ(Dev.measure(10.0).Seconds, Expected) << "call " << Call;
  }
}

TEST(FaultSlowdown, PermanentFromBusyTimeTrigger) {
  SimDevice Dev = makeQuietDevice();
  Dev.setFaultPlan(planOf({FaultPlan::slowdown(/*AfterBusyTime=*/2.5, 4.0)}));
  // 1 s per call: the trigger (busy >= 2.5 s, checked before the call)
  // first holds on call 3, and every call after it stays slow.
  for (int Call = 0; Call < 3; ++Call)
    EXPECT_DOUBLE_EQ(Dev.measure(10.0).Seconds, 1.0) << "call " << Call;
  for (int Call = 3; Call < 6; ++Call)
    EXPECT_DOUBLE_EQ(Dev.measure(10.0).Seconds, 4.0) << "call " << Call;
}

TEST(FaultHang, OneCallBlocksThenRecovers) {
  SimDevice Dev = makeQuietDevice();
  Dev.setFaultPlan(planOf({FaultPlan::hang(/*AfterCalls=*/1, 7.0)}));
  EXPECT_EQ(Dev.measure(10.0).Status, MeasureStatus::Ok);
  Measurement Hung = Dev.measure(10.0);
  EXPECT_EQ(Hung.Status, MeasureStatus::Hung);
  EXPECT_DOUBLE_EQ(Hung.Seconds, 8.0); // Normal 1 s + 7 s stall.
  EXPECT_EQ(Dev.measure(10.0).Status, MeasureStatus::Ok);
}

TEST(FaultFail, LatchesAndProducesNoTiming) {
  SimDevice Dev = makeQuietDevice();
  Dev.setFaultPlan(planOf({FaultPlan::fail(/*AfterCalls=*/2)}));
  EXPECT_EQ(Dev.measure(10.0).Status, MeasureStatus::Ok);
  EXPECT_EQ(Dev.measure(10.0).Status, MeasureStatus::Ok);
  EXPECT_FALSE(Dev.hardFailed());
  Measurement Dead = Dev.measure(10.0);
  EXPECT_EQ(Dead.Status, MeasureStatus::Failed);
  EXPECT_DOUBLE_EQ(Dead.Seconds, 0.0);
  EXPECT_TRUE(Dev.hardFailed());
  // The failure latches, and the legacy interface reports it as +inf.
  EXPECT_EQ(Dev.measure(10.0).Status, MeasureStatus::Failed);
  EXPECT_TRUE(std::isinf(Dev.measureTime(10.0)));
}

TEST(GuardedBenchmark, PersistentHangYieldsTimedOutPoint) {
  // Every attempt hangs for 1000 s; the guarded loop must abandon the
  // measurement after the retry budget instead of waiting the hang out.
  SimDevice Dev = makeQuietDevice();
  Dev.setFaultPlan(hangEverywhere(/*Calls=*/8, /*HangSeconds=*/1000.0));
  SimDeviceBackend B(Dev);
  Precision Prec;
  Prec.MinReps = 3;
  Prec.MaxReps = 5;
  Prec.RepTimeout = 0.5;
  Prec.MaxRetries = 2;
  Point P = runBenchmark(B, 10.0, Prec);
  EXPECT_EQ(P.Reps, 0);
  EXPECT_TRUE(std::isinf(P.Time));
  EXPECT_EQ(P.Status, PointStatus::TimedOut);
  EXPECT_TRUE(P.deviceFault());
  // Only the retry budget's worth of calls was spent: 1 + MaxRetries.
  EXPECT_EQ(Dev.calls(), 3);
}

TEST(GuardedBenchmark, RetryRecoversFromTransientHang) {
  SimDevice Dev = makeQuietDevice();
  Dev.setFaultPlan(planOf({FaultPlan::hang(0, 1000.0)}));
  SimDeviceBackend B(Dev);
  Precision Prec;
  Prec.MinReps = 3;
  Prec.MaxReps = 5;
  Prec.RepTimeout = 2.0;
  Prec.MaxRetries = 2;
  Point P = runBenchmark(B, 10.0, Prec);
  EXPECT_EQ(P.Status, PointStatus::Ok);
  EXPECT_EQ(P.Reps, 3);
  EXPECT_DOUBLE_EQ(P.Time, 1.0); // The hung sample was discarded.
}

TEST(GuardedBenchmark, HardFailureYieldsDeviceFailedPoint) {
  SimDevice Dev = makeQuietDevice();
  Dev.setFaultPlan(planOf({FaultPlan::fail(0)}));
  SimDeviceBackend B(Dev);
  Point P = runBenchmark(B, 10.0, Precision());
  EXPECT_EQ(P.Reps, 0);
  EXPECT_TRUE(std::isinf(P.Time));
  EXPECT_EQ(P.Status, PointStatus::DeviceFailed);
}

TEST(GuardedBenchmark, DeathAfterMinRepsKeepsGoodSamples) {
  // Three good repetitions land before the device dies: the point is
  // still usable, so one flaky death doesn't erase real data.
  SimDevice Dev = makeQuietDevice();
  Dev.setFaultPlan(planOf({FaultPlan::fail(3)}));
  SimDeviceBackend B(Dev);
  Precision Prec;
  Prec.MinReps = 3;
  Prec.MaxReps = 10;
  Prec.TargetRelativeError = 1e-12; // Would keep repeating if it could.
  Point P = runBenchmark(B, 10.0, Prec);
  EXPECT_EQ(P.Status, PointStatus::Ok);
  EXPECT_EQ(P.Reps, 3);
  EXPECT_DOUBLE_EQ(P.Time, 1.0);
}

TEST(GuardedBenchmark, TimeoutAndBackoffChargeBoundedVirtualTime) {
  // With a clocked backend, a hang costs exactly the timeout per attempt
  // plus the (doubling) backoff between attempts — never the hang itself.
  SimDevice Dev = makeQuietDevice();
  Dev.setFaultPlan(hangEverywhere(6, 1000.0));
  runSpmd(1, [&](Comm &C) {
    SimDeviceBackend B(Dev, &C);
    Precision Prec;
    Prec.MinReps = 3;
    Prec.MaxReps = 5;
    Prec.RepTimeout = 1.0;
    Prec.MaxRetries = 2;
    Prec.RetryBackoff = 0.5;
    Point P = runBenchmark(B, 10.0, Prec, &C);
    EXPECT_EQ(P.Status, PointStatus::TimedOut);
    // Three timed-out attempts (1 s each) + backoffs 0.5 s and 1 s.
    EXPECT_DOUBLE_EQ(C.time(), 4.5);
  });
}

TEST(Exclusion, BalanceStepDropsFailedRankInLockstep) {
  const std::int64_t Total = 120;
  runSpmd(3, [Total](Comm &C) {
    engine::BalancedLoop Loop(partitionConstant, "cpm", Total, 3);
    equalize::EqualizeConfig Cfg;
    Cfg.Policy = "every";
    auto Every = std::move(equalize::makeEqualizer(Cfg).value());
    double Start = C.time();
    C.compute(1.0);
    Loop.balanceEqualized(C, Start, *Every, /*DeviceFailed=*/C.rank() == 1);
    const DynamicContext &Ctx = Loop.context();
    // Every rank must agree: rank 1 is gone, survivors carry the total.
    EXPECT_TRUE(Ctx.isExcluded(1));
    EXPECT_FALSE(Ctx.isExcluded(0));
    EXPECT_FALSE(Ctx.isExcluded(2));
    EXPECT_EQ(Ctx.activeCount(), 2);
    EXPECT_EQ(Ctx.exclusionReason(1), "device reported hard failure");
    EXPECT_EQ(Ctx.dist().Parts[1].Units, 0);
    EXPECT_EQ(Ctx.dist().sum(), Total);
    EXPECT_GT(Ctx.dist().Parts[0].Units, 0);
    EXPECT_GT(Ctx.dist().Parts[2].Units, 0);
  });
}

TEST(Exclusion, PartitionIterateExcludesHardFailedBackend) {
  // Rank 2's device is dead from the first call: dynamic partitioning
  // must exclude it and converge to a 2-rank distribution of the full
  // total, rather than diverging or deadlocking.
  Cluster Cl;
  Cl.Devices = {makeConstantProfile("fast", 40.0),
                makeConstantProfile("slow", 20.0),
                makeConstantProfile("dead", 20.0)};
  Cl.NodeOfRank = {0, 0, 0};
  Cl.NoiseSigma = 0.01;
  Cl.addFault(2, FaultPlan::fail(0));
  const std::int64_t Total = 600;

  runSpmd(3,
          [&](Comm &C) {
            SimDevice Dev = Cl.makeDevice(C.rank());
            SimDeviceBackend Backend(Dev, &C);
            DynamicContext Ctx(partitionGeometric, "piecewise", Total, 3);
            Precision Prec;
            Prec.MinReps = 3;
            Prec.MaxReps = 5;
            Prec.TargetRelativeError = 0.1;
            runDynamicPartitioning(Ctx, C, Backend, Prec, /*Eps=*/0.02,
                                   /*MaxIterations=*/15);
            EXPECT_TRUE(Ctx.isExcluded(2));
            EXPECT_EQ(Ctx.dist().Parts[2].Units, 0);
            EXPECT_EQ(Ctx.dist().sum(), Total);
            // Speeds 40 vs 20: the fast survivor carries more.
            EXPECT_GT(Ctx.dist().Parts[0].Units,
                      Ctx.dist().Parts[1].Units);
          },
          Cl.makeCostModel());
}

TEST(Exclusion, StalenessDecayForgetsOldRegime) {
  // With decay, points from rounds long past fall below the retention
  // threshold and are dropped; without it the model keeps everything.
  DynamicContext Decayed(partitionGeometric, "piecewise", 100, 2);
  Decayed.setStalenessDecay(0.5);
  DynamicContext Forever(partitionGeometric, "piecewise", 100, 2);

  auto Round = [](DynamicContext &Ctx, int R) {
    Point P;
    P.Units = 10.0 * (R + 1);
    P.Time = P.Units / 10.0;
    P.Reps = 1;
    std::vector<Point> Both = {P, P};
    Ctx.updateAllAndRepartition(Both);
  };
  for (int R = 0; R < 5; ++R) {
    Round(Decayed, R);
    Round(Forever, R);
  }
  EXPECT_EQ(Forever.model(0).points().size(), 5u);
  EXPECT_LE(Decayed.model(0).points().size(), 3u);
  // The newest point always survives at full weight.
  EXPECT_DOUBLE_EQ(Decayed.model(0).weights().back(), 1.0);
}

TEST(JacobiFault, ReconvergesAfterMidRunSlowdown) {
  // Acceptance scenario: the GPU slows down 4x mid-run; with staleness
  // decay the balancer must return below 5% imbalance by the end.
  Cluster Cl = makeHclLikeCluster(/*WithGpu=*/true);
  Cl.NoiseSigma = 0.005;
  FaultEvent Slowdown;
  Slowdown.Kind = FaultKind::Slowdown;
  Slowdown.AfterCalls = 5; // One device call per Jacobi iteration.
  Slowdown.Factor = 4.0;
  int Gpu = Cl.size() - 1;
  Cl.addFault(Gpu, Slowdown);

  JacobiOptions O;
  O.N = 800;
  O.MaxIterations = 20;
  O.Tolerance = -1.0; // Never converges: run all iterations.
  O.Balance = true;
  O.StalenessDecay = 0.5;
  JacobiReport R = runJacobi(Cl, O);

  ASSERT_EQ(static_cast<int>(R.Iterations.size()), O.MaxIterations);
  // The fault bites at iteration 6 (0-based call 5) and shows as a spike
  // in imbalance...
  double Peak = 0.0;
  for (std::size_t It = 5; It < R.Iterations.size(); ++It)
    Peak = std::max(Peak, imbalance(R.Iterations[It].ComputeTimes));
  EXPECT_GT(Peak, 0.3);
  // ...and the balancer works it back off.
  EXPECT_LE(imbalance(R.Iterations.back().ComputeTimes), 0.05);
  EXPECT_TRUE(R.FailedRanks.empty()); // Slow is degraded, not dead.
  // Every iteration keeps all N rows assigned.
  for (const JacobiIteration &It : R.Iterations)
    EXPECT_EQ(std::accumulate(It.Rows.begin(), It.Rows.end(),
                              std::int64_t{0}),
              static_cast<std::int64_t>(O.N));
}

TEST(JacobiFault, HardFailedRankIsExcludedAndRunCompletes) {
  Cluster Cl = makeHclLikeCluster(/*WithGpu=*/false);
  Cl.NoiseSigma = 0.005;
  Cl.addFault(1, FaultPlan::fail(/*AfterCalls=*/3));

  JacobiOptions O;
  O.N = 400;
  O.MaxIterations = 12;
  O.Tolerance = -1.0;
  O.Balance = true;
  JacobiReport R = runJacobi(Cl, O);

  ASSERT_EQ(R.FailedRanks, std::vector<int>{1});
  // After the failure is noticed, rank 1 holds no rows and reports no
  // compute time, while the survivors carry all N rows.
  const JacobiIteration &Last = R.Iterations.back();
  EXPECT_EQ(Last.Rows[1], 0);
  EXPECT_DOUBLE_EQ(Last.ComputeTimes[1], 0.0);
  EXPECT_EQ(std::accumulate(Last.Rows.begin(), Last.Rows.end(),
                            std::int64_t{0}),
            static_cast<std::int64_t>(O.N));
  // The numerics survive the exclusion: the run still solves the system.
  EXPECT_LT(R.Residual, 1e-6);
}
