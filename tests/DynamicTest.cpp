//===-- tests/DynamicTest.cpp - dynamic partitioning tests ----------------===//

#include "core/Dynamic.h"

#include "core/Metrics.h"
#include "core/Partitioners.h"
#include "engine/Balance.h"
#include "equalize/Policy.h"
#include "mpp/Runtime.h"
#include "sim/Cluster.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace fupermod;

namespace {

Point makePoint(double Units, double Time) {
  Point P;
  P.Units = Units;
  P.Time = Time;
  P.Reps = 1;
  return P;
}

/// The every-round balancing policy (period 1).
std::unique_ptr<equalize::Equalizer> everyRound() {
  equalize::EqualizeConfig Cfg;
  Cfg.Policy = "every";
  return std::move(equalize::makeEqualizer(Cfg).value());
}

} // namespace

TEST(DynamicContext, StartsEven) {
  DynamicContext Ctx(partitionGeometric, "piecewise", 100, 4);
  EXPECT_EQ(Ctx.size(), 4);
  EXPECT_EQ(Ctx.dist().sum(), 100);
  EXPECT_EQ(Ctx.dist().Parts[0].Units, 25);
}

TEST(DynamicContext, RepartitionsOnceAllModelsFitted) {
  DynamicContext Ctx(partitionGeometric, "piecewise", 100, 2);
  // First point: only one model fitted; the distribution must not move
  // and the change must read as "not converged".
  double Change = Ctx.updateAndRepartition(0, makePoint(50.0, 1.0));
  EXPECT_TRUE(std::isinf(Change));
  EXPECT_EQ(Ctx.dist().Parts[0].Units, 50);
  // Second model: rank 1 is 3x slower -> load shifts to rank 0.
  Change = Ctx.updateAndRepartition(1, makePoint(50.0, 3.0));
  EXPECT_GT(Change, 0.0);
  EXPECT_GT(Ctx.dist().Parts[0].Units, Ctx.dist().Parts[1].Units);
  EXPECT_EQ(Ctx.dist().sum(), 100);
}

TEST(DynamicContext, UpdateAllTakesOnePointPerRank) {
  DynamicContext Ctx(partitionConstant, "cpm", 90, 3);
  std::vector<Point> Points = {makePoint(30.0, 1.0), makePoint(30.0, 2.0),
                               makePoint(30.0, 3.0)};
  Ctx.updateAllAndRepartition(Points);
  // Speeds 30, 15, 10 -> shares 90 * {30,15,10}/55.
  EXPECT_EQ(Ctx.dist().sum(), 90);
  EXPECT_GT(Ctx.dist().Parts[0].Units, Ctx.dist().Parts[1].Units);
  EXPECT_GT(Ctx.dist().Parts[1].Units, Ctx.dist().Parts[2].Units);
}

TEST(DynamicPartitioning, ConvergesOnTwoDeviceCluster) {
  Cluster Cl = makeTwoDeviceCluster();
  Cl.NoiseSigma = 0.01;
  const std::int64_t D = 4000;

  std::vector<std::int64_t> FinalUnits(2, 0);
  int Iterations = 0;
  runSpmd(2,
          [&](Comm &C) {
            SimDevice Dev = Cl.makeDevice(C.rank());
            SimDeviceBackend Backend(Dev, &C);
            DynamicContext Ctx(partitionGeometric, "piecewise", D, 2);
            Precision Prec;
            Prec.MinReps = 3;
            Prec.MaxReps = 5;
            Prec.TargetRelativeError = 0.05;
            int It = runDynamicPartitioning(Ctx, C, Backend, Prec,
                                            /*Eps=*/0.01,
                                            /*MaxIterations=*/25);
            if (C.rank() == 0) {
              Iterations = It;
              FinalUnits[0] = Ctx.dist().Parts[0].Units;
              FinalUnits[1] = Ctx.dist().Parts[1].Units;
            }
          },
          Cl.makeCostModel());

  EXPECT_LT(Iterations, 25) << "dynamic partitioning did not converge";
  EXPECT_EQ(FinalUnits[0] + FinalUnits[1], D);

  // The converged distribution is close to the true optimum.
  Dist Final;
  Final.Total = D;
  Final.Parts.resize(2);
  Final.Parts[0].Units = FinalUnits[0];
  Final.Parts[1].Units = FinalUnits[1];
  auto Times = trueTimes(Final, Cl.Devices);
  double Opt = optimalMakespan(D, Cl.Devices);
  EXPECT_LT(makespan(Times), 1.15 * Opt);
}

TEST(DynamicPartitioning, PartialModelsStaySmall) {
  // The whole point of the dynamic algorithm: far fewer points than a
  // full model sweep.
  Cluster Cl = makeTwoDeviceCluster();
  Cl.NoiseSigma = 0.0;
  std::size_t PointsUsed = 0;
  runSpmd(2,
          [&](Comm &C) {
            SimDevice Dev = Cl.makeDevice(C.rank());
            SimDeviceBackend Backend(Dev, &C);
            DynamicContext Ctx(partitionGeometric, "piecewise", 3000, 2);
            Precision Prec;
            Prec.MinReps = 1;
            Prec.MaxReps = 1;
            runDynamicPartitioning(Ctx, C, Backend, Prec, 0.02, 20);
            if (C.rank() == 0)
              PointsUsed = Ctx.model(0).points().size();
          },
          Cl.makeCostModel());
  EXPECT_LE(PointsUsed, 12u);
  EXPECT_GE(PointsUsed, 1u);
}

TEST(BalanceStep, UsesIterationTimes) {
  runSpmd(2, [](Comm &C) {
    engine::BalancedLoop Loop(partitionConstant, "cpm", 100, 2);
    auto Every = everyRound();
    double Start = C.time();
    // Rank 0 computes 1 s, rank 1 computes 4 s on equal shares: rank 0
    // is 4x faster and must end up with ~4x the units.
    C.compute(C.rank() == 0 ? 1.0 : 4.0);
    Loop.balanceEqualized(C, Start, *Every);
    EXPECT_EQ(Loop.dist().sum(), 100);
    EXPECT_EQ(Loop.dist().Parts[0].Units, 80);
    EXPECT_EQ(Loop.dist().Parts[1].Units, 20);
  });
}

TEST(BalanceStep, RepeatedCallsConverge) {
  // Constant-speed devices: one balance step is already optimal, further
  // steps must not oscillate.
  Cluster Cl = makeUniformCluster(2, 10.0);
  Cl.Devices[1] = makeConstantProfile("slow", 5.0);
  Cl.NoiseSigma = 0.0;
  runSpmd(2,
          [&](Comm &C) {
            SimDevice Dev = Cl.makeDevice(C.rank());
            engine::BalancedLoop Loop(partitionGeometric, "piecewise", 300,
                                      2);
            auto Every = everyRound();
            for (int It = 0; It < 5; ++It) {
              double Start = C.time();
              double Units = static_cast<double>(
                  std::max<std::int64_t>(Loop.dist().Parts[C.rank()].Units,
                                         1));
              C.compute(Dev.measureTime(Units));
              Loop.balanceEqualized(C, Start, *Every);
            }
            // Speeds 10 vs 5 -> 200/100 split.
            EXPECT_NEAR(static_cast<double>(Loop.dist().Parts[0].Units),
                        200.0, 8.0);
          },
          Cl.makeCostModel());
}
