//===-- tests/ModelTest.cpp - performance model tests ---------------------===//

#include "core/Model.h"

#include "core/Benchmark.h"
#include "core/ModelIO.h"
#include "sim/Cluster.h"
#include "sim/DeviceProfile.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

using namespace fupermod;

namespace {

Point makePoint(double Units, double Time, int Reps = 3) {
  Point P;
  P.Units = Units;
  P.Time = Time;
  P.Reps = Reps;
  P.ConfidenceInterval = 0.0;
  return P;
}

/// Model::sizeForTime's search without the fixed-point exit: bracket by
/// doubling, then always run all 100 bisection steps.
double fullBisection(const Model &M, double T) {
  if (T <= 0.0)
    return 0.0;
  double Hi = std::max(1.0, M.points().back().Units);
  for (int I = 0; I < 200 && M.timeAt(Hi) < T; ++I)
    Hi *= 2.0;
  if (M.timeAt(Hi) < T)
    return Hi;
  double Lo = 0.0;
  for (int I = 0; I < 100; ++I) {
    double Mid = 0.5 * (Lo + Hi);
    if (M.timeAt(Mid) < T)
      Lo = Mid;
    else
      Hi = Mid;
  }
  return 0.5 * (Lo + Hi);
}

/// Feeds a model with exact points of a device profile.
void feedProfile(Model &M, const DeviceProfile &P,
                 std::initializer_list<double> Sizes) {
  for (double D : Sizes)
    M.update(makePoint(D, P.time(D)));
}

/// A failed measurement: the device could not run \p Units.
Point infeasiblePoint(double Units) {
  Point P = makePoint(Units, std::numeric_limits<double>::infinity(), 0);
  P.Status = PointStatus::Infeasible;
  return P;
}

/// A measurement abandoned because the device stopped working.
Point deviceFailedPoint(double Units) {
  Point P = makePoint(Units, std::numeric_limits<double>::infinity(), 0);
  P.Status = PointStatus::DeviceFailed;
  return P;
}

std::string modelText(const Model &M) {
  std::ostringstream OS;
  writeModel(OS, M);
  return OS.str();
}

/// A piecewise model that counts its refits.
class RefitCountingModel : public PiecewiseModel {
public:
  int Refits = 0;

protected:
  void refit() override {
    ++Refits;
    PiecewiseModel::refit();
  }
};

Registrar<ModelRegistry> RegRefitCounting(
    modelRegistry(), "refit-counting-piecewise", [] {
      return std::unique_ptr<Model>(std::make_unique<RefitCountingModel>());
    });

} // namespace

TEST(PointStruct, SpeedDerivedFromTime) {
  Point P = makePoint(100.0, 2.0);
  EXPECT_DOUBLE_EQ(P.speed(), 50.0);
  Point Zero;
  EXPECT_DOUBLE_EQ(Zero.speed(), 0.0);
}

TEST(ModelUpdate, IgnoresFailedMeasurements) {
  ConstantModel M;
  Point Bad;
  Bad.Units = 10.0;
  Bad.Time = std::numeric_limits<double>::infinity();
  Bad.Reps = 0;
  M.update(Bad);
  EXPECT_FALSE(M.fitted());
}

TEST(ModelUpdate, MergesSameSizePoints) {
  ConstantModel M;
  M.update(makePoint(10.0, 1.0, 1));
  M.update(makePoint(10.0, 3.0, 1));
  ASSERT_EQ(M.points().size(), 1u);
  EXPECT_DOUBLE_EQ(M.points()[0].Time, 2.0); // Rep-weighted mean.
  EXPECT_EQ(M.points()[0].Reps, 2);

  // Merged repetition counts saturate instead of overflowing.
  M.update(makePoint(20.0, 1.0, 2000000000));
  M.update(makePoint(20.0, 1.0, 2000000000));
  ASSERT_EQ(M.points().size(), 2u);
  EXPECT_EQ(M.points()[1].Reps, std::numeric_limits<int>::max());
}

TEST(ModelUpdate, KeepsPointsSorted) {
  PiecewiseModel M;
  M.update(makePoint(30.0, 3.0));
  M.update(makePoint(10.0, 1.0));
  M.update(makePoint(20.0, 2.0));
  ASSERT_EQ(M.points().size(), 3u);
  EXPECT_DOUBLE_EQ(M.points()[0].Units, 10.0);
  EXPECT_DOUBLE_EQ(M.points()[2].Units, 30.0);
}

TEST(ModelUpdate, UpdateAllEqualsSequentialUpdates) {
  struct Case {
    const char *Name;
    std::vector<Point> Before; // Applied to both models with update().
    std::vector<Point> Batch;  // updateAll() vs one update() per point.
  };
  const std::vector<Case> Cases = {
      {"empty batch on an empty model", {}, {}},
      {"empty batch", {makePoint(10.0, 1.0)}, {}},
      {"repeated size merges",
       {},
       {makePoint(10.0, 1.0, 2), makePoint(20.0, 2.5, 3),
        makePoint(10.0, 1.5, 4)}},
      {"merge into a stored point",
       {makePoint(10.0, 1.0, 2), makePoint(20.0, 2.5)},
       {makePoint(40.0, 5.0), makePoint(20.0 * (1.0 + 1e-12), 3.0, 5)}},
      {"out-of-order sizes",
       {},
       {makePoint(30.0, 3.0), makePoint(10.0, 1.25), makePoint(20.0, 2.5),
        makePoint(5.0, 0.75)}},
      {"success at the cap",
       {makePoint(100.0, 1.0)},
       {makePoint(400.0, 4.5), infeasiblePoint(200.0),
        makePoint(200.0, 2.25)}},
      {"success above the cap",
       {},
       {makePoint(100.0, 1.0), makePoint(400.0, 4.5), infeasiblePoint(200.0),
        infeasiblePoint(300.0), makePoint(250.0, 2.75)}},
      {"cap only",
       {makePoint(100.0, 1.0)},
       {infeasiblePoint(80.0), infeasiblePoint(50.0)}},
      {"cap no tighter",
       {makePoint(100.0, 1.0), infeasiblePoint(200.0)},
       {infeasiblePoint(300.0)}},
      {"device failure is ignored",
       {makePoint(100.0, 1.0)},
       {deviceFailedPoint(50.0), makePoint(200.0, 2.5),
        deviceFailedPoint(400.0)}},
      {"device failure alone", {makePoint(100.0, 1.0)},
       {deviceFailedPoint(50.0)}},
  };
  std::vector<double> Probes;
  for (double X = 0.5; X < 800.0; X *= 1.37)
    Probes.push_back(X);
  for (const char *Kind : {"cpm", "piecewise", "akima", "linear"}) {
    for (const Case &C : Cases) {
      SCOPED_TRACE(std::string(Kind) + ": " + C.Name);
      std::unique_ptr<Model> Seq = makeModel(Kind), Batch = makeModel(Kind);
      for (const Point &P : C.Before) {
        Seq->update(P);
        Batch->update(P);
      }
      for (const Point &P : C.Batch)
        Seq->update(P);
      Batch->updateAll(C.Batch);

      EXPECT_EQ(modelText(*Batch), modelText(*Seq));
      EXPECT_EQ(Batch->weights(), Seq->weights());
      EXPECT_EQ(std::bit_cast<std::uint64_t>(Batch->feasibleLimit()),
                std::bit_cast<std::uint64_t>(Seq->feasibleLimit()));
      ASSERT_EQ(Batch->fitted(), Seq->fitted());
      if (!Seq->fitted())
        continue;
      for (double X : Probes)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(Batch->timeAt(X)),
                  std::bit_cast<std::uint64_t>(Seq->timeAt(X)))
            << "x = " << X;
    }
  }
}

TEST(ModelUpdate, CampaignRefitsEachModelOnce) {
  // Sequential updates refit a 256-size campaign's model 256 times; the
  // campaign fits it once from the finished point list, on the serial
  // path and on the host pool alike.
  Cluster Cl = makeHeterogeneousCluster(3, /*Variant=*/5);
  ModelBuildPlan Plan;
  Plan.Kind = "refit-counting-piecewise";
  Plan.MinSize = 16.0;
  Plan.MaxSize = 4096.0;
  Plan.NumPoints = 256;
  Plan.Prec.MinReps = 1;
  Plan.Prec.MaxReps = 2;
  for (int Jobs : {1, static_cast<int>(hostLanes())}) {
    Plan.Jobs = Jobs;
    std::vector<BuiltModel> Built = buildModelsParallel(Cl, Plan);
    ASSERT_EQ(Built.size(), 3u);
    for (std::size_t R = 0; R < Built.size(); ++R) {
      const auto *M =
          dynamic_cast<const RefitCountingModel *>(Built[R].M.get());
      ASSERT_NE(M, nullptr);
      EXPECT_EQ(Built[R].Raw.size(), 256u);
      EXPECT_TRUE(M->fitted());
      EXPECT_EQ(M->Refits, 1) << "jobs " << Jobs << ", rank " << R;
    }
  }
}

TEST(ConstantModel, SinglePointDefinesSpeed) {
  ConstantModel M;
  M.update(makePoint(100.0, 4.0)); // 25 units/s.
  EXPECT_DOUBLE_EQ(M.speedAt(1.0), 25.0);
  EXPECT_DOUBLE_EQ(M.speedAt(1e6), 25.0);
  EXPECT_DOUBLE_EQ(M.timeAt(50.0), 2.0);
  EXPECT_DOUBLE_EQ(M.sizeForTime(2.0), 50.0);
  EXPECT_STREQ(M.kind(), "cpm");
}

TEST(ConstantModel, AveragesSpeedsAcrossPoints) {
  ConstantModel M;
  M.update(makePoint(100.0, 1.0)); // 100 units/s.
  M.update(makePoint(200.0, 1.0)); // 200 units/s.
  EXPECT_DOUBLE_EQ(M.speedAt(10.0), 150.0);
}

TEST(ConstantModel, ZeroSizeTakesZeroTime) {
  ConstantModel M;
  M.update(makePoint(10.0, 1.0));
  EXPECT_DOUBLE_EQ(M.timeAt(0.0), 0.0);
  EXPECT_DOUBLE_EQ(M.sizeForTime(0.0), 0.0);
}

TEST(PiecewiseModel, InterpolatesTimeLinearly) {
  PiecewiseModel M;
  M.update(makePoint(10.0, 1.0));
  M.update(makePoint(20.0, 3.0));
  EXPECT_DOUBLE_EQ(M.timeAt(15.0), 2.0);
  EXPECT_STREQ(M.kind(), "piecewise");
}

TEST(PiecewiseModel, ConstantSpeedBelowFirstKnot) {
  PiecewiseModel M;
  M.update(makePoint(10.0, 2.0)); // 5 units/s.
  EXPECT_DOUBLE_EQ(M.timeAt(5.0), 1.0);
  EXPECT_DOUBLE_EQ(M.speedAt(1.0), 5.0);
}

TEST(PiecewiseModel, ConstantSpeedBeyondLastKnot) {
  PiecewiseModel M;
  M.update(makePoint(10.0, 1.0));
  M.update(makePoint(20.0, 4.0)); // Last-knot speed 5 units/s.
  EXPECT_DOUBLE_EQ(M.timeAt(40.0), 8.0);
  EXPECT_NEAR(M.speedAt(100.0), 5.0, 1e-9);
}

TEST(PiecewiseModel, CoarseningEnforcesMonotoneTime) {
  // The second point reports a *smaller* time at a larger size (speed
  // spike); coarsening must lift it so the time function still increases.
  PiecewiseModel M;
  M.update(makePoint(10.0, 2.0));
  M.update(makePoint(20.0, 1.5));
  M.update(makePoint(30.0, 5.0));
  const auto &Ts = M.knotTimes();
  ASSERT_EQ(Ts.size(), 3u);
  EXPECT_GT(Ts[1], Ts[0]);
  EXPECT_GT(Ts[2], Ts[1]);
  // Predicted times are monotone over the whole range.
  double Prev = 0.0;
  for (double X = 1.0; X <= 60.0; X += 1.0) {
    double T = M.timeAt(X);
    EXPECT_GE(T, Prev);
    Prev = T;
  }
}

TEST(PiecewiseModel, SizeForTimeIsExactInverse) {
  PiecewiseModel M;
  M.update(makePoint(10.0, 1.0));
  M.update(makePoint(20.0, 3.0));
  M.update(makePoint(40.0, 9.0));
  for (double X : {5.0, 10.0, 14.0, 20.0, 33.0, 40.0, 55.0}) {
    double T = M.timeAt(X);
    EXPECT_NEAR(M.sizeForTime(T), X, 1e-9) << "at " << X;
  }
}

TEST(PiecewiseModel, DerivativeMatchesSegments) {
  PiecewiseModel M;
  M.update(makePoint(10.0, 1.0));
  M.update(makePoint(20.0, 3.0));
  EXPECT_DOUBLE_EQ(M.timeDerivative(15.0), 0.2);
  EXPECT_DOUBLE_EQ(M.timeDerivative(5.0), 0.1);   // 1/speed left of data.
  EXPECT_DOUBLE_EQ(M.timeDerivative(50.0), 0.15); // 1/speed right of data.
}

TEST(AkimaModel, PassesThroughPointsAndOrigin) {
  AkimaModel M;
  M.update(makePoint(10.0, 1.0));
  M.update(makePoint(20.0, 2.5));
  M.update(makePoint(40.0, 7.0));
  EXPECT_NEAR(M.timeAt(10.0), 1.0, 1e-10);
  EXPECT_NEAR(M.timeAt(40.0), 7.0, 1e-10);
  EXPECT_NEAR(M.timeAt(1e-9), 0.0, 1e-6);
  EXPECT_STREQ(M.kind(), "akima");
}

TEST(AkimaModel, SmoothDerivative) {
  AkimaModel M;
  for (double D : {5.0, 10.0, 20.0, 40.0, 80.0})
    M.update(makePoint(D, D / 10.0 + 0.1 * std::sin(D)));
  for (double X = 6.0; X < 75.0; X += 3.7) {
    double H = 1e-6;
    double FD = (M.timeAt(X + H) - M.timeAt(X - H)) / (2.0 * H);
    EXPECT_NEAR(M.timeDerivative(X), FD, 1e-4) << "at " << X;
  }
}

TEST(AkimaModel, SizeForTimeFindsCrossing) {
  AkimaModel M;
  M.update(makePoint(10.0, 1.0));
  M.update(makePoint(20.0, 2.0));
  M.update(makePoint(40.0, 4.0));
  double X = M.sizeForTime(3.0);
  EXPECT_NEAR(M.timeAt(X), 3.0, 1e-6);

  // The bisection stops at its fixed point, so it must return the very
  // double that all 100 steps of the full search return — over monotone
  // and non-monotone fits alike.
  for (std::uint64_t Case = 0; Case < 8; ++Case) {
    SplitMix64 Rng(0xa41a0000 + Case);
    bool Monotone = Case % 2 == 0;
    AkimaModel A;
    double Units = 0.0, Time = 0.0;
    for (int I = 0; I < 6 + static_cast<int>(Case); ++I) {
      Units += Rng.uniform(10.0, 400.0);
      Time = Monotone ? Time + Rng.uniform(0.01, 2.0)
                      : Units * Rng.uniform(0.002, 0.02);
      A.update(makePoint(Units, Time));
    }
    double MaxT = 2.0 * A.timeAt(A.points().back().Units);
    for (int I = 0; I < 150; ++I) {
      double T = Rng.uniform(0.0, MaxT);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(A.sizeForTime(T)),
                std::bit_cast<std::uint64_t>(fullBisection(A, T)))
          << "case " << Case << " tau " << T;
    }
  }
}

TEST(LinearModel, ExactOnLinearData) {
  // t = 0.5 + 0.01 x: a GPU-like device (staging overhead + linear
  // kernel), the model class of the paper's ref [12].
  LinearModel M;
  for (double D : {100.0, 200.0, 400.0, 800.0})
    M.update(makePoint(D, 0.5 + 0.01 * D));
  EXPECT_NEAR(M.intercept(), 0.5, 1e-9);
  EXPECT_NEAR(M.slope(), 0.01, 1e-12);
  EXPECT_NEAR(M.timeAt(300.0), 3.5, 1e-9);
  EXPECT_NEAR(M.sizeForTime(3.5), 300.0, 1e-6);
  EXPECT_DOUBLE_EQ(M.timeDerivative(123.0), 0.01);
  EXPECT_STREQ(M.kind(), "linear");
}

TEST(LinearModel, SinglePointAssumesNoOverhead) {
  LinearModel M;
  M.update(makePoint(100.0, 2.0));
  EXPECT_DOUBLE_EQ(M.intercept(), 0.0);
  EXPECT_DOUBLE_EQ(M.slope(), 0.02);
}

TEST(LinearModel, SizeForTimeBelowInterceptIsZero) {
  LinearModel M;
  M.update(makePoint(100.0, 1.5)); // Through origin after one point...
  M.update(makePoint(200.0, 2.5)); // ...now a = 0.5, b = 0.01.
  EXPECT_NEAR(M.intercept(), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(M.sizeForTime(0.25), 0.0);
}

TEST(LinearModel, DegenerateFitFallsBackToOrigin) {
  // Decreasing times with size would give a negative slope; the model
  // must stay invertible.
  LinearModel M;
  M.update(makePoint(100.0, 2.0));
  M.update(makePoint(200.0, 1.0));
  EXPECT_GT(M.slope(), 0.0);
  EXPECT_DOUBLE_EQ(M.intercept(), 0.0);
}

TEST(LinearModel, FitsGpuProfileWell) {
  DeviceProfile Gpu = makeGpuProfile("gpu", 1000.0, 0.2, 1e9, 1.0);
  LinearModel M;
  for (double D = 100.0; D <= 2000.0; D += 100.0)
    M.update(makePoint(D, Gpu.time(D)));
  EXPECT_NEAR(M.intercept(), 0.2, 0.01);
  for (double X : {150.0, 750.0, 1900.0})
    EXPECT_NEAR(M.timeAt(X), Gpu.time(X), 0.01 * Gpu.time(X)) << X;
}

TEST(ModelFactory, CreatesAllKinds) {
  EXPECT_STREQ(makeModel("cpm")->kind(), "cpm");
  EXPECT_STREQ(makeModel("piecewise")->kind(), "piecewise");
  EXPECT_STREQ(makeModel("akima")->kind(), "akima");
  EXPECT_STREQ(makeModel("linear")->kind(), "linear");
}

// Property: all models fed with dense exact points of a realistic profile
// predict times close to the truth inside the sampled range.
class ModelAccuracyTest
    : public ::testing::TestWithParam<const char *> {};

TEST_P(ModelAccuracyTest, TracksSmoothProfile) {
  DeviceProfile P = makeCpuProfile("cpu", 500.0, 20.0, 1500.0, 250.0, 0.5);
  auto M = makeModel(GetParam());
  for (double D = 100.0; D <= 3000.0; D += 100.0)
    M->update(makePoint(D, P.time(D)));

  bool IsCpm = std::string(GetParam()) == "cpm";
  for (double X = 150.0; X <= 2900.0; X += 137.0) {
    double True = P.time(X);
    double Predicted = M->timeAt(X);
    // Functional models stay within a few percent; CPM (constant speed)
    // is allowed a much wider band on this non-constant profile.
    double Tolerance = IsCpm ? 0.8 * True : 0.05 * True;
    EXPECT_NEAR(Predicted, True, Tolerance) << GetParam() << " at " << X;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, ModelAccuracyTest,
                         ::testing::Values("cpm", "piecewise", "akima"));

// Property: functional models reproduce the profile's *speed* shape: the
// speed drop across a cliff is visible in the model.
TEST(ModelShape, FunctionalModelsSeeTheCliff) {
  DeviceProfile P = makeCpuProfile("cpu", 1000.0, 1.0, 500.0, 50.0, 0.6);
  for (const char *Kind : {"piecewise", "akima"}) {
    auto M = makeModel(Kind);
    feedProfile(*M, P, {50.0, 150.0, 300.0, 450.0, 600.0, 800.0, 1200.0});
    double Before = M->speedAt(300.0);
    double After = M->speedAt(1100.0);
    EXPECT_GT(Before, 1.5 * After) << Kind;
  }
}
