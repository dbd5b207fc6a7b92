//===-- tests/PartitionersTest.cpp - static partitioner tests -------------===//

#include "core/Partitioners.h"

#include "sim/Cluster.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>

using namespace fupermod;

namespace {

Point makePoint(double Units, double Time) {
  Point P;
  P.Units = Units;
  P.Time = Time;
  P.Reps = 3;
  return P;
}

/// Builds one model per profile, fed with exact measurements on a log-ish
/// grid up to MaxSize.
std::vector<std::unique_ptr<Model>>
buildModels(const char *Kind, std::span<const DeviceProfile> Profiles,
            double MaxSize, int NumPoints = 24) {
  std::vector<std::unique_ptr<Model>> Models;
  for (const DeviceProfile &P : Profiles) {
    auto M = makeModel(Kind);
    for (int I = 1; I <= NumPoints; ++I) {
      double D = MaxSize * I / NumPoints;
      M->update(makePoint(D, P.time(D)));
    }
    Models.push_back(std::move(M));
  }
  return Models;
}

std::vector<Model *> ptrs(std::vector<std::unique_ptr<Model>> &Models) {
  std::vector<Model *> Out;
  for (auto &M : Models)
    Out.push_back(M.get());
  return Out;
}

/// Folds one part's units and the bits of its predicted time into \p H.
std::uint64_t hashPart(std::uint64_t H, const Part &P) {
  const std::uint64_t Fields[2] = {
      static_cast<std::uint64_t>(P.Units),
      std::bit_cast<std::uint64_t>(P.PredictedTime)};
  return fnv1a(std::as_bytes(std::span(Fields)), H);
}

} // namespace

TEST(ConstantPartitioner, ProportionalToSpeeds) {
  // Speeds 100 and 300 -> split 1:3.
  std::vector<std::unique_ptr<Model>> Models;
  Models.push_back(makeModel("cpm"));
  Models.push_back(makeModel("cpm"));
  Models[0]->update(makePoint(100.0, 1.0));
  Models[1]->update(makePoint(300.0, 1.0));
  auto P = ptrs(Models);
  Dist Out;
  ASSERT_TRUE(partitionConstant(400, P, Out));
  EXPECT_EQ(Out.Parts[0].Units, 100);
  EXPECT_EQ(Out.Parts[1].Units, 300);
  EXPECT_EQ(Out.sum(), 400);
  // Predicted equal completion times for proportional speeds.
  EXPECT_NEAR(Out.Parts[0].PredictedTime, Out.Parts[1].PredictedTime, 1e-9);
}

TEST(ConstantPartitioner, RejectsUnfittedModels) {
  std::vector<std::unique_ptr<Model>> Models;
  Models.push_back(makeModel("cpm"));
  auto P = ptrs(Models);
  Dist Out;
  EXPECT_FALSE(partitionConstant(10, P, Out));
}

TEST(ConstantPartitioner, ZeroTotal) {
  std::vector<std::unique_ptr<Model>> Models;
  Models.push_back(makeModel("cpm"));
  Models[0]->update(makePoint(10.0, 1.0));
  auto P = ptrs(Models);
  Dist Out;
  ASSERT_TRUE(partitionConstant(0, P, Out));
  EXPECT_EQ(Out.sum(), 0);
}

TEST(GeometricPartitioner, EqualisesPredictedTimes) {
  Cluster C = makeTwoDeviceCluster();
  auto Models = buildModels("piecewise", C.Devices, 8000.0);
  auto P = ptrs(Models);
  Dist Out;
  ASSERT_TRUE(partitionGeometric(5000, P, Out));
  EXPECT_EQ(Out.sum(), 5000);
  // Equal predicted completion times up to one-unit rounding.
  double T0 = Out.Parts[0].PredictedTime;
  double T1 = Out.Parts[1].PredictedTime;
  EXPECT_NEAR(T0, T1, 0.02 * std::max(T0, T1));
}

TEST(GeometricPartitioner, FastDeviceGetsMoreBeforeItsCliff) {
  // At D = 1500 both allocations sit left of device 0's cache cliff, so
  // the nominally fast device must take the visibly bigger share. (At
  // much larger D its post-cliff speed drops below the slow device's and
  // the split legitimately flips — that case is covered by the
  // equal-time check above.)
  Cluster C = makeTwoDeviceCluster();
  auto Models = buildModels("piecewise", C.Devices, 8000.0);
  auto P = ptrs(Models);
  Dist Out;
  ASSERT_TRUE(partitionGeometric(1500, P, Out));
  EXPECT_GT(Out.Parts[0].Units, Out.Parts[1].Units);
}

TEST(GeometricPartitioner, SingleProcessTakesAll) {
  Cluster C = makeTwoDeviceCluster();
  auto Models = buildModels("piecewise",
                            std::span(C.Devices.data(), 1), 4000.0);
  auto P = ptrs(Models);
  Dist Out;
  ASSERT_TRUE(partitionGeometric(1234, P, Out));
  ASSERT_EQ(Out.Parts.size(), 1u);
  EXPECT_EQ(Out.Parts[0].Units, 1234);
}

TEST(NumericalPartitioner, EqualisesPredictedTimes) {
  Cluster C = makeTwoDeviceCluster();
  auto Models = buildModels("akima", C.Devices, 8000.0);
  auto P = ptrs(Models);
  Dist Out;
  ASSERT_TRUE(partitionNumerical(5000, P, Out));
  EXPECT_EQ(Out.sum(), 5000);
  double T0 = Out.Parts[0].PredictedTime;
  double T1 = Out.Parts[1].PredictedTime;
  EXPECT_NEAR(T0, T1, 0.02 * std::max(T0, T1));
}

TEST(NumericalPartitioner, AgreesWithGeometricOnMonotoneData) {
  Cluster C = makeTwoDeviceCluster();
  auto PiecewiseModels = buildModels("piecewise", C.Devices, 8000.0);
  auto AkimaModels = buildModels("akima", C.Devices, 8000.0);
  auto PG = ptrs(PiecewiseModels);
  auto PN = ptrs(AkimaModels);
  Dist Geo, Num;
  ASSERT_TRUE(partitionGeometric(6000, PG, Geo));
  ASSERT_TRUE(partitionNumerical(6000, PN, Num));
  // Same data, different interpolants: shares agree within a few percent.
  EXPECT_NEAR(static_cast<double>(Geo.Parts[0].Units),
              static_cast<double>(Num.Parts[0].Units), 0.05 * 6000);
}

TEST(AllPartitioners, HomogeneousClusterGetsEvenSplit) {
  Cluster C = makeUniformCluster(4, 100.0);
  for (const char *Spec :
       {"constant", "geometric", "numerical"}) {
    const char *Kind = std::string(Spec) == "constant" ? "cpm" : "akima";
    auto Models = buildModels(Kind, C.Devices, 2000.0);
    auto P = ptrs(Models);
    Dist Out;
    ASSERT_TRUE(findPartitioner(Spec)(1000, P, Out)) << Spec;
    for (const Part &Pt : Out.Parts)
      EXPECT_EQ(Pt.Units, 250) << Spec;
  }
}

// Property sweep: every algorithm preserves the total and achieves a low
// predicted imbalance on the heterogeneous HCL-like cluster, across a
// range of problem sizes spanning the devices' cliffs.
struct SweepCase {
  const char *Algorithm;
  const char *ModelKind;
  std::int64_t Total;
};

class PartitionerSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PartitionerSweep, SumPreservedAndBalanced) {
  const SweepCase &Case = GetParam();
  Cluster C = makeHclLikeCluster(true);
  auto Models = buildModels(Case.ModelKind, C.Devices,
                            static_cast<double>(Case.Total) * 1.2, 32);
  auto P = ptrs(Models);
  Dist Out;
  ASSERT_TRUE(findPartitioner(Case.Algorithm)(Case.Total, P, Out));
  EXPECT_EQ(Out.sum(), Case.Total);
  for (const Part &Pt : Out.Parts)
    EXPECT_GE(Pt.Units, 0);

  // Functional algorithms must equalise the *predicted* times tightly.
  if (std::string(Case.Algorithm) != "constant") {
    double MaxT = 0.0, MinT = 1e300;
    for (const Part &Pt : Out.Parts) {
      if (Pt.Units == 0)
        continue;
      MaxT = std::max(MaxT, Pt.PredictedTime);
      MinT = std::min(MinT, Pt.PredictedTime);
    }
    EXPECT_LT((MaxT - MinT) / MaxT, 0.10)
        << Case.Algorithm << " D=" << Case.Total;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionerSweep,
    ::testing::Values(SweepCase{"constant", "cpm", 3000},
                      SweepCase{"constant", "cpm", 30000},
                      SweepCase{"geometric", "piecewise", 3000},
                      SweepCase{"geometric", "piecewise", 12000},
                      SweepCase{"geometric", "piecewise", 30000},
                      SweepCase{"numerical", "akima", 3000},
                      SweepCase{"numerical", "akima", 12000},
                      SweepCase{"numerical", "akima", 30000}));

// Ground-truth validation: for two processes the whole solution space can
// be enumerated; the geometric and numerical algorithms must match the
// brute-force optimum of their own models' predictions (up to one unit of
// rounding).
class BruteForceTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(BruteForceTest, MatchesExhaustiveOptimum) {
  std::int64_t D = GetParam();
  Cluster C = makeTwoDeviceCluster();
  auto Piecewise = buildModels("piecewise", C.Devices, 1.5 * D);
  auto Akima = buildModels("akima", C.Devices, 1.5 * D);

  auto BruteForce = [&](std::vector<std::unique_ptr<Model>> &Models) {
    double Best = 1e300;
    for (std::int64_t X = 0; X <= D; ++X) {
      double T0 = X > 0 ? Models[0]->timeAt(static_cast<double>(X)) : 0.0;
      double T1 = D - X > 0
                      ? Models[1]->timeAt(static_cast<double>(D - X))
                      : 0.0;
      Best = std::min(Best, std::max(T0, T1));
    }
    return Best;
  };

  auto P = ptrs(Piecewise);
  Dist Geo;
  ASSERT_TRUE(partitionGeometric(D, P, Geo));
  double GeoSpan = std::max(Geo.Parts[0].PredictedTime,
                            Geo.Parts[1].PredictedTime);
  EXPECT_LE(GeoSpan, 1.02 * BruteForce(Piecewise)) << "D=" << D;

  auto PA = ptrs(Akima);
  Dist Num;
  ASSERT_TRUE(partitionNumerical(D, PA, Num));
  double NumSpan = std::max(Num.Parts[0].PredictedTime,
                            Num.Parts[1].PredictedTime);
  EXPECT_LE(NumSpan, 1.02 * BruteForce(Akima)) << "D=" << D;
}

INSTANTIATE_TEST_SUITE_P(Totals, BruteForceTest,
                         ::testing::Values(50, 200, 1000, 3000));

// Pins the common-time search bit for bit: every part of the geometric
// and numerical answers over 50 seeded platforms, on piecewise and Akima
// models, at totals whose per-device shares lie inside, at the edge of
// and far beyond the measured sizes. The numerical partitioner starts
// Newton from the geometric shares and its time scale is tau, so both
// depend on how tau is bracketed and bisected.
TEST(AllPartitioners, CommonTimeSearchPinned) {
  const double MaxSize = 3000.0;
  std::uint64_t H = Fnv1aBasis;
  int Solves = 0;
  for (std::uint64_t Variant = 1; Variant <= 50; ++Variant) {
    int P = 2 + static_cast<int>(Variant % 7);
    Cluster C = makeHeterogeneousCluster(P, Variant);
    for (const char *Kind : {"piecewise", "akima"}) {
      auto Models = buildModels(Kind, C.Devices, MaxSize, 16);
      auto Ptrs = ptrs(Models);
      for (double PerDevice : {150.0, 1100.0, 2900.0, 9000.0}) {
        auto Total = static_cast<std::int64_t>(PerDevice * P) +
                     static_cast<std::int64_t>(Variant);
        for (const Partitioner &Solve :
             {Partitioner(partitionGeometric),
              Partitioner(partitionNumerical)}) {
          Dist Out;
          ASSERT_TRUE(Solve(Total, Ptrs, Out))
              << "variant " << Variant << " " << Kind << " total " << Total;
          ASSERT_EQ(Out.sum(), Total);
          for (const Part &Pt : Out.Parts)
            H = hashPart(H, Pt);
          ++Solves;
        }
      }
    }
  }
  EXPECT_EQ(Solves, 800);
  EXPECT_EQ(H, 0xcaa5f1793ad44285ull) << std::hex << H;
}
