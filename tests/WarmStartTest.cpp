//===-- tests/WarmStartTest.cpp - warm-started partitioning laws ----------===//
//
// Property-based net over the warm-started partitioners: ~200 seeded
// random heterogeneous clusters, each taken through every hint state the
// warm variants distinguish. The law under test is single: a warm call
// returns exactly what the cold algorithm returns right now, whatever the
// hint says —
//
//  1. empty hint (first call): the cold code path itself;
//  2. valid hint, unchanged models: the memoized solution is replayed
//     without touching the models at all (fit epochs prove exactness);
//  3. stale hint after incremental feedback: the solvers reuse the hint
//     only as a seed (bisection bracket, Newton initial guess), so the
//     answer tracks the *new* fit;
//  4. stale hint after a device was excluded: the size mismatch forces a
//     full revalidation and re-solve.
//
//===----------------------------------------------------------------------===//

#include "core/Benchmark.h"
#include "core/Model.h"
#include "core/Partitioners.h"
#include "sim/Cluster.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

using namespace fupermod;

namespace {

/// A piecewise model that counts every evaluation the partitioners can
/// make of it, so a test can prove a memo replay left the models alone.
class CountingPiecewiseModel : public PiecewiseModel {
public:
  double sizeForTime(double T) const override {
    ++Calls;
    return PiecewiseModel::sizeForTime(T);
  }
  double timeDerivative(double X) const override {
    ++Calls;
    return PiecewiseModel::timeDerivative(X);
  }
  void timesAt(std::span<const double> Xs,
               std::span<double> Out) const override {
    ++Calls;
    PiecewiseModel::timesAt(Xs, Out);
  }

  mutable std::uint64_t Calls = 0;

protected:
  double timeImpl(double X) const override {
    ++Calls;
    return PiecewiseModel::timeImpl(X);
  }
};

Registrar<ModelRegistry> RegCounting(
    modelRegistry(), "counting-piecewise", [] {
      return std::unique_ptr<Model>(
          std::make_unique<CountingPiecewiseModel>());
    });

struct BuiltCluster {
  Cluster Cl;
  std::vector<BuiltModel> Built;
  std::vector<Model *> Models;
};

/// Benchmarks and fits one model per device of a (P, Variant)-named
/// random platform (the PartitionPropertyTest generator, noise-free).
BuiltCluster buildCluster(int P, std::uint64_t Variant) {
  BuiltCluster B;
  B.Cl = makeHeterogeneousCluster(P, Variant);
  B.Cl.NoiseSigma = 0.0;

  ModelBuildPlan Plan;
  Plan.Kind = "counting-piecewise";
  Plan.MinSize = 64.0;
  Plan.MaxSize = 7000.0;
  Plan.NumPoints = 10;
  Plan.Prec.MinReps = 1;
  Plan.Prec.MaxReps = 2;
  B.Built = buildModelsParallel(B.Cl, Plan);
  for (BuiltModel &M : B.Built)
    B.Models.push_back(M.M.get());
  return B;
}

Point makePoint(double Units, double Time, int Reps = 3) {
  Point P;
  P.Units = Units;
  P.Time = Time;
  P.Reps = Reps;
  P.ConfidenceInterval = 0.0;
  return P;
}

std::uint64_t totalCalls(std::span<Model *const> Models) {
  std::uint64_t Sum = 0;
  for (Model *M : Models)
    Sum += static_cast<const CountingPiecewiseModel &>(*M).Calls;
  return Sum;
}

} // namespace

TEST(WarmStart, EveryHintStateMatchesColdOverRandomClusters) {
  for (std::uint64_t Case = 0; Case < 200; ++Case) {
    SplitMix64 Rng(0x51ed2701 + Case);
    int P = 2 + static_cast<int>(Case % 7);
    BuiltCluster B = buildCluster(P, /*Variant=*/4000 + Case);
    std::int64_t Total =
        1500 + static_cast<std::int64_t>(Rng.uniform(0.0, 45000.0));

    for (const char *Name : {"geometric", "numerical"}) {
      Partitioner Cold = findPartitioner(Name);
      WarmPartitioner Warm = findWarmPartitioner(Name);
      ASSERT_TRUE(Cold && Warm);
      PartitionHint Hint;

      // 1. First call, empty hint: the cold path, byte for byte.
      Dist C0, W0;
      ASSERT_TRUE(Cold(Total, B.Models, C0));
      ASSERT_TRUE(Warm(Total, B.Models, W0, Hint));
      EXPECT_TRUE(W0.sameUnits(C0))
          << Name << " first warm call diverged, cluster " << Case;

      // 2. Unchanged models: memo replay — identical result, and the
      // models are provably untouched (not a single evaluation).
      std::uint64_t Calls = totalCalls(B.Models);
      Dist W1;
      ASSERT_TRUE(Warm(Total, B.Models, W1, Hint));
      EXPECT_TRUE(W1.sameUnits(C0))
          << Name << " memo replay diverged, cluster " << Case;
      EXPECT_EQ(totalCalls(B.Models), Calls)
          << Name << " memo replay touched the models, cluster " << Case;

      // 3. Incremental feedback on one device: the hint is stale (its
      // epoch no longer matches) and may only seed the solver.
      std::size_t Victim = static_cast<std::size_t>(Case) % B.Models.size();
      double X = 200.0 + Rng.uniform(0.0, 5000.0);
      B.Models[Victim]->update(
          makePoint(X, B.Cl.Devices[Victim].time(X) * 1.07));
      Dist C1, W2;
      ASSERT_TRUE(Cold(Total, B.Models, C1));
      ASSERT_TRUE(Warm(Total, B.Models, W2, Hint));
      EXPECT_TRUE(W2.sameUnits(C1))
          << Name << " post-feedback warm diverged, cluster " << Case;

      // 4. Device exclusion: fewer models than the hint was recorded
      // for — revalidation must fail on the size mismatch alone.
      std::vector<Model *> Sub(B.Models.begin(), B.Models.end() - 1);
      Dist C2, W3;
      ASSERT_TRUE(Cold(Total, Sub, C2));
      ASSERT_TRUE(Warm(Total, Sub, W3, Hint));
      EXPECT_TRUE(W3.sameUnits(C2))
          << Name << " post-exclusion warm diverged, cluster " << Case;
    }
  }
}

TEST(WarmStart, GenericMemoWrapperCoversUnseededAlgorithms) {
  // "constant" has no bespoke seeded path; findWarmPartitioner wraps the
  // cold algorithm with the epoch-validated memo, which must give the
  // same equality guarantees.
  for (std::uint64_t Case = 0; Case < 40; ++Case) {
    int P = 2 + static_cast<int>(Case % 5);
    BuiltCluster B = buildCluster(P, /*Variant=*/6000 + Case);
    std::int64_t Total = 3000 + static_cast<std::int64_t>(Case) * 137;

    Partitioner Cold = findPartitioner("constant");
    WarmPartitioner Warm = findWarmPartitioner("constant");
    ASSERT_TRUE(Cold && Warm);
    PartitionHint Hint;

    Dist C0, W0, W1;
    ASSERT_TRUE(Cold(Total, B.Models, C0));
    ASSERT_TRUE(Warm(Total, B.Models, W0, Hint));
    EXPECT_TRUE(W0.sameUnits(C0)) << "cluster " << Case;
    ASSERT_TRUE(Warm(Total, B.Models, W1, Hint)); // memo replay
    EXPECT_TRUE(W1.sameUnits(C0)) << "cluster " << Case;

    // Feedback invalidates the memo through the epoch, like the seeded
    // variants.
    double X = 500.0 + static_cast<double>(Case) * 11.0;
    B.Models[0]->update(makePoint(X, B.Cl.Devices[0].time(X) * 1.25));
    Dist C1, W2;
    ASSERT_TRUE(Cold(Total, B.Models, C1));
    ASSERT_TRUE(Warm(Total, B.Models, W2, Hint));
    EXPECT_TRUE(W2.sameUnits(C1)) << "cluster " << Case;
  }
}

TEST(WarmStart, UnknownAlgorithmStillDiagnosed) {
  std::string Err;
  WarmPartitioner W = findWarmPartitioner("no-such-algorithm", &Err);
  EXPECT_FALSE(static_cast<bool>(W));
  EXPECT_FALSE(Err.empty());
}
