//===-- tests/ParallelBuildTest.cpp - parallel build determinism ----------===//
//
// buildModelsParallel must be a pure parallelisation: for a fixed seed,
// the Point sets it produces with 1, 4, or 8 devices in flight, and with
// a default plan on the process-wide host pool, are bit-identical to the
// serial build, including on a cluster with fault lines (the shipped
// examples/sample.cluster injects a GPU slowdown). Determinism comes
// from per-rank RNG streams (Cluster::makeDevice seeds with Seed + Rank),
// so any scheduling of the lanes observes the same measurement sequence
// — this test is the tripwire that keeps it true. It is also a TSan
// workload: the campaign shares the host pool with other callers.
//
//===----------------------------------------------------------------------===//

#include "core/Benchmark.h"
#include "core/ModelIO.h"
#include "sim/Cluster.h"
#include "sim/ClusterIO.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

using namespace fupermod;

namespace {

// Point carries doubles; compare bit patterns, not values, so that even
// a sign-of-zero or NaN-payload difference between schedules would trip.
bool bitIdentical(const Point &A, const Point &B) {
  return std::memcmp(&A.Units, &B.Units, sizeof(double)) == 0 &&
         std::memcmp(&A.Time, &B.Time, sizeof(double)) == 0 &&
         A.Reps == B.Reps &&
         std::memcmp(&A.ConfidenceInterval, &B.ConfidenceInterval,
                     sizeof(double)) == 0 &&
         A.Status == B.Status;
}

void expectIdentical(const std::vector<BuiltModel> &Serial,
                     const std::vector<BuiltModel> &Parallel, int Jobs) {
  ASSERT_EQ(Serial.size(), Parallel.size()) << "jobs=" << Jobs;
  for (std::size_t R = 0; R < Serial.size(); ++R) {
    ASSERT_EQ(Serial[R].Raw.size(), Parallel[R].Raw.size())
        << "jobs=" << Jobs << " rank " << R;
    for (std::size_t I = 0; I < Serial[R].Raw.size(); ++I)
      EXPECT_TRUE(bitIdentical(Serial[R].Raw[I], Parallel[R].Raw[I]))
          << "jobs=" << Jobs << " rank " << R << " point " << I
          << ": units " << Parallel[R].Raw[I].Units << " time "
          << Parallel[R].Raw[I].Time << " vs serial "
          << Serial[R].Raw[I].Time;
  }
}

ModelBuildPlan smallPlan() {
  ModelBuildPlan Plan;
  Plan.Kind = "piecewise";
  Plan.MinSize = 100.0;
  Plan.MaxSize = 5000.0;
  Plan.NumPoints = 8;
  Plan.Prec.MinReps = 3;
  Plan.Prec.MaxReps = 6;
  return Plan;
}

void checkAllJobCounts(const Cluster &Cl, const ModelBuildPlan &Plan) {
  ModelBuildPlan Serial = Plan;
  Serial.Jobs = 1;
  std::vector<BuiltModel> Reference = buildModelsParallel(Cl, Serial);
  for (int Jobs : {4, 8}) {
    ModelBuildPlan P = Plan;
    P.Jobs = Jobs;
    expectIdentical(Reference, buildModelsParallel(Cl, P), Jobs);
  }
}

} // namespace

TEST(ParallelBuild, BitIdenticalAcrossWorkerCounts) {
  Cluster Cl = makeHeterogeneousCluster(6, /*Variant=*/7);
  Cl.NoiseSigma = 0.03; // Noisy measurements: determinism must not rely
                        // on noise-free repeatability.
  checkAllJobCounts(Cl, smallPlan());
}

TEST(ParallelBuild, BitIdenticalOnSampleClusterWithFaults) {
  std::string Error;
  std::optional<Cluster> Cl = resolveCluster(
      FUPERMOD_SOURCE_DIR "/examples/sample.cluster", &Error);
  ASSERT_TRUE(Cl.has_value()) << Error;
  Cl->NoiseSigma = 0.02;
  // The sample cluster carries a fault line (GPU slowdown at t=3600);
  // fault plans are per-device state and must replay identically too.
  checkAllJobCounts(*Cl, smallPlan());
}

TEST(ParallelBuild, ModelsFitTheSamePoints) {
  // The fitted models, not just the raw points, must agree: same points
  // in, same knots out, independent of worker count.
  Cluster Cl = makeHeterogeneousCluster(4, /*Variant=*/3);
  ModelBuildPlan Plan = smallPlan();
  Plan.Jobs = 1;
  std::vector<BuiltModel> Serial = buildModelsParallel(Cl, Plan);
  Plan.Jobs = 4;
  std::vector<BuiltModel> Parallel = buildModelsParallel(Cl, Plan);
  for (std::size_t R = 0; R < Serial.size(); ++R) {
    ASSERT_EQ(Serial[R].M->points().size(),
              Parallel[R].M->points().size());
    for (double X : {150.0, 900.0, 2500.0, 4800.0})
      EXPECT_DOUBLE_EQ(Serial[R].M->timeAt(X), Parallel[R].M->timeAt(X))
          << "rank " << R << " size " << X;
  }
}

TEST(ParallelBuild, HostPoolCampaignMatchesSerial) {
  // A default plan benchmarks hostLanes() devices at once on hostPool();
  // its raw points and fitted models must match the serial build's.
  Cluster Cl = makeHeterogeneousCluster(5, /*Variant=*/9);
  Cl.NoiseSigma = 0.03;
  for (const char *Kind : {"piecewise", "akima"}) {
    ModelBuildPlan Plan = smallPlan();
    Plan.Kind = Kind;
    ASSERT_EQ(Plan.Jobs, static_cast<int>(hostLanes()));
    std::vector<BuiltModel> Pooled = buildModelsParallel(Cl, Plan);
    Plan.Jobs = 1;
    std::vector<BuiltModel> Serial = buildModelsParallel(Cl, Plan);
    expectIdentical(Serial, Pooled, static_cast<int>(hostLanes()));
    for (std::size_t R = 0; R < Serial.size(); ++R) {
      std::ostringstream SerialText, PooledText;
      writeModel(SerialText, *Serial[R].M);
      writeModel(PooledText, *Pooled[R].M);
      EXPECT_EQ(SerialText.str(), PooledText.str())
          << Kind << " rank " << R;
    }
  }
}
