//===-- bench/build_throughput.cpp - parallel builder throughput ----------===//
//
// Records the repo's perf trajectory for the model-building and
// partitioning hot path: wall time of buildModelsParallel at 1/2/4/8
// workers on an 8-device simulated cluster (with wall-time emulation, so
// a measurement costs real blocking time the way a device kernel does),
// bit-identity of the parallel Point sets against the serial build, the
// cold latency of the partitioners over the built models, and the
// repeat-partition path: an engine::Session measured from the same plan
// (its models are the serial build's bit for bit) answers one total,
// then replays it from its memo, which must return identical unit
// counts at a fraction of the first solve's latency.
//
// Output: a table on stdout and BENCH_build_throughput.json in the
// working directory. With --smoke, runs a tiny configuration and exits
// non-zero if parallel output diverges from serial, the partitioners
// fail, or a repeat partition differs from the first solve — the
// tier-1 perf tripwire.
//
//===----------------------------------------------------------------------===//

#include "core/Benchmark.h"
#include "core/Metrics.h"
#include "core/Partitioners.h"
#include "engine/Session.h"
#include "sim/Cluster.h"
#include "support/Options.h"
#include "support/Table.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>

using namespace fupermod;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool bitIdentical(const Point &A, const Point &B) {
  return std::memcmp(&A.Units, &B.Units, sizeof(double)) == 0 &&
         std::memcmp(&A.Time, &B.Time, sizeof(double)) == 0 &&
         A.Reps == B.Reps &&
         std::memcmp(&A.ConfidenceInterval, &B.ConfidenceInterval,
                     sizeof(double)) == 0 &&
         A.Status == B.Status;
}

bool identicalBuilds(const std::vector<BuiltModel> &A,
                     const std::vector<BuiltModel> &B) {
  if (A.size() != B.size())
    return false;
  for (std::size_t R = 0; R < A.size(); ++R) {
    if (A[R].Raw.size() != B[R].Raw.size())
      return false;
    for (std::size_t I = 0; I < A[R].Raw.size(); ++I)
      if (!bitIdentical(A[R].Raw[I], B[R].Raw[I]))
        return false;
  }
  return true;
}

struct PartitionStats {
  double ColdSeconds = 0.0;
  bool Ok = true;
};

/// Times one cold solve of a partitioner.
PartitionStats measurePartition(const Partitioner &Algorithm,
                                std::int64_t Total,
                                std::span<Model *const> Models) {
  Dist D;
  double T0 = now();
  bool Ok = Algorithm(Total, Models, D);
  double T1 = now();

  PartitionStats S;
  S.Ok = Ok && D.sum() == Total;
  S.ColdSeconds = T1 - T0;
  return S;
}

struct RepeatStats {
  double FirstSeconds = 0.0;
  /// Seconds per repeat (a replay of the Session's memo).
  double RepeatSeconds = 0.0;
  double Speedup = 0.0;
  bool Identical = true;
  bool Ok = true;
};

/// Times the Session's first partition of \p Total with \p Algorithm and
/// \p Reps repeats of it, verifying every repeat returns the first
/// solve's unit counts exactly.
RepeatStats measureRepeats(engine::Session &S, const std::string &Algorithm,
                           std::int64_t Total, int Reps) {
  double T0 = now();
  Result<Dist> First = S.partition(Total, Algorithm);
  double T1 = now();

  RepeatStats R;
  R.Ok = First.ok() && First.value().sum() == Total;
  if (!R.Ok)
    return R;
  double T2 = now();
  for (int I = 0; I < Reps; ++I) {
    Result<Dist> Again = S.partition(Total, Algorithm);
    R.Identical =
        R.Identical && Again.ok() && Again.value().sameUnits(First.value());
  }
  double T3 = now();
  R.FirstSeconds = T1 - T0;
  R.RepeatSeconds = (T3 - T2) / Reps;
  R.Speedup = R.RepeatSeconds > 0.0 ? R.FirstSeconds / R.RepeatSeconds : 0.0;
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv);
  const bool Smoke = Opts.has("smoke");

  // 8 heterogeneous devices; the smoke configuration shrinks everything
  // so the tier-1 run costs well under a second.
  const int Ranks = Smoke ? 3 : 8;
  const std::int64_t Total = Smoke ? 3000 : 20000;
  Cluster Cl = makeHeterogeneousCluster(Ranks, /*Variant=*/11);
  Cl.NoiseSigma = 0.02;

  ModelBuildPlan Plan;
  Plan.Kind = "piecewise";
  Plan.MinSize = 100.0;
  Plan.MaxSize = 6000.0;
  Plan.NumPoints = Smoke ? 4 : 12;
  Plan.Prec.MinReps = 3;
  Plan.Prec.MaxReps = Smoke ? 4 : 8;
  Plan.Prec.TargetRelativeError = 0.02;

  // Calibrate wall-time emulation so the serial build costs a measurable,
  // bounded amount of real time (~1.2 s full, ~0.1 s smoke): run once
  // without emulation to learn the total simulated seconds.
  double SimSeconds = 0.0;
  {
    std::vector<BuiltModel> Dry = buildModelsParallel(Cl, Plan);
    for (const BuiltModel &B : Dry)
      for (const Point &P : B.Raw)
        if (P.Reps > 0)
          SimSeconds += P.Time * P.Reps;
  }
  const double TargetSerialSeconds = Smoke ? 0.1 : 1.2;
  Plan.WallScale = SimSeconds > 0.0 ? TargetSerialSeconds / SimSeconds : 0.0;

  std::cout << "=== build throughput: parallel model construction & "
               "partitioning ===\n\n"
            << "platform: " << Ranks << " heterogeneous devices, "
            << Plan.NumPoints << " sizes in [" << Plan.MinSize << ", "
            << Plan.MaxSize << "], wall emulation "
            << TargetSerialSeconds << " s serial budget\n\n";

  // Build at increasing worker counts; Jobs = 1 is the serial reference.
  const int JobCounts[] = {1, 2, 4, 8};
  double Seconds[4] = {0, 0, 0, 0};
  std::vector<BuiltModel> Serial;
  bool Identical = true;
  Table T({"jobs", "build_wall(s)", "speedup", "bit_identical"});
  for (int J = 0; J < 4; ++J) {
    if (JobCounts[J] > Ranks && JobCounts[J] != 1 &&
        JobCounts[J] / 2 >= Ranks) {
      Seconds[J] = Seconds[J - 1];
      continue; // More workers than devices changes nothing; skip re-run.
    }
    Plan.Jobs = JobCounts[J];
    double T0 = now();
    std::vector<BuiltModel> Built = buildModelsParallel(Cl, Plan);
    Seconds[J] = now() - T0;
    if (JobCounts[J] == 1)
      Serial = std::move(Built);
    else {
      bool Same = identicalBuilds(Serial, Built);
      Identical = Identical && Same;
    }
    T.addRow({Table::num(JobCounts[J]), Table::num(Seconds[J], 3),
              Table::num(Seconds[0] / Seconds[J], 2),
              JobCounts[J] == 1 ? "(reference)"
                                : (Identical ? "yes" : "NO")});
  }
  T.print(std::cout);
  double Speedup8 = Seconds[0] / Seconds[3];

  // Cold partition latency over the serial build's models.
  std::vector<Model *> Models;
  for (BuiltModel &B : Serial)
    Models.push_back(B.M.get());
  PartitionStats Geo =
      measurePartition(partitionGeometric, Total, Models);
  PartitionStats Num =
      measurePartition(partitionNumerical, Total, Models);

  // Repeats through a Session: the memo replay that --serve and the
  // apps take on every repeat while the models are unchanged. The
  // session measures without wall emulation; the models do not depend
  // on it or on the worker count.
  Plan.WallScale = 0.0;
  engine::SessionConfig Cfg;
  Cfg.Platform = Cl;
  Cfg.ModelKind = Plan.Kind;
  Result<std::unique_ptr<engine::Session>> Made =
      engine::Session::create(std::move(Cfg));
  if (!Made || !Made.value()->measure(Plan)) {
    std::cout << "FAIL: cannot measure the repeat session\n";
    return 1;
  }
  engine::Session &S = *Made.value();
  const int Reps = Smoke ? 20 : 200;
  RepeatStats GeoR = measureRepeats(S, "geometric", Total, Reps);
  RepeatStats NumR = measureRepeats(S, "numerical", Total, Reps);

  std::cout << "\npartition latency (geometric): cold "
            << Geo.ColdSeconds * 1e6 << " us\n"
            << "partition latency (numerical): cold "
            << Num.ColdSeconds * 1e6 << " us\n"
            << "session repeat (geometric): " << GeoR.RepeatSeconds * 1e6
            << " us (" << GeoR.Speedup << "x the first solve), units "
            << (GeoR.Identical ? "identical" : "DIVERGED") << "\n"
            << "session repeat (numerical): " << NumR.RepeatSeconds * 1e6
            << " us (" << NumR.Speedup << "x the first solve), units "
            << (NumR.Identical ? "identical" : "DIVERGED") << "\n"
            << "\nserial " << Seconds[0] << " s -> 8 workers "
            << Seconds[3] << " s (" << Speedup8 << "x), outputs "
            << (Identical ? "bit-identical" : "DIVERGED") << "\n";

  std::FILE *J = std::fopen("BENCH_build_throughput.json", "w");
  if (J) {
    std::fprintf(J,
                 "{\n"
                 "  \"bench\": \"build_throughput\",\n"
                 "  \"mode\": \"%s\",\n"
                 "  \"devices\": %d,\n"
                 "  \"points_per_device\": %d,\n"
                 "  \"total_units\": %lld,\n"
                 "  \"build_wall_seconds\": {\"jobs1\": %.6f, \"jobs2\": "
                 "%.6f, \"jobs4\": %.6f, \"jobs8\": %.6f},\n"
                 "  \"speedup_8_workers\": %.3f,\n"
                 "  \"bit_identical\": %s,\n"
                 "  \"partition\": {\n"
                 "    \"geometric\": {\"cold_us\": %.2f, \"repeat_us\": "
                 "%.3f, \"repeat_speedup\": %.1f},\n"
                 "    \"numerical\": {\"cold_us\": %.2f, \"repeat_us\": "
                 "%.3f, \"repeat_speedup\": %.1f}\n"
                 "  },\n"
                 "  \"repeat_units_identical\": %s\n"
                 "}\n",
                 Smoke ? "smoke" : "full", Ranks, Plan.NumPoints,
                 static_cast<long long>(Total), Seconds[0], Seconds[1],
                 Seconds[2], Seconds[3], Speedup8,
                 Identical ? "true" : "false", Geo.ColdSeconds * 1e6,
                 GeoR.RepeatSeconds * 1e6, GeoR.Speedup,
                 Num.ColdSeconds * 1e6, NumR.RepeatSeconds * 1e6,
                 NumR.Speedup,
                 GeoR.Identical && NumR.Identical ? "true" : "false");
    std::fclose(J);
    std::cout << "# wrote BENCH_build_throughput.json\n";
  }

  // Tripwires. Determinism and partitioner health gate both modes; the
  // speedup floors gate the full run only (smoke is too short to time).
  if (!Identical || !Geo.Ok || !Num.Ok || !GeoR.Ok || !NumR.Ok) {
    std::cout << "FAIL: parallel build diverged or partitioning broke\n";
    return 1;
  }
  if (!GeoR.Identical || !NumR.Identical) {
    std::cout << "FAIL: repeat partition diverged from the first solve\n";
    return 1;
  }
  if (!Smoke && Speedup8 < 3.0) {
    std::cout << "FAIL: 8-worker speedup " << Speedup8 << " < 3x floor\n";
    return 1;
  }
  if (!Smoke && (GeoR.Speedup < 10.0 || NumR.Speedup < 10.0)) {
    std::cout << "FAIL: repeat speedup (geometric " << GeoR.Speedup
              << "x, numerical " << NumR.Speedup << "x) < 10x floor\n";
    return 1;
  }
  return 0;
}
