//===-- tools/builder.cpp - model construction tool -----------------------===//
//
// Counterpart of the original FuPerMod `builder` utility: benchmarks a
// computation kernel over a range of problem sizes and writes the
// resulting performance model to a file, to be consumed later by the
// `partitioner` tool (paper Section 4.3: build the models once, reuse
// them across many runs).
//
// The tool is a thin frontend over the engine Session: it parses the
// command line, configures a session (measure -> fit), and prints what
// the session measured. Model kinds and kernels resolve through the
// registries, so a bad name is reported with the registered alternatives.
//
// Usage:
//   builder [--source native|<preset>] [--rank R|all] [--jobs N]
//           [--kind K] [--min A] [--max B] [--points N] [--output FILE]
//           [--reps-min M] [--reps-max M2] [--rel-err E] [--time-limit S]
//           [--noise SIGMA] [--threads T] [--micro]
//
//   --source native        benchmark this machine's GEMM kernel
//   --threads T            GEMM threads per measurement (native source:
//                          models the device as a T-thread processor)
//   --micro                use the register-blocked micro-kernel (tuned
//                          vendor BLAS stand-in; its AVX2 tile when the
//                          CPU supports AVX2)
//   --source two-device|hcl|hcl-nogpu
//                          sample the simulated device --rank R
//   --rank all             build every rank's model in one run; outputs
//                          go to FILE with the rank number injected
//                          before the extension (model.fpm -> model.0.fpm)
//   --jobs N               benchmark up to N devices concurrently
//                          (simulated sources only; results are
//                          bit-identical for every N)
//   --kind cpm|piecewise|akima   model kind (default piecewise)
//
// Every numeric option must be finite and every integer at most INT_MAX;
// --points, --jobs, --threads and --reps-min must be positive, --reps-max
// at least --reps-min, --min, --rel-err and --time-limit positive, and
// --noise non-negative. A violation fails with rc 2 naming the option.
//
//===----------------------------------------------------------------------===//

#include "blas/Gemm.h"
#include "engine/Session.h"
#include "sim/ClusterIO.h"
#include "support/Options.h"

#include <cstdio>
#include <limits>
#include <memory>

using namespace fupermod;

namespace {

int usage(const char *Program) {
  std::fprintf(
      stderr,
      "usage: %s [--source native|two-device|hcl|hcl-nogpu|uniformN|\n"
      "           <cluster-file>] [--rank R|all] [--jobs N]\n"
      "          [--kind cpm|piecewise|akima] [--min A] [--max B]\n"
      "          [--points N] [--output FILE] [--reps-min M]\n"
      "          [--reps-max M] [--rel-err E] [--time-limit S]\n"
      "          [--noise SIGMA] [--threads T] [--micro]\n",
      Program);
  return 2;
}

/// "model.fpm" + rank 2 -> "model.2.fpm"; extensionless names append.
std::string perRankOutput(const std::string &Base, int Rank) {
  std::size_t Dot = Base.rfind('.');
  std::size_t Slash = Base.rfind('/');
  if (Dot == std::string::npos ||
      (Slash != std::string::npos && Dot < Slash))
    return Base + "." + std::to_string(Rank);
  return Base.substr(0, Dot) + "." + std::to_string(Rank) +
         Base.substr(Dot);
}

void printPoint(double D, const Point &P) {
  if (P.Reps == 0) {
    const char *Why = P.Status == PointStatus::TimedOut      ? "timed out"
                      : P.Status == PointStatus::DeviceFailed ? "device failed"
                                                              : "infeasible";
    std::printf("size %-10.0f %s\n", D, Why);
  } else
    std::printf("size %-10.0f time %-12.6f reps %-3d speed %.1f\n", D,
                P.Time, P.Reps, P.speed());
}

/// Prints \p Msg as an error and returns the tool's usage exit code.
int fail(const std::string &Msg) {
  std::fprintf(stderr, "error: %s\n", Msg.c_str());
  return 2;
}

/// Writes the model of \p Rank to \p File and reports it; returns the
/// process exit code.
int writeModel(engine::Session &Engine, int Rank, const std::string &File) {
  if (Status S = Engine.saveModel(Rank, File); !S) {
    std::fprintf(stderr, "error: %s\n", S.error().c_str());
    return 1;
  }
  const Model *M = Engine.model(Rank);
  std::printf("# wrote %s (%zu points, kind %s)\n", File.c_str(),
              M->points().size(), M->kind());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv, {"micro"});
  for (const std::string &Key :
       Opts.unknownKeys({"source", "kind", "rank", "min", "max", "points",
                         "jobs", "output", "reps-min", "reps-max",
                         "rel-err", "time-limit", "threads", "noise",
                         "micro"})) {
    std::fprintf(stderr, "error: unknown option --%s\n", Key.c_str());
    return usage(Argv[0]);
  }

  std::string Source = Opts.get("source", "native");
  std::string Kind = Opts.get("kind", "piecewise");
  std::string RankSpec = Opts.get("rank", "0");
  std::string Output = Opts.get("output", "model.fpm");

  // Strict numeric parsing: a typo like --points ten is an error, not a
  // silent fallback to the default, and every integer is range-checked
  // before it is narrowed to int.
  constexpr std::int64_t IntMax = std::numeric_limits<int>::max();
  Result<double> MinR = Opts.checkedDouble("min", 32.0);
  Result<double> MaxR = Opts.checkedDouble("max", 1024.0);
  Result<std::int64_t> PointsR = Opts.checkedInt("points", 10, 1, IntMax);
  Result<std::int64_t> JobsR = Opts.checkedInt("jobs", 1, 1, IntMax);
  Result<std::int64_t> RepsMinR = Opts.checkedInt("reps-min", 3, 1, IntMax);
  Result<std::int64_t> RepsMaxR = Opts.checkedInt("reps-max", 10, 1, IntMax);
  Result<double> RelErrR = Opts.checkedDouble("rel-err", 0.05);
  Result<double> TimeLimitR = Opts.checkedDouble("time-limit", 2.0);
  Result<std::int64_t> ThreadsR = Opts.checkedInt("threads", 1, 1, IntMax);
  Result<double> NoiseR = Opts.checkedDouble("noise", 0.02);
  for (const Result<double> *R : {&MinR, &MaxR, &RelErrR, &TimeLimitR,
                                  &NoiseR})
    if (!*R)
      return fail(R->error());
  for (const Result<std::int64_t> *R : {&PointsR, &JobsR, &RepsMinR,
                                        &RepsMaxR, &ThreadsR})
    if (!*R)
      return fail(R->error());

  double Min = MinR.value();
  double Max = MaxR.value();
  if (Min <= 0.0)
    return fail("--min must be positive");
  if (Max < Min)
    return fail("--max must be at least --min");
  if (RepsMaxR.value() < RepsMinR.value())
    return fail("--reps-max must be at least --reps-min");
  if (RelErrR.value() <= 0.0)
    return fail("--rel-err must be positive");
  if (TimeLimitR.value() <= 0.0)
    return fail("--time-limit must be positive");
  if (NoiseR.value() < 0.0)
    return fail("--noise must be non-negative");
  std::int64_t NumPoints = PointsR.value();
  std::int64_t Jobs = JobsR.value();

  Precision Prec;
  Prec.MinReps = static_cast<int>(RepsMinR.value());
  Prec.MaxReps = static_cast<int>(RepsMaxR.value());
  Prec.TargetRelativeError = RelErrR.value();
  Prec.TimeLimit = TimeLimitR.value();

  if (Source == "native") {
    // One real device: nothing to parallelise over across devices, but
    // the kernel itself can use --threads GEMM threads per measurement.
    engine::SessionConfig Cfg;
    Cfg.ModelKind = Kind;
    Cfg.Kernel.Threads = static_cast<unsigned>(ThreadsR.value());
    Cfg.Kernel.UseMicroGemm = Opts.has("micro");
    if (Cfg.Kernel.UseMicroGemm)
      std::printf("# micro-kernel isa: %s\n", gemmIsaName(gemmMicroIsa()));
    Result<std::unique_ptr<engine::Session>> SessionR =
        engine::Session::create(std::move(Cfg));
    if (!SessionR)
      return fail(SessionR.error());
    engine::Session &Engine = *SessionR.value();

    engine::NativeMeasurePlan Plan;
    Plan.MinSize = Min;
    Plan.MaxSize = Max;
    Plan.NumPoints = static_cast<int>(NumPoints);
    Plan.Prec = Prec;
    Plan.OnPoint = printPoint;
    std::printf("# benchmarking %s, %lld sizes in [%g, %g]\n",
                Source.c_str(), static_cast<long long>(NumPoints), Min,
                Max);
    if (Status S = Engine.measureNative(Plan); !S) {
      std::fprintf(stderr, "error: %s\n", S.error().c_str());
      return 1;
    }
    return writeModel(Engine, 0, Output);
  }

  std::string Error;
  std::optional<Cluster> Parsed = resolveCluster(Source, &Error);
  if (!Parsed) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }
  Cluster Cl = std::move(*Parsed);
  Cl.NoiseSigma = NoiseR.value();

  ModelBuildPlan Plan;
  Plan.MinSize = Min;
  Plan.MaxSize = Max;
  Plan.NumPoints = static_cast<int>(NumPoints);
  Plan.Prec = Prec;
  Plan.Jobs = static_cast<int>(Jobs);
  const std::vector<double> Sizes = buildSizeGrid(Plan);

  bool AllRanks = RankSpec == "all";
  int Rank = 0;
  if (!AllRanks) {
    Result<std::int64_t> RankR = Opts.checkedInt("rank", 0);
    if (!RankR)
      return fail(RankR.error());
    if (RankR.value() < 0 || RankR.value() >= Cl.size()) {
      std::fprintf(stderr, "error: rank %lld out of range for preset %s\n",
                   static_cast<long long>(RankR.value()), Source.c_str());
      return 2;
    }
    Rank = static_cast<int>(RankR.value());
  }

  if (!AllRanks) {
    // Single-rank build: shrink the cluster view to that one device so
    // the shared parallel path does the work (serial when Jobs == 1).
    Cluster One;
    One.Devices = {Cl.Devices[static_cast<std::size_t>(Rank)]};
    One.NodeOfRank = {0};
    One.NoiseSigma = Cl.NoiseSigma;
    One.Seed = Cl.Seed + static_cast<std::uint64_t>(Rank);
    if (static_cast<std::size_t>(Rank) < Cl.Faults.size())
      One.Faults = {Cl.Faults[static_cast<std::size_t>(Rank)]};

    engine::SessionConfig Cfg;
    Cfg.Platform = std::move(One);
    Cfg.ModelKind = Kind;
    Result<std::unique_ptr<engine::Session>> SessionR =
        engine::Session::create(std::move(Cfg));
    if (!SessionR)
      return fail(SessionR.error());
    engine::Session &Engine = *SessionR.value();

    std::printf("# benchmarking %s rank %d, %lld sizes in [%g, %g]\n",
                Source.c_str(), Rank, static_cast<long long>(NumPoints),
                Min, Max);
    if (Status S = Engine.measure(Plan); !S) {
      std::fprintf(stderr, "error: %s\n", S.error().c_str());
      return 1;
    }
    for (std::size_t I = 0; I < Sizes.size(); ++I)
      printPoint(Sizes[I], Engine.slot(0).Raw[I]);
    return writeModel(Engine, 0, Output);
  }

  engine::SessionConfig Cfg;
  Cfg.Platform = Cl;
  Cfg.ModelKind = Kind;
  Result<std::unique_ptr<engine::Session>> SessionR =
      engine::Session::create(std::move(Cfg));
  if (!SessionR)
    return fail(SessionR.error());
  engine::Session &Engine = *SessionR.value();

  std::printf("# benchmarking %s, all %d ranks, %lld sizes in [%g, %g], "
              "%lld jobs\n",
              Source.c_str(), Cl.size(), static_cast<long long>(NumPoints),
              Min, Max, static_cast<long long>(Jobs));
  if (Status S = Engine.measure(Plan); !S) {
    std::fprintf(stderr, "error: %s\n", S.error().c_str());
    return 1;
  }
  for (int R = 0; R < Cl.size(); ++R) {
    std::printf("# rank %d\n", R);
    for (std::size_t I = 0; I < Sizes.size(); ++I)
      printPoint(Sizes[I], Engine.slot(R).Raw[I]);
    if (int Rc = writeModel(Engine, R, perRankOutput(Output, R)))
      return Rc;
  }
  return 0;
}
