//===-- perfbench/cpp/Matmul.cpp - The matmul workloads -------------------===//
//
// The paper's Section 4.1 pipeline on P=3 seeded heterogeneous devices:
// a Session::measure campaign as set-up, then a closed loop of solves,
// each Session::partition -> partitionColumnBased + scaleToGrid ->
// runParallelMatMul with the app's default ZeroCopy, Overlap and Threads
// settings. An untimed warm-up solve runs with Verify on; every timed
// solve must reproduce its ResultHash.
//
// matmul-static partitions with the geometric algorithm on piecewise
// models, matmul-numerical with the numerical algorithm on Akima models.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Workloads.h"

#include "apps/MatMul.h"
#include "apps/MatrixPartition2D.h"
#include "blas/Gemm.h"
#include "core/Metrics.h"
#include "engine/Session.h"

#include <algorithm>
#include <memory>
#include <string>

using namespace perfbench;
using namespace fupermod;

namespace {

constexpr int Ranks = 3;

/// Three CPU-like devices: a fast, a medium and a slow class. The seed
/// deals the classes to the ranks, jitters every parameter by under 1%
/// and picks the measurement-noise stream. Dealing permutes which rank
/// owns which rectangle without changing the rectangles, so the real
/// GEMM work of a solve barely moves from seed to seed.
Cluster makePlatform(std::uint64_t Seed) {
  SeedStream S(Seed * 0x5851f42d4c957f2dull + 11);
  const double Peak[Ranks] = {900.0, 560.0, 300.0};
  const double Cliff[Ranks] = {260.0, 200.0, 150.0};
  int Class[Ranks] = {0, 1, 2};
  for (int I = Ranks; I > 1; --I)
    std::swap(Class[I - 1], Class[S.next() % static_cast<std::uint64_t>(I)]);
  Cluster Cl;
  for (int C : Class)
    Cl.Devices.push_back(makeCpuProfile(
        "mm-dev" + std::to_string(C), Peak[C] * S.uniform(0.995, 1.005),
        /*RampUnits=*/8.0 * S.uniform(0.99, 1.01),
        Cliff[C] * S.uniform(0.99, 1.01), /*CliffWidth=*/40.0,
        /*DropFactor=*/0.3));
  Cl.NodeOfRank = {0, 1, 2};
  Cl.NoiseSigma = 0.02;
  Cl.Seed = S.next();
  return Cl;
}

std::vector<double> areasOf(const Dist &D) {
  std::vector<double> Areas;
  for (const Part &P : D.Parts)
    Areas.push_back(static_cast<double>(P.Units));
  return Areas;
}

/// One-thread replay of \p R's per-step packed GEMMs (NBlocks steps of
/// (H*B x B) * (B x W*B)), in seconds.
double replayRankGemm(const GridRect &R, int NBlocks, int B) {
  auto HB = static_cast<std::size_t>(R.H) * static_cast<std::size_t>(B);
  auto WB = static_cast<std::size_t>(R.W) * static_cast<std::size_t>(B);
  auto BS = static_cast<std::size_t>(B);
  std::vector<double> APack(HB * BS), BPack(BS * WB), CRect(HB * WB, 0.0);
  fillDeterministic(APack, 1);
  fillDeterministic(BPack, 2);
  double T0 = now();
  for (int K = 0; K < NBlocks; ++K)
    gemmBlocked(HB, WB, BS, APack, BPack, CRect);
  return now() - T0;
}

/// One thread running gemmBlocked over the whole product.
double serialBaseline(int NBlocks, int B) {
  std::size_t NB =
      static_cast<std::size_t>(NBlocks) * static_cast<std::size_t>(B);
  std::vector<double> X(NB * NB), Y(NB * NB), Z(NB * NB, 0.0);
  fillDeterministic(X, 3);
  fillDeterministic(Y, 4);
  double T0 = now();
  gemmBlocked(NB, NB, NB, X, Y, Z);
  return now() - T0;
}

RunResult runMatmul(const Args &A, Tracer &T, const char *Algorithm,
                    const char *ModelKind) {
  const int NBlocks = A.Smoke ? 8 : 12;
  const int BlockSize = A.Smoke ? 16 : 48;
  // One set-up repeat before every SetupEvery-th solve, so the repeats
  // sample the same stretch of the host's time as the solves. Even, so
  // the repeats fall on traced solves in a traced run.
  const std::size_t SetupEvery = 4;
  const std::int64_t Total =
      static_cast<std::int64_t>(NBlocks) * static_cast<std::int64_t>(NBlocks);

  RunResult R;
  Cluster Cl = makePlatform(A.Seed);

  // --- set-up: Session::create + the measurement campaign. Every size
  // is measured exactly 10 times, so the campaign does the same work
  // whatever noise stream the seed picks.
  ModelBuildPlan Plan;
  Plan.MinSize = 1.0;
  Plan.MaxSize = 1.5 * static_cast<double>(Total);
  Plan.NumPoints = 256;
  Plan.Prec.MinReps = 10;
  Plan.Prec.MaxReps = 10;
  std::vector<double> SetupTimes;
  auto SetUp = [&]() -> std::unique_ptr<engine::Session> {
    double T0 = now();
    engine::SessionConfig Cfg;
    Cfg.Platform = Cl;
    Cfg.ModelKind = ModelKind;
    Cfg.Algorithm = Algorithm;
    Result<std::unique_ptr<engine::Session>> Created =
        engine::Session::create(std::move(Cfg));
    if (!Created) {
      R.note("error: " + Created.error());
      return nullptr;
    }
    Status Measured = [&] {
      Tracer::Scope Span(T, "core.measure", -1);
      return Created.value()->measure(Plan);
    }();
    SetupTimes.push_back(now() - T0);
    if (!Measured) {
      R.note("error: " + Measured.error());
      return nullptr;
    }
    return std::move(Created.value());
  };
  std::unique_ptr<engine::Session> S = SetUp();
  if (!S) {
    R.check(false);
    return R;
  }

  // --- warm-up: one verified solve fixes the reference hash.
  MatMulOptions Opts;
  Opts.NBlocks = NBlocks;
  Opts.BlockSize = BlockSize;
  auto Solve = [&](bool Verify,
                   std::int64_t Op) -> std::pair<bool, MatMulReport> {
    Tracer::Scope Span(T, "bench.solve", Op);
    Result<Dist> D = [&] {
      Tracer::Scope Inner(T, "core.partition", Op);
      return S->partition(Total, Algorithm);
    }();
    if (!D)
      return {false, {}};
    std::vector<GridRect> Rects = [&] {
      Tracer::Scope Inner(T, "apps.layout", Op);
      std::vector<double> Areas = areasOf(D.value());
      return scaleToGrid(partitionColumnBased(Areas), NBlocks);
    }();
    // runParallelMatMul needs every rank to own at least one block.
    if (!tilesGrid(Rects, NBlocks) ||
        std::any_of(Rects.begin(), Rects.end(),
                    [](const GridRect &Q) { return Q.area() == 0; }))
      return {false, {}};
    MatMulOptions O = Opts;
    O.Verify = Verify;
    Tracer::Scope Inner(T, "apps.execute", Op);
    return {true, runParallelMatMul(Cl, Rects, O)};
  };
  auto [WarmOk, Warm] = Solve(/*Verify=*/true, -1);
  R.check(WarmOk && Warm.MaxError <= 1e-9);
  if (R.Failed) {
    R.note("error: warm-up solve failed verification (max error " +
           fmt(Warm.MaxError) + ")");
    return R;
  }

  // --- the timed closed loop: one solve in flight. Set-up repeats are
  // timed apart from the solves and their sessions dropped.
  std::vector<double> Latency;
  SplitLatencies Split;
  double Cpu0 = cpuSeconds(), CpuSetup = 0.0;
  double Start = now(), Steal0 = stealSeconds();
  MatMulReport Last;
  Window W(A.Seconds, minOperations());
  while (W.more(Latency.size())) {
    std::size_t Op = Latency.size();
    bool Traced = A.Trace && Op % 2 == 0;
    T.setEnabled(Traced);
    if (Op > 0 && Op % SetupEvery == 0) {
      double C0 = cpuSeconds();
      R.check(SetUp() != nullptr);
      CpuSetup += cpuSeconds() - C0;
    }
    double T0 = now();
    auto [Ok, Rep] = Solve(/*Verify=*/false, static_cast<std::int64_t>(Op));
    double Dt = now() - T0;
    R.check(Ok && Rep.ResultHash == Warm.ResultHash);
    Latency.push_back(Dt);
    Split.add(Traced, Dt);
    Last = Rep;
  }
  double PeakRss = peakRssMib();
  double CpuPerSolve =
      (cpuSeconds() - Cpu0 - CpuSetup) / static_cast<double>(Latency.size());
  T.setEnabled(A.Trace);
  // Stolen CPU time stretches the rank threads' wall time; the note lets
  // a reader tell a slow host from a slow program.
  R.note("host steal: " + fmt(stealSeconds() - Steal0, 4) +
         " CPU-s in a " + fmt(now() - Start, 4) + " s window");

  double Bound = static_cast<double>(NBlocks) *
                 optimalMakespan(Total, Cl.Devices);
  addEndToEnd(R, Latency, Warm.Makespan / Bound, SetupTimes, PeakRss);
  R.note(A.Workload + ": P=" + std::to_string(Ranks) + ", " + Algorithm +
         " on " + ModelKind + " models, " + std::to_string(NBlocks) + "x" +
         std::to_string(NBlocks) + " blocks of " + std::to_string(BlockSize));
  if (!A.Trace)
    return R;

  // --- per-layer metrics (traced run).
  double Tts = median(Latency);
  R.add("core.campaign_ms", median(T.durations("core.measure")) * 1e3, "ms");
  double Points = 0.0;
  for (int Rank = 0; Rank < S->rankCount(); ++Rank)
    Points += static_cast<double>(S->slot(Rank).Raw.size());
  R.add("core.campaign_points", Points, "count");
  R.add("core.static_solve_us", median(T.durations("core.partition")) * 1e6,
        "us");

  double Execute = median(T.durations("apps.execute"));
  R.add("apps.execute_s", Execute, "s");
  R.add("apps.layout_us", median(T.durations("apps.layout")) * 1e6, "us");
  R.add("apps.virtual_makespan_s", Last.Makespan, "s");
  R.add("apps.virtual_max_idle_s", Last.MaxIdleTime, "s");
  R.add("apps.cpu_s", CpuPerSolve, "s");

  // The busiest rank in real work is the one with the largest rectangle.
  Result<Dist> D = S->partition(Total, Algorithm);
  std::vector<GridRect> Rects =
      scaleToGrid(partitionColumnBased(areasOf(D.value())), NBlocks);
  const GridRect &Busiest = *std::max_element(
      Rects.begin(), Rects.end(),
      [](const GridRect &X, const GridRect &Y) { return X.area() < Y.area(); });
  std::vector<double> Replays;
  for (int Rep = 0; Rep < 3; ++Rep)
    Replays.push_back(replayRankGemm(Busiest, NBlocks, BlockSize));
  double GemmBusy = median(Replays);
  double Flops = matmulGemmFlops(Rects, NBlocks, BlockSize);
  double BusiestFlops = matmulGemmFlops({&Busiest, 1}, NBlocks, BlockSize);
  R.add("blas.gemm_busy_s", GemmBusy, "s");
  R.add("blas.gemm_flops", Flops, "flop");
  R.add("blas.gemm_gflops", BusiestFlops / GemmBusy * 1e-9, "GFLOP/s");
  R.add("blas.serial_baseline_s", serialBaseline(NBlocks, BlockSize), "s");
  R.add("share.blas_pct", 100.0 * GemmBusy / Tts, "%");
  R.add("share.mpp_pct", 100.0 * std::max(0.0, Execute - GemmBusy) / Tts, "%");
  R.add("trace.overhead_pct", Split.overheadPct(), "%");
  return R;
}

} // namespace

RunResult perfbench::runMatmulStatic(const Args &A, Tracer &T) {
  RunResult R = runMatmul(A, T, "geometric", "piecewise");
  if (A.Trace && R.Failed == 0)
    addJacobiDriftLayers(A, R);
  return R;
}

RunResult perfbench::runMatmulNumerical(const Args &A, Tracer &T) {
  RunResult R = runMatmul(A, T, "numerical", "akima");
  if (A.Trace && R.Failed == 0) {
    addServeRepeatLayers(A, R, T);
    addServeChurnLayers(A, R);
  }
  return R;
}
