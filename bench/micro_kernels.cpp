//===-- bench/micro_kernels.cpp - E8: substrate microbenchmarks -----------===//
//
// Microbenchmarks of the substrates the framework is built on: GEMM
// kernels, interpolators, the Newton solver, the partitioning algorithms,
// and the message-passing collectives.
//
// Two modes:
//  - bare invocation: the google-benchmark suite, as before;
//  - --gflops (or --smoke): a hand-rolled GEMM throughput phase that
//    pits gemmNaive / gemmBlocked / gemmMicro against each other, checks
//    that the micro-kernel's results (gemmMicro and gemmMicroUnpacked)
//    are byte-equal to gemmBlocked's,
//    writes BENCH_micro_kernels.json, and exits non-zero on a differing
//    byte — or, in the full run on an AVX2 machine, on a micro-kernel that
//    fails to reach 2x the blocked kernel's GFLOPS. --smoke shrinks the
//    sizes and skips the throughput floor (too short to time); it is the
//    tier-1 tripwire and must pass on portable-only builds too.
//
//===----------------------------------------------------------------------===//

#include "blas/Gemm.h"
#include "core/Partitioners.h"
#include "interp/AkimaSpline.h"
#include "interp/PiecewiseLinear.h"
#include "mpp/Runtime.h"
#include "sim/Cluster.h"
#include "solver/NewtonSolver.h"
#include "support/Table.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <vector>

using namespace fupermod;

namespace {

void BM_GemmNaive(benchmark::State &State) {
  std::size_t N = static_cast<std::size_t>(State.range(0));
  std::vector<double> A(N * N), B(N * N), C(N * N, 0.0);
  fillDeterministic(A, 1);
  fillDeterministic(B, 2);
  for (auto _ : State) {
    gemmNaive(N, N, N, A, B, C);
    benchmark::DoNotOptimize(C.data());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<std::int64_t>(2 * N * N * N));
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmBlocked(benchmark::State &State) {
  std::size_t N = static_cast<std::size_t>(State.range(0));
  std::vector<double> A(N * N), B(N * N), C(N * N, 0.0);
  fillDeterministic(A, 1);
  fillDeterministic(B, 2);
  for (auto _ : State) {
    gemmBlocked(N, N, N, A, B, C);
    benchmark::DoNotOptimize(C.data());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<std::int64_t>(2 * N * N * N));
}
BENCHMARK(BM_GemmBlocked)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmMicro(benchmark::State &State) {
  std::size_t N = static_cast<std::size_t>(State.range(0));
  std::vector<double> A(N * N), B(N * N), C(N * N, 0.0);
  fillDeterministic(A, 1);
  fillDeterministic(B, 2);
  for (auto _ : State) {
    gemmMicro(N, N, N, A, B, C);
    benchmark::DoNotOptimize(C.data());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<std::int64_t>(2 * N * N * N));
}
BENCHMARK(BM_GemmMicro)->Arg(64)->Arg(128)->Arg(256);

std::pair<std::vector<double>, std::vector<double>> interpData(int N) {
  std::vector<double> X, Y;
  for (int I = 0; I <= N; ++I) {
    X.push_back(static_cast<double>(I));
    Y.push_back(std::sin(0.1 * I) + 0.01 * I);
  }
  return {X, Y};
}

void BM_PiecewiseEval(benchmark::State &State) {
  auto [X, Y] = interpData(static_cast<int>(State.range(0)));
  PiecewiseLinear PL(X, Y);
  double T = 0.0;
  for (auto _ : State) {
    T += 0.37;
    if (T > X.back())
      T = 0.0;
    benchmark::DoNotOptimize(PL.eval(T));
  }
}
BENCHMARK(BM_PiecewiseEval)->Arg(16)->Arg(256)->Arg(4096);

void BM_AkimaFit(benchmark::State &State) {
  auto [X, Y] = interpData(static_cast<int>(State.range(0)));
  for (auto _ : State) {
    AkimaSpline Ak(X, Y);
    benchmark::DoNotOptimize(Ak.eval(1.5));
  }
}
BENCHMARK(BM_AkimaFit)->Arg(16)->Arg(256)->Arg(4096);

void BM_AkimaEval(benchmark::State &State) {
  auto [X, Y] = interpData(static_cast<int>(State.range(0)));
  AkimaSpline Ak(X, Y);
  double T = 0.0;
  for (auto _ : State) {
    T += 0.37;
    if (T > X.back())
      T = 0.0;
    benchmark::DoNotOptimize(Ak.eval(T));
  }
}
BENCHMARK(BM_AkimaEval)->Arg(16)->Arg(256)->Arg(4096);

void BM_NewtonSolve(benchmark::State &State) {
  std::size_t N = static_cast<std::size_t>(State.range(0));
  VectorFunction F = [N](std::span<const double> X, std::span<double> R) {
    for (std::size_t I = 0; I < N; ++I) {
      double Target = static_cast<double>(I + 1);
      R[I] = X[I] * X[I] - Target * Target;
    }
  };
  std::vector<double> X0(N, 0.5);
  for (auto _ : State) {
    NewtonResult Res = solveNewton(F, X0);
    benchmark::DoNotOptimize(Res.X.data());
  }
}
BENCHMARK(BM_NewtonSolve)->Arg(2)->Arg(8)->Arg(32);

std::vector<std::unique_ptr<Model>> benchModels(int P, double MaxSize,
                                                const char *Kind) {
  Cluster Cl = makeHclLikeCluster(true);
  std::vector<std::unique_ptr<Model>> Models;
  for (int I = 0; I < P; ++I) {
    auto M = makeModel(Kind);
    const DeviceProfile &Prof =
        Cl.Devices[static_cast<std::size_t>(I % Cl.size())];
    for (int K = 1; K <= 24; ++K) {
      Point Pt;
      Pt.Units = MaxSize * K / 24.0;
      Pt.Time = Prof.time(Pt.Units);
      Pt.Reps = 1;
      M->update(Pt);
    }
    Models.push_back(std::move(M));
  }
  return Models;
}

void BM_PartitionGeometric(benchmark::State &State) {
  int P = static_cast<int>(State.range(0));
  auto Models = benchModels(P, 30000.0, "piecewise");
  std::vector<Model *> Ptrs;
  for (auto &M : Models)
    Ptrs.push_back(M.get());
  Dist Out;
  for (auto _ : State) {
    partitionGeometric(20000, Ptrs, Out);
    benchmark::DoNotOptimize(Out.Parts.data());
  }
}
BENCHMARK(BM_PartitionGeometric)->Arg(2)->Arg(8)->Arg(32);

void BM_PartitionNumerical(benchmark::State &State) {
  int P = static_cast<int>(State.range(0));
  auto Models = benchModels(P, 30000.0, "akima");
  std::vector<Model *> Ptrs;
  for (auto &M : Models)
    Ptrs.push_back(M.get());
  Dist Out;
  for (auto _ : State) {
    partitionNumerical(20000, Ptrs, Out);
    benchmark::DoNotOptimize(Out.Parts.data());
  }
}
BENCHMARK(BM_PartitionNumerical)->Arg(2)->Arg(8)->Arg(32);

void BM_AllgathervWallClock(benchmark::State &State) {
  // Wall-clock cost of running a P-rank allgatherv round on the thread
  // runtime (spawn + exchange + join).
  int P = static_cast<int>(State.range(0));
  for (auto _ : State) {
    SpmdResult R = runSpmd(P, [](Comm &C) {
      std::vector<double> Mine(64, static_cast<double>(C.rank()));
      for (int I = 0; I < 10; ++I) {
        std::vector<double> All =
            C.allgatherv(std::span<const double>(Mine));
        benchmark::DoNotOptimize(All.data());
      }
    });
    benchmark::DoNotOptimize(R.FinalTimes.data());
  }
}
BENCHMARK(BM_AllgathervWallClock)->Arg(2)->Arg(4)->Arg(8);

//===----------------------------------------------------------------------===//
// --gflops / --smoke: the GEMM kernel-vs-kernel throughput phase
//===----------------------------------------------------------------------===//

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds per call of \p Run: one warmup call, then repetitions until
/// both floors are met.
double timePerCall(const std::function<void()> &Run, int MinReps,
                   double MinSeconds) {
  Run();
  int Reps = 0;
  double T0 = now();
  double Elapsed = 0.0;
  do {
    Run();
    ++Reps;
    Elapsed = now() - T0;
  } while (Reps < MinReps || Elapsed < MinSeconds);
  return Elapsed / Reps;
}

int runGflopsPhase(bool Smoke) {
  // Odd-ish sizes exercise the micro-kernel's M- and N-edge paths, not
  // just full 4x8 tiles.
  const std::vector<std::size_t> Sizes =
      Smoke ? std::vector<std::size_t>{64, 100}
            : std::vector<std::size_t>{64, 128, 256, 384};
  const int MinReps = Smoke ? 3 : 5;
  const double MinSeconds = Smoke ? 0.004 : 0.06;
  const char *Isa = gemmIsaName(gemmMicroIsa());

  std::cout << "=== micro kernels: GEMM throughput (" << (Smoke ? "smoke" : "full")
            << ", micro-kernel isa " << Isa << ") ===\n\n";

  std::vector<double> NaiveG, BlockedG, MicroG;
  bool Identical = true;
  Table T({"size", "naive(GF)", "blocked(GF)", "micro(GF)", "micro/blocked",
           "identical"});
  for (std::size_t N : Sizes) {
    std::vector<double> A(N * N), B(N * N), C0(N * N);
    fillDeterministic(A, 1);
    fillDeterministic(B, 2);
    fillDeterministic(C0, 3);

    // Correctness first: the micro-kernel results, packed and read in
    // place, must be byte-equal to the blocked kernel's (all start from
    // the same C0 so accumulation is included).
    std::vector<double> Cb = C0, Cm = C0, Cu = C0;
    gemmBlocked(N, N, N, A, B, Cb);
    gemmMicro(N, N, N, A, B, Cm);
    gemmMicroUnpacked(N, N, N, A, N, B, N, Cu, N);
    bool Ok =
        std::memcmp(Cb.data(), Cm.data(), N * N * sizeof(double)) == 0 &&
        std::memcmp(Cb.data(), Cu.data(), N * N * sizeof(double)) == 0;
    Identical = Identical && Ok;

    double Flops = gemmFlops(N, N, N);
    std::vector<double> C(N * N, 0.0);
    double SN = timePerCall([&] { gemmNaive(N, N, N, A, B, C); }, MinReps,
                            MinSeconds);
    double SB = timePerCall([&] { gemmBlocked(N, N, N, A, B, C); }, MinReps,
                            MinSeconds);
    double SM = timePerCall([&] { gemmMicro(N, N, N, A, B, C); }, MinReps,
                            MinSeconds);
    NaiveG.push_back(Flops / SN * 1e-9);
    BlockedG.push_back(Flops / SB * 1e-9);
    MicroG.push_back(Flops / SM * 1e-9);
    T.addRow({Table::num(static_cast<std::int64_t>(N)),
              Table::num(NaiveG.back(), 2), Table::num(BlockedG.back(), 2),
              Table::num(MicroG.back(), 2),
              Table::num(MicroG.back() / BlockedG.back(), 2),
              Ok ? "yes" : "NO"});
  }
  T.print(std::cout);

  double SpeedupVsBlocked = MicroG.back() / BlockedG.back();
  double SpeedupVsNaive = MicroG.back() / NaiveG.back();
  std::cout << "\nmicro-kernel at " << Sizes.back()
            << ": " << SpeedupVsBlocked << "x blocked, " << SpeedupVsNaive
            << "x naive, results "
            << (Identical ? "bit-identical" : "DIVERGED") << "\n";

  std::FILE *J = std::fopen("BENCH_micro_kernels.json", "w");
  if (J) {
    auto List = [&](const std::vector<double> &V) {
      std::string S = "[";
      char Buf[32];
      for (std::size_t I = 0; I < V.size(); ++I) {
        std::snprintf(Buf, sizeof(Buf), "%s%.2f", I ? ", " : "", V[I]);
        S += Buf;
      }
      return S + "]";
    };
    std::string SizesS = "[";
    for (std::size_t I = 0; I < Sizes.size(); ++I)
      SizesS += (I ? ", " : "") + std::to_string(Sizes[I]);
    SizesS += "]";
    std::fprintf(J,
                 "{\n"
                 "  \"bench\": \"micro_kernels\",\n"
                 "  \"mode\": \"%s\",\n"
                 "  \"isa\": \"%s\",\n"
                 "  \"sizes\": %s,\n"
                 "  \"gflops\": {\n"
                 "    \"naive\": %s,\n"
                 "    \"blocked\": %s,\n"
                 "    \"micro\": %s\n"
                 "  },\n"
                 "  \"speedup_micro_vs_blocked\": %.3f,\n"
                 "  \"speedup_micro_vs_naive\": %.3f,\n"
                 "  \"bit_identical\": %s\n"
                 "}\n",
                 Smoke ? "smoke" : "full", Isa, SizesS.c_str(),
                 List(NaiveG).c_str(), List(BlockedG).c_str(),
                 List(MicroG).c_str(), SpeedupVsBlocked, SpeedupVsNaive,
                 Identical ? "true" : "false");
    std::fclose(J);
    std::cout << "# wrote BENCH_micro_kernels.json\n";
  }

  // Tripwires. Bit-identity gates both modes and both ISAs; the
  // throughput floor gates only the full run with the AVX2 tile selected
  // (the portable tile promises correctness, not 2x, and smoke timings
  // are too short to trust).
  if (!Identical) {
    std::cout << "FAIL: micro-kernel result differs from gemmBlocked\n";
    return 1;
  }
  if (!Smoke && gemmMicroIsa() == GemmIsa::Avx2 && SpeedupVsBlocked < 2.0) {
    std::cout << "FAIL: micro-kernel speedup " << SpeedupVsBlocked
              << " < 2x blocked floor\n";
    return 1;
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--smoke") == 0 ||
        std::strcmp(Argv[I], "--gflops") == 0)
      return runGflopsPhase(std::strcmp(Argv[I], "--smoke") == 0);
  benchmark::Initialize(&Argc, Argv);
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
