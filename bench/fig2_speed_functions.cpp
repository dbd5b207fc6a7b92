//===-- bench/fig2_speed_functions.cpp - E1/E2: paper Fig. 2 --------------===//
//
// Reproduces Fig. 2 of the paper: the speed function of the GEMM-based
// matrix-multiplication kernel, approximated by (a) the piecewise-linear
// FPM with coarsening and (b) the Akima-spline FPM.
//
// Two data sources are used:
//  1. the simulated "Netlib BLAS" device profile, whose shape matches the
//     published figure (rise, ~5 GFLOPS plateau, decline past ~3000
//     units), with measurement noise, and
//  2. a *native* measurement of this machine's real naive-GEMM kernel
//     (small sizes, to keep the run short), demonstrating the same
//     machinery on wall-clock data.
//
// Output: one table per source with columns
//   size  true/measured speed  piecewise-FPM speed  akima-FPM speed
//
//===----------------------------------------------------------------------===//

#include "core/Benchmark.h"
#include "core/GemmKernel.h"
#include "core/Model.h"
#include "sim/SimDevice.h"
#include "support/Table.h"

#include <iostream>
#include <memory>

using namespace fupermod;

namespace {

void runSimulatedNetlib() {
  std::cout << "## Fig. 2 — simulated Netlib BLAS GEMM kernel\n"
            << "# speed in GFLOPS (unit complexity 1e6 flops), sizes in\n"
            << "# computation units; models built from 20 noisy points\n\n";

  const double UnitFlops = 1e6;
  SimDevice Dev(makeNetlibBlasProfile(UnitFlops), /*NoiseSigma=*/0.03,
                /*Seed=*/2013);
  SimDeviceBackend Backend(Dev);

  PiecewiseModel Piecewise;
  AkimaModel Akima;
  Precision Prec;
  Prec.MinReps = 3;
  Prec.MaxReps = 10;
  Prec.TargetRelativeError = 0.02;

  const int NumPoints = 20;
  const double MaxSize = 5000.0;
  for (int I = 1; I <= NumPoints; ++I) {
    double D = MaxSize * I / NumPoints;
    Point P = runBenchmark(Backend, D, Prec);
    Piecewise.update(P);
    Akima.update(P);
  }

  Table T({"size", "true_gflops", "piecewise_gflops", "akima_gflops"});
  for (double D = 125.0; D <= 5000.0; D += 125.0) {
    double True = Dev.profile().speed(D) * UnitFlops / 1e9;
    double PW = D / Piecewise.timeAt(D) * UnitFlops / 1e9;
    double Ak = D / Akima.timeAt(D) * UnitFlops / 1e9;
    T.addRow({Table::num(D, 0), Table::num(True, 3), Table::num(PW, 3),
              Table::num(Ak, 3)});
  }
  T.print(std::cout);
  std::cout << '\n';
}

void runNativeGemm() {
  std::cout << "## Fig. 2 (native) — this machine's naive GEMM kernel\n"
            << "# wall-clock measurement of blas/gemmNaive via the same\n"
            << "# kernel/benchmark machinery; speeds in GFLOPS\n\n";

  GemmKernel Kernel(/*BlockSize=*/16, /*UseBlockedGemm=*/false);
  NativeKernelBackend Backend(Kernel);

  PiecewiseModel Piecewise;
  AkimaModel Akima;
  std::vector<Point> Measured;
  Precision Prec;
  Prec.MinReps = 2;
  Prec.MaxReps = 4;
  Prec.TargetRelativeError = 0.10;
  Prec.TimeLimit = 1.0;

  for (double D : {16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0}) {
    Point P = runBenchmark(Backend, D, Prec);
    Measured.push_back(P);
    Piecewise.update(P);
    Akima.update(P);
  }

  Table T({"size", "measured_gflops", "piecewise_gflops", "akima_gflops",
           "reps"});
  for (const Point &P : Measured) {
    double Flops = Kernel.complexity(P.Units);
    double Measured = Flops / P.Time / 1e9;
    double PW =
        Flops / Piecewise.timeAt(P.Units) / 1e9;
    double Ak = Flops / Akima.timeAt(P.Units) / 1e9;
    T.addRow({Table::num(P.Units, 0), Table::num(Measured, 3),
              Table::num(PW, 3), Table::num(Ak, 3),
              Table::num(static_cast<long long>(P.Reps))});
  }
  T.print(std::cout);
  std::cout << '\n';
}

} // namespace

int main() {
  std::cout << "=== E1/E2 (paper Fig. 2): FPM approximations of the GEMM "
               "kernel speed function ===\n\n";
  runSimulatedNetlib();
  runNativeGemm();
  std::cout << "Expected shape (paper): the Akima FPM tracks the measured "
               "speed closely;\nthe piecewise FPM coarsens it onto a "
               "monotone-time envelope.\n";
  return 0;
}
