//===-- examples/matmul.cpp - heterogeneous parallel matmul ---------------===//
//
// The paper's first use case as a runnable program: multiply two matrices
// on a simulated heterogeneous cluster, with the data partitioned in
// proportion to functional performance models and arranged as 2D
// rectangles by the column-based algorithm of Beaumont et al.
//
// The pipeline: benchmark (simulated, synchronised) -> piecewise FPMs ->
// geometric partitioning -> column-based 2D layout -> SPMD execution with
// real block arithmetic and virtual-time costing -> verification.
//
//===----------------------------------------------------------------------===//

#include "apps/MatMul.h"
#include "core/Metrics.h"
#include "engine/Session.h"
#include "mpp/Runtime.h"
#include "support/Options.h"
#include "support/Table.h"

#include <iostream>
#include <limits>
#include <memory>

using namespace fupermod;

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv, {"overlap"});
  // --threads T models every device as a T-core processor: the charged
  // compute time scales by the modelled thread speedup, while the real
  // GEMMs of all ranks share the host's cores either way; --overlap
  // prefetches the next step's pivots while the current GEMM runs.
  const char *Usage = " [--threads T] [--overlap]\n";
  for (const std::string &Key : Opts.unknownKeys({"threads", "overlap"})) {
    std::cerr << "error: unknown option --" << Key << "\nusage: " << Argv[0]
              << Usage;
    return 2;
  }
  Result<std::int64_t> ThreadsR =
      Opts.checkedInt("threads", 1, 1, std::numeric_limits<int>::max());
  if (!ThreadsR) {
    std::cerr << "error: " << ThreadsR.error() << "\nusage: " << Argv[0]
              << Usage;
    return 2;
  }
  std::int64_t Threads = ThreadsR.value();
  bool Overlap = Opts.has("overlap");

  std::cout << "Heterogeneous parallel matrix multiplication\n"
            << "============================================\n\n";

  Cluster Cl = makeHclLikeCluster(false);
  Cl.NoiseSigma = 0.01;
  const int N = 16; // 16x16 blocks.
  const int B = 8;
  const std::int64_t D = static_cast<std::int64_t>(N) * N;

  std::cout << "platform (" << Cl.size() << " devices):\n";
  for (int R = 0; R < Cl.size(); ++R)
    std::cout << "  rank " << R << ": " << Cl.Devices[R].name()
              << " (node " << Cl.NodeOfRank[R] << ")\n";

  // Build piecewise FPMs by synchronised benchmarking on the cluster —
  // the engine session owns the models and the whole pipeline.
  std::cout << "\nbuilding functional performance models...\n";
  engine::SessionConfig Cfg;
  Cfg.Platform = Cl;
  Cfg.ModelKind = "piecewise";
  Cfg.Algorithm = "geometric";
  Result<std::unique_ptr<engine::Session>> SessionR =
      engine::Session::create(std::move(Cfg));
  if (!SessionR) {
    std::cerr << SessionR.error() << "\n";
    return 1;
  }
  engine::Session &Engine = *SessionR.value();
  engine::SyncMeasurePlan Plan;
  Plan.Prec.MinReps = 3;
  Plan.Prec.MaxReps = 6;
  Plan.Prec.TargetRelativeError = 0.05;
  for (int I = 1; I <= 10; ++I)
    Plan.Sizes.push_back(1.5 * static_cast<double>(D) * I / 10.0);
  if (Status S = Engine.measureSynchronized(Plan); !S) {
    std::cerr << S.error() << "\n";
    return 1;
  }

  // Partition the C-matrix area and lay the rectangles out.
  Result<Dist> OutR = Engine.partition(D);
  if (!OutR) {
    std::cout << "partitioning failed\n";
    return 1;
  }
  std::vector<double> Areas;
  for (const Part &P : OutR.value().Parts)
    Areas.push_back(static_cast<double>(P.Units));
  auto Rects = scaleToGrid(partitionColumnBased(Areas), N);

  std::cout << "\n2D layout (block coordinates):\n\n";
  Table L({"rank", "x", "y", "w", "h", "blocks", "share"});
  for (const GridRect &R : Rects)
    L.addRow({Table::num(static_cast<long long>(R.Owner)),
              Table::num(static_cast<long long>(R.X)),
              Table::num(static_cast<long long>(R.Y)),
              Table::num(static_cast<long long>(R.W)),
              Table::num(static_cast<long long>(R.H)),
              Table::num(R.area()),
              Table::num(static_cast<double>(R.area()) /
                             static_cast<double>(D),
                         3)});
  L.print(std::cout);

  // Run and verify.
  MatMulOptions O;
  O.NBlocks = N;
  O.BlockSize = B;
  O.Verify = true;
  O.Overlap = Overlap;
  O.Threads = static_cast<unsigned>(Threads);
  std::cout << "\nrunning the parallel multiplication";
  if (Overlap)
    std::cout << " (overlapped pivots)";
  if (Threads > 1)
    std::cout << " (devices modelled with " << Threads << " GEMM threads)";
  std::cout << "...\n";
  MatMulReport R = runParallelMatMul(Cl, Rects, O);

  std::cout << "\nmakespan (virtual): " << R.Makespan << " s\n"
            << "blocks communicated: " << R.BlocksCommunicated << "\n"
            << "max |parallel - serial| error: " << R.MaxError << "\n"
            << "compute-time imbalance: " << imbalance(R.ComputeTimes)
            << "\n";
  return R.MaxError < 1e-9 ? 0 : 1;
}
