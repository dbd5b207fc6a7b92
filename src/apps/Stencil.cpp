//===-- apps/Stencil.cpp - 2D heat stencil with balancing -----------------===//

#include "apps/Stencil.h"

#include "blas/Gemm.h"
#include "dist/PartitionedVector.h"
#include "engine/Balance.h"
#include "engine/Session.h"
#include "mpp/Runtime.h"
#include "support/Random.h"

#include <cassert>
#include <cmath>

using namespace fupermod;

namespace {

/// One serial sweep of the 5-point stencil over the whole grid.
void serialSweep(std::vector<double> &U, int Rows, int Cols) {
  std::vector<double> Next = U;
  for (int R = 1; R + 1 < Rows; ++R)
    for (int C = 1; C + 1 < Cols; ++C)
      Next[static_cast<std::size_t>(R) * Cols + C] =
          0.25 * (U[static_cast<std::size_t>(R - 1) * Cols + C] +
                  U[static_cast<std::size_t>(R + 1) * Cols + C] +
                  U[static_cast<std::size_t>(R) * Cols + C - 1] +
                  U[static_cast<std::size_t>(R) * Cols + C + 1]);
  U = std::move(Next);
}

} // namespace

double fupermod::stencilInitial(int Rows, int Cols, int Row, int Col) {
  // A hot top edge, cool bottom edge, and a deterministic speckle inside.
  if (Row == 0)
    return 100.0 + 10.0 * std::sin(0.3 * Col);
  if (Row == Rows - 1)
    return 0.0;
  if (Col == 0 || Col == Cols - 1)
    return 50.0;
  SplitMix64 Rng(static_cast<std::uint64_t>(Row) * 69069u +
                 static_cast<std::uint64_t>(Col));
  return Rng.uniform() * 20.0;
}

StencilReport fupermod::runStencil(const Cluster &Platform,
                                   const StencilOptions &Options) {
  int P = Platform.size();
  int Rows = Options.Rows;
  int Cols = Options.Cols;
  assert(Rows >= 3 && Cols >= 3 && "grid too small for a stencil");
  const std::int64_t Interior = Rows - 2;

  // Repartitioning routes through one engine session; unknown
  // algorithm/model names become a diagnosable report error.
  engine::SessionConfig Cfg;
  Cfg.Platform = Platform;
  Cfg.ModelKind = Options.ModelKind;
  Cfg.Algorithm = Options.Algorithm;
  Result<std::unique_ptr<engine::Session>> SessionR =
      engine::Session::create(std::move(Cfg));
  if (!SessionR) {
    StencilReport Report;
    Report.Error = SessionR.error();
    return Report;
  }
  engine::Session &Engine = *SessionR.value();

  std::vector<StencilIteration> Stats(
      static_cast<std::size_t>(Options.Iterations));
  for (auto &S : Stats) {
    S.ComputeTimes.assign(static_cast<std::size_t>(P), 0.0);
    S.Rows.assign(static_cast<std::size_t>(P), 0);
  }
  std::vector<double> FinalGrid;
  double MaxError = 0.0;
  std::vector<long long> HaloSent(static_cast<std::size_t>(P), 0);
  int Rebalances = 0;

  auto Body = [&](Comm &C) {
    int Me = C.rank();
    SimDevice Dev = Platform.makeDevice(Me);
    engine::BalancedLoop Loop = Engine.makeBalancedLoop(Interior, P);
    // One policy replica per rank (a platform `equalize` line, else every
    // round); a static run has none and makes no balancing call.
    std::unique_ptr<equalize::Equalizer> Eq;
    if (Options.Balance)
      Eq = std::move(Engine.makeEqualizer().value()); // Validated at create.

    // The band lives in a partitioner-aware container: one unit = one
    // interior grid row (Cols doubles), global row coordinates starting
    // at 1. The container owns the halo exchange and every row move.
    dist::PartitionedVector<double> U(C, Loop.dist(), Cols, /*Base=*/1);
    U.generate([&](std::int64_t Row, std::span<double> Out) {
      for (int Col = 0; Col < Cols; ++Col)
        Out[static_cast<std::size_t>(Col)] =
            stencilInitial(Rows, Cols, static_cast<int>(Row), Col);
    });
    // Rows 0 and Rows-1 sit outside the partitioned domain: the halo
    // exchange fills them from the fixed boundary condition.
    auto Boundary = [&](std::int64_t Row, std::span<double> Out) {
      for (int Col = 0; Col < Cols; ++Col)
        Out[static_cast<std::size_t>(Col)] =
            stencilInitial(Rows, Cols, static_cast<int>(Row), Col);
    };

    for (int It = 0; It < Options.Iterations; ++It) {
      double IterStart = C.time();
      std::int64_t MyRows = U.units();

      // Kick off the width-1 halo exchange; the receives stay in flight
      // while the interior rows (which need no halo data) are swept.
      dist::HaloExchange Ex = U.startHaloExchange(1, Boundary);
      HaloSent[static_cast<std::size_t>(Me)] += Ex.piecesSent();

      std::span<const double> Band = U.local();
      std::vector<double> Next(Band.begin(), Band.end());
      auto SweepRow = [&](std::int64_t R, const double *Up,
                          const double *Down) {
        const double *Mid = Band.data() + R * Cols;
        double *Out = Next.data() + R * Cols;
        for (int Col = 1; Col + 1 < Cols; ++Col)
          Out[Col] = 0.25 * (Up[Col] + Down[Col] + Mid[Col - 1] +
                             Mid[Col + 1]);
      };
      // Interior rows overlap the transfer...
      for (std::int64_t R = 1; R + 1 < MyRows; ++R)
        SweepRow(R, Band.data() + (R - 1) * Cols,
                 Band.data() + (R + 1) * Cols);
      Ex.wait();
      // ...and the boundary-adjacent rows complete once the halos are in.
      if (MyRows == 1) {
        SweepRow(0, U.haloAbove().data(), U.haloBelow().data());
      } else if (MyRows > 1) {
        SweepRow(0, U.haloAbove().data(), Band.data() + Cols);
        SweepRow(MyRows - 1, Band.data() + (MyRows - 2) * Cols,
                 U.haloBelow().data());
      }
      U.assignLocal(std::move(Next));

      if (MyRows > 0) {
        double T = Dev.measureTime(static_cast<double>(MyRows));
        C.compute(T);
        Stats[static_cast<std::size_t>(It)]
            .ComputeTimes[static_cast<std::size_t>(Me)] = T;
      }
      if (Me == 0) {
        const std::vector<std::int64_t> &Starts = U.starts();
        for (int Q = 0; Q < P; ++Q)
          Stats[static_cast<std::size_t>(It)]
              .Rows[static_cast<std::size_t>(Q)] =
              Starts[static_cast<std::size_t>(Q) + 1] -
              Starts[static_cast<std::size_t>(Q)];
      }

      // Dynamic balancing, as in the Jacobi use case; the container
      // migrates rows only when the repartition moved units.
      if (Eq && Loop.balanceEqualized(C, IterStart, *Eq) && Me == 0)
        ++Rebalances;
      Loop.redistributeIfChanged(U);
    }

    // Assemble the final grid on rank 0 and verify against a serial run.
    std::vector<double> All =
        C.gatherv(std::span<const double>(U.local()), 0);
    if (Me != 0)
      return;
    std::vector<double> Grid(static_cast<std::size_t>(Rows) *
                             static_cast<std::size_t>(Cols));
    for (int Col = 0; Col < Cols; ++Col) {
      Grid[static_cast<std::size_t>(Col)] =
          stencilInitial(Rows, Cols, 0, Col);
      Grid[static_cast<std::size_t>(Rows - 1) * Cols + Col] =
          stencilInitial(Rows, Cols, Rows - 1, Col);
    }
    // gatherv concatenates bands in rank order = global row order.
    std::copy(All.begin(), All.end(),
              Grid.begin() + static_cast<std::size_t>(Cols));

    std::vector<double> Ref(Grid.size());
    for (int R = 0; R < Rows; ++R)
      for (int Col = 0; Col < Cols; ++Col)
        Ref[static_cast<std::size_t>(R) * Cols + Col] =
            stencilInitial(Rows, Cols, R, Col);
    for (int It = 0; It < Options.Iterations; ++It)
      serialSweep(Ref, Rows, Cols);
    MaxError = maxAbsDiff(Grid, Ref);
    FinalGrid = std::move(Grid);
  };

  SpmdResult Run = Engine.execute(P, Body).value();

  StencilReport Report;
  Report.Iterations = std::move(Stats);
  Report.Makespan = Run.makespan();
  Report.Grid = std::move(FinalGrid);
  Report.MaxError = MaxError;
  for (long long H : HaloSent)
    Report.HaloRowsSent += H;
  Report.Rebalances = Rebalances;
  return Report;
}
