//===-- perfbench/cpp/JacobiDrift.cpp - The jacobi-drift layer probe ------===//
//
// The paper's Section 4.4 run: runJacobi at P=3 under seeded FaultPlan
// slowdowns that ramp up and recover, balanced through the arbitrated
// equalization policy (BalancedLoop::balanceEqualized) with staleness
// decay below 1. The tolerance is disabled so every solve runs the same
// fixed iteration count. Every solve must reach residual <= 1e-9 and the
// same solution hash.
//
// It is the only run that reaches equalize, dist redistribution and the
// mpp collectives, but it is not a gated workload: its wall time is
// mostly barrier-synchronised waiting and moved 2x from run to run on
// the reference host, at sync-bound and memory-bound sizes alike. The
// traced matmul-static run calls it for those layers' metrics.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Workloads.h"

#include "apps/Jacobi.h"
#include "core/Metrics.h"

#include <algorithm>
#include <string>

using namespace perfbench;
using namespace fupermod;

namespace {

constexpr int Ranks = 3;

/// Three devices: a fast, a medium and a slow class, dealt to the ranks
/// by the seed. The medium device ramps to 3x slower after some busy
/// time and recovers later. The seed also jitters speeds and trigger
/// times by under 2% and picks the noise stream, so the rows each solve
/// sweeps barely move from seed to seed.
Cluster makePlatform(std::uint64_t Seed, double RowsPerIteration) {
  SeedStream S(Seed * 0x2545f4914f6cdd1dull + 7);
  const double Peak[Ranks] = {2400.0, 1600.0, 1000.0};
  int Class[Ranks] = {0, 1, 2};
  for (int I = Ranks; I > 1; --I)
    std::swap(Class[I - 1], Class[S.next() % static_cast<std::uint64_t>(I)]);
  Cluster Cl;
  int Drifting = 0;
  for (int R = 0; R < Ranks; ++R) {
    int C = Class[R];
    if (C == 1)
      Drifting = R;
    Cl.Devices.push_back(makeCpuProfile(
        "jac-dev" + std::to_string(C), Peak[C] * S.uniform(0.995, 1.005),
        /*RampUnits=*/20.0, /*CliffUnits=*/4.0 * RowsPerIteration,
        /*CliffWidth=*/100.0, /*DropFactor=*/0.2));
  }
  Cl.NodeOfRank = {0, 1, 2};
  Cl.NoiseSigma = 0.03;
  Cl.Seed = S.next();
  // Busy time of the medium device per iteration at an even split.
  double Iter = RowsPerIteration / 3.0 / Peak[1];
  Cl.addFault(Drifting,
              FaultPlan::slowdown(6.0 * Iter * S.uniform(0.98, 1.02), 3.0));
  Cl.addFault(Drifting, FaultPlan::slowdown(
                            14.0 * Iter * S.uniform(0.98, 1.02), 1.0 / 3.0));
  return Cl;
}

equalize::EqualizeConfig arbitrated(int N, const LinkCost &Link) {
  equalize::EqualizeConfig Cfg;
  Cfg.Policy = "arbitrated";
  Cfg.Monitor.TriggerThreshold = 0.25;
  Cfg.Monitor.ClearThreshold = 0.2;
  Cfg.Monitor.Cooldown = 2;
  Cfg.Monitor.MinBreaches = 1;
  Cfg.Monitor.EwmaAlpha = 0.6;
  Cfg.Arbiter.BytesPerUnit = static_cast<double>(N + 1) * sizeof(double);
  Cfg.Arbiter.Link = Link;
  Cfg.Arbiter.HorizonRounds = 10;
  Cfg.Arbiter.MinRelativeSaving = 0.15;
  return Cfg;
}

std::uint64_t solutionHash(const JacobiReport &Rep) {
  return fnv1a(Rep.Solution.data(), Rep.Solution.size() * sizeof(double));
}

/// One-thread replay of the busiest rank's row sweeps: for every
/// iteration, a sweep over as many rows as the most loaded rank held.
double replaySweeps(const JacobiReport &Rep, int N) {
  auto NS = static_cast<std::size_t>(N);
  std::vector<double> Mat(NS * NS);
  for (int Row = 0; Row < N; ++Row)
    for (int Col = 0; Col < N; ++Col)
      Mat[static_cast<std::size_t>(Row) * NS + static_cast<std::size_t>(Col)] =
          jacobiMatrixEntry(N, Row, Col);
  std::vector<double> X(NS, 0.5), XNew(NS, 0.0);
  double T0 = now();
  for (const JacobiIteration &It : Rep.Iterations) {
    std::int64_t Rows = *std::max_element(It.Rows.begin(), It.Rows.end());
    for (std::int64_t R = 0; R < Rows; ++R) {
      const double *ARow = &Mat[static_cast<std::size_t>(R) * NS];
      double Sum = 0.0;
      for (int Col = 0; Col < N; ++Col)
        if (Col != R)
          Sum += ARow[Col] * X[static_cast<std::size_t>(Col)];
      XNew[static_cast<std::size_t>(R)] = (1.0 - Sum) / ARow[R];
    }
  }
  double Dt = now() - T0;
  // Keep the replayed arithmetic observable.
  volatile double Sink = XNew[0];
  (void)Sink;
  return Dt;
}

} // namespace

void perfbench::addJacobiDriftLayers(const Args &A, RunResult &R) {
  const int N = A.Smoke ? 192 : 2048;
  const int Iterations = A.Smoke ? 20 : 24;
  const int Solves = 3;

  Cluster Cl = makePlatform(A.Seed, static_cast<double>(N));
  JacobiOptions O;
  O.N = N;
  O.MaxIterations = Iterations;
  O.Tolerance = -1.0; // Fixed iteration count: never declare convergence.
  O.Balance = true;
  O.StalenessDecay = 0.5;
  O.Equalize = arbitrated(N, Cl.Inter);

  // Every solve must converge to the same solution.
  std::vector<double> Walls;
  JacobiReport Last;
  std::uint64_t FirstHash = 0;
  for (int Solve = 0; Solve < Solves; ++Solve) {
    double T0 = now();
    JacobiReport Rep = runJacobi(Cl, O);
    Walls.push_back(now() - T0);
    std::uint64_t Hash = solutionHash(Rep);
    if (Solve == 0)
      FirstHash = Hash;
    bool Ok = Rep.Error.empty() && Rep.FailedRanks.empty() &&
              Rep.Residual <= 1e-9 && Hash == FirstHash &&
              static_cast<int>(Rep.Iterations.size()) == Iterations;
    R.check(Ok);
    if (!Ok)
      R.note("error: jacobi-drift solve failed (" + Rep.Error + ", residual " +
             fmt(Rep.Residual) + ")");
    Last = std::move(Rep);
  }
  double Wall = median(Walls);
  double Bound =
      static_cast<double>(Iterations) * optimalMakespan(N, Cl.Devices);

  std::vector<double> Replays;
  for (int Rep = 0; Rep < 3; ++Rep)
    Replays.push_back(replaySweeps(Last, N));
  double SweepBusy = median(Replays);

  // Lower bound of the makespan: every iteration at the best real-valued
  // split of N rows on the undrifted true profiles (drift only slows).
  R.add("apps.jacobi_solve_s", Wall, "s");
  R.add("apps.jacobi_makespan_ratio", Last.Makespan / Bound, "ratio");
  R.add("apps.iterations", static_cast<double>(Last.Iterations.size()),
        "count");
  R.add("apps.sweep_busy_s", SweepBusy, "s");
  const CommStatsSnapshot &C = Last.Comm;
  R.add("mpp.messages", static_cast<double>(C.Messages), "count");
  R.add("mpp.bytes_logical", static_cast<double>(C.BytesLogical), "bytes");
  R.add("mpp.bytes_copied", static_cast<double>(C.BytesCopied), "bytes");
  R.add("mpp.channels_created", static_cast<double>(C.ChannelsCreated),
        "count");
  R.add("mpp.overhead_us_per_message",
        C.Messages ? std::max(0.0, Wall - SweepBusy) /
                         static_cast<double>(C.Messages) * 1e6
                   : 0.0,
        "us");
  CollectiveCost Coll =
      probeCollectives(Ranks, static_cast<std::size_t>(N / Ranks), 200);
  R.add("mpp.barrier_us", Coll.BarrierUs, "us");
  R.add("mpp.allgather_us", Coll.AllgatherUs, "us");
  R.add("dist.redistribute_bytes", static_cast<double>(C.RedistributeBytes),
        "bytes");
  R.add("equalize.triggers", static_cast<double>(Last.Equalize.Triggers),
        "count");
  R.add("equalize.vetoes", static_cast<double>(Last.Equalize.Vetoes), "count");
  R.add("equalize.rebalances", static_cast<double>(Last.Equalize.Rebalances),
        "count");
  R.note("jacobi-drift probe: P=" + std::to_string(Ranks) + ", N=" +
         std::to_string(N) + ", " + std::to_string(Iterations) +
         " iterations, " + std::to_string(Solves) + " solves, " +
         std::to_string(Last.Rebalances) + " rebalances per solve");
}
