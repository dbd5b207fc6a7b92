//===-- apps/Jacobi.cpp - Jacobi method with load balancing ---------------===//

#include "apps/Jacobi.h"

#include "blas/Gemm.h"
#include "dist/PartitionedVector.h"
#include "engine/Balance.h"
#include "engine/Session.h"
#include "mpp/Runtime.h"
#include "solver/LinearAlgebra.h"
#include "support/Random.h"

#include <cassert>
#include <cmath>

using namespace fupermod;

double fupermod::jacobiMatrixEntry(int N, int Row, int Col) {
  if (Row == Col)
    return static_cast<double>(N);
  SplitMix64 Rng(static_cast<std::uint64_t>(Row) * 2654435761u +
                 static_cast<std::uint64_t>(Col) + 17);
  return Rng.uniform() - 0.5;
}

double fupermod::jacobiRhsEntry(int N, int Row) {
  SplitMix64 Rng(static_cast<std::uint64_t>(N) * 31 +
                 static_cast<std::uint64_t>(Row));
  return 2.0 * Rng.uniform() - 1.0;
}

JacobiReport fupermod::runJacobi(const Cluster &Platform,
                                 const JacobiOptions &Options) {
  int P = Platform.size();
  int N = Options.N;
  assert(N > 0 && P > 0 && "invalid Jacobi configuration");

  // All phases (model feedback, repartitioning, execution) route through
  // one engine session; unknown algorithm/model names become a
  // diagnosable report error instead of an assert.
  engine::SessionConfig Cfg;
  Cfg.Platform = Platform;
  Cfg.ModelKind = Options.ModelKind;
  Cfg.Algorithm = Options.Algorithm;
  Cfg.Equalize = Options.Equalize;
  Result<std::unique_ptr<engine::Session>> SessionR =
      engine::Session::create(std::move(Cfg));
  if (!SessionR) {
    JacobiReport Report;
    Report.Error = SessionR.error();
    return Report;
  }
  engine::Session &Engine = *SessionR.value();

  std::vector<JacobiIteration> Stats(
      static_cast<std::size_t>(Options.MaxIterations));
  for (auto &S : Stats) {
    S.ComputeTimes.assign(static_cast<std::size_t>(P), 0.0);
    S.Rows.assign(static_cast<std::size_t>(P), 0);
  }
  int IterationsDone = 0;
  int RebalanceCount = 0;
  bool Converged = false;
  std::vector<double> Solution;
  double Residual = 0.0;
  std::vector<int> FailedRanks;
  equalize::EqualizeStats EqStats;

  auto Body = [&](Comm &C) {
    int Me = C.rank();
    SimDevice Dev = Platform.makeDevice(Me);
    bool DevFailed = false;

    engine::BalancedLoop Loop =
        Engine.makeBalancedLoop(N, P, Options.StalenessDecay);

    // Each rank owns a policy replica; identical configs fed identical
    // gathered times keep the replicas in lockstep (no extra collectives).
    // A static run has no policy and makes no balancing call.
    std::unique_ptr<equalize::Equalizer> Eq;
    if (Options.Balance)
      Eq = std::move(Engine.makeEqualizer().value()); // Validated at create.

    // The system lives in a partitioner-aware container: one unit = one
    // matrix row interleaved with its right-hand-side entry, [a_r0 ..
    // a_r(N-1) | b_r], so a repartition moves each row in one piece.
    // Initial data is generated in place; every later move is real
    // communication, driven by the container's minimal-move plan.
    dist::PartitionedVector<double> Sys(C, Loop.dist(), N + 1);
    Sys.generate([&](std::int64_t Row, std::span<double> Out) {
      for (int Col = 0; Col < N; ++Col)
        Out[static_cast<std::size_t>(Col)] =
            jacobiMatrixEntry(N, static_cast<int>(Row), Col);
      Out[static_cast<std::size_t>(N)] =
          jacobiRhsEntry(N, static_cast<int>(Row));
    });

    std::vector<double> X(static_cast<std::size_t>(N), 0.0);

    int It = 0;
    for (; It < Options.MaxIterations; ++It) {
      double IterStart = C.time();
      std::int64_t MyStart = Sys.start();
      std::int64_t MyRows = Sys.units();

      // Local sweep: x_new over owned rows (real arithmetic).
      std::vector<double> XNewLocal(static_cast<std::size_t>(MyRows), 0.0);
      for (std::int64_t R = 0; R < MyRows; ++R) {
        int Row = static_cast<int>(MyStart + R);
        std::span<const double> Unit = Sys.unit(MyStart + R);
        const double *ARow = Unit.data();
        double Sum = 0.0;
        for (int Col = 0; Col < N; ++Col)
          if (Col != Row)
            Sum += ARow[Col] * X[static_cast<std::size_t>(Col)];
        XNewLocal[static_cast<std::size_t>(R)] =
            (Unit[static_cast<std::size_t>(N)] - Sum) / ARow[Row];
      }

      // Virtual computation cost (one unit = one row). A hard-failed
      // device produces no timing; the rank reports the failure to the
      // balancer below so its rows migrate to the survivors.
      if (MyRows > 0) {
        Measurement M = Dev.measure(static_cast<double>(MyRows));
        if (M.Status == MeasureStatus::Failed) {
          DevFailed = true;
        } else {
          C.compute(M.Seconds);
          Stats[static_cast<std::size_t>(It)]
              .ComputeTimes[static_cast<std::size_t>(Me)] = M.Seconds;
        }
      }
      if (Me == 0) {
        const std::vector<std::int64_t> &Starts = Sys.starts();
        for (int Q = 0; Q < P; ++Q)
          Stats[static_cast<std::size_t>(It)]
              .Rows[static_cast<std::size_t>(Q)] =
              Starts[static_cast<std::size_t>(Q) + 1] -
              Starts[static_cast<std::size_t>(Q)];
      }

      // Load balancing with the (rows, iteration-time) point, exactly the
      // paper's fupermod_balance_iterate call site; the policy decides
      // whether this round's imbalance warrants a repartition.
      if (Eq && Loop.balanceEqualized(C, IterStart, *Eq, DevFailed) &&
          Me == 0)
        ++RebalanceCount;

      // Exchange solution fragments (by the distribution used to compute
      // them) and evaluate convergence identically on every rank.
      // Ring allgather: each solution fragment crosses every link once,
      // the cheaper choice for these payloads.
      std::vector<double> XNew =
          C.allgathervRing(std::span<const double>(XNewLocal));
      assert(static_cast<int>(XNew.size()) == N &&
             "lost solution entries in allgather");
      // NaN once any entry is: a diverged iterate never converges.
      double Error = maxAbsDiff(XNew, X);
      X = XNew;
      if (Me == 0)
        Stats[static_cast<std::size_t>(It)].Error = Error;

      // Migrate [A | b] rows to the new distribution — only when the
      // repartition actually moved units between ranks.
      Loop.redistributeIfChanged(Sys);

      if (Error <= Options.Tolerance) {
        ++It;
        if (Me == 0)
          Converged = true;
        break;
      }
    }

    if (Me == 0) {
      IterationsDone = It;
      if (Eq)
        EqStats = Eq->stats();
      for (int Q = 0; Q < P; ++Q)
        if (Loop.context().isExcluded(Q))
          FailedRanks.push_back(Q);
      Solution = X;
      std::vector<double> RowResidual(static_cast<std::size_t>(N));
      for (int Row = 0; Row < N; ++Row) {
        double Sum = -jacobiRhsEntry(N, Row);
        for (int Col = 0; Col < N; ++Col)
          Sum += jacobiMatrixEntry(N, Row, Col) *
                 X[static_cast<std::size_t>(Col)];
        RowResidual[static_cast<std::size_t>(Row)] = Sum;
      }
      Residual = normInf(RowResidual);
    }
  };

  SpmdResult Run = Engine.execute(P, Body).value();

  JacobiReport Report;
  Stats.resize(static_cast<std::size_t>(IterationsDone));
  Report.Iterations = std::move(Stats);
  Report.Makespan = Run.makespan();
  Report.Converged = Converged;
  Report.Rebalances = RebalanceCount;
  Report.Solution = std::move(Solution);
  Report.Residual = Residual;
  Report.FailedRanks = std::move(FailedRanks);
  Report.Equalize = EqStats;
  Report.Comm = Run.Comm;
  return Report;
}
