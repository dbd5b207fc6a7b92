//===-- bench/equalize.cpp - E: dynamic equalization policy sweep ---------===//
//
// Proves the equalization subsystem out on two drifting workloads:
//
//  1. the Jacobi app under a scripted FaultPlan drift (slowdown ramps
//     that later recover), swept over the registered policies (off,
//     every-round, threshold, cost-arbitrated);
//  2. a synthetic GEMM-profile iterative loop driving
//     BalancedLoop::balanceEqualized directly over a PartitionedVector.
//
// Tripwires (the bench exits non-zero when any fails):
//  - every policy produces the bit-identical numerical result (FNV of
//    the final solution / final array) — repartitioning must never
//    change the mathematics;
//  - the cost-arbitrated policy's makespan stays within 1.05x of
//    every-round while moving at most 0.5x its redistribute bytes (the
//    arbiter earns its keep: near-equal speed at a fraction of the
//    migration traffic);
//  - the threshold policy fires exactly as often as an offline replay of
//    the recorded per-iteration times through a fresh ImbalanceMonitor
//    predicts (the monitor automaton is deterministic and observable).
//
// Output: a policy table per workload plus BENCH_equalize.json in the
// working directory. --smoke runs a reduced size and checks the same
// invariants.
//
//===----------------------------------------------------------------------===//

#include "apps/Jacobi.h"
#include "core/Partitioners.h"
#include "dist/PartitionedVector.h"
#include "engine/Balance.h"
#include "equalize/Monitor.h"
#include "equalize/Policy.h"
#include "mpp/Runtime.h"
#include "support/Hash.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace fupermod;

namespace {

/// Scripted drift: a few ranks slow down by 3x after some busy time and
/// recover later (the multiplicative slowdown events compose, so the
/// second event divides the factor back out).
void addDrift(Cluster &Cl, double RampBusy, double RecoverBusy) {
  int P = Cl.size();
  for (int R : {1, P / 3, P / 2, (3 * P) / 4}) {
    if (R <= 0 || R >= P)
      continue;
    Cl.addFault(R, FaultPlan::slowdown(RampBusy, 3.0));
    Cl.addFault(R, FaultPlan::slowdown(RecoverBusy, 1.0 / 3.0));
  }
}

/// One policy's outcome on a workload.
struct PolicyResult {
  std::string Name;
  double Makespan = 0.0;
  unsigned long long RedistBytes = 0;
  std::uint64_t Hash = 0;
  equalize::EqualizeStats Stats;
};

equalize::EqualizeConfig configFor(const std::string &Policy, double Bpu,
                                   const LinkCost &Link) {
  equalize::EqualizeConfig Cfg;
  Cfg.Policy = Policy;
  Cfg.Period = 1; // "every" fires each round, the historical baseline.
  Cfg.Monitor.TriggerThreshold = 0.25;
  Cfg.Monitor.ClearThreshold = 0.2;
  Cfg.Monitor.Cooldown = 2;
  Cfg.Monitor.MinBreaches = 1;
  Cfg.Monitor.EwmaAlpha = 0.6; // Smooth the measurement noise.
  Cfg.Arbiter.BytesPerUnit = Bpu;
  Cfg.Arbiter.Link = Link;
  Cfg.Arbiter.HorizonRounds = 10;
  // The network is fast, so the absolute migration cost alone would
  // approve almost everything: demand a 15% projected round saving.
  Cfg.Arbiter.MinRelativeSaving = 0.15;
  return Cfg;
}

//===----------------------------------------------------------------------===//
// Workload 1: Jacobi under drift
//===----------------------------------------------------------------------===//

PolicyResult runJacobiPolicy(const Cluster &Cl, const std::string &Policy,
                             int N, int Iterations,
                             std::vector<JacobiIteration> *TraceOut) {
  JacobiOptions O;
  O.N = N;
  O.MaxIterations = Iterations;
  // Negative tolerance: never declare convergence (the system hits its
  // bitwise fixed point after ~14 sweeps), so every policy runs the same
  // fixed iteration count and the quiet tail after the drift is part of
  // the comparison.
  O.Tolerance = -1.0;
  O.Balance = true;
  O.StalenessDecay = 0.5; // Track the drift instead of averaging regimes.
  O.Equalize = configFor(Policy, static_cast<double>(N + 1) * sizeof(double),
                         Cl.Inter);

  JacobiReport R = runJacobi(Cl, O);
  PolicyResult Out;
  Out.Name = Policy;
  Out.Makespan = R.Makespan;
  Out.RedistBytes = R.Comm.RedistributeBytes;
  Out.Hash = fnv1a(std::as_bytes(std::span<const double>(R.Solution)));
  Out.Stats = R.Equalize;
  if (TraceOut)
    *TraceOut = R.Iterations;
  return Out;
}

/// Offline replay of the threshold policy over the recorded trace: a
/// fresh policy instance is driven through the exact shouldSolve /
/// noteOutcome protocol the live loop uses, with each iteration's
/// compute times and row mask as input; an adopted rebalance is visible
/// as a row redistribution in the next iteration. The replayed trigger
/// count must equal the live run's — the policy is a pure deterministic
/// automaton over the time series.
std::uint64_t replayThresholdTriggers(
    const std::vector<JacobiIteration> &Trace,
    const equalize::EqualizeConfig &Cfg) {
  Result<std::unique_ptr<equalize::Equalizer>> EqR =
      equalize::makeEqualizer(Cfg);
  std::unique_ptr<equalize::Equalizer> Eq = std::move(EqR.value());
  for (std::size_t It = 0; It < Trace.size(); ++It) {
    const JacobiIteration &Iter = Trace[It];
    std::size_t P = Iter.ComputeTimes.size();
    std::vector<std::uint8_t> Active(P);
    for (std::size_t R = 0; R < P; ++R)
      Active[R] = Iter.Rows[R] > 0 ? 1 : 0;
    bool Solved =
        Eq->shouldSolve(Iter.ComputeTimes, Active, /*AnyFailed=*/false);
    bool Adopted = Solved && It + 1 < Trace.size() &&
                   Trace[It + 1].Rows != Iter.Rows;
    Eq->noteOutcome(Adopted, /*ForcedByFailure=*/false);
  }
  return Eq->stats().Triggers;
}

//===----------------------------------------------------------------------===//
// Workload 2: synthetic GEMM-profile loop over a PartitionedVector
//===----------------------------------------------------------------------===//

PolicyResult runSyntheticPolicy(const Cluster &Cl, const std::string &Policy,
                                std::int64_t Total, int Width, int Rounds) {
  int P = Cl.size();
  equalize::EqualizeConfig EqCfg = configFor(
      Policy, static_cast<double>(Width) * sizeof(double), Cl.Inter);

  PolicyResult Out;
  Out.Name = Policy;
  std::uint64_t Hash = 0;
  equalize::EqualizeStats Stats;

  SpmdResult R = runSpmd(
      P,
      [&](Comm &C) {
        int Me = C.rank();
        SimDevice Dev = Cl.makeDevice(Me);
        engine::BalancedLoop Loop(findPartitioner("geometric"), "piecewise",
                                  Total, P, /*StalenessDecay=*/0.5);
        Result<std::unique_ptr<equalize::Equalizer>> EqR =
            equalize::makeEqualizer(EqCfg);
        std::unique_ptr<equalize::Equalizer> Eq = std::move(EqR.value());

        dist::PartitionedVector<double> V(C, Loop.dist(), Width);
        V.generate([&](std::int64_t U, std::span<double> Row) {
          for (int W = 0; W < Width; ++W)
            Row[static_cast<std::size_t>(W)] =
                static_cast<double>(U * Width + W);
        });

        for (int Round = 0; Round < Rounds; ++Round) {
          double IterStart = C.time();
          std::int64_t MyUnits = V.units();
          bool DevFailed = false;
          if (MyUnits > 0) {
            Measurement M = Dev.measure(static_cast<double>(MyUnits));
            if (M.Status == MeasureStatus::Failed)
              DevFailed = true;
            else
              C.compute(M.Seconds);
          }
          Loop.balanceEqualized(C, IterStart, *Eq, DevFailed);
          Loop.redistributeIfChanged(V);
        }

        std::vector<double> Final =
            C.gatherv(std::span<const double>(V.local()), 0);
        if (Me == 0) {
          Hash = fnv1a(std::as_bytes(std::span<const double>(Final)));
          Stats = Eq->stats();
        }
      },
      Cl.makeCostModel());

  Out.Makespan = R.makespan();
  Out.RedistBytes = R.Comm.RedistributeBytes;
  Out.Hash = Hash;
  Out.Stats = Stats;
  return Out;
}

void printTable(const char *Title, const std::vector<PolicyResult> &Rows) {
  std::printf("%s\n", Title);
  std::printf("  %-11s %12s %16s %9s %8s %7s %11s\n", "policy",
              "makespan_s", "redist_bytes", "triggers", "vetoes",
              "rebal", "hash");
  for (const PolicyResult &R : Rows)
    std::printf("  %-11s %12.6f %16llu %9llu %8llu %7llu %011llx\n",
                R.Name.c_str(), R.Makespan, R.RedistBytes,
                static_cast<unsigned long long>(R.Stats.Triggers),
                static_cast<unsigned long long>(R.Stats.Vetoes),
                static_cast<unsigned long long>(R.Stats.Rebalances),
                static_cast<unsigned long long>(R.Hash & 0xfffffffffffull));
}

const PolicyResult &byName(const std::vector<PolicyResult> &Rows,
                           const char *Name) {
  for (const PolicyResult &R : Rows)
    if (R.Name == Name)
      return R;
  std::fprintf(stderr, "equalize: missing policy row %s\n", Name);
  std::exit(1);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I)
    if (std::string(Argv[I]) == "--smoke")
      Smoke = true;

  const int P = Smoke ? 8 : 64;
  const int N = Smoke ? 192 : 1024;
  const int Iterations = Smoke ? 40 : 64;
  const std::int64_t SynthTotal = Smoke ? 512 : 4096;
  const int SynthWidth = 16;
  const int SynthRounds = Smoke ? 44 : 64;
  const std::vector<std::string> Policies = {"off", "every", "threshold",
                                             "arbitrated"};

  // Deterministic (seeded) platform with measurement noise and scripted
  // drift: four ranks ramp to 3x slower partway through and recover
  // later. The noise is what separates the policies — every-round
  // balancing chases it with a small repartition almost every round,
  // while the monitor's EWMA window and the arbiter's relative-saving
  // floor see through it.
  Cluster Jac = makeHeterogeneousCluster(P, /*Variant=*/1);
  Jac.NoiseSigma = 0.05;
  addDrift(Jac, /*RampBusy=*/0.15, /*RecoverBusy=*/0.5);

  std::printf("equalize bench: P=%d N=%d iterations=%d (Jacobi), "
              "total=%lld width=%d rounds=%d (synthetic)\n\n",
              P, N, Iterations, static_cast<long long>(SynthTotal),
              SynthWidth, SynthRounds);

  std::vector<PolicyResult> JacRows;
  std::vector<JacobiIteration> ThresholdTrace;
  for (const std::string &Policy : Policies)
    JacRows.push_back(runJacobiPolicy(
        Jac, Policy, N, Iterations,
        Policy == "threshold" ? &ThresholdTrace : nullptr));
  printTable("Jacobi under scripted drift:", JacRows);

  Cluster Syn = makeHeterogeneousCluster(P, /*Variant=*/2);
  Syn.NoiseSigma = 0.05;
  addDrift(Syn, /*RampBusy=*/0.1, /*RecoverBusy=*/0.35);

  std::vector<PolicyResult> SynRows;
  for (const std::string &Policy : Policies)
    SynRows.push_back(
        runSyntheticPolicy(Syn, Policy, SynthTotal, SynthWidth, SynthRounds));
  std::printf("\n");
  printTable("Synthetic GEMM-profile loop under scripted drift:", SynRows);

  // --- Tripwires ---------------------------------------------------------
  const PolicyResult &JacEvery = byName(JacRows, "every");
  const PolicyResult &JacArb = byName(JacRows, "arbitrated");
  const PolicyResult &JacThresh = byName(JacRows, "threshold");
  const PolicyResult &SynEvery = byName(SynRows, "every");
  const PolicyResult &SynArb = byName(SynRows, "arbitrated");

  bool Identical = true;
  for (const std::vector<PolicyResult> *Rows : {&JacRows, &SynRows})
    for (const PolicyResult &R : *Rows)
      Identical = Identical && R.Hash == Rows->front().Hash;

  double MakespanRatio =
      JacEvery.Makespan > 0.0 ? JacArb.Makespan / JacEvery.Makespan : 1.0;
  bool MakespanOk = MakespanRatio <= 1.05;
  bool BytesOk =
      JacArb.RedistBytes * 2 <= JacEvery.RedistBytes &&
      SynArb.RedistBytes * 2 <= SynEvery.RedistBytes;

  std::uint64_t Expected = replayThresholdTriggers(
      ThresholdTrace, configFor("threshold", 0.0, Jac.Inter));
  bool TriggersExact = Expected == JacThresh.Stats.Triggers;

  std::printf("\n  arbitrated/every makespan ratio %.3f (bound 1.05), "
              "redistribute bytes %llu vs %llu (bound 0.5x)\n",
              MakespanRatio, JacArb.RedistBytes, JacEvery.RedistBytes);
  std::printf("  threshold triggers: live %llu, offline replay %llu (%s)\n",
              static_cast<unsigned long long>(JacThresh.Stats.Triggers),
              static_cast<unsigned long long>(Expected),
              TriggersExact ? "exact" : "MISMATCH");
  std::printf("  results across policies: %s\n",
              Identical ? "bit-identical" : "DIVERGED");

  std::FILE *J = std::fopen("BENCH_equalize.json", "w");
  if (J) {
    std::fprintf(J, "{\n");
    std::fprintf(J, "  \"bench\": \"equalize\",\n");
    std::fprintf(J, "  \"mode\": \"%s\",\n", Smoke ? "smoke" : "full");
    std::fprintf(J, "  \"devices\": %d,\n", P);
    std::fprintf(J, "  \"jacobi\": {\"n\": %d, \"iterations\": %d},\n", N,
                 Iterations);
    std::fprintf(J,
                 "  \"synthetic\": {\"total_units\": %lld, \"width\": %d, "
                 "\"rounds\": %d},\n",
                 static_cast<long long>(SynthTotal), SynthWidth,
                 SynthRounds);
    for (int W = 0; W < 2; ++W) {
      const std::vector<PolicyResult> &Rows = W == 0 ? JacRows : SynRows;
      std::fprintf(J, "  \"%s\": [\n", W == 0 ? "jacobi_policies"
                                              : "synthetic_policies");
      for (std::size_t I = 0; I < Rows.size(); ++I)
        std::fprintf(
            J,
            "    {\"policy\": \"%s\", \"makespan_seconds\": %.9f, "
            "\"redistribute_bytes\": %llu, \"triggers\": %llu, "
            "\"vetoes\": %llu, \"rebalances\": %llu, "
            "\"cooldown_suppressed\": %llu, \"predicted_savings\": %.9f, "
            "\"final_hash\": \"%016llx\"}%s\n",
            Rows[I].Name.c_str(), Rows[I].Makespan, Rows[I].RedistBytes,
            static_cast<unsigned long long>(Rows[I].Stats.Triggers),
            static_cast<unsigned long long>(Rows[I].Stats.Vetoes),
            static_cast<unsigned long long>(Rows[I].Stats.Rebalances),
            static_cast<unsigned long long>(
                Rows[I].Stats.CooldownSuppressed),
            Rows[I].Stats.PredictedSavings,
            static_cast<unsigned long long>(Rows[I].Hash),
            I + 1 < Rows.size() ? "," : "");
      std::fprintf(J, "  ],\n");
    }
    std::fprintf(J, "  \"arbitrated_over_every_makespan\": %.4f,\n",
                 MakespanRatio);
    std::fprintf(J, "  \"threshold_triggers_exact\": %s,\n",
                 TriggersExact ? "true" : "false");
    std::fprintf(J, "  \"results_identical\": %s\n",
                 Identical ? "true" : "false");
    std::fprintf(J, "}\n");
    std::fclose(J);
  }

  if (!Identical || !MakespanOk || !BytesOk || !TriggersExact) {
    std::fprintf(stderr, "equalize: invariant violated (identical=%d "
                         "makespan=%d bytes=%d triggers=%d)\n",
                 Identical, MakespanOk, BytesOk, TriggersExact);
    return 1;
  }
  return 0;
}
