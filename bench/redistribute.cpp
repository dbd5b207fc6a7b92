//===-- bench/redistribute.cpp - repartition data-movement cost -----------===//
//
// Measures what a repartition costs in data movement under two
// strategies, over the same deterministic schedule of random partitions:
//
//   gather-scatter   collect the whole array on rank 0, re-scatter by the
//                    new partition (the naive, always-correct baseline)
//   interval-overlap PartitionedVector::redistribute — every rank keeps
//                    old ∩ new in place and ships only the deltas with
//                    zero-copy subview sends
//
// The interval-overlap plan must (a) end bit-identical to the baseline,
// (b) move exactly the analytic minimum sum_steps (Total - sum_r |old_r ∩
// new_r|) units, and (c) copy zero bytes in the comm layer. The full run
// prints the movement ratio; --smoke runs a tiny schedule and exits
// non-zero on any violated invariant — the tier-1 tripwire.
//
// Output: a table on stdout and BENCH_redistribute.json in the working
// directory.
//
//===----------------------------------------------------------------------===//

#include "dist/PartitionedVector.h"
#include "mpp/CostModel.h"
#include "mpp/Runtime.h"
#include "support/Hash.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

using namespace fupermod;
using namespace fupermod::dist;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Dist distOf(const std::vector<std::int64_t> &Units) {
  Dist D;
  for (std::int64_t U : Units) {
    Part P;
    P.Units = U;
    D.Parts.push_back(P);
    D.Total += U;
  }
  return D;
}

/// The benchmark's partition schedule: deterministic random compositions
/// of \p Total over \p P ranks, occasionally with drained (zero-unit)
/// ranks — the degraded-device shape.
std::vector<std::vector<std::int64_t>> makeSchedule(int P,
                                                    std::int64_t Total,
                                                    int Steps) {
  std::mt19937 Rng(7u);
  std::vector<std::vector<std::int64_t>> Schedule;
  for (int S = 0; S <= Steps; ++S) {
    std::vector<std::int64_t> Cuts = {0, Total};
    std::uniform_int_distribution<std::int64_t> Pick(0, Total);
    for (int I = 0; I + 1 < P; ++I)
      Cuts.push_back(Pick(Rng));
    std::sort(Cuts.begin(), Cuts.end());
    std::vector<std::int64_t> Units;
    for (int I = 0; I < P; ++I)
      Units.push_back(Cuts[static_cast<std::size_t>(I) + 1] -
                      Cuts[static_cast<std::size_t>(I)]);
    if (S % 4 == 3) { // Drain one rank entirely every fourth step.
      int Victim = S % P;
      std::int64_t Freed = Units[static_cast<std::size_t>(Victim)];
      Units[static_cast<std::size_t>(Victim)] = 0;
      Units[static_cast<std::size_t>((Victim + 1) % P)] += Freed;
    }
    Schedule.push_back(std::move(Units));
  }
  return Schedule;
}

struct StrategyResult {
  std::string Name;
  double Makespan = 0.0;
  double WallSeconds = 0.0;
  unsigned long long BytesLogical = 0;
  unsigned long long BytesCopied = 0;
  unsigned long long Messages = 0;
  std::uint64_t Hash = 0;
};

/// Both strategies fill the same initial contents and apply the same
/// schedule; the hash is the FNV of the final array in global order.
double unitSeed(std::int64_t Unit, std::int64_t Elem) {
  std::uint64_t Z = static_cast<std::uint64_t>(Unit) * 0x9e3779b97f4a7c15ull +
                    static_cast<std::uint64_t>(Elem);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  return static_cast<double>(Z >> 11) * (1.0 / 9007199254740992.0);
}

StrategyResult
runGatherScatter(const std::vector<std::vector<std::int64_t>> &Schedule,
                 std::int64_t EPU, std::shared_ptr<const CostModel> Cost) {
  StrategyResult Out;
  Out.Name = "gather-scatter";
  int P = static_cast<int>(Schedule.front().size());
  double Wall = now();
  std::uint64_t Hash = 0;
  SpmdResult R = runSpmd(
      P,
      [&](Comm &C) {
        int Me = C.rank();
        std::vector<double> Local(
            static_cast<std::size_t>(
                Schedule.front()[static_cast<std::size_t>(Me)]) *
            static_cast<std::size_t>(EPU));
        std::vector<std::int64_t> Starts =
            distOf(Schedule.front()).contiguousStarts();
        for (std::int64_t U = 0;
             U < Schedule.front()[static_cast<std::size_t>(Me)]; ++U)
          for (std::int64_t E = 0; E < EPU; ++E)
            Local[static_cast<std::size_t>(U * EPU + E)] =
                unitSeed(Starts[static_cast<std::size_t>(Me)] + U, E);

        for (std::size_t S = 1; S < Schedule.size(); ++S) {
          // The naive move: everything to rank 0, everything back out.
          std::vector<double> All =
              C.gatherv(std::span<const double>(Local), 0);
          std::vector<int> Counts;
          for (std::int64_t U : Schedule[S])
            Counts.push_back(static_cast<int>(U * EPU));
          Local = C.scatterv(std::span<const double>(All),
                             std::span<const int>(Counts), 0);
        }

        std::vector<double> Final =
            C.gatherv(std::span<const double>(Local), 0);
        if (Me == 0)
          Hash = fnv1a(std::as_bytes(std::span<const double>(Final)));
      },
      Cost);
  Out.WallSeconds = now() - Wall;
  Out.Makespan = R.makespan();
  Out.BytesLogical = R.Comm.BytesLogical;
  Out.BytesCopied = R.Comm.BytesCopied;
  Out.Messages = R.Comm.Messages;
  Out.Hash = Hash;
  return Out;
}

StrategyResult
runIntervalOverlap(const std::vector<std::vector<std::int64_t>> &Schedule,
                   std::int64_t EPU,
                   std::shared_ptr<const CostModel> Cost,
                   unsigned long long &RedistBytes,
                   unsigned long long &CopiedBeforeVerify) {
  StrategyResult Out;
  Out.Name = "interval-overlap";
  int P = static_cast<int>(Schedule.front().size());
  double Wall = now();
  std::uint64_t Hash = 0;
  unsigned long long RB = 0, CB = 0;
  SpmdResult R = runSpmd(
      P,
      [&](Comm &C) {
        PartitionedVector<double> V(C, distOf(Schedule.front()), EPU);
        V.generate([&](std::int64_t Unit, std::span<double> Row) {
          for (std::size_t E = 0; E < Row.size(); ++E)
            Row[E] = unitSeed(Unit, static_cast<std::int64_t>(E));
        });

        for (std::size_t S = 1; S < Schedule.size(); ++S)
          V.redistribute(distOf(Schedule[S]));

        // Counter snapshot before the verification gather adds its own
        // (copying) traffic. The second barrier keeps the other ranks
        // out of the gather until rank 0 has read the counters.
        C.barrier();
        if (C.rank() == 0) {
          CommStatsSnapshot Snap = C.commStats();
          RB = Snap.RedistributeBytes;
          CB = Snap.BytesCopied;
        }
        C.barrier();
        std::vector<double> Final =
            C.gatherv(std::span<const double>(V.local()), 0);
        if (C.rank() == 0)
          Hash = fnv1a(std::as_bytes(std::span<const double>(Final)));
      },
      Cost);
  Out.WallSeconds = now() - Wall;
  Out.Makespan = R.makespan();
  Out.BytesLogical = R.Comm.BytesLogical;
  Out.BytesCopied = R.Comm.BytesCopied;
  Out.Messages = R.Comm.Messages;
  Out.Hash = Hash;
  RedistBytes = RB;
  CopiedBeforeVerify = CB;
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I)
    if (std::string(Argv[I]) == "--smoke")
      Smoke = true;

  const int P = Smoke ? 4 : 8;
  const std::int64_t Total = Smoke ? 64 : 2048;
  const std::int64_t EPU = Smoke ? 8 : 256; // doubles per unit
  const int Steps = Smoke ? 6 : 24;

  std::vector<std::vector<std::int64_t>> Schedule =
      makeSchedule(P, Total, Steps);
  // A 100 Mbit-class fabric so the makespans weigh the moved bytes.
  auto Cost = std::make_shared<UniformCostModel>(1e-4, 12.5e6);

  // The analytic floor on moved units over the whole schedule.
  long long MinUnits = 0;
  for (std::size_t S = 1; S < Schedule.size(); ++S)
    MinUnits += minimalTransferUnits(distOf(Schedule[S - 1]).contiguousStarts(),
                                     distOf(Schedule[S]).contiguousStarts());
  unsigned long long MinBytes = static_cast<unsigned long long>(MinUnits) *
                                static_cast<unsigned long long>(EPU) *
                                sizeof(double);

  StrategyResult Naive = runGatherScatter(Schedule, EPU, Cost);
  unsigned long long RedistBytes = 0, CopiedBeforeVerify = 0;
  StrategyResult Overlap =
      runIntervalOverlap(Schedule, EPU, Cost, RedistBytes,
                         CopiedBeforeVerify);

  bool HashesMatch = Naive.Hash == Overlap.Hash;
  bool MovesMinimum = RedistBytes == MinBytes;
  bool ZeroCopy = CopiedBeforeVerify == 0;
  double Ratio = RedistBytes > 0
                     ? static_cast<double>(Naive.BytesLogical) /
                           static_cast<double>(RedistBytes)
                     : 0.0;

  std::printf("redistribute bench: P=%d total=%lld units epu=%lld steps=%d\n",
              P, static_cast<long long>(Total),
              static_cast<long long>(EPU), Steps);
  std::printf("  %-18s %14s %14s %12s %12s\n", "strategy", "bytes_logical",
              "bytes_copied", "makespan_s", "wall_s");
  for (const StrategyResult *S : {&Naive, &Overlap})
    std::printf("  %-18s %14llu %14llu %12.6f %12.3f\n", S->Name.c_str(),
                S->BytesLogical, S->BytesCopied, S->Makespan,
                S->WallSeconds);
  std::printf("  analytic minimum bytes %llu, plan moved %llu (%s), "
              "naive/plan ratio %.1fx\n",
              MinBytes, RedistBytes, MovesMinimum ? "minimal" : "EXCESS",
              Ratio);
  std::printf("  final arrays %s, comm-layer copies before verify %llu\n",
              HashesMatch ? "bit-identical" : "DIVERGED",
              CopiedBeforeVerify);

  std::FILE *J = std::fopen("BENCH_redistribute.json", "w");
  if (J) {
    std::fprintf(J, "{\n");
    std::fprintf(J, "  \"bench\": \"redistribute\",\n");
    std::fprintf(J, "  \"mode\": \"%s\",\n", Smoke ? "smoke" : "full");
    std::fprintf(J, "  \"devices\": %d,\n", P);
    std::fprintf(J, "  \"total_units\": %lld,\n",
                 static_cast<long long>(Total));
    std::fprintf(J, "  \"doubles_per_unit\": %lld,\n",
                 static_cast<long long>(EPU));
    std::fprintf(J, "  \"repartition_steps\": %d,\n", Steps);
    std::fprintf(J, "  \"strategies\": [\n");
    const StrategyResult *Rs[] = {&Naive, &Overlap};
    for (int I = 0; I < 2; ++I)
      std::fprintf(J,
                   "    {\"name\": \"%s\", \"bytes_logical\": %llu, "
                   "\"bytes_copied\": %llu, \"messages\": %llu, "
                   "\"makespan_seconds\": %.9f, \"wall_seconds\": %.3f, "
                   "\"final_hash\": \"%016llx\"}%s\n",
                   Rs[I]->Name.c_str(), Rs[I]->BytesLogical,
                   Rs[I]->BytesCopied, Rs[I]->Messages, Rs[I]->Makespan,
                   Rs[I]->WallSeconds,
                   static_cast<unsigned long long>(Rs[I]->Hash),
                   I == 0 ? "," : "");
    std::fprintf(J, "  ],\n");
    std::fprintf(J, "  \"analytic_minimum_bytes\": %llu,\n", MinBytes);
    std::fprintf(J, "  \"plan_redistribute_bytes\": %llu,\n", RedistBytes);
    std::fprintf(J, "  \"plan_moves_minimum\": %s,\n",
                 MovesMinimum ? "true" : "false");
    std::fprintf(J, "  \"plan_zero_copy\": %s,\n", ZeroCopy ? "true" : "false");
    std::fprintf(J, "  \"naive_over_plan_bytes_ratio\": %.3f,\n", Ratio);
    std::fprintf(J, "  \"final_arrays_identical\": %s\n",
                 HashesMatch ? "true" : "false");
    std::fprintf(J, "}\n");
    std::fclose(J);
  }

  if (!HashesMatch || !MovesMinimum || !ZeroCopy) {
    std::fprintf(stderr, "redistribute: invariant violated\n");
    return 1;
  }
  return 0;
}
