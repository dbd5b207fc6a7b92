//===-- bench/rank_sweep.cpp - runtime scalability sweep ------------------===//
//
// The scale story of the mpp substrate in one artefact: worlds from 8 to
// 2048 ranks on a simulated multi-node platform (32 ranks per node),
// recording for each size
//
//   * spawn cost and resident memory while the world is alive,
//   * channels actually instantiated vs the P² a dense mailbox matrix
//     would hold (the lazy-mailbox memory bound),
//   * wall latency of barrier / bcast / allreduce and of one dynamic
//     balancing round (gather times -> solve -> bcast counts),
//   * virtual completion times of bcast and gatherv under the
//     automatically selected algorithm vs the flat trees forced by
//     disabling two-level collectives — byte-identity checked by hash.
//
// Invariants enforced (nonzero exit on violation, also in --smoke):
// channels stay far below P², and on a multi-node topology the
// two-level collectives are never slower than the flat trees.
//
// Writes BENCH_rank_sweep.json into the working directory.
//
//===----------------------------------------------------------------------===//

#include "mpp/Runtime.h"
#include "support/Hash.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace fupermod;

namespace {

constexpr int RanksPerNode = 32;
constexpr std::size_t BcastBytes = 64 * 1024;
constexpr std::size_t GatherBytesPerRank = 1024;

std::shared_ptr<const CostModel> nodedCost(int P) {
  std::vector<int> NodeOf(static_cast<std::size_t>(P));
  for (int R = 0; R < P; ++R)
    NodeOf[static_cast<std::size_t>(R)] = R / RanksPerNode;
  return std::make_shared<TwoLevelCostModel>(
      std::move(NodeOf), LinkCost{1e-6, 1.0 / 8e9},
      LinkCost{5e-5, 1.0 / 1e9});
}

std::vector<std::byte> rankData(int Rank, std::size_t Len) {
  std::vector<std::byte> Data(Len);
  std::uint64_t X =
      0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(Rank) + 1);
  for (std::size_t I = 0; I < Len; ++I) {
    X ^= X >> 27;
    X *= 0x94d049bb133111ebull;
    Data[I] = static_cast<std::byte>(X >> 56);
  }
  return Data;
}

/// Current VmRSS in MiB (Linux; 0 elsewhere).
double readRssMib() {
#if defined(__linux__)
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0.0;
  char Line[256];
  double Mib = 0.0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, "VmRSS:", 6) == 0) {
      long long Kb = 0;
      if (std::sscanf(Line + 6, "%lld", &Kb) == 1)
        Mib = static_cast<double>(Kb) / 1024.0;
      break;
    }
  std::fclose(F);
  return Mib;
#else
  return 0.0;
#endif
}

double wallMs(std::chrono::steady_clock::time_point T0,
              std::chrono::steady_clock::time_point T1) {
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

/// Virtual completion of one bcast and one gatherv plus a hash of every
/// byte they produced (root data, gathered block, per-rank results).
struct VirtualRun {
  double BcastVirtual = 0.0;
  double GatherVirtual = 0.0;
  std::uint64_t Hash = 0;
  bool TwoLevel = false;
};

VirtualRun measureVirtual(int P, const std::shared_ptr<const CostModel> &Cost,
                          const SpmdOptions &Opts) {
  VirtualRun Out;
  // A node-misaligned root: with contiguous node blocks, a flat binomial
  // from a node leader happens to cross each inter-node link only once,
  // hiding the hierarchy's advantage. Rooting off-leader makes the flat
  // tree straddle node boundaries — the regime real applications hit.
  const int Root = P / 2 + 1 < P ? P / 2 + 1 : 0;
  runSpmd(
      P,
      [&](Comm &C) {
        if (C.rank() == 0)
          Out.TwoLevel = C.usesTwoLevelCollectives();

        std::vector<std::byte> Data;
        if (C.rank() == Root)
          Data = rankData(0, BcastBytes);
        C.barrier(); // Clocks now equal: virtual deltas are exact.
        double B0 = C.time();
        C.bcastBytes(Data, Root);
        double B1 = C.allreduceValue(C.time(), ReduceOp::Max);

        std::vector<std::byte> Mine = rankData(C.rank(), GatherBytesPerRank);
        C.barrier();
        double G0 = C.time();
        std::vector<std::byte> All = C.gathervBytes(Mine, Root);
        double G1 = C.allreduceValue(C.time(), ReduceOp::Max);

        // Every rank hashes what it saw; the root folds the lot so a
        // divergence anywhere flips the final hash.
        std::uint64_t H = fnv1a(Data);
        std::vector<std::byte> HB(sizeof(H));
        std::memcpy(HB.data(), &H, sizeof(H));
        std::vector<std::byte> AllH = C.gathervBytes(HB, Root);
        if (C.rank() == Root) {
          Out.BcastVirtual = B1 - B0;
          Out.GatherVirtual = G1 - G0;
          Out.Hash = fnv1a(All, fnv1a(AllH));
        }
      },
      Cost, Opts);
  return Out;
}

struct Entry {
  int Ranks = 0;
  int Nodes = 0;
  bool TwoLevel = false;
  double SpawnWallMs = 0.0;
  unsigned long long Channels = 0;
  double RssBeforeMib = 0.0;
  double RssDuringMib = 0.0;
  double BarrierWallUs = 0.0;
  double BcastWallUs = 0.0;
  double AllreduceWallUs = 0.0;
  double BalanceWallUs = 0.0;
  VirtualRun Selected;
  VirtualRun Flat;
};

Entry sweepOne(int P) {
  using Clock = std::chrono::steady_clock;
  Entry E;
  E.Ranks = P;
  E.Nodes = (P + RanksPerNode - 1) / RanksPerNode;
  auto Cost = nodedCost(P);

  E.RssBeforeMib = readRssMib();
  auto S0 = Clock::now();
  runSpmd(P, [](Comm &) {}, Cost);
  E.SpawnWallMs = wallMs(S0, Clock::now());

  // Virtual times + byte identity: selected algorithms vs forced-flat.
  E.Selected = measureVirtual(P, Cost, SpmdOptions{});
  SpmdOptions FlatOpts;
  FlatOpts.TwoLevelMinRanks = 0;
  E.Flat = measureVirtual(P, Cost, FlatOpts);
  E.TwoLevel = E.Selected.TwoLevel;

  // Wall-latency workload: nearest-neighbour halo ring, then timed
  // barrier / bcast / allreduce loops, then a dynamic-balancing round
  // (gather per-rank times at the root, recompute counts, bcast them).
  const int BarrierReps = 10, CollectiveReps = 5;
  Clock::time_point T0;
  runSpmd(
      P,
      [&](Comm &C) {
        int Right = (C.rank() + 1) % P;
        int Left = (C.rank() + P - 1) % P;
        std::vector<int> Halo = {C.rank(), C.rank() + 1};
        for (int I = 0; I < 3; ++I)
          (void)C.sendrecv<int>(Right, 5, std::span<const int>(Halo), Left,
                                5);
        C.barrier();
        if (C.rank() == 0)
          E.RssDuringMib = readRssMib();

        C.barrier();
        if (C.rank() == 0)
          T0 = Clock::now();
        for (int I = 0; I < BarrierReps; ++I)
          C.barrier();
        if (C.rank() == 0)
          E.BarrierWallUs =
              wallMs(T0, Clock::now()) * 1e3 / BarrierReps;

        std::vector<std::byte> Data;
        C.barrier();
        if (C.rank() == 0)
          T0 = Clock::now();
        for (int I = 0; I < CollectiveReps; ++I) {
          if (C.rank() == 0)
            Data = rankData(I, BcastBytes);
          C.bcastBytes(Data, 0);
        }
        C.barrier();
        if (C.rank() == 0)
          E.BcastWallUs =
              wallMs(T0, Clock::now()) * 1e3 / CollectiveReps;

        C.barrier();
        if (C.rank() == 0)
          T0 = Clock::now();
        for (int I = 0; I < CollectiveReps; ++I)
          (void)C.allreduceValue(static_cast<double>(C.rank() + I),
                                 ReduceOp::Max);
        C.barrier();
        if (C.rank() == 0)
          E.AllreduceWallUs =
              wallMs(T0, Clock::now()) * 1e3 / CollectiveReps;

        // One balancing round, the communication footprint of the
        // paper's dynamic loop: per-rank measured time to the root,
        // inverse-time proportional counts back to everyone.
        C.barrier();
        if (C.rank() == 0)
          T0 = Clock::now();
        for (int I = 0; I < CollectiveReps; ++I) {
          double MyTime = 1.0 + 0.01 * ((C.rank() * 37 + I) % 23);
          std::vector<double> Times =
              C.gatherv(std::span<const double>(&MyTime, 1), 0);
          std::vector<std::int64_t> Counts(
              static_cast<std::size_t>(P));
          if (C.rank() == 0) {
            double SumInv = 0.0;
            for (double T : Times)
              SumInv += 1.0 / T;
            for (int R = 0; R < P; ++R)
              Counts[static_cast<std::size_t>(R)] =
                  static_cast<std::int64_t>(1e6 / Times[R] / SumInv);
          }
          C.bcast(Counts, 0);
        }
        C.barrier();
        if (C.rank() == 0)
          E.BalanceWallUs =
              wallMs(T0, Clock::now()) * 1e3 / CollectiveReps;
      },
      Cost);

  SpmdResult Metrics = runSpmd(
      P,
      [&](Comm &C) {
        int Right = (C.rank() + 1) % P;
        int Left = (C.rank() + P - 1) % P;
        std::vector<int> Halo = {C.rank()};
        for (int I = 0; I < 3; ++I)
          (void)C.sendrecv<int>(Right, 5, std::span<const int>(Halo), Left,
                                5);
        C.barrier();
        (void)C.allreduceValue(1.0, ReduceOp::Sum);
      },
      Cost);
  E.Channels = Metrics.Comm.ChannelsCreated;
  return E;
}

bool checkEntry(const Entry &E) {
  bool Ok = true;
  unsigned long long Dense = static_cast<unsigned long long>(E.Ranks) *
                             static_cast<unsigned long long>(E.Ranks);
  // Sub-quadratic channel growth only shows from a few dozen ranks up;
  // at P=8 the trees alone are a sizeable fraction of the 64-slot matrix.
  if (E.Ranks >= 32 && !(E.Channels > 0 && E.Channels * 4 < Dense)) {
    std::fprintf(stderr,
                 "rank_sweep: P=%d instantiated %llu channels "
                 "(dense matrix %llu) — lazy mailboxes regressed\n",
                 E.Ranks, E.Channels, Dense);
    Ok = false;
  }
  if (E.Selected.Hash != E.Flat.Hash) {
    std::fprintf(stderr,
                 "rank_sweep: P=%d two-level and flat collectives "
                 "diverged (%016llx vs %016llx)\n",
                 E.Ranks,
                 static_cast<unsigned long long>(E.Selected.Hash),
                 static_cast<unsigned long long>(E.Flat.Hash));
    Ok = false;
  }
  const double Tol = 1e-9;
  if (E.TwoLevel &&
      (E.Selected.BcastVirtual > E.Flat.BcastVirtual * (1.0 + Tol) ||
       E.Selected.GatherVirtual > E.Flat.GatherVirtual * (1.0 + Tol))) {
    std::fprintf(stderr,
                 "rank_sweep: P=%d two-level slower than flat "
                 "(bcast %.3e vs %.3e, gather %.3e vs %.3e)\n",
                 E.Ranks, E.Selected.BcastVirtual, E.Flat.BcastVirtual,
                 E.Selected.GatherVirtual, E.Flat.GatherVirtual);
    Ok = false;
  }
  return Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I)
    if (std::string(Argv[I]) == "--smoke")
      Smoke = true;

  std::vector<int> Sizes = Smoke
                               ? std::vector<int>{8, 64}
                               : std::vector<int>{8, 32, 128, 512, 1024,
                                                  2048};

  std::printf("rank sweep: %d ranks/node, bcast %zu B, gather %zu B/rank\n",
              RanksPerNode, BcastBytes, GatherBytesPerRank);
  std::printf("  %6s %5s %9s %9s %10s %9s %9s %9s %9s %11s %11s\n", "ranks",
              "nodes", "spawn_ms", "channels", "rss_mib", "barr_us",
              "bcast_us", "allred_us", "balance_us", "bcast_virt",
              "gather_virt");

  std::vector<Entry> Entries;
  bool AllOk = true;
  for (int P : Sizes) {
    Entry E = sweepOne(P);
    AllOk = checkEntry(E) && AllOk;
    std::printf("  %6d %5d %9.1f %9llu %10.1f %9.1f %9.1f %9.1f %9.1f "
                "%11.3e %11.3e%s\n",
                E.Ranks, E.Nodes, E.SpawnWallMs, E.Channels, E.RssDuringMib,
                E.BarrierWallUs, E.BcastWallUs, E.AllreduceWallUs,
                E.BalanceWallUs, E.Selected.BcastVirtual,
                E.Selected.GatherVirtual, E.TwoLevel ? "  [2level]" : "");
    Entries.push_back(E);
  }

  std::FILE *J = std::fopen("BENCH_rank_sweep.json", "w");
  if (J) {
    std::fprintf(J, "{\n");
    std::fprintf(J, "  \"bench\": \"rank_sweep\",\n");
    std::fprintf(J, "  \"mode\": \"%s\",\n", Smoke ? "smoke" : "full");
    std::fprintf(J, "  \"ranks_per_node\": %d,\n", RanksPerNode);
    std::fprintf(J, "  \"bcast_bytes\": %zu,\n", BcastBytes);
    std::fprintf(J, "  \"gather_bytes_per_rank\": %zu,\n",
                 GatherBytesPerRank);
    std::fprintf(J, "  \"entries\": [\n");
    for (std::size_t I = 0; I < Entries.size(); ++I) {
      const Entry &E = Entries[I];
      std::fprintf(
          J,
          "    {\"ranks\": %d, \"nodes\": %d, \"two_level\": %s, "
          "\"spawn_wall_ms\": %.3f, \"channels_created\": %llu, "
          "\"channels_dense_matrix\": %llu, "
          "\"rss_before_mib\": %.1f, \"rss_during_mib\": %.1f, "
          "\"barrier_wall_us\": %.2f, \"bcast_wall_us\": %.2f, "
          "\"allreduce_wall_us\": %.2f, \"balance_round_wall_us\": %.2f, "
          "\"bcast_virtual_selected\": %.9e, \"bcast_virtual_flat\": %.9e, "
          "\"gather_virtual_selected\": %.9e, "
          "\"gather_virtual_flat\": %.9e, "
          "\"collectives_identical\": %s}%s\n",
          E.Ranks, E.Nodes, E.TwoLevel ? "true" : "false", E.SpawnWallMs,
          E.Channels,
          static_cast<unsigned long long>(E.Ranks) *
              static_cast<unsigned long long>(E.Ranks),
          E.RssBeforeMib, E.RssDuringMib, E.BarrierWallUs, E.BcastWallUs,
          E.AllreduceWallUs, E.BalanceWallUs, E.Selected.BcastVirtual,
          E.Flat.BcastVirtual, E.Selected.GatherVirtual,
          E.Flat.GatherVirtual,
          E.Selected.Hash == E.Flat.Hash ? "true" : "false",
          I + 1 < Entries.size() ? "," : "");
    }
    std::fprintf(J, "  ],\n");
    std::fprintf(J, "  \"all_invariants_hold\": %s\n",
                 AllOk ? "true" : "false");
    std::fprintf(J, "}\n");
    std::fclose(J);
  }

  if (!AllOk) {
    std::fprintf(stderr, "rank_sweep: invariant violated\n");
    return 1;
  }
  return 0;
}
