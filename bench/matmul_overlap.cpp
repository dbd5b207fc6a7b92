//===-- bench/matmul_overlap.cpp - zero-copy + overlap matmul -------------===//
//
// Records the perf trajectory of the SPMD matmul communication path:
// virtual makespan, physical copy volume and per-rank stall time of the
// heterogeneous parallel matmul under four configurations —
//
//   baseline        copy-mode sends, serial schedule, 1-thread devices
//   zerocopy        shared-payload pivot fan-out, serial schedule
//   overlap         zero-copy + double-buffered pivot prefetch (irecv)
//   overlap+threads overlap + devices modelled as 4-thread processors
//                   (charged compute time / gemmThreadSpeedup(4))
//
// Every mode runs its real GEMMs on the same shared host pool, so the
// wall seconds compare the communication paths, not thread counts.
// — on the HCL-like examples cluster behind a 100 Mbit-class inter-node
// fabric, with areas balanced to the devices' true speeds. All four
// configurations must produce a bit-identical result matrix (FNV hash of
// every C rectangle). A companion experiment broadcasts one payload to 8
// ranks through the legacy copying path and the shared-payload path to
// show physical copies dropping from O(P * size) to O(size).
//
// Output: tables on stdout and BENCH_matmul_overlap.json in the working
// directory. With --smoke, runs a tiny configuration and exits non-zero
// on any correctness failure — the tier-1 tripwire. The full run
// additionally enforces the >= 1.5x overlap+threads speedup floor.
//
//===----------------------------------------------------------------------===//

#include "apps/MatMul.h"
#include "mpp/Runtime.h"
#include "support/Options.h"
#include "support/Table.h"

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

using namespace fupermod;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ModeResult {
  std::string Name;
  MatMulReport Report;
  double WallSeconds = 0.0;
};

/// One speed-balanced column partition for the platform: areas
/// proportional to each device's true speed at its expected share.
std::vector<GridRect> balancedPartition(const Cluster &Cl, int NBlocks) {
  int P = Cl.size();
  double Share = static_cast<double>(NBlocks) * NBlocks /
                 static_cast<double>(P);
  std::vector<double> Areas;
  for (int R = 0; R < P; ++R) {
    double T = Cl.Devices[static_cast<std::size_t>(R)].time(Share);
    Areas.push_back(T > 0.0 ? Share / T : 1.0);
  }
  return scaleToGrid(partitionColumnBased(Areas), NBlocks);
}

/// Broadcast copy-volume demo: the same 1 MiB payload through the
/// copying broadcast and the shared-payload broadcast.
struct BcastDemo {
  CommStatsSnapshot Copying;
  CommStatsSnapshot Shared;
  std::size_t Bytes = 0;
  int Ranks = 0;
};

BcastDemo runBcastDemo(bool Smoke) {
  BcastDemo D;
  D.Ranks = 8;
  D.Bytes = Smoke ? (64u << 10) : (1u << 20);
  auto Cost = std::make_shared<UniformCostModel>(1e-5, 1e9);

  SpmdResult Copying = runSpmd(
      D.Ranks,
      [&](Comm &C) {
        std::vector<std::byte> Data;
        if (C.rank() == 0)
          Data.resize(D.Bytes, std::byte{42});
        C.bcastBytes(Data, 0);
      },
      Cost);
  D.Copying = Copying.Comm;

  SpmdResult Shared = runSpmd(
      D.Ranks,
      [&](Comm &C) {
        Payload Data;
        if (C.rank() == 0)
          Data = Payload::adoptBytes(
              std::vector<std::byte>(D.Bytes, std::byte{42}));
        C.bcastPayload(Data, 0);
      },
      Cost);
  D.Shared = Shared.Comm;
  return D;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv);
  const bool Smoke = Opts.has("smoke");

  // The HCL-like examples platform (two CPU nodes + a GPU node) behind a
  // 100 Mbit-class inter-node fabric — the regime the paper's dedicated
  // clusters ran in, where pivot communication is worth hiding.
  Cluster Cl = makeHclLikeCluster(/*WithGpu=*/true);
  Cl.Inter = LinkCost{/*Latency=*/2e-4, /*BytePeriod=*/8e-8};

  MatMulOptions Base;
  Base.NBlocks = Smoke ? 6 : 8;
  Base.BlockSize = Smoke ? 16 : 96;

  std::vector<GridRect> Rects = balancedPartition(Cl, Base.NBlocks);

  std::cout << "=== matmul overlap: zero-copy collectives & comm/compute "
               "pipeline ===\n\n"
            << "platform: " << Cl.size()
            << " devices (hcl-like + gpu), inter-node "
            << 1.0 / (Cl.Inter.BytePeriod * 1e6) << " MB/s, grid "
            << Base.NBlocks << "x" << Base.NBlocks << " blocks of "
            << Base.BlockSize << "x" << Base.BlockSize << " doubles\n\n";

  struct ModeSpec {
    const char *Name;
    bool ZeroCopy;
    bool Overlap;
    unsigned Threads;
  };
  const ModeSpec Modes[] = {
      {"baseline", false, false, 1},
      {"zerocopy", true, false, 1},
      {"overlap", true, true, 1},
      {"overlap+threads", true, true, 4},
  };

  // The baseline's product is checked against the serial GEMM; the other
  // modes are gated by the hash.
  double MaxError = 0.0;
  std::vector<ModeResult> Results;
  for (const ModeSpec &M : Modes) {
    MatMulOptions O = Base;
    O.ZeroCopy = M.ZeroCopy;
    O.Overlap = M.Overlap;
    O.Threads = M.Threads;
    // An untimed call first, so the timed one does not pay the first
    // touch of memory that an earlier mode freed. The baseline verifies
    // there, so no timed call includes the check.
    O.Verify = Results.empty();
    MatMulReport Warm = runParallelMatMul(Cl, Rects, O);
    if (O.Verify)
      MaxError = Warm.MaxError;
    O.Verify = false;
    double T0 = now();
    ModeResult R;
    R.Name = M.Name;
    R.Report = runParallelMatMul(Cl, Rects, O);
    R.WallSeconds = now() - T0;
    Results.push_back(std::move(R));
  }

  Table T({"mode", "makespan(ms)", "speedup", "max_idle(ms)", "messages",
           "bytes_logical(MiB)", "bytes_copied(MiB)", "wall(s)"});
  double BaseMakespan = Results.front().Report.Makespan;
  for (const ModeResult &R : Results) {
    const MatMulReport &Rep = R.Report;
    T.addRow({R.Name, Table::num(Rep.Makespan * 1e3, 2),
              Table::num(BaseMakespan / Rep.Makespan, 2),
              Table::num(Rep.MaxIdleTime * 1e3, 2),
              Table::num(static_cast<long long>(Rep.Comm.Messages)),
              Table::num(static_cast<double>(Rep.Comm.BytesLogical) /
                             (1 << 20),
                         2),
              Table::num(static_cast<double>(Rep.Comm.BytesCopied) /
                             (1 << 20),
                         2),
              Table::num(R.WallSeconds, 3)});
  }
  T.print(std::cout);

  bool HashesEqual = true;
  for (const ModeResult &R : Results)
    HashesEqual =
        HashesEqual && R.Report.ResultHash == Results.front().Report.ResultHash;
  double Speedup = BaseMakespan / Results.back().Report.Makespan;

  std::cout << "\nresult hashes "
            << (HashesEqual ? "identical across all modes"
                            : "DIVERGED across modes")
            << "; baseline max |parallel - serial| = " << MaxError
            << "\noverlap+threads speedup over baseline: " << Speedup
            << "x\n";

  BcastDemo Demo = runBcastDemo(Smoke);
  std::cout << "\nbroadcast of " << Demo.Bytes / 1024 << " KiB to "
            << Demo.Ranks << " ranks: copying path "
            << Demo.Copying.BytesCopied / 1024
            << " KiB physically copied, shared-payload path "
            << Demo.Shared.BytesCopied / 1024 << " KiB (logical volume "
            << Demo.Shared.BytesLogical / 1024 << " KiB each)\n";

  std::FILE *J = std::fopen("BENCH_matmul_overlap.json", "w");
  if (J) {
    std::fprintf(J,
                 "{\n"
                 "  \"bench\": \"matmul_overlap\",\n"
                 "  \"mode\": \"%s\",\n"
                 "  \"devices\": %d,\n"
                 "  \"grid_blocks\": %d,\n"
                 "  \"block_size\": %d,\n"
                 "  \"inter_node_bytes_per_second\": %.0f,\n"
                 "  \"modes\": [\n",
                 Smoke ? "smoke" : "full", Cl.size(), Base.NBlocks,
                 Base.BlockSize, 1.0 / Cl.Inter.BytePeriod);
    for (std::size_t I = 0; I < Results.size(); ++I) {
      const MatMulReport &R = Results[I].Report;
      std::fprintf(
          J,
          "    {\"name\": \"%s\", \"makespan_seconds\": %.9f, "
          "\"speedup_vs_baseline\": %.3f, \"max_idle_seconds\": %.9f, "
          "\"messages\": %llu, \"bytes_logical\": %llu, "
          "\"bytes_copied\": %llu, \"result_hash\": \"%016llx\", "
          "\"wall_seconds\": %.3f}%s\n",
          Results[I].Name.c_str(), R.Makespan,
          BaseMakespan / R.Makespan, R.MaxIdleTime,
          static_cast<unsigned long long>(R.Comm.Messages),
          static_cast<unsigned long long>(R.Comm.BytesLogical),
          static_cast<unsigned long long>(R.Comm.BytesCopied),
          static_cast<unsigned long long>(R.ResultHash),
          Results[I].WallSeconds, I + 1 < Results.size() ? "," : "");
    }
    std::fprintf(
        J,
        "  ],\n"
        "  \"overlap_threads_speedup\": %.3f,\n"
        "  \"result_hashes_identical\": %s,\n"
        "  \"baseline_max_error\": %.3e,\n"
        "  \"bcast_demo\": {\"ranks\": %d, \"payload_bytes\": %zu, "
        "\"copying_bytes_copied\": %llu, \"shared_bytes_copied\": %llu, "
        "\"logical_bytes\": %llu}\n"
        "}\n",
        Speedup, HashesEqual ? "true" : "false", MaxError, Demo.Ranks,
        Demo.Bytes,
        static_cast<unsigned long long>(Demo.Copying.BytesCopied),
        static_cast<unsigned long long>(Demo.Shared.BytesCopied),
        static_cast<unsigned long long>(Demo.Shared.BytesLogical));
    std::fclose(J);
    std::cout << "# wrote BENCH_matmul_overlap.json\n";
  }

  // Tripwires. Correctness gates both modes; the speedup floor gates the
  // full run only (the smoke grid is too small for overlap to win).
  bool Ok = true;
  if (!HashesEqual) {
    std::cout << "FAIL: result matrix differs between modes\n";
    Ok = false;
  }
  if (!(MaxError <= 1e-9)) {
    std::cout << "FAIL: baseline verification error " << MaxError << "\n";
    Ok = false;
  }
  if (Demo.Shared.BytesCopied > Demo.Bytes ||
      Demo.Copying.BytesCopied <
          static_cast<unsigned long long>(Demo.Ranks - 1) * Demo.Bytes) {
    std::cout << "FAIL: broadcast copy accounting off (copying "
              << Demo.Copying.BytesCopied << ", shared "
              << Demo.Shared.BytesCopied << ")\n";
    Ok = false;
  }
  if (!Smoke && Speedup < 1.5) {
    std::cout << "FAIL: overlap+threads speedup " << Speedup
              << " < 1.5x floor\n";
    Ok = false;
  }
  return Ok ? 0 : 1;
}
