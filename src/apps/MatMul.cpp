//===-- apps/MatMul.cpp - Heterogeneous parallel matmul -------------------===//

#include "apps/MatMul.h"

#include "blas/Gemm.h"
#include "mpp/Runtime.h"
#include "support/Hash.h"
#include "support/ThreadPool.h"

#include <cassert>
#include <cmath>
#include <cstring>

using namespace fupermod;

namespace {

enum : int {
  TagA = 1 << 20,
  TagB = 1 << 21,
};

/// Fills \p Block with the deterministic content of the block of matrix
/// \p MatId at block coordinates (\p Row, \p Col); any rank can generate
/// any block, so ownership never affects the numerical result.
void fillBlock(int MatId, int Row, int Col, std::span<double> Block) {
  // The block key wraps modulo 2^32 and is then sign-extended: the
  // two's-complement int arithmetic the generated matrices were defined
  // with, computed without signed overflow.
  std::uint32_t Key = (static_cast<std::uint32_t>(MatId) * 1048573u +
                       static_cast<std::uint32_t>(Row)) *
                          1048573u +
                      static_cast<std::uint32_t>(Col) + 1u;
  std::uint64_t Seed = 0x9e3779b97f4a7c15ull *
                       static_cast<std::uint64_t>(
                           static_cast<std::int32_t>(Key));
  fillDeterministic(Block, Seed);
}

/// One b x b block, as fillBlock fills it.
std::vector<double> makeBlock(int MatId, int Row, int Col, int B) {
  std::vector<double> Block(static_cast<std::size_t>(B) *
                            static_cast<std::size_t>(B));
  fillBlock(MatId, Row, Col, Block);
  return Block;
}

/// Pivot fragments of one pipeline step: the A pivot-column blocks this
/// rectangle's rows need and the B pivot-row blocks its columns need.
/// Own blocks are filled immediately; remote ones either arrive through
/// a blocking receive (serial schedule) or are posted as nonblocking
/// requests and collected by waitStep (overlap pipeline).
struct StepBuffers {
  std::vector<Payload> AFrag;
  std::vector<Payload> BFrag;
  std::vector<RecvRequest> AReq;
  std::vector<RecvRequest> BReq;
};

} // namespace

MatMulReport fupermod::runParallelMatMul(const Cluster &Platform,
                                         std::span<const GridRect> Rects,
                                         const MatMulOptions &Options) {
  int P = Platform.size();
  int N = Options.NBlocks;
  int B = Options.BlockSize;
  assert(static_cast<int>(Rects.size()) == P &&
         "one rectangle per rank expected");
  assert(tilesGrid(Rects, N) && "rectangles must tile the block grid");
  assert(N > 0 && N < 1024 && "block grid too large for the tag scheme");

  // Owner lookup for every block of the grid.
  std::vector<int> OwnerOf(static_cast<std::size_t>(N) *
                               static_cast<std::size_t>(N),
                           -1);
  for (const GridRect &R : Rects)
    for (int Col = R.X; Col < R.X + R.W; ++Col)
      for (int Row = R.Y; Row < R.Y + R.H; ++Row)
        OwnerOf[static_cast<std::size_t>(Row) * static_cast<std::size_t>(N) +
                static_cast<std::size_t>(Col)] = R.Owner;

  std::vector<double> ComputeTimes(static_cast<std::size_t>(P), 0.0);
  std::vector<double> LoopEndTimes(static_cast<std::size_t>(P), 0.0);
  std::vector<double> IdleTimes(static_cast<std::size_t>(P), 0.0);
  std::vector<long long> SendCounts(static_cast<std::size_t>(P), 0);
  std::vector<std::uint64_t> RankHashes(static_cast<std::size_t>(P), 0);
  double MaxError = 0.0;

  auto Body = [&](Comm &C) {
    int Me = C.rank();
    const GridRect R = Rects[static_cast<std::size_t>(Me)];
    SimDevice Dev = Platform.makeDevice(Me);
    std::size_t BB = static_cast<std::size_t>(B) * static_cast<std::size_t>(B);
    auto H = static_cast<std::size_t>(R.H);
    auto W = static_cast<std::size_t>(R.W);
    std::size_t HB = H * static_cast<std::size_t>(B);
    std::size_t WB = W * static_cast<std::size_t>(B);

    double ThreadSpeedup = gemmThreadSpeedup(std::max(1u, Options.Threads));

    // Owned storage: A and B are partitioned identically to C. Blocks
    // live in shared payloads so a pivot fan-out can enqueue the same
    // buffer for every receiver. The host pool fills them column by
    // column; they are allocated here, on the rank thread, because
    // allocating on the pool's workers would grow their malloc arenas.
    auto LocalIndex = [&](int Col, int Row) {
      return static_cast<std::size_t>(Row - R.Y) * W +
             static_cast<std::size_t>(Col - R.X);
    };
    std::vector<std::vector<double>> AData(H * W, std::vector<double>(BB));
    std::vector<std::vector<double>> BData(H * W, std::vector<double>(BB));
    parallelFor(hostPool(), W, [&](std::size_t J) {
      int Col = R.X + static_cast<int>(J);
      for (int Row = R.Y; Row < R.Y + R.H; ++Row) {
        fillBlock(0, Row, Col, AData[LocalIndex(Col, Row)]);
        fillBlock(1, Row, Col, BData[LocalIndex(Col, Row)]);
      }
    });
    std::vector<Payload> ABlocks(H * W);
    std::vector<Payload> BBlocks(H * W);
    for (std::size_t I = 0; I < H * W; ++I) {
      ABlocks[I] = Payload::adopt(std::move(AData[I]));
      BBlocks[I] = Payload::adopt(std::move(BData[I]));
    }
    // The C rectangle is one contiguous (H*B) x (W*B) row-major matrix,
    // updated by a single packed GEMM per step.
    std::vector<double> CRect(HB * WB, 0.0);
    std::vector<double> APack(HB * static_cast<std::size_t>(B));
    std::vector<double> BPack(static_cast<std::size_t>(B) * WB);
    long long Sent = 0;

    auto SendBlock = [&](int Dst, int Tag, const Payload &Block) {
      if (Options.ZeroCopy)
        C.sendPayload(Dst, Tag, Block);
      else
        C.send<double>(Dst, Tag, Block.as<double>());
      ++Sent;
    };

    // Send phase of step K: pivot-column blocks of A go to every rank
    // sharing the block's row; pivot-row blocks of B to every rank
    // sharing the block's column. Buffered sends cannot deadlock.
    auto SendPivots = [&](int K) {
      for (int Row = R.Y; Row < R.Y + R.H; ++Row) {
        if (!R.contains(K, Row))
          continue;
        const Payload &Block = ABlocks[LocalIndex(K, Row)];
        for (const GridRect &Q : Rects) {
          if (Q.Owner == Me || Q.W == 0 || Q.H == 0)
            continue;
          if (Row >= Q.Y && Row < Q.Y + Q.H)
            SendBlock(Q.Owner, TagA + K * N + Row, Block);
        }
      }
      for (int Col = R.X; Col < R.X + R.W; ++Col) {
        if (!R.contains(Col, K))
          continue;
        const Payload &Block = BBlocks[LocalIndex(Col, K)];
        for (const GridRect &Q : Rects) {
          if (Q.Owner == Me || Q.W == 0 || Q.H == 0)
            continue;
          if (Col >= Q.X && Col < Q.X + Q.W)
            SendBlock(Q.Owner, TagB + K * N + Col, Block);
        }
      }
    };

    auto AOwner = [&](int K, int Row) {
      return OwnerOf[static_cast<std::size_t>(Row) *
                         static_cast<std::size_t>(N) +
                     static_cast<std::size_t>(K)];
    };
    auto BOwner = [&](int K, int Col) {
      return OwnerOf[static_cast<std::size_t>(K) *
                         static_cast<std::size_t>(N) +
                     static_cast<std::size_t>(Col)];
    };

    auto RecvBlock = [&](int Src, int Tag) {
      if (Options.ZeroCopy)
        return C.recvPayload(Src, Tag);
      return Payload::adopt(C.recv<double>(Src, Tag));
    };

    // Serial-schedule receive phase of step K: collect the pivot
    // fragments with blocking receives, rows then columns, in order.
    auto RecvStep = [&](int K, StepBuffers &Buf) {
      for (int Row = R.Y; Row < R.Y + R.H; ++Row) {
        auto I = static_cast<std::size_t>(Row - R.Y);
        if (R.contains(K, Row)) {
          Buf.AFrag[I] = ABlocks[LocalIndex(K, Row)];
        } else {
          double T0 = C.time();
          Buf.AFrag[I] = RecvBlock(AOwner(K, Row), TagA + K * N + Row);
          IdleTimes[static_cast<std::size_t>(Me)] += C.time() - T0;
        }
      }
      for (int Col = R.X; Col < R.X + R.W; ++Col) {
        auto I = static_cast<std::size_t>(Col - R.X);
        if (R.contains(Col, K)) {
          Buf.BFrag[I] = BBlocks[LocalIndex(Col, K)];
        } else {
          double T0 = C.time();
          Buf.BFrag[I] = RecvBlock(BOwner(K, Col), TagB + K * N + Col);
          IdleTimes[static_cast<std::size_t>(Me)] += C.time() - T0;
        }
      }
    };

    // Overlap pipeline: post nonblocking receives for step K's remote
    // fragments (own blocks are filled immediately)...
    auto PostStep = [&](int K, StepBuffers &Buf) {
      for (int Row = R.Y; Row < R.Y + R.H; ++Row) {
        auto I = static_cast<std::size_t>(Row - R.Y);
        if (R.contains(K, Row))
          Buf.AFrag[I] = ABlocks[LocalIndex(K, Row)];
        else
          Buf.AReq[I] = C.irecv(AOwner(K, Row), TagA + K * N + Row);
      }
      for (int Col = R.X; Col < R.X + R.W; ++Col) {
        auto I = static_cast<std::size_t>(Col - R.X);
        if (R.contains(Col, K))
          Buf.BFrag[I] = BBlocks[LocalIndex(Col, K)];
        else
          Buf.BReq[I] = C.irecv(BOwner(K, Col), TagB + K * N + Col);
      }
    };

    // ... and complete them after the previous step's GEMM, so the
    // transfers hide behind compute. Clock deltas across the waits are
    // the true stall time.
    auto WaitStep = [&](StepBuffers &Buf) {
      for (std::size_t I = 0; I < H; ++I) {
        if (!Buf.AReq[I].pending())
          continue;
        double T0 = C.time();
        Buf.AFrag[I] = Buf.AReq[I].wait();
        IdleTimes[static_cast<std::size_t>(Me)] += C.time() - T0;
      }
      for (std::size_t I = 0; I < W; ++I) {
        if (!Buf.BReq[I].pending())
          continue;
        double T0 = C.time();
        Buf.BFrag[I] = Buf.BReq[I].wait();
        IdleTimes[static_cast<std::size_t>(Me)] += C.time() - T0;
      }
    };

    // Compute phase of one step: pack the fragments into contiguous
    // operands and run one GEMM for the whole rectangle,
    //   CRect (H*B x W*B) += APack (H*B x B) * BPack (B x W*B).
    // The GEMM is the register-blocked micro-kernel, row-banded over the
    // process-wide host pool that every rank shares. Every C element
    // still accumulates over the same l = 0..B-1 in ascending order, so
    // the result is bit-identical to per-block updates — and to the
    // gemmBlocked reference Verify checks against. Virtual cost comes
    // from the device profile, scaled by the modelled multithreaded-GEMM
    // speedup.
    auto ComputeStep = [&](StepBuffers &Buf) {
      if (H == 0 || W == 0)
        return;
      for (std::size_t I = 0; I < H; ++I)
        std::memcpy(APack.data() + I * BB, Buf.AFrag[I].as<double>().data(),
                    BB * sizeof(double));
      for (std::size_t L = 0; L < static_cast<std::size_t>(B); ++L)
        for (std::size_t J = 0; J < W; ++J)
          std::memcpy(BPack.data() + L * WB + J * static_cast<std::size_t>(B),
                      Buf.BFrag[J].as<double>().data() +
                          L * static_cast<std::size_t>(B),
                      static_cast<std::size_t>(B) * sizeof(double));
      gemmParallel(HB, WB, static_cast<std::size_t>(B), APack, BPack, CRect,
                   hostPool(), /*Tile=*/64, /*UseMicro=*/true);
      double T =
          Dev.measureTime(static_cast<double>(R.area())) / ThreadSpeedup;
      C.compute(T);
      ComputeTimes[static_cast<std::size_t>(Me)] += T;
    };

    StepBuffers Bufs[2];
    for (StepBuffers &Buf : Bufs) {
      Buf.AFrag.resize(H);
      Buf.BFrag.resize(W);
      Buf.AReq.resize(H);
      Buf.BReq.resize(W);
    }

    if (!Options.Overlap) {
      // Serial schedule: send, receive, compute, step by step.
      for (int K = 0; K < N; ++K) {
        SendPivots(K);
        RecvStep(K, Bufs[0]);
        ComputeStep(Bufs[0]);
      }
    } else {
      // Double-buffered pipeline: step K+1's pivots are in flight (and
      // its receives posted) while step K's GEMM runs.
      SendPivots(0);
      PostStep(0, Bufs[0]);
      WaitStep(Bufs[0]);
      for (int K = 0; K < N; ++K) {
        StepBuffers &Cur = Bufs[static_cast<std::size_t>(K) % 2];
        StepBuffers &Next = Bufs[static_cast<std::size_t>(K + 1) % 2];
        if (K + 1 < N) {
          SendPivots(K + 1);
          PostStep(K + 1, Next);
        }
        ComputeStep(Cur);
        if (K + 1 < N)
          WaitStep(Next);
      }
    }

    LoopEndTimes[static_cast<std::size_t>(Me)] = C.time();
    SendCounts[static_cast<std::size_t>(Me)] = Sent;
    RankHashes[static_cast<std::size_t>(Me)] =
        fnv1aStriped(std::as_bytes(std::span<const double>(CRect)));

    if (!Options.Verify)
      return;

    // Verification: serialise owned C blocks as (col, row, data...) and
    // gather on rank 0, which checks against a serial product.
    std::vector<double> Packed;
    Packed.reserve(static_cast<std::size_t>(R.area()) * (2 + BB));
    for (int Col = R.X; Col < R.X + R.W; ++Col) {
      for (int Row = R.Y; Row < R.Y + R.H; ++Row) {
        Packed.push_back(static_cast<double>(Col));
        Packed.push_back(static_cast<double>(Row));
        auto R0 = static_cast<std::size_t>(Row - R.Y) *
                  static_cast<std::size_t>(B);
        auto C0 = static_cast<std::size_t>(Col - R.X) *
                  static_cast<std::size_t>(B);
        for (std::size_t BR = 0; BR < static_cast<std::size_t>(B); ++BR)
          Packed.insert(Packed.end(), CRect.begin() + ((R0 + BR) * WB + C0),
                        CRect.begin() +
                            ((R0 + BR) * WB + C0 +
                             static_cast<std::size_t>(B)));
      }
    }
    std::vector<double> All = C.gatherv(std::span<const double>(Packed), 0);
    if (Me != 0)
      return;

    std::size_t NB = static_cast<std::size_t>(N) * static_cast<std::size_t>(B);
    std::vector<double> CFull(NB * NB, 0.0);
    std::size_t Cursor = 0;
    while (Cursor < All.size()) {
      int Col = static_cast<int>(All[Cursor]);
      int Row = static_cast<int>(All[Cursor + 1]);
      Cursor += 2;
      for (int BR = 0; BR < B; ++BR)
        for (int BC = 0; BC < B; ++BC)
          CFull[(static_cast<std::size_t>(Row) * B + BR) * NB +
                static_cast<std::size_t>(Col) * B + BC] =
              All[Cursor + static_cast<std::size_t>(BR) * B + BC];
      Cursor += BB;
    }

    std::vector<double> AFull(NB * NB), BFull(NB * NB),
        Ref(NB * NB, 0.0);
    for (int Row = 0; Row < N; ++Row) {
      for (int Col = 0; Col < N; ++Col) {
        std::vector<double> BlkA = makeBlock(0, Row, Col, B);
        std::vector<double> BlkB = makeBlock(1, Row, Col, B);
        for (int BR = 0; BR < B; ++BR) {
          for (int BC = 0; BC < B; ++BC) {
            std::size_t Dst = (static_cast<std::size_t>(Row) * B + BR) * NB +
                              static_cast<std::size_t>(Col) * B + BC;
            AFull[Dst] = BlkA[static_cast<std::size_t>(BR) * B + BC];
            BFull[Dst] = BlkB[static_cast<std::size_t>(BR) * B + BC];
          }
        }
      }
    }
    gemmBlocked(NB, NB, NB, AFull, BFull, Ref);
    MaxError = maxAbsDiff(CFull, Ref);
  };

  SpmdResult Run = runSpmd(P, Body, Platform.makeCostModel());

  MatMulReport Report;
  Report.ComputeTimes = ComputeTimes;
  for (double T : LoopEndTimes)
    Report.Makespan = std::max(Report.Makespan, T);
  for (double T : IdleTimes)
    Report.MaxIdleTime = std::max(Report.MaxIdleTime, T);
  for (long long S : SendCounts)
    Report.BlocksCommunicated += S;
  Report.ResultHash =
      fnv1a(std::as_bytes(std::span<const std::uint64_t>(RankHashes)));
  Report.Comm = Run.Comm;
  Report.MaxError = MaxError;
  return Report;
}
