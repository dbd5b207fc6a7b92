//===-- apps/MatMul.cpp - Heterogeneous parallel matmul -------------------===//

#include "apps/MatMul.h"

#include "blas/Gemm.h"
#include "mpp/Runtime.h"
#include "support/Hash.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>

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

/// What one rank's step loop leaves to the arithmetic job after runSpmd.
struct RankProduct {
  /// The fragments of every step the rank finished, in step order:
  /// AFrags holds H blocks per step (one per block row), BFrags W (one
  /// per block column).
  std::vector<Payload> AFrags;
  std::vector<Payload> BFrags;
  std::size_t Steps = 0;
  /// The rank's C rectangle, one contiguous (H*B) x (W*B) row-major
  /// matrix, allocated uninitialised: each block row's task zeroes its
  /// row before accumulating it.
  std::unique_ptr<double[]> CRect;
  /// The in-order digest of CRect's block rows: which rows are finished,
  /// and Next, the first row not yet digested, both guarded by Mutex.
  /// Only the lane that finished row Next feeds Digest, and it keeps that
  /// role until it releases the lock with row Next unfinished.
  std::mutex Mutex;
  std::vector<bool> Finished;
  std::size_t Next = 0;
  Fnv1aStriped Digest;
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
  const auto NN = static_cast<std::size_t>(N) * static_cast<std::size_t>(N);
  const auto BS = static_cast<std::size_t>(B);
  const std::size_t BB = BS * BS;
  // Block (Row, Col) of the grid is entry Row * N + Col of every
  // grid-wide table below.
  auto BlockAt = [N](int Row, int Col) {
    return static_cast<std::size_t>(Row) * static_cast<std::size_t>(N) +
           static_cast<std::size_t>(Col);
  };

  // Owner lookup for every block of the grid.
  std::vector<int> OwnerOf(NN, -1);
  for (const GridRect &R : Rects)
    for (int Col = R.X; Col < R.X + R.W; ++Col)
      for (int Row = R.Y; Row < R.Y + R.H; ++Row)
        OwnerOf[BlockAt(Row, Col)] = R.Owner;

  // Every block of A and B, generated before the step loop by one host
  // pool job over the whole grid. A and B are partitioned like C, so
  // each block is its owner's to send. All blocks share one buffer,
  // allocated here on the calling thread so the pool's workers never
  // allocate (each thread that does grows its own malloc arena); one
  // buffer rather than a vector per block also keeps glibc from handing
  // the blocks' pages back to the kernel after every run. Every slot
  // starts on a cache line, so the tiles' row loads never straddle two.
  // The buffer is left uninitialised, since the job writes every slot and
  // nothing reads the padding around them. A pivot fan-out enqueues one
  // zero-copy view of a slot for every receiver.
  const std::size_t LineDoubles = 64 / sizeof(double);
  const std::size_t Slot = (BB + LineDoubles - 1) / LineDoubles * LineDoubles;
  const std::size_t DataSize = 2 * NN * Slot + LineDoubles;
  std::unique_ptr<double[]> Data =
      std::make_unique_for_overwrite<double[]>(DataSize);
  const std::size_t First =
      (64 - reinterpret_cast<std::uintptr_t>(Data.get()) % 64) % 64 /
      sizeof(double);
  // Where block I (= BlockAt(Row, Col)) of matrix MatId starts in Data.
  auto SlotOf = [&](int MatId, std::size_t I) {
    return First + (static_cast<std::size_t>(MatId) * NN + I) * Slot;
  };
  parallelFor(hostPool(), NN, [&](std::size_t I) {
    int Row = static_cast<int>(I / static_cast<std::size_t>(N));
    int Col = static_cast<int>(I % static_cast<std::size_t>(N));
    for (int MatId : {0, 1})
      fillBlock(MatId, Row, Col,
                std::span<double>(Data.get() + SlotOf(MatId, I), BB));
  });
  const Payload AllBlocks = Payload::adopt(std::move(Data), DataSize);
  std::vector<Payload> ABlocks(NN);
  std::vector<Payload> BBlocks(NN);
  for (std::size_t I = 0; I < NN; ++I) {
    ABlocks[I] = AllBlocks.subview(SlotOf(0, I) * sizeof(double),
                                   BB * sizeof(double));
    BBlocks[I] = AllBlocks.subview(SlotOf(1, I) * sizeof(double),
                                   BB * sizeof(double));
  }

  // Each rank's record is sized here, so the step loop only appends to
  // reserved storage.
  std::vector<RankProduct> Products(static_cast<std::size_t>(P));
  for (int Rank = 0; Rank < P; ++Rank) {
    const GridRect &R = Rects[static_cast<std::size_t>(Rank)];
    RankProduct &Out = Products[static_cast<std::size_t>(Rank)];
    auto H = static_cast<std::size_t>(R.H);
    auto W = static_cast<std::size_t>(R.W);
    Out.AFrags.reserve(static_cast<std::size_t>(N) * H);
    Out.BFrags.reserve(static_cast<std::size_t>(N) * W);
    Out.CRect = std::make_unique_for_overwrite<double[]>(H * BS * W * BS);
    Out.Finished.assign(H, false);
  }

  std::vector<double> ComputeTimes(static_cast<std::size_t>(P), 0.0);
  std::vector<double> LoopEndTimes(static_cast<std::size_t>(P), 0.0);
  std::vector<double> IdleTimes(static_cast<std::size_t>(P), 0.0);
  std::vector<long long> SendCounts(static_cast<std::size_t>(P), 0);

  auto Body = [&](Comm &C) {
    int Me = C.rank();
    const GridRect R = Rects[static_cast<std::size_t>(Me)];
    RankProduct &Out = Products[static_cast<std::size_t>(Me)];
    SimDevice Dev = Platform.makeDevice(Me);
    auto H = static_cast<std::size_t>(R.H);
    auto W = static_cast<std::size_t>(R.W);

    double ThreadSpeedup = gemmThreadSpeedup(std::max(1u, Options.Threads));
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
        const Payload &Block = ABlocks[BlockAt(Row, K)];
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
        const Payload &Block = BBlocks[BlockAt(K, Col)];
        for (const GridRect &Q : Rects) {
          if (Q.Owner == Me || Q.W == 0 || Q.H == 0)
            continue;
          if (Col >= Q.X && Col < Q.X + Q.W)
            SendBlock(Q.Owner, TagB + K * N + Col, Block);
        }
      }
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
          Buf.AFrag[I] = ABlocks[BlockAt(Row, K)];
        } else {
          double T0 = C.time();
          Buf.AFrag[I] = RecvBlock(OwnerOf[BlockAt(Row, K)],
                                   TagA + K * N + Row);
          IdleTimes[static_cast<std::size_t>(Me)] += C.time() - T0;
        }
      }
      for (int Col = R.X; Col < R.X + R.W; ++Col) {
        auto I = static_cast<std::size_t>(Col - R.X);
        if (R.contains(Col, K)) {
          Buf.BFrag[I] = BBlocks[BlockAt(K, Col)];
        } else {
          double T0 = C.time();
          Buf.BFrag[I] = RecvBlock(OwnerOf[BlockAt(K, Col)],
                                   TagB + K * N + Col);
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
          Buf.AFrag[I] = ABlocks[BlockAt(Row, K)];
        else
          Buf.AReq[I] = C.irecv(OwnerOf[BlockAt(Row, K)], TagA + K * N + Row);
      }
      for (int Col = R.X; Col < R.X + R.W; ++Col) {
        auto I = static_cast<std::size_t>(Col - R.X);
        if (R.contains(Col, K))
          Buf.BFrag[I] = BBlocks[BlockAt(K, Col)];
        else
          Buf.BReq[I] = C.irecv(OwnerOf[BlockAt(K, Col)], TagB + K * N + Col);
      }
    };

    // ... and complete them after the previous step's compute phase, so
    // the transfers hide behind compute. Clock deltas across the waits
    // are the true stall time.
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

    // Compute phase of one step: record the step's fragments for the
    // arithmetic job that runs after runSpmd, and charge the step's
    // virtual cost, taken from the device profile and scaled by the
    // modelled multithreaded-GEMM speedup. No real arithmetic runs on
    // the rank threads.
    auto ComputeStep = [&](const StepBuffers &Buf) {
      if (H == 0 || W == 0)
        return;
      Out.AFrags.insert(Out.AFrags.end(), Buf.AFrag.begin(), Buf.AFrag.end());
      Out.BFrags.insert(Out.BFrags.end(), Buf.BFrag.begin(), Buf.BFrag.end());
      ++Out.Steps;
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
      // its receives posted) while step K computes.
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
  };

  SpmdResult Run = runSpmd(P, Body, Platform.makeCostModel());

  // The real product, one host pool job after the step loop: one task
  // per (rank, C block row), the widest rectangles' rows first, since a
  // row's cost is its W block products per step. A task zeroes its block
  // row, then runs it through the rank's recorded steps in order, reading
  // the fragments in place,
  //   C(i, j) += A(i, k) * B(k, j)   for each step k, then each column j,
  // so every C element accumulates over l ascending within a step and
  // the steps in order: bit-identical to one packed GEMM per step, and
  // to the gemmBlocked reference Verify checks against. The block row
  // stays in one core's cache for all the steps. The zero stays explicit:
  // storing the first step's product instead could turn a -0.0 element
  // into +0.0 or back, which changes the digested bytes.
  std::vector<std::pair<int, std::size_t>> Tasks;
  for (int Rank = 0; Rank < P; ++Rank) {
    const GridRect &R = Rects[static_cast<std::size_t>(Rank)];
    for (int Row = 0; R.W > 0 && Row < R.H; ++Row)
      Tasks.emplace_back(Rank, static_cast<std::size_t>(Row));
  }
  auto WidthOf = [&](const std::pair<int, std::size_t> &Task) {
    return Rects[static_cast<std::size_t>(Task.first)].W;
  };
  std::stable_sort(Tasks.begin(), Tasks.end(),
                   [&](const auto &X, const auto &Y) {
                     return WidthOf(X) > WidthOf(Y);
                   });
  parallelFor(hostPool(), Tasks.size(), [&](std::size_t T) {
    auto [Rank, Row] = Tasks[T];
    RankProduct &Prod = Products[static_cast<std::size_t>(Rank)];
    const GridRect &R = Rects[static_cast<std::size_t>(Rank)];
    auto H = static_cast<std::size_t>(R.H);
    auto W = static_cast<std::size_t>(R.W);
    const std::size_t RowDoubles = BS * W * BS;
    std::span<double> CRow(Prod.CRect.get() + Row * RowDoubles, RowDoubles);
    std::fill(CRow.begin(), CRow.end(), 0.0);
    for (std::size_t Step = 0; Step < Prod.Steps; ++Step) {
      std::span<const double> A = Prod.AFrags[Step * H + Row].as<double>();
      for (std::size_t J = 0; J < W; ++J)
        gemmMicroUnpacked(BS, BS, BS, A, BS,
                          Prod.BFrags[Step * W + J].as<double>(), BS,
                          CRow.subspan(J * BS), W * BS);
    }
    // The rank's rows are digested in order. The lane that finishes the
    // first undigested row digests it and every finished row after it,
    // outside the lock; a row finished meanwhile is not Next, so its lane
    // leaves it to this one, which sees it when it takes the lock back.
    // The mutex carries every row's writes to the lane that digests it.
    std::unique_lock Lock(Prod.Mutex);
    Prod.Finished[Row] = true;
    if (Row != Prod.Next)
      return;
    for (std::size_t From = Row;;) {
      std::size_t To = From;
      while (To < H && Prod.Finished[To])
        ++To;
      Lock.unlock();
      Prod.Digest.update(std::as_bytes(std::span<const double>(
          Prod.CRect.get() + From * RowDoubles, (To - From) * RowDoubles)));
      Lock.lock();
      Prod.Next = From = To;
      if (To == H || !Prod.Finished[To])
        return;
    }
  });
  // A rank with an empty rectangle has no task; its digest is that of no
  // bytes.
  std::vector<std::uint64_t> RankHashes;
  for (const RankProduct &Prod : Products)
    RankHashes.push_back(Prod.Digest.digest());

  MatMulReport Report;
  if (Options.Verify) {
    // Verification on the host, one C block at a time and in place: a
    // serial product of the block buffer's slots, accumulated over K
    // ascending into one zeroed block, against that block of the rank's
    // rectangle. gemmBlocked adds each element's products in ascending l
    // whatever its tiling, so the reference equals one gemmBlocked over
    // the whole matrices. A NaN difference sticks in MaxError.
    std::vector<double> Ref(BB);
    for (int Rank = 0; Rank < P; ++Rank) {
      const GridRect &R = Rects[static_cast<std::size_t>(Rank)];
      const double *CRect =
          Products[static_cast<std::size_t>(Rank)].CRect.get();
      const std::size_t Ldc = static_cast<std::size_t>(R.W) * BS;
      for (int Row = 0; Row < R.H; ++Row)
        for (int Col = 0; Col < R.W; ++Col) {
          std::fill(Ref.begin(), Ref.end(), 0.0);
          for (int K = 0; K < N; ++K)
            gemmBlocked(BS, BS, BS, ABlocks[BlockAt(R.Y + Row, K)].as<double>(),
                        BBlocks[BlockAt(K, R.X + Col)].as<double>(), Ref);
          const double *CBlock = CRect +
                                 static_cast<std::size_t>(Row) * BS * Ldc +
                                 static_cast<std::size_t>(Col) * BS;
          for (std::size_t I = 0; I < BS; ++I) {
            double E = maxAbsDiff({Ref.data() + I * BS, BS},
                                  {CBlock + I * Ldc, BS});
            if (E > Report.MaxError || std::isnan(E))
              Report.MaxError = E;
          }
        }
    }
  }

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
  return Report;
}
