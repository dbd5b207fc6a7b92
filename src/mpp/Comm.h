//===-- mpp/Comm.h - SPMD communicator --------------------------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An MPI-like communicator for the in-process SPMD runtime. Ranks run as
/// threads; messages carry virtual arrival times computed from a
/// CostModel, so communication cost is part of the simulation. This is the
/// substrate standing in for MPI in the paper's data-parallel applications.
///
/// Supported operations: blocking send/recv (FIFO matching per source and
/// tag), nonblocking isend/irecv (future-backed), zero-copy shared-payload
/// send/recv/broadcast, barrier, broadcast and gatherv/scatterv (binomial
/// trees), allgatherv, allreduce, and communicator splitting (the paper's
/// `comm_sync` used to synchronise co-located benchmark processes).
///
/// When the cost model carries a node topology (CostModel::topology())
/// and the group spans more than one node at two-level scale
/// (Group::twoLevelEligible), bcast and gatherv — and allreduce /
/// allgatherv, which are built on them — switch to two-level algorithms:
/// an intra-node stage among co-located ranks plus an inter-node binomial
/// tree among node leaders, so large-P collectives cross the (slow)
/// network O(numNodes) times instead of O(P). Results are byte-identical
/// to the flat algorithms; only the virtual link charges differ.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_MPP_COMM_H
#define FUPERMOD_MPP_COMM_H

#include "mpp/CostModel.h"
#include "mpp/Group.h"
#include "mpp/Payload.h"
#include "mpp/Poison.h"
#include "mpp/VirtualClock.h"

#include <cstddef>
#include <cstring>
#include <future>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace fupermod {

/// Combining operation for allreduce.
enum class ReduceOp { Sum, Max, Min };

/// Accounting class of a point-to-point send. General traffic only feeds
/// the aggregate counters; Halo and Redistribute sends additionally feed
/// CommStats::HaloBytes / RedistributeBytes, so a workload's data-movement
/// cost separates into kernel-coupling bytes and repartitioning bytes.
enum class TrafficClass { General, Halo, Redistribute };

/// Handle to a pending nonblocking receive posted with Comm::irecv.
/// wait() blocks until the message is available and advances the owning
/// rank's clock to max(now, arrival) — computation performed between
/// irecv and wait overlaps the transfer. Every posted request must be
/// completed with wait(); a dropped request forfeits the message that
/// would have fulfilled it.
class RecvRequest {
public:
  RecvRequest() = default;

  /// True while the request is posted and not yet waited on.
  bool pending() const { return Active; }

  /// True when wait() would return without blocking.
  bool ready();

  /// Blocks until the message arrives, advances the clock, and returns
  /// the shared payload. Throws CommError when the world is poisoned
  /// while waiting.
  Payload wait();

private:
  friend class Comm;
  std::shared_ptr<Group> G; // Keeps poison/stats alive.
  std::future<Message> Future;
  VirtualClock *Clock = nullptr;
  bool Active = false;
};

/// Per-rank handle to a communication group.
///
/// A Comm is cheap to copy; all state lives in the shared Group and in the
/// rank's VirtualClock. All collective operations must be entered by every
/// rank of the group in the same order (standard SPMD contract).
///
/// Failure model: when any rank of the world dies (uncaught exception in
/// its SPMD body, or an explicit abort()), the world is poisoned and
/// every communication operation — including those of subgroups split
/// from the world — throws CommError instead of blocking on the dead
/// rank. See mpp/Poison.h.
class Comm {
public:
  Comm(std::shared_ptr<Group> G, int Rank, VirtualClock *Clock);

  /// Rank of the calling thread within this communicator.
  int rank() const { return Rank; }

  /// Number of ranks in this communicator.
  int size() const;

  /// Rank within the top-level (world) communicator.
  int globalRank() const;

  /// The calling rank's virtual clock.
  VirtualClock &clock() { return *Clock; }

  /// Current virtual time of the calling rank.
  double time() const { return Clock->now(); }

  /// Advances the calling rank's clock by \p Seconds of computation.
  void compute(double Seconds) { Clock->advance(Seconds); }

  /// Sends \p Data to \p Dst with the given tag. Never blocks (buffered);
  /// charges the link latency to the sender and the full transfer time to
  /// the message's arrival. Deep-copies the buffer (use sendPayload /
  /// isend for zero-copy).
  void sendBytes(int Dst, int Tag, std::span<const std::byte> Data);

  /// Zero-copy send: enqueues a reference to \p Data's buffer. Sending
  /// the same Payload to N receivers moves O(N * size) logical bytes but
  /// copies nothing. \p Class attributes the bytes to a traffic class in
  /// the world counters.
  void sendPayload(int Dst, int Tag, Payload Data,
                   TrafficClass Class = TrafficClass::General);

  /// Receives the oldest pending message from \p Src with tag \p Tag,
  /// blocking until one arrives. The caller's clock advances to the
  /// message arrival time. Returns a mutable copy of the payload.
  std::vector<std::byte> recvBytes(int Src, int Tag);

  /// Zero-copy receive: like recvBytes but returns the shared immutable
  /// payload without materialising a private buffer.
  Payload recvPayload(int Src, int Tag);

  /// Posts a nonblocking receive; complete it with RecvRequest::wait().
  /// Receives posted on one (source, tag) pair match sends in FIFO order.
  RecvRequest irecv(int Src, int Tag);

  /// Move-based nonblocking send: adopts \p Data without copying and
  /// enqueues it. (Buffered sends never block, so the send is complete
  /// when this returns — no request object is needed.)
  template <typename T> void isend(int Dst, int Tag, std::vector<T> Data) {
    static_assert(std::is_trivially_copyable_v<T>);
    sendPayload(Dst, Tag, Payload::adopt(std::move(Data)));
  }

  /// Synchronises all ranks: every clock advances to the group maximum
  /// (plus the cost model's barrier cost).
  void barrier();

  /// Broadcasts root's \p Data to all ranks over a binomial tree.
  void bcastBytes(std::vector<std::byte> &Data, int Root);

  /// Zero-copy broadcast: after the call every rank's \p Data shares the
  /// root's buffer. Physical copies are O(size) for the whole tree (the
  /// root's buffer is forwarded by reference), where bcastBytes copies
  /// O(P * size).
  void bcastPayload(Payload &Data, int Root);

  /// Gathers variable-length byte contributions at \p Root over a
  /// binomial tree; the result on the root is the concatenation in rank
  /// order, other ranks get an empty vector.
  std::vector<std::byte> gathervBytes(std::span<const std::byte> Local,
                                      int Root);

  /// Scatters \p All (significant on the root only) over a binomial tree
  /// so that rank i receives \p CountsBytes[i] bytes; returns the local
  /// chunk. Forwarded subtree slices share the parent's buffer (no
  /// copies beyond the root's assembly and each rank's materialisation).
  std::vector<std::byte>
  scattervBytes(std::span<const std::byte> All,
                std::span<const std::size_t> CountsBytes, int Root);

  /// Splits the communicator: ranks with equal \p Color form a new group,
  /// ordered by (\p Key, parent rank). Must be called by every rank.
  Comm split(int Color, int Key);

  /// Poisons the world: every rank (of this communicator and of every
  /// other communicator sharing its world) gets a CommError from its
  /// next — or currently blocking — communication operation. Used by a
  /// rank that knows it cannot keep up its side of the SPMD contract.
  void abort(const std::string &Reason);

  /// True once the world has been poisoned.
  bool poisoned() const;

  /// Snapshot of the world-wide communication counters (messages sent,
  /// bytes logically moved, bytes physically copied).
  CommStatsSnapshot commStats() const;

  /// Adds \p Delta to the named free-form world counter. Counters ride
  /// into the final SpmdResult snapshot; higher layers (e.g. the
  /// equalization subsystem) publish per-run statistics through them.
  /// Thread-safe; typically called by one designated rank to avoid
  /// double counting.
  void accumulateCounter(const std::string &Name, double Delta);

  /// True when this communicator's bcast/gatherv (and the collectives
  /// built on them) run the topology-aware two-level algorithms.
  bool usesTwoLevelCollectives() const;

  // --- Typed convenience wrappers (trivially copyable element types) ---

  template <typename T> void send(int Dst, int Tag, std::span<const T> Data) {
    static_assert(std::is_trivially_copyable_v<T>);
    sendBytes(Dst, Tag, std::as_bytes(Data));
  }

  template <typename T> void sendValue(int Dst, int Tag, const T &Value) {
    send(Dst, Tag, std::span<const T>(&Value, 1));
  }

  template <typename T> std::vector<T> recv(int Src, int Tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    Payload P = recvPayload(Src, Tag);
    countCopied(P.size());
    return P.toVector<T>();
  }

  template <typename T> T recvValue(int Src, int Tag) {
    std::vector<T> V = recv<T>(Src, Tag);
    if (V.empty())
      throw CommError(G->globalRankOf(Src),
                      "recvValue: received an empty payload where a "
                      "value was expected");
    return V.front();
  }

  template <typename T> void bcast(std::vector<T> &Data, int Root) {
    static_assert(std::is_trivially_copyable_v<T>);
    Payload P;
    if (rank() == Root) {
      countCopied(Data.size() * sizeof(T));
      P = Payload::copyOf(std::as_bytes(std::span<const T>(Data)));
    }
    bcastPayload(P, Root);
    if (rank() != Root) {
      countCopied(P.size());
      Data = P.toVector<T>();
    }
  }

  template <typename T> void bcastValue(T &Value, int Root) {
    std::vector<T> V = {Value};
    bcast(V, Root);
    if (V.empty())
      throw CommError(G->globalRankOf(Root),
                      "bcastValue: root broadcast an empty payload "
                      "where a value was expected");
    Value = V.front();
  }

  /// Gathers variable-length contributions at \p Root; the result on the
  /// root is the concatenation in rank order, other ranks get an empty
  /// vector.
  template <typename T>
  std::vector<T> gatherv(std::span<const T> Local, int Root) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> Raw = gathervBytes(std::as_bytes(Local), Root);
    std::vector<T> All(Raw.size() / sizeof(T));
    if (!All.empty())
      std::memcpy(All.data(), Raw.data(), All.size() * sizeof(T));
    return All;
  }

  /// Scatters \p All (significant on the root only) so that rank i
  /// receives \p Counts[i] elements; returns the local chunk.
  template <typename T>
  std::vector<T> scatterv(std::span<const T> All, std::span<const int> Counts,
                          int Root) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::size_t> Bytes(Counts.size());
    for (std::size_t I = 0; I < Counts.size(); ++I)
      Bytes[I] = static_cast<std::size_t>(Counts[I]) * sizeof(T);
    std::vector<std::byte> Raw =
        scattervBytes(std::as_bytes(All), Bytes, Root);
    std::vector<T> Mine(Raw.size() / sizeof(T));
    if (!Mine.empty())
      std::memcpy(Mine.data(), Raw.data(), Raw.size());
    return Mine;
  }

  /// All ranks obtain the concatenation (in rank order) of every rank's
  /// contribution. Gather-to-root + broadcast; latency-optimal for small
  /// payloads.
  template <typename T> std::vector<T> allgatherv(std::span<const T> Local) {
    std::vector<T> All = gatherv(Local, /*Root=*/0);
    bcast(All, /*Root=*/0);
    return All;
  }

  /// Ring algorithm for allgatherv: P-1 steps, each rank forwarding the
  /// chunk it just received to its right neighbour. Each chunk crosses
  /// every link exactly once, so for large payloads the completion time
  /// approaches one full-payload transfer instead of the broadcast
  /// tree's log(P) transfers. Result identical to allgatherv().
  template <typename T>
  std::vector<T> allgathervRing(std::span<const T> Local) {
    int P = size();
    if (P == 1)
      return std::vector<T>(Local.begin(), Local.end());
    int Right = (rank() + 1) % P;
    int Left = (rank() + P - 1) % P;

    std::vector<std::vector<T>> Chunks(static_cast<std::size_t>(P));
    Chunks[static_cast<std::size_t>(rank())]
        .assign(Local.begin(), Local.end());
    int Forward = rank();
    for (int Step = 0; Step + 1 < P; ++Step) {
      send(Right, TagRing,
           std::span<const T>(Chunks[static_cast<std::size_t>(Forward)]));
      int Incoming = (rank() - 1 - Step + 2 * P) % P;
      Chunks[static_cast<std::size_t>(Incoming)] = recv<T>(Left, TagRing);
      Forward = Incoming;
    }

    std::vector<T> All;
    for (const auto &Chunk : Chunks)
      All.insert(All.end(), Chunk.begin(), Chunk.end());
    return All;
  }

  /// Combined send-to-\p Dst / receive-from-\p Src (buffered sends make
  /// the pairing deadlock-free regardless of ordering).
  template <typename T>
  std::vector<T> sendrecv(int Dst, int SendTag, std::span<const T> Data,
                          int Src, int RecvTag) {
    send(Dst, SendTag, Data);
    return recv<T>(Src, RecvTag);
  }

  /// Elementwise reduction of equal-length vectors across all ranks; every
  /// rank receives the result.
  std::vector<double> allreduce(std::span<const double> Local, ReduceOp Op);

  /// Scalar form of allreduce().
  double allreduceValue(double Value, ReduceOp Op);

private:
  // Reserved internal tags, outside the range user code should use. The
  // two-level collectives use distinct tags per stage so leader traffic
  // can never FIFO-interleave with intra-node traffic on a shared
  // channel.
  enum : int {
    TagGathervSizes = 1 << 28,
    TagGathervData,
    TagScattervSizes,
    TagScattervData,
    TagBcast,
    TagSplit,
    TagRing,
    TagBcastInter,
    TagBcastIntra,
    TagGatherIntraSizes,
    TagGatherIntraData,
    TagGatherInterSizes,
    TagGatherInterData,
  };

  /// Counts a physical deep copy of \p Bytes payload bytes.
  void countCopied(std::size_t Bytes);

  // Two-level collective machinery (Comm.cpp). The *OverList helpers run
  // the flat binomial algorithms over an explicit rank list (a node's
  // members, or the node leaders) instead of the whole group.
  void bcastPayloadOverList(std::span<const int> Ranks, int MyIdx,
                            int RootIdx, Payload &Data, int Tag);
  void gatherOverList(std::span<const int> Ranks, int MyIdx, int RootIdx,
                      std::span<const std::byte> Local,
                      std::vector<std::uint64_t> &Sizes,
                      std::vector<std::byte> &Buf, int TagSizes,
                      int TagData);
  void bcastPayloadTwoLevel(Payload &Data, int Root);
  std::vector<std::byte>
  gathervBytesTwoLevel(std::span<const std::byte> Local, int Root);

  std::shared_ptr<Group> G;
  int Rank;
  VirtualClock *Clock;
};

} // namespace fupermod

#endif // FUPERMOD_MPP_COMM_H
