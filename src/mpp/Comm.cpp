//===-- mpp/Comm.cpp - SPMD communicator ----------------------------------===//

#include "mpp/Comm.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace fupermod;

bool RecvRequest::ready() {
  assert(Slot && "request not pending");
  return Box->filled(*Slot) || G->poison().poisoned();
}

Payload RecvRequest::wait() {
  assert(Slot && "request not pending");
  Message Msg = Box->await(*Slot, G->poison(), WorldRank);
  Slot.reset();
  Clock->advanceTo(Msg.ArrivalTime);
  return std::move(Msg.Data);
}

Comm::Comm(std::shared_ptr<Group> G, int Rank, VirtualClock *Clock)
    : G(std::move(G)), Rank(Rank), Clock(Clock) {
  assert(this->G && "null group");
  assert(Clock && "null clock");
  assert(Rank >= 0 && Rank < this->G->size() && "rank out of range");
}

int Comm::size() const { return G->size(); }

int Comm::globalRank() const { return G->globalRankOf(Rank); }

void Comm::countCopied(std::size_t Bytes) {
  G->stats().BytesCopied.fetch_add(Bytes, std::memory_order_relaxed);
}

CommStatsSnapshot Comm::commStats() const { return G->statsSnapshot(); }

void Comm::accumulateCounter(const std::string &Name, double Delta) {
  G->accumulateCounter(Name, Delta);
}

void Comm::sendPayload(int Dst, int Tag, Payload Data, TrafficClass Class) {
  assert(Dst >= 0 && Dst < size() && "destination out of range");
  G->poison().check();
  LinkCost Cost = G->costModel().link(globalRank(), G->globalRankOf(Dst));
  double Start = Clock->now();
  Message Msg;
  Msg.Tag = Tag;
  Msg.ArrivalTime = Start + Cost.transferTime(Data.size());
  CommStats &S = G->stats();
  S.Messages.fetch_add(1, std::memory_order_relaxed);
  S.BytesLogical.fetch_add(Data.size(), std::memory_order_relaxed);
  if (Class == TrafficClass::Halo)
    S.HaloBytes.fetch_add(Data.size(), std::memory_order_relaxed);
  else if (Class == TrafficClass::Redistribute)
    S.RedistributeBytes.fetch_add(Data.size(), std::memory_order_relaxed);
  Msg.Data = std::move(Data);
  // The sender is busy for the injection overhead only; the full transfer
  // time is charged to the message arrival (receiver side).
  Clock->advance(Cost.Latency);
  if (G->mailbox(Rank, Dst).push(std::move(Msg)))
    G->poison().wake(G->globalRankOf(Dst));
}

void Comm::sendBytes(int Dst, int Tag, std::span<const std::byte> Data) {
  countCopied(Data.size());
  sendPayload(Dst, Tag, Payload::copyOf(Data));
}

Payload Comm::recvPayload(int Src, int Tag) { return irecv(Src, Tag).wait(); }

std::vector<std::byte> Comm::recvBytes(int Src, int Tag) {
  Payload P = recvPayload(Src, Tag);
  countCopied(P.size());
  return P.toVector<std::byte>();
}

RecvRequest Comm::irecv(int Src, int Tag) {
  assert(Src >= 0 && Src < size() && "source out of range");
  RecvRequest Req;
  Req.G = G;
  Req.Box = &G->mailbox(Src, Rank);
  Req.Slot = Req.Box->post(Tag);
  Req.WorldRank = globalRank();
  Req.Clock = Clock;
  return Req;
}

void Comm::abort(const std::string &Reason) {
  G->poison().poison(globalRank(), Reason);
}

bool Comm::poisoned() const { return G->poison().poisoned(); }

void Comm::barrier() {
  double Release = G->enterBarrier(Rank, Clock->now());
  Clock->advanceTo(Release);
}

bool Comm::usesTwoLevelCollectives() const { return G->twoLevelEligible(); }

namespace {

/// Where the two stages of a two-level collective rooted at group rank
/// Root run. Each node is served by its *node root*: the group root on
/// its own node, the node leader (lowest rank) elsewhere. The inter-node
/// tree runs over the node roots, the root's node first and then the
/// other nodes in dense order.
struct TwoLevelPlan {
  const Group::NodeLayout &L;
  int Root;
  int RootNode = L.NodeOfRank[static_cast<std::size_t>(Root)];

  int nodeRoot(int Node) const {
    return Node == RootNode ? Root : L.leaderOf(Node);
  }
  /// Node at index K of the inter-node tree, and its inverse.
  int interNode(int K) const {
    return K == 0 ? RootNode : (K <= RootNode ? K - 1 : K);
  }
  int interIndex(int Node) const {
    return Node == RootNode ? 0 : (Node < RootNode ? Node + 1 : Node);
  }
  /// Index of group rank \p Rank among the members of its node \p Node.
  int memberIndex(int Node, int Rank) const {
    const std::vector<int> &M = L.Members[static_cast<std::size_t>(Node)];
    return static_cast<int>(std::lower_bound(M.begin(), M.end(), Rank) -
                            M.begin());
  }
};

} // namespace

template <typename RankOfFn>
void Comm::bcastTree(int N, RankOfFn RankOf, int MyIdx, int RootIdx,
                     Payload &Data, int Tag) {
  if (N <= 1)
    return;
  assert(MyIdx >= 0 && MyIdx < N && RootIdx >= 0 && RootIdx < N &&
         RankOf(MyIdx) == Rank && "caller must be a member");
  int Rel = (MyIdx - RootIdx + N) % N;

  // Receive from the parent, then forward the *same* payload to the
  // children — every member ends up sharing the root's buffer, so the
  // whole fan-out copies nothing.
  unsigned Mask = 1;
  while (static_cast<int>(Mask) < N) {
    if (Rel & static_cast<int>(Mask)) {
      Data = recvPayload(RankOf((Rel - static_cast<int>(Mask) + RootIdx) % N),
                         Tag);
      break;
    }
    Mask <<= 1;
  }
  Mask >>= 1;
  while (Mask > 0) {
    int Child = Rel + static_cast<int>(Mask);
    if (Child < N)
      sendPayload(RankOf((Child + RootIdx) % N), Tag, Data);
    Mask >>= 1;
  }
}

void Comm::bcastPayloadTwoLevel(Payload &Data, int Root) {
  TwoLevelPlan T{*G->layout(), Root};
  int MyNode = T.L.NodeOfRank[static_cast<std::size_t>(Rank)];

  // Stage 1 — inter-node: binomial tree over the node roots, rooted at
  // the group root.
  if (Rank == T.nodeRoot(MyNode))
    bcastTree(
        T.L.numNodes(), [&](int K) { return T.nodeRoot(T.interNode(K)); },
        T.interIndex(MyNode), /*RootIdx=*/0, Data, TagBcastInter);

  // Stage 2 — intra-node: binomial tree among the node's members, rooted
  // at the node root. The same shared payload is forwarded throughout,
  // so the fan-out still copies nothing.
  const std::vector<int> &Members =
      T.L.Members[static_cast<std::size_t>(MyNode)];
  bcastTree(
      static_cast<int>(Members.size()),
      [&](int I) { return Members[static_cast<std::size_t>(I)]; },
      T.memberIndex(MyNode, Rank), T.memberIndex(MyNode, T.nodeRoot(MyNode)),
      Data, TagBcastIntra);
}

void Comm::bcastPayload(Payload &Data, int Root) {
  assert(Root >= 0 && Root < size() && "root out of range");
  if (G->twoLevelEligible())
    bcastPayloadTwoLevel(Data, Root);
  else
    bcastTree(size(), [](int I) { return I; }, Rank, Root, Data, TagBcast);
}

void Comm::bcastBytes(std::vector<std::byte> &Data, int Root) {
  Payload P;
  if (Rank == Root) {
    countCopied(Data.size());
    P = Payload::copyOf(Data);
  }
  bcastPayload(P, Root);
  if (Rank != Root) {
    countCopied(P.size());
    Data = P.toVector<std::byte>();
  }
}

template <typename RankOfFn>
void Comm::gatherTree(int N, RankOfFn RankOf, int MyIdx, int RootIdx,
                      std::span<const std::byte> Local,
                      std::vector<std::uint64_t> &Sizes,
                      std::vector<std::byte> &Buf, int TagSizes,
                      int TagData) {
  assert(MyIdx >= 0 && MyIdx < N && RootIdx >= 0 && RootIdx < N &&
         RankOf(MyIdx) == Rank && "caller must be a member");
  int Rel = (MyIdx - RootIdx + N) % N;

  // Each member accumulates a contiguous window of relative indices
  // [Rel, CoverEnd) as a sizes header (one uint64 per covered member)
  // plus the concatenated data. Children at distance Mask arrive with
  // exactly that layout, so merging is an append. On return at the tree
  // root, Sizes/Buf hold every member's contribution in relative-index
  // order (i.e. starting at RootIdx and wrapping); other members leave
  // them empty.
  Sizes.assign(1, Local.size());
  Buf.assign(Local.begin(), Local.end());
  countCopied(Buf.size());

  unsigned Mask = 1;
  while (static_cast<int>(Mask) < N) {
    if (Rel & static_cast<int>(Mask)) {
      int Parent = RankOf((Rel - static_cast<int>(Mask) + RootIdx) % N);
      isend(Parent, TagSizes, std::move(Sizes));
      sendPayload(Parent, TagData, Payload::adoptBytes(std::move(Buf)));
      Sizes.clear();
      Buf.clear();
      return;
    }
    int Child = Rel + static_cast<int>(Mask);
    if (Child < N) {
      int ChildRank = RankOf((Child + RootIdx) % N);
      std::vector<std::uint64_t> ChildSizes =
          recv<std::uint64_t>(ChildRank, TagSizes);
      Payload ChildData = recvPayload(ChildRank, TagData);
      assert(std::accumulate(ChildSizes.begin(), ChildSizes.end(),
                             std::uint64_t{0}) == ChildData.size() &&
             "gather sizes/data mismatch");
      Sizes.insert(Sizes.end(), ChildSizes.begin(), ChildSizes.end());
      countCopied(ChildData.size());
      Buf.insert(Buf.end(), ChildData.bytes().begin(),
                 ChildData.bytes().end());
    }
    Mask <<= 1;
  }
  assert(Rel == 0 && static_cast<int>(Sizes.size()) == N &&
         "tree root must have combined every member");
}

std::vector<std::byte>
Comm::gathervBytesTwoLevel(std::span<const std::byte> Local, int Root) {
  TwoLevelPlan T{*G->layout(), Root};
  const Group::NodeLayout &L = T.L;
  int MyNode = L.NodeOfRank[static_cast<std::size_t>(Rank)];

  // Stage 1 — intra-node: gather the node's contributions at its node
  // root.
  const std::vector<int> &Members =
      L.Members[static_cast<std::size_t>(MyNode)];
  std::vector<std::uint64_t> MemberSizes;
  std::vector<std::byte> NodeBuf;
  gatherTree(
      static_cast<int>(Members.size()),
      [&](int I) { return Members[static_cast<std::size_t>(I)]; },
      T.memberIndex(MyNode, Rank), T.memberIndex(MyNode, T.nodeRoot(MyNode)),
      Local, MemberSizes, NodeBuf, TagGatherIntraSizes, TagGatherIntraData);
  if (Rank != T.nodeRoot(MyNode))
    return {};

  // Pack the node block: the member sizes (in the intra tree's
  // relative-index order, which the group root can reconstruct from the
  // layout) followed by the concatenated data.
  std::vector<std::byte> Block(MemberSizes.size() *
                                   sizeof(std::uint64_t) +
                               NodeBuf.size());
  std::memcpy(Block.data(), MemberSizes.data(),
              MemberSizes.size() * sizeof(std::uint64_t));
  std::memcpy(Block.data() + MemberSizes.size() * sizeof(std::uint64_t),
              NodeBuf.data(), NodeBuf.size());
  countCopied(Block.size());

  // Stage 2 — inter-node: gather the node blocks at the group root over
  // the node roots.
  std::vector<std::uint64_t> BlockSizes;
  std::vector<std::byte> AllBlocks;
  gatherTree(
      L.numNodes(), [&](int K) { return T.nodeRoot(T.interNode(K)); },
      T.interIndex(MyNode), /*RootIdx=*/0, Block, BlockSizes, AllBlocks,
      TagGatherInterSizes, TagGatherInterData);
  if (Rank != Root)
    return {};

  // Decode: blocks arrive in inter-tree order; within block J the member
  // chunks follow that node's intra relative-index order. Map every
  // chunk back to its group rank and emit rank order.
  int P = size();
  std::vector<std::uint64_t> ChunkOffset(static_cast<std::size_t>(P), 0);
  std::vector<std::uint64_t> ChunkBytes(static_cast<std::size_t>(P), 0);
  std::uint64_t BlockStart = 0;
  std::uint64_t TotalData = 0;
  for (int J = 0; J < L.numNodes(); ++J) {
    int Nd = T.interNode(J);
    const std::vector<int> &NodeMembers =
        L.Members[static_cast<std::size_t>(Nd)];
    int M = static_cast<int>(NodeMembers.size());
    int R0 = T.memberIndex(Nd, T.nodeRoot(Nd));
    std::uint64_t DataOff =
        BlockStart + static_cast<std::uint64_t>(M) * sizeof(std::uint64_t);
    for (int K = 0; K < M; ++K) {
      int Member = NodeMembers[static_cast<std::size_t>((R0 + K) % M)];
      std::uint64_t Bytes;
      std::memcpy(&Bytes,
                  AllBlocks.data() + BlockStart +
                      static_cast<std::uint64_t>(K) * sizeof(std::uint64_t),
                  sizeof(std::uint64_t));
      ChunkOffset[static_cast<std::size_t>(Member)] = DataOff;
      ChunkBytes[static_cast<std::size_t>(Member)] = Bytes;
      DataOff += Bytes;
      TotalData += Bytes;
    }
    BlockStart += BlockSizes[static_cast<std::size_t>(J)];
  }
  assert(BlockStart == AllBlocks.size() && "inter blocks must be consumed");
  std::vector<std::byte> Ordered;
  Ordered.reserve(TotalData);
  for (int R = 0; R < P; ++R)
    Ordered.insert(Ordered.end(),
                   AllBlocks.begin() + static_cast<std::ptrdiff_t>(
                                           ChunkOffset[static_cast<
                                               std::size_t>(R)]),
                   AllBlocks.begin() +
                       static_cast<std::ptrdiff_t>(
                           ChunkOffset[static_cast<std::size_t>(R)] +
                           ChunkBytes[static_cast<std::size_t>(R)]));
  countCopied(Ordered.size());
  return Ordered;
}

std::vector<std::byte> Comm::gathervBytes(std::span<const std::byte> Local,
                                          int Root) {
  assert(Root >= 0 && Root < size() && "root out of range");
  int P = size();
  if (P == 1)
    return std::vector<std::byte>(Local.begin(), Local.end());
  if (G->twoLevelEligible())
    return gathervBytesTwoLevel(Local, Root);
  std::vector<std::uint64_t> Sizes;
  std::vector<std::byte> Buf;
  gatherTree(
      P, [](int I) { return I; }, Rank, Root, Local, Sizes, Buf,
      TagGathervSizes, TagGathervData);
  if (Rank != Root)
    return {};

  // Buf holds all contributions in relrank order. Reorder to rank order
  // (identity when Root == 0).
  if (Root == 0)
    return Buf;
  std::vector<std::uint64_t> Offsets(static_cast<std::size_t>(P) + 1, 0);
  for (int Q = 0; Q < P; ++Q)
    Offsets[static_cast<std::size_t>(Q) + 1] =
        Offsets[static_cast<std::size_t>(Q)] +
        Sizes[static_cast<std::size_t>(Q)];
  std::vector<std::byte> Ordered;
  Ordered.reserve(Buf.size());
  for (int R = 0; R < P; ++R) {
    auto Q = static_cast<std::size_t>((R - Root + P) % P);
    Ordered.insert(Ordered.end(), Buf.begin() + Offsets[Q],
                   Buf.begin() + Offsets[Q + 1]);
  }
  return Ordered;
}

std::vector<std::byte>
Comm::scattervBytes(std::span<const std::byte> All,
                    std::span<const std::size_t> CountsBytes, int Root) {
  assert(Root >= 0 && Root < size() && "root out of range");
  int P = size();
  assert(static_cast<int>(CountsBytes.size()) == P &&
         "one byte count per rank required");
  if (P == 1)
    return std::vector<std::byte>(All.begin(), All.end());
  int RelRank = (Rank - Root + P) % P;

  // Binomial tree in relrank space, mirroring gathervBytes: every node
  // holds a sizes header plus one payload covering a contiguous relrank
  // window, and hands the upper half of its window to each child. The
  // forwarded slices are subviews of the received payload, so only the
  // root's assembly and each rank's final chunk are physical copies.
  std::vector<std::uint64_t> Sizes;
  Payload Cover;
  unsigned Mask = 1;
  if (RelRank == 0) {
    // Assemble the relrank-ordered buffer (identity when Root == 0).
    std::vector<std::uint64_t> RankOffsets(static_cast<std::size_t>(P) + 1,
                                           0);
    for (int R = 0; R < P; ++R)
      RankOffsets[static_cast<std::size_t>(R) + 1] =
          RankOffsets[static_cast<std::size_t>(R)] +
          CountsBytes[static_cast<std::size_t>(R)];
    assert(RankOffsets.back() == All.size() &&
           "scatterv counts must cover the buffer");
    Sizes.resize(static_cast<std::size_t>(P));
    std::vector<std::byte> Assembled;
    Assembled.reserve(All.size());
    for (int Q = 0; Q < P; ++Q) {
      auto R = static_cast<std::size_t>((Q + Root) % P);
      Sizes[static_cast<std::size_t>(Q)] = CountsBytes[R];
      Assembled.insert(Assembled.end(), All.begin() + RankOffsets[R],
                       All.begin() + RankOffsets[R + 1]);
    }
    countCopied(Assembled.size());
    Cover = Payload::adoptBytes(std::move(Assembled));
    while (static_cast<int>(Mask) < P)
      Mask <<= 1;
  } else {
    while (static_cast<int>(Mask) < P) {
      if (RelRank & static_cast<int>(Mask)) {
        int Parent = (RelRank - static_cast<int>(Mask) + Root) % P;
        Sizes = recv<std::uint64_t>(Parent, TagScattervSizes);
        Cover = recvPayload(Parent, TagScattervData);
        break;
      }
      Mask <<= 1;
    }
  }

  // Send phase: peel off the upper half of the window for each child.
  Mask >>= 1;
  while (Mask > 0) {
    int Child = RelRank + static_cast<int>(Mask);
    if (Child < P) {
      auto Split = static_cast<std::size_t>(Mask);
      assert(Split < Sizes.size() && "child window must be non-empty");
      std::uint64_t ByteOff = 0;
      for (std::size_t I = 0; I < Split; ++I)
        ByteOff += Sizes[I];
      std::vector<std::uint64_t> ChildSizes(Sizes.begin() +
                                                static_cast<long>(Split),
                                            Sizes.end());
      std::uint64_t ChildBytes = Cover.size() - ByteOff;
      isend((Child + Root) % P, TagScattervSizes, std::move(ChildSizes));
      sendPayload((Child + Root) % P, TagScattervData,
                  Cover.subview(ByteOff, ChildBytes));
      Sizes.resize(Split);
      Cover = Cover.subview(0, ByteOff);
    }
    Mask >>= 1;
  }

  assert(Sizes.size() == 1 && Cover.size() == Sizes.front() &&
         "window must have narrowed to the local chunk");
  countCopied(Cover.size());
  return Cover.toVector<std::byte>();
}

std::vector<double> Comm::allreduce(std::span<const double> Local,
                                    ReduceOp Op) {
  // Gather all contributions at rank 0, reduce in rank order (fixed
  // association keeps results bit-reproducible), broadcast the result.
  std::vector<double> All = gatherv(Local, /*Root=*/0);
  std::vector<double> Result(Local.size(), 0.0);
  if (rank() == 0) {
    assert(All.size() == Local.size() * static_cast<std::size_t>(size()) &&
           "allreduce contributions must have equal length");
    for (std::size_t I = 0; I < Local.size(); ++I) {
      double Acc = All[I];
      for (int R = 1; R < size(); ++R) {
        double V = All[static_cast<std::size_t>(R) * Local.size() + I];
        switch (Op) {
        case ReduceOp::Sum:
          Acc += V;
          break;
        case ReduceOp::Max:
          Acc = std::max(Acc, V);
          break;
        case ReduceOp::Min:
          Acc = std::min(Acc, V);
          break;
        }
      }
      Result[I] = Acc;
    }
  }
  bcast(Result, /*Root=*/0);
  return Result;
}

double Comm::allreduceValue(double Value, ReduceOp Op) {
  std::vector<double> R = allreduce(std::span<const double>(&Value, 1), Op);
  return R.front();
}

Comm Comm::split(int Color, int Key) {
  Group::SplitEntry Entry;
  Entry.Color = Color;
  Entry.Key = Key;
  Entry.ParentRank = Rank;
  std::shared_ptr<Group> Sub = G->split(Entry);
  // Find our rank inside the new group by matching the parent rank.
  int NewRank = Sub->rankOfParent(Rank);
  // A split is also a synchronisation point among the members of the new
  // group in real MPI; we keep clocks independent (no time cost) because
  // MPI_Comm_split cost is not part of any modelled experiment.
  return Comm(std::move(Sub), NewRank, Clock);
}
