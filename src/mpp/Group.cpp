//===-- mpp/Group.cpp - Shared communicator state -------------------------===//

#include "mpp/Group.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

using namespace fupermod;

namespace {

/// Mixes a mailbox key into a shard index so that both row-major (one
/// sender to many receivers) and column-major (many senders to one
/// receiver) traffic spreads across shards.
std::uint64_t mixShard(std::uint64_t Key) {
  Key ^= Key >> 33;
  Key *= 0x9e3779b97f4a7c15ull;
  return Key >> 33;
}

} // namespace

bool Mailbox::push(Message Msg) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Waiters.find(Msg.Tag);
  if (It == Waiters.end()) {
    Queues[Msg.Tag].push_back(std::move(Msg));
    return false;
  }
  // Fill before popping: the deque may hold the slot's last reference.
  Slot &S = *It->second.front();
  S.Msg = std::move(Msg);
  S.Filled = true;
  It->second.pop_front();
  if (It->second.empty())
    Waiters.erase(It);
  return true;
}

std::shared_ptr<Mailbox::Slot> Mailbox::post(int Tag) {
  auto S = std::make_shared<Slot>();
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Queues.find(Tag);
  if (It == Queues.end()) {
    Waiters[Tag].push_back(S);
    return S;
  }
  S->Msg = std::move(It->second.front());
  S->Filled = true;
  It->second.pop_front();
  if (It->second.empty())
    Queues.erase(It);
  return S;
}

bool Mailbox::filled(const Slot &S) {
  std::lock_guard<std::mutex> Lock(Mutex);
  return S.Filled;
}

Message Mailbox::await(Slot &S, PoisonState &World, int Rank) {
  World.waitUntil(Rank, [&] { return filled(S); });
  return std::move(S.Msg);
}

Group::Group(std::shared_ptr<const CostModel> Cost,
             std::vector<int> GlobalRanks, std::vector<int> ParentRanks,
             std::shared_ptr<PoisonState> Poison,
             std::shared_ptr<CommStats> Stats, int TwoLevelMinRanks)
    : Cost(std::move(Cost)), Poison(std::move(Poison)),
      Stats(Stats ? std::move(Stats) : std::make_shared<CommStats>()),
      GlobalRanks(std::move(GlobalRanks)),
      ParentRanks(std::move(ParentRanks)),
      TwoLevelMinRanks(TwoLevelMinRanks) {
  assert(this->Cost && "null cost model");
  assert(!this->GlobalRanks.empty() && "empty group");
  assert(this->GlobalRanks.size() == this->ParentRanks.size() &&
         "rank mapping size mismatch");
  int N = size();
  if (!this->Poison)
    this->Poison = std::make_shared<PoisonState>(N); // A new world.

  RankOfParentRank.reserve(this->ParentRanks.size());
  for (std::size_t I = 0; I < this->ParentRanks.size(); ++I)
    RankOfParentRank.emplace(this->ParentRanks[I], static_cast<int>(I));

  // Mailbox shards: enough to keep first-touch contention negligible,
  // capped so tiny groups do not pay 64 mutexes. Power of two for the
  // mask; each shard holds only the channels actually used.
  std::size_t ShardCount = 1;
  while (ShardCount < 64 && static_cast<int>(ShardCount) < N)
    ShardCount <<= 1;
  Shards = std::vector<MailboxShard>(ShardCount);
  ShardMask = ShardCount - 1;

  buildNodeLayout();

  // Combining tree: one node per rank. With a node layout, co-located
  // ranks take adjacent tree positions so the fan-in combines within a
  // topology node before crossing it (the release value is order-free —
  // a max — so the permutation never changes results).
  std::vector<int> TreeOrder(static_cast<std::size_t>(N));
  std::iota(TreeOrder.begin(), TreeOrder.end(), 0);
  if (Layout)
    std::stable_sort(TreeOrder.begin(), TreeOrder.end(),
                     [&](int A, int B) {
                       return Layout->NodeOfRank[static_cast<std::size_t>(A)] <
                              Layout->NodeOfRank[static_cast<std::size_t>(B)];
                     });
  TreePos.resize(static_cast<std::size_t>(N));
  Nodes = std::vector<RankTreeNode>(static_cast<std::size_t>(N));
  for (std::size_t P = 0; P < TreeOrder.size(); ++P) {
    TreePos[static_cast<std::size_t>(TreeOrder[P])] = static_cast<int>(P);
    Nodes[P].Owner = this->GlobalRanks[static_cast<std::size_t>(TreeOrder[P])];
  }

  BarrierCost = this->Cost->barrierCost(N);
}

void Group::buildNodeLayout() {
  const NodeTopology *Topo = Cost->topology();
  if (!Topo)
    return;
  // A model that does not cover every rank of this group cannot place
  // them on nodes; fall back to flat algorithms.
  for (int G : GlobalRanks)
    if (G < 0 || G >= Topo->numRanks())
      return;
  auto L = std::make_unique<NodeLayout>();
  L->NodeOfRank.resize(GlobalRanks.size());
  std::unordered_map<int, int> DenseOf;
  for (std::size_t R = 0; R < GlobalRanks.size(); ++R) {
    int Node = Topo->nodeOf(GlobalRanks[R]);
    auto [It, Inserted] =
        DenseOf.emplace(Node, static_cast<int>(L->Members.size()));
    if (Inserted)
      L->Members.emplace_back();
    L->NodeOfRank[R] = It->second;
    L->Members[static_cast<std::size_t>(It->second)].push_back(
        static_cast<int>(R));
  }
  Layout = std::move(L);
}

CommStatsSnapshot Group::statsSnapshot() const {
  CommStatsSnapshot S;
  S.Messages = Stats->Messages.load(std::memory_order_relaxed);
  S.BytesLogical = Stats->BytesLogical.load(std::memory_order_relaxed);
  S.BytesCopied = Stats->BytesCopied.load(std::memory_order_relaxed);
  S.HaloBytes = Stats->HaloBytes.load(std::memory_order_relaxed);
  S.RedistributeBytes =
      Stats->RedistributeBytes.load(std::memory_order_relaxed);
  S.ChannelsCreated =
      Stats->ChannelsCreated.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Lock(Stats->CountersMutex);
    S.Counters = Stats->Counters;
  }
  return S;
}

void Group::accumulateCounter(const std::string &Name, double Delta) {
  std::lock_guard<std::mutex> Lock(Stats->CountersMutex);
  Stats->Counters[Name] += Delta;
}

Mailbox &Group::mailbox(int Src, int Dst) {
  assert(Src >= 0 && Src < size() && Dst >= 0 && Dst < size() &&
         "rank out of range");
  std::uint64_t Key = mailboxKey(Src, Dst);
  MailboxShard &Shard = Shards[mixShard(Key) & ShardMask];
  std::lock_guard<std::mutex> Lock(Shard.Mutex);
  std::unique_ptr<Mailbox> &Slot = Shard.Boxes[Key];
  if (!Slot) {
    Slot = std::make_unique<Mailbox>();
    Stats->ChannelsCreated.fetch_add(1, std::memory_order_relaxed);
  }
  return *Slot;
}

std::size_t Group::mailboxCount() const {
  std::size_t Total = 0;
  for (const MailboxShard &Shard : Shards) {
    std::lock_guard<std::mutex> Lock(
        const_cast<MailboxShard &>(Shard).Mutex);
    Total += Shard.Boxes.size();
  }
  return Total;
}

template <typename T, typename R, typename MergeFn, typename FinishFn>
R Group::rendezvous(int Rank, T Mine, T RankTreeNode::*Acc,
                    R RankTreeNode::*Out, MergeFn Merge, FinishFn Finish) {
  Poison->check();
  assert(Rank >= 0 && Rank < size() && "rank out of range");
  int Pos = TreePos[static_cast<std::size_t>(Rank)];
  RankTreeNode &Node = Nodes[static_cast<std::size_t>(Pos)];
  int FirstChild = std::min(Pos * TreeArity + 1, size());
  int EndChild = std::min(FirstChild + TreeArity, size());
  std::uint64_t Released;
  {
    std::lock_guard<std::mutex> Lock(Node.Mutex);
    Merge(Node.*Acc, std::move(Mine));
    // The parent releases this round only after this rank's deposit
    // below, so the release bumps the count read here.
    Released = Node.Released;
  }

  // Take the subtree state once every child has arrived. The arrival
  // count resets before the parent hears of this subtree: no child can
  // deposit the next round's state until this rank releases it below.
  T Subtree{};
  Poison->waitUntil(Node.Owner, [&] {
    std::lock_guard<std::mutex> Lock(Node.Mutex);
    if (Node.Arrived != EndChild - FirstChild)
      return false;
    Node.Arrived = 0;
    Subtree = std::exchange(Node.*Acc, T{});
    return true;
  });

  R Result{};
  if (Pos == 0) {
    Result = Finish(std::move(Subtree));
  } else {
    RankTreeNode &Parent =
        Nodes[static_cast<std::size_t>((Pos - 1) / TreeArity)];
    {
      std::lock_guard<std::mutex> Lock(Parent.Mutex);
      Merge(Parent.*Acc, std::move(Subtree));
      ++Parent.Arrived;
    }
    Poison->wake(Parent.Owner);
    Poison->waitUntil(Node.Owner, [&] {
      std::lock_guard<std::mutex> Lock(Node.Mutex);
      if (Node.Released == Released)
        return false;
      Result = std::move(Node.*Out);
      return true;
    });
  }

  // Release the direct children with the root's result; each child rank
  // repeats this for its own subtree on the way out.
  for (int C = FirstChild; C < EndChild; ++C) {
    RankTreeNode &Child = Nodes[static_cast<std::size_t>(C)];
    {
      std::lock_guard<std::mutex> Lock(Child.Mutex);
      Child.*Out = Result;
      ++Child.Released;
    }
    Poison->wake(Child.Owner);
  }
  return Result;
}

double Group::enterBarrier(int Rank, double LocalTime) {
  return rendezvous(
      Rank, LocalTime, &RankTreeNode::MaxTime, &RankTreeNode::Release,
      [](double &Max, double T) { Max = std::max(Max, T); },
      [&](double Max) { return Max + BarrierCost; });
}

std::shared_ptr<Group> Group::split(const SplitEntry &Entry) {
  auto Append = [](std::vector<SplitEntry> &All,
                   std::vector<SplitEntry> More) {
    All.insert(All.end(), More.begin(), More.end());
  };
  // The tree root builds one subgroup per color, ordered by (key, parent
  // rank). Subgroups share the world's poison state and counters, so a
  // failure anywhere unblocks ranks waiting in any subgroup.
  auto Build = [&](std::vector<SplitEntry> Gathered) {
    assert(static_cast<int>(Gathered.size()) == size() &&
           "split must combine every rank's entry");
    std::stable_sort(Gathered.begin(), Gathered.end(),
                     [](const SplitEntry &A, const SplitEntry &B) {
                       if (A.Color != B.Color)
                         return A.Color < B.Color;
                       if (A.Key != B.Key)
                         return A.Key < B.Key;
                       return A.ParentRank < B.ParentRank;
                     });
    auto Built = std::make_shared<SplitMap>();
    std::size_t I = 0;
    while (I < Gathered.size()) {
      std::size_t J = I;
      std::vector<int> SubGlobal;
      std::vector<int> SubParent;
      while (J < Gathered.size() && Gathered[J].Color == Gathered[I].Color) {
        SubGlobal.push_back(GlobalRanks[Gathered[J].ParentRank]);
        SubParent.push_back(Gathered[J].ParentRank);
        ++J;
      }
      (*Built)[Gathered[I].Color] = std::make_shared<Group>(
          Cost, std::move(SubGlobal), std::move(SubParent), Poison, Stats,
          TwoLevelMinRanks);
      I = J;
    }
    return std::shared_ptr<const SplitMap>(std::move(Built));
  };
  std::shared_ptr<const SplitMap> Result =
      rendezvous(Entry.ParentRank, std::vector<SplitEntry>{Entry},
                 &RankTreeNode::Entries, &RankTreeNode::SplitOut, Append,
                 Build);
  auto It = Result->find(Entry.Color);
  assert(It != Result->end() && "split result missing for color");
  return It->second;
}

int Group::rankOfParent(int ParentRank) const {
  auto It = RankOfParentRank.find(ParentRank);
  assert(It != RankOfParentRank.end() && "parent rank not in subgroup");
  return It == RankOfParentRank.end() ? -1 : It->second;
}
