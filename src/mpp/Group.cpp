//===-- mpp/Group.cpp - Shared communicator state -------------------------===//

#include "mpp/Group.h"

#include <algorithm>
#include <cassert>
#include <future>

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

void Mailbox::push(Message Msg) {
  std::promise<Message> Waiter;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Waiters.find(Msg.Tag);
    if (It == Waiters.end() || It->second.empty()) {
      Queues[Msg.Tag].push_back(std::move(Msg));
      return;
    }
    Waiter = std::move(It->second.front());
    It->second.pop_front();
    if (It->second.empty())
      Waiters.erase(It);
  }
  // Fulfil outside the lock: set_value wakes the receiver directly.
  Waiter.set_value(std::move(Msg));
}

std::future<Message> Mailbox::asyncPop(int Tag, const PoisonState &Poison) {
  std::promise<Message> Ready;
  std::future<Message> Result = Ready.get_future();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Queues.find(Tag);
    if (It == Queues.end() || It->second.empty()) {
      // The poison check and the waiter registration happen under one
      // lock, and the wake path drains waiters under the same lock: a
      // receive either observes the flag here or is registered in time
      // to be failed by poisonWaiters(). No poll needed.
      if (Poison.poisoned())
        Ready.set_exception(std::make_exception_ptr(Poison.makeError()));
      else
        Waiters[Tag].push_back(std::move(Ready));
      return Result;
    }
    Message Msg = std::move(It->second.front());
    It->second.pop_front();
    if (It->second.empty())
      Queues.erase(It);
    Ready.set_value(std::move(Msg));
  }
  return Result;
}

Message Mailbox::awaitMessage(std::future<Message> &Future) {
  assert(Future.valid() && "receive already consumed");
  // A message already handed to the future is delivered even on a
  // poisoned world; an empty wait ends when the sender's push() arrives
  // or poisoning fails the promise (rethrown by get()).
  Future.wait();
  return Future.get();
}

Message Mailbox::popMatching(int Tag, const PoisonState &Poison) {
  std::future<Message> Future = asyncPop(Tag, Poison);
  return awaitMessage(Future);
}

void Mailbox::poisonWaiters(const PoisonState &Poison) {
  std::map<int, std::deque<std::promise<Message>>> Doomed;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Doomed.swap(Waiters);
  }
  // Fulfil outside the lock, like push().
  for (auto &[Tag, Pending] : Doomed)
    for (std::promise<Message> &P : Pending)
      P.set_exception(std::make_exception_ptr(Poison.makeError()));
}

Group::Group(std::shared_ptr<const CostModel> Cost,
             std::vector<int> GlobalRanks, std::vector<int> ParentRanks,
             std::shared_ptr<PoisonState> Poison,
             std::shared_ptr<CommStats> Stats, int TwoLevelMinRanks)
    : Cost(std::move(Cost)),
      Poison(Poison ? std::move(Poison)
                    : std::make_shared<PoisonState>()),
      Stats(Stats ? std::move(Stats) : std::make_shared<CommStats>()),
      GlobalRanks(std::move(GlobalRanks)),
      ParentRanks(std::move(ParentRanks)),
      TwoLevelMinRanks(TwoLevelMinRanks) {
  assert(this->Cost && "null cost model");
  assert(!this->GlobalRanks.empty() && "empty group");
  assert(this->GlobalRanks.size() == this->ParentRanks.size() &&
         "rank mapping size mismatch");
  int N = size();

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
  TreeOrder.resize(static_cast<std::size_t>(N));
  for (int R = 0; R < N; ++R)
    TreeOrder[static_cast<std::size_t>(R)] = R;
  if (Layout)
    std::stable_sort(TreeOrder.begin(), TreeOrder.end(),
                     [&](int A, int B) {
                       return Layout->NodeOfRank[static_cast<std::size_t>(A)] <
                              Layout->NodeOfRank[static_cast<std::size_t>(B)];
                     });
  TreePos.resize(static_cast<std::size_t>(N));
  for (int P = 0; P < N; ++P)
    TreePos[static_cast<std::size_t>(TreeOrder[static_cast<std::size_t>(P)])] =
        P;
  Nodes = std::vector<RankTreeNode>(static_cast<std::size_t>(N));

  BarrierCost = this->Cost->barrierCost(N);

  // Last, once every waitable structure exists: if the world is already
  // poisoned the callback runs immediately (and harmlessly — no waiter
  // can exist yet, and future waits observe the flag in their
  // predicates).
  PoisonToken = this->Poison->subscribe([this] { wakeAllWaiters(); });
}

Group::~Group() { Poison->unsubscribe(PoisonToken); }

void Group::wakeAllWaiters() {
  for (RankTreeNode &Node : Nodes) {
    // Empty lock/unlock: orders the poison-flag store before any
    // blocked waiter's predicate re-check, so the notify cannot be
    // consumed without the flag being visible.
    { std::lock_guard<std::mutex> Lock(Node.Mutex); }
    Node.Cv.notify_all();
  }
  for (MailboxShard &Shard : Shards) {
    std::vector<Mailbox *> Boxes;
    {
      std::lock_guard<std::mutex> Lock(Shard.Mutex);
      Boxes.reserve(Shard.Boxes.size());
      for (auto &[Key, Box] : Shard.Boxes)
        Boxes.push_back(Box.get());
    }
    // The map only grows and boxes live as long as the group, so the
    // pointers stay valid after the shard lock is dropped. A channel
    // created after this snapshot fails its receives in asyncPop().
    for (Mailbox *Box : Boxes)
      Box->poisonWaiters(*Poison);
  }
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

int Group::treeChildCount(int Pos) const {
  int FirstChild = Pos * TreeArity + 1;
  if (FirstChild >= size())
    return 0;
  return std::min(TreeArity, size() - FirstChild);
}

template <typename MergeFn, typename ExtractFn>
std::uint64_t Group::combineAtOwnNode(RankTreeNode &Node, int NumChildren,
                                      MergeFn Merge, ExtractFn Extract) {
  std::unique_lock<std::mutex> Lock(Node.Mutex);
  Merge(Node);
  Node.Cv.wait(Lock, [&] {
    return Node.Arrived == NumChildren || Poison->poisoned();
  });
  if (Node.Arrived != NumChildren)
    Poison->raise(); // A dead rank will never arrive (raise is lock-free).
  // Reset the arrival state for the next round *before* signalling the
  // parent: no child can deposit the next round's state until this rank
  // has been woken and released, so the reset cannot race new arrivals.
  Node.Arrived = 0;
  Extract(Node);
  // Captured while still holding the lock: the parent's wake for this
  // round cannot land before our deposit, so comparing against this
  // value can neither miss the wake nor consume a stale one.
  return Node.WakeGen;
}

double Group::enterBarrier(int Rank, double LocalTime) {
  Poison->check();
  if (size() == 1)
    return LocalTime + BarrierCost;
  assert(Rank >= 0 && Rank < size() && "rank out of range");
  int Pos = TreePos[static_cast<std::size_t>(Rank)];
  RankTreeNode &Node = Nodes[static_cast<std::size_t>(Pos)];
  int NumChildren = treeChildCount(Pos);

  double SubtreeMax = 0.0;
  std::uint64_t PreWakeGen = combineAtOwnNode(
      Node, NumChildren,
      [&](RankTreeNode &N) { N.MaxTime = std::max(N.MaxTime, LocalTime); },
      [&](RankTreeNode &N) {
        SubtreeMax = N.MaxTime;
        N.MaxTime = 0.0;
      });

  double Release = 0.0;
  if (Pos == 0) {
    Release = SubtreeMax + BarrierCost;
  } else {
    RankTreeNode &Parent = Nodes[static_cast<std::size_t>(treeParent(Pos))];
    {
      std::lock_guard<std::mutex> Lock(Parent.Mutex);
      Parent.MaxTime = std::max(Parent.MaxTime, SubtreeMax);
      ++Parent.Arrived;
    }
    Parent.Cv.notify_all();
    std::unique_lock<std::mutex> Lock(Node.Mutex);
    Node.Cv.wait(Lock, [&] {
      return Node.WakeGen != PreWakeGen || Poison->poisoned();
    });
    if (Node.WakeGen == PreWakeGen)
      Poison->raise();
    Release = Node.Release;
  }

  // Wake the direct children with the root's release value; each child
  // rank repeats this for its own subtree on the way out.
  int FirstChild = Pos * TreeArity + 1;
  for (int C = FirstChild; C < FirstChild + NumChildren; ++C) {
    RankTreeNode &Child = Nodes[static_cast<std::size_t>(C)];
    {
      std::lock_guard<std::mutex> Lock(Child.Mutex);
      Child.Release = Release;
      ++Child.WakeGen;
    }
    Child.Cv.notify_all();
  }
  return Release;
}

std::shared_ptr<Group> Group::split(const SplitEntry &Entry) {
  Poison->check();
  using SplitMap = std::map<int, std::shared_ptr<Group>>;
  std::shared_ptr<const SplitMap> Result;

  if (size() == 1) {
    auto Single = std::make_shared<SplitMap>();
    (*Single)[Entry.Color] = std::make_shared<Group>(
        Cost, std::vector<int>{GlobalRanks[0]},
        std::vector<int>{Entry.ParentRank}, Poison, Stats, TwoLevelMinRanks);
    Result = std::move(Single);
  } else {
    int Rank = Entry.ParentRank;
    assert(Rank >= 0 && Rank < size() && "rank out of range");
    int Pos = TreePos[static_cast<std::size_t>(Rank)];
    RankTreeNode &Node = Nodes[static_cast<std::size_t>(Pos)];
    int NumChildren = treeChildCount(Pos);

    std::vector<SplitEntry> Gathered;
    std::uint64_t PreWakeGen = combineAtOwnNode(
        Node, NumChildren,
        [&](RankTreeNode &N) { N.Entries.push_back(Entry); },
        [&](RankTreeNode &N) {
          Gathered = std::move(N.Entries);
          N.Entries.clear();
        });

    if (Pos == 0) {
      // Tree root: build one subgroup per color, ordered by (key, parent
      // rank). Subgroups share the world's poison state and counters, so
      // a failure anywhere unblocks ranks waiting in any subgroup.
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
        while (J < Gathered.size() &&
               Gathered[J].Color == Gathered[I].Color) {
          SubGlobal.push_back(GlobalRanks[Gathered[J].ParentRank]);
          SubParent.push_back(Gathered[J].ParentRank);
          ++J;
        }
        (*Built)[Gathered[I].Color] = std::make_shared<Group>(
            Cost, std::move(SubGlobal), std::move(SubParent), Poison, Stats,
            TwoLevelMinRanks);
        I = J;
      }
      Result = std::move(Built);
    } else {
      RankTreeNode &Parent = Nodes[static_cast<std::size_t>(treeParent(Pos))];
      {
        std::lock_guard<std::mutex> Lock(Parent.Mutex);
        Parent.Entries.insert(Parent.Entries.end(), Gathered.begin(),
                              Gathered.end());
        ++Parent.Arrived;
      }
      Parent.Cv.notify_all();
      std::unique_lock<std::mutex> Lock(Node.Mutex);
      Node.Cv.wait(Lock, [&] {
        return Node.WakeGen != PreWakeGen || Poison->poisoned();
      });
      if (Node.WakeGen == PreWakeGen)
        Poison->raise();
      Result = std::move(Node.SplitOut);
    }

    int FirstChild = Pos * TreeArity + 1;
    for (int C = FirstChild; C < FirstChild + NumChildren; ++C) {
      RankTreeNode &Child = Nodes[static_cast<std::size_t>(C)];
      {
        std::lock_guard<std::mutex> Lock(Child.Mutex);
        Child.SplitOut = Result;
        ++Child.WakeGen;
      }
      Child.Cv.notify_all();
    }
  }

  auto It = Result->find(Entry.Color);
  assert(It != Result->end() && "split result missing for color");
  return It->second;
}

int Group::rankOfParent(int ParentRank) const {
  auto It = RankOfParentRank.find(ParentRank);
  assert(It != RankOfParentRank.end() && "parent rank not in subgroup");
  return It == RankOfParentRank.end() ? -1 : It->second;
}
