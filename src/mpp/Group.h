//===-- mpp/Group.h - Shared communicator state -----------------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal shared state behind Comm: mailboxes, barrier, split
/// rendezvous, and the world-wide communication counters. Included by
/// Comm.h for the message/request types; user code should only need the
/// Comm API.
///
/// Scale notes: mailboxes are created lazily and live in lock-sharded
/// hash maps, so a P-rank world costs memory proportional to the
/// channels actually used rather than P². Barrier and split rendezvous
/// run over a combining tree of per-rank nodes (arity 4), so P=1024+
/// ranks never serialise on one mutex. Every blocking wait parks the
/// rank on its world wait slot (PoisonState::waitUntil), woken by the
/// peer that completes it or by the poison broadcast, never by a timer
/// poll, so a thousand sleeping ranks cost the scheduler nothing.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_MPP_GROUP_H
#define FUPERMOD_MPP_GROUP_H

#include "mpp/CostModel.h"
#include "mpp/Payload.h"
#include "mpp/Poison.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace fupermod {

/// A point-to-point message in flight. The payload is shared, not owned:
/// a fan-out that sends one buffer to N receivers enqueues N references
/// to the same bytes.
struct Message {
  int Tag = 0;
  /// Virtual time at which the receiver may consume the message.
  double ArrivalTime = 0.0;
  Payload Data;
};

/// World-wide communication counters, shared by a world group and every
/// subgroup split from it (like PoisonState). Updated with relaxed
/// atomics — totals are exact once the ranks have joined.
struct CommStats {
  /// Point-to-point messages enqueued (every tree edge of a collective).
  std::atomic<unsigned long long> Messages{0};
  /// Payload bytes logically moved over links (sum of message sizes).
  std::atomic<unsigned long long> BytesLogical{0};
  /// Payload bytes physically deep-copied (copy-mode sends, mutable
  /// materialisations on receive). Zero-copy fan-out keeps this O(size)
  /// where the logical volume is O(N * size).
  std::atomic<unsigned long long> BytesCopied{0};
  /// Subset of BytesLogical sent as halo-exchange traffic (messages the
  /// sender classified TrafficClass::Halo).
  std::atomic<unsigned long long> HaloBytes{0};
  /// Subset of BytesLogical sent as redistribution traffic (messages the
  /// sender classified TrafficClass::Redistribute).
  std::atomic<unsigned long long> RedistributeBytes{0};
  /// Point-to-point channels (mailboxes) actually instantiated, across
  /// the world group and all subgroups. The memory-per-rank story at
  /// scale: nearest-neighbour traffic on P ranks creates O(P) channels,
  /// not the O(P²) a dense mailbox matrix would allocate up front.
  std::atomic<unsigned long long> ChannelsCreated{0};

  /// Free-form named counters published by higher layers during the run
  /// (e.g. the equalization subsystem's trigger/veto/savings tallies) —
  /// they ride the world's stats object into SpmdResult so frontends see
  /// them without the runtime knowing the publishers. Rare updates, so a
  /// mutex instead of per-name atomics.
  std::mutex CountersMutex;
  std::map<std::string, double> Counters;
};

/// Plain-value snapshot of CommStats.
struct CommStatsSnapshot {
  unsigned long long Messages = 0;
  unsigned long long BytesLogical = 0;
  unsigned long long BytesCopied = 0;
  unsigned long long HaloBytes = 0;
  unsigned long long RedistributeBytes = 0;
  unsigned long long ChannelsCreated = 0;
  /// Named counters accumulated via Comm::accumulateCounter().
  std::map<std::string, double> Counters;

  /// Value of the named counter, or 0 when it was never published.
  double counter(const std::string &Name) const {
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0.0 : It->second;
  }
};

/// FIFO channel for one (source, destination) rank pair, indexed by tag:
/// each tag has its own deque, so matching never scans unrelated traffic,
/// and a posted receive is a slot that the next matching push fills.
class Mailbox {
public:
  /// A posted receive, filled under the mailbox's lock.
  struct Slot {
    bool Filled = false;
    Message Msg;
  };

  /// Enqueues \p Msg, or fills the oldest posted receive of its tag and
  /// returns true: the caller must then wake the receiving rank.
  bool push(Message Msg);

  /// Posts a receive for \p Tag. The slot comes back filled when a
  /// matching message is queued; otherwise the next matching push()
  /// fills it. Posted receives of one tag are filled FIFO. A slot that
  /// is never awaited forfeits the message that fills it.
  std::shared_ptr<Slot> post(int Tag);

  /// True once push() has filled \p S, a slot posted here.
  bool filled(const Slot &S);

  /// Blocks world rank \p Rank until \p S, a slot posted here, is filled
  /// and returns its message. Throws CommError when \p World is poisoned
  /// while \p S is still empty; a message that filled it first is
  /// delivered even on a poisoned world.
  Message await(Slot &S, PoisonState &World, int Rank);

private:
  std::mutex Mutex;
  /// Queued messages per tag (senders got here first).
  std::map<int, std::deque<Message>> Queues;
  /// Posted receives per tag (receivers got here first).
  std::map<int, std::deque<std::shared_ptr<Slot>>> Waiters;
};

/// Shared state of one communicator (world or split subgroup).
class Group {
public:
  /// Default group size from which topology-aware two-level collectives
  /// engage (when the cost model carries a multi-node topology). Below
  /// it the flat binomial trees already finish in a handful of steps and
  /// stay byte- and time-identical to the historical algorithms.
  static constexpr int DefaultTwoLevelMinRanks = 16;

  /// Builds a group of \p GlobalRanks.size() ranks; \p GlobalRanks[i] is
  /// the world rank of group rank i (used for cost-model lookups).
  /// Subgroups share their parent's poison state and comm counters (a
  /// failure anywhere in the world unblocks every subgroup); null
  /// \p Poison / \p Stats create a fresh, healthy world.
  /// \p TwoLevelMinRanks gates hierarchical collectives (<= 0 disables
  /// them); subgroups inherit the parent's value.
  Group(std::shared_ptr<const CostModel> Cost, std::vector<int> GlobalRanks,
        std::vector<int> ParentRanks,
        std::shared_ptr<PoisonState> Poison = nullptr,
        std::shared_ptr<CommStats> Stats = nullptr,
        int TwoLevelMinRanks = DefaultTwoLevelMinRanks);

  Group(const Group &) = delete;
  Group &operator=(const Group &) = delete;

  /// The failure flag and rank wait slots shared across this group and
  /// all its subgroups.
  PoisonState &poison() { return *Poison; }
  const PoisonState &poison() const { return *Poison; }

  /// The world-wide communication counters.
  CommStats &stats() { return *Stats; }

  /// Plain-value copy of the counters.
  CommStatsSnapshot statsSnapshot() const;

  /// Adds \p Delta to the named free-form world counter (thread-safe).
  void accumulateCounter(const std::string &Name, double Delta);

  int size() const { return static_cast<int>(GlobalRanks.size()); }
  int globalRankOf(int Rank) const { return GlobalRanks[Rank]; }
  const CostModel &costModel() const { return *Cost; }

  /// Channel from \p Src to \p Dst (group-local ranks). Created on first
  /// use; the shard lock makes concurrent first-touch from many ranks
  /// safe without a global mailbox mutex.
  Mailbox &mailbox(int Src, int Dst);

  /// Number of channels instantiated so far in this group (not counting
  /// subgroups). O(shards) — takes each shard lock briefly.
  std::size_t mailboxCount() const;

  /// Rendezvous for Comm::barrier(): blocks until all ranks arrive and
  /// returns the common release time (max entry time + barrier cost).
  /// \p Rank is the caller's group rank — each rank combines through its
  /// own tree node. Throws CommError when the world is poisoned before
  /// the barrier completes (a dead rank will never arrive).
  double enterBarrier(int Rank, double LocalTime);

  /// One rank's contribution to a communicator split.
  struct SplitEntry {
    int Color = 0;
    int Key = 0;
    int ParentRank = 0;
  };

  /// Rendezvous for Comm::split(): blocks until all ranks of this group
  /// contribute, then returns the subgroup for the caller's color.
  /// Entries combine up the same per-rank tree the barrier uses; the
  /// tree root builds the subgroups and the result propagates back down.
  std::shared_ptr<Group> split(const SplitEntry &Entry);

  /// Group-local rank whose parent-group rank is \p ParentRank; asserts if
  /// absent (callers only query their own subgroup).
  int rankOfParent(int ParentRank) const;

  /// Node structure of this group when the cost model has a topology:
  /// group ranks bucketed by (dense) node index, each node led by its
  /// lowest group rank.
  struct NodeLayout {
    /// Group rank -> dense node index (0 .. numNodes()-1, in order of
    /// first appearance over ascending group ranks).
    std::vector<int> NodeOfRank;
    /// Dense node index -> group ranks on that node, ascending.
    std::vector<std::vector<int>> Members;

    int numNodes() const { return static_cast<int>(Members.size()); }
    int leaderOf(int DenseNode) const {
      return Members[static_cast<std::size_t>(DenseNode)].front();
    }
  };

  /// The group's node layout, or nullptr when the cost model is flat (or
  /// does not cover this group's global ranks).
  const NodeLayout *layout() const { return Layout.get(); }

  /// True when collectives should use the two-level (intra-node stage +
  /// inter-node tree) algorithms: a multi-node layout exists and the
  /// group is at least TwoLevelMinRanks ranks.
  bool twoLevelEligible() const {
    return Layout && Layout->numNodes() > 1 && TwoLevelMinRanks > 0 &&
           size() >= TwoLevelMinRanks;
  }

  int twoLevelMinRanks() const { return TwoLevelMinRanks; }

private:
  /// Lock-sharded slice of the lazy mailbox map.
  struct MailboxShard {
    std::mutex Mutex;
    std::unordered_map<std::uint64_t, std::unique_ptr<Mailbox>> Boxes;
  };

  using SplitMap = std::map<int, std::shared_ptr<Group>>;

  /// One rank's node in the combining tree used by barrier and split.
  /// Children deposit their combined subtree state here; the owning rank
  /// waits for all of them, hands the combination to its parent's node,
  /// then waits for the parent to release it with the root's result.
  struct RankTreeNode {
    std::mutex Mutex;
    /// World rank of the node's owner, whose wait slot the node's
    /// arrivals and releases wake.
    int Owner = 0;
    /// Children that have deposited their subtree state this round.
    int Arrived = 0;
    /// Barrier: running max of entry times over self + arrived subtrees.
    double MaxTime = 0.0;
    /// Split: accumulated entries of self + arrived subtrees.
    std::vector<SplitEntry> Entries;
    /// Bumped by the parent when Release / SplitOut are valid.
    std::uint64_t Released = 0;
    /// Barrier result propagated down the tree.
    double Release = 0.0;
    /// Split result propagated down the tree.
    std::shared_ptr<const SplitMap> SplitOut;
  };

  /// Fan-in of the combining tree. Four keeps the tree depth at
  /// ceil(log4 P) (six levels at P=2048) while still spreading wakeups.
  static constexpr int TreeArity = 4;

  std::uint64_t mailboxKey(int Src, int Dst) const {
    return static_cast<std::uint64_t>(Src) *
               static_cast<std::uint64_t>(size()) +
           static_cast<std::uint64_t>(Dst);
  }

  /// One round of the combining tree, behind both barrier and split.
  /// \p Merge(Acc, V) folds a value into a node's RankTreeNode::*Acc: the
  /// caller's own \p Mine into its node, then, once every child has
  /// arrived, the node's subtree state into the parent's node. The tree
  /// root turns the whole tree's state into the result with \p Finish,
  /// and the result travels back down through RankTreeNode::*Out.
  template <typename T, typename R, typename MergeFn, typename FinishFn>
  R rendezvous(int Rank, T Mine, T RankTreeNode::*Acc, R RankTreeNode::*Out,
               MergeFn Merge, FinishFn Finish);

  void buildNodeLayout();

  std::shared_ptr<const CostModel> Cost;
  std::shared_ptr<PoisonState> Poison;
  std::shared_ptr<CommStats> Stats;
  std::vector<int> GlobalRanks;
  /// ParentRanks[i] = rank in the parent group of group rank i (identity
  /// for the world group).
  std::vector<int> ParentRanks;
  /// Inverse of ParentRanks for O(1) rankOfParent.
  std::unordered_map<int, int> RankOfParentRank;

  // Lazily instantiated mailboxes, sharded by a mixed (Src, Dst) key.
  std::vector<MailboxShard> Shards;
  std::uint64_t ShardMask = 0;

  // Combining tree: Nodes[TreePos[Rank]] is rank Rank's tree node.
  // Co-located ranks (same topology node) occupy adjacent tree positions
  // and combine locally first.
  std::vector<RankTreeNode> Nodes;
  std::vector<int> TreePos;

  /// Barrier cost hoisted to construction — the group size never changes.
  double BarrierCost = 0.0;

  std::unique_ptr<NodeLayout> Layout;
  int TwoLevelMinRanks = DefaultTwoLevelMinRanks;
};

} // namespace fupermod

#endif // FUPERMOD_MPP_GROUP_H
