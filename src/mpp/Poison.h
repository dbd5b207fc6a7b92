//===-- mpp/Poison.h - World failure and rank waits -------------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The state a world group shares with every subgroup split from it: the
/// failure flag, and one wait slot per world rank that every blocking
/// call of the runtime parks on.
///
/// When a rank dies (uncaught exception, explicit Comm::abort), its world
/// is *poisoned*: every rank blocked in — or later entering — a
/// communication operation receives a CommError instead of deadlocking
/// on a peer that will never show up. Poisoning is one-way; a poisoned
/// world never recovers (mirroring the default MPI error model, where the
/// job is torn down).
///
/// A blocked rank waits in waitUntil() on its own slot, an event count:
/// whoever changes what the rank waits for (a posted receive filled, a
/// tree node's children arrived, a barrier released) wakes that rank's
/// slot, and poison() wakes every slot. Waits are never timed, so a
/// thousand sleeping ranks cost the scheduler nothing.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_MPP_POISON_H
#define FUPERMOD_MPP_POISON_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace fupermod {

/// Thrown out of communication operations on a poisoned world. Carries
/// the world rank whose failure caused the poisoning so survivors can
/// report (and tests assert) who died.
class CommError : public std::runtime_error {
public:
  CommError(int FailedRank, const std::string &What)
      : std::runtime_error(What), FailedRank(FailedRank) {}

  /// World rank of the rank whose failure poisoned the group.
  int failedRank() const { return FailedRank; }

private:
  int FailedRank;
};

/// One-way failure flag plus the world ranks' wait slots. The atomic flag
/// makes the fast path (healthy world) a single load; the diagnostic
/// fields are written once before the flag is published, so readers on
/// the poisoned path need no lock. The mutex only serialises racing
/// poisoners.
class PoisonState {
public:
  /// A world of \p NumRanks ranks, each with its own wait slot.
  explicit PoisonState(int NumRanks);

  /// Marks the world failed and wakes every rank. The first caller wins;
  /// later calls are ignored so the original cause is preserved.
  void poison(int FailedRank, const std::string &Reason);

  /// True once any rank has failed.
  bool poisoned() const { return Flag.load(std::memory_order_acquire); }

  /// Throws CommError when the world is poisoned; no-op otherwise.
  void check() const;

  /// Blocks world rank \p Rank until \p Done() returns true. Done() is
  /// re-evaluated after every wake(Rank) and after poison(); it must read
  /// its state under the lock that guards it, and whoever changes that
  /// state must call wake(Rank) after releasing the lock. Throws the
  /// recorded CommError when the world is poisoned and Done() is still
  /// false, so a wait whose condition was met before the failure returns
  /// normally.
  template <typename DoneFn> void waitUntil(int Rank, DoneFn Done) {
    std::atomic<std::uint32_t> &Slot = Slots[static_cast<std::size_t>(Rank)];
    for (;;) {
      // Read the count before evaluating Done(): a wake that lands after
      // the evaluation changes the count, so wait() returns at once.
      std::uint32_t Seen = Slot.load();
      if (Done())
        return;
      check();
      Slot.wait(Seen);
    }
  }

  /// Wakes world rank \p Rank to re-evaluate its wait condition.
  void wake(int Rank);

private:
  std::atomic<bool> Flag{false};
  /// Written before Flag is published, immutable after: readers that
  /// observed poisoned() may read them without the mutex.
  int FailedRank = -1;
  std::string Reason;
  std::mutex Mutex;

  /// Event count per world rank, bumped by every wake of that rank.
  std::vector<std::atomic<std::uint32_t>> Slots;
};

} // namespace fupermod

#endif // FUPERMOD_MPP_POISON_H
