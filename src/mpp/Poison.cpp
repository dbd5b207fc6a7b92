//===-- mpp/Poison.cpp - World failure and rank waits ---------------------===//

#include "mpp/Poison.h"

using namespace fupermod;

PoisonState::PoisonState(int NumRanks)
    : Slots(static_cast<std::size_t>(NumRanks)) {}

void PoisonState::poison(int InFailedRank, const std::string &InReason) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Flag.load(std::memory_order_relaxed))
      return; // First failure wins.
    // Diagnostics first, then the release store: a reader that sees the
    // flag is guaranteed to see them, so check() needs no lock.
    FailedRank = InFailedRank;
    Reason = InReason;
    Flag.store(true, std::memory_order_release);
  }
  for (std::size_t R = 0; R < Slots.size(); ++R)
    wake(static_cast<int>(R));
}

void PoisonState::check() const {
  if (poisoned())
    throw CommError(FailedRank, "rank " + std::to_string(FailedRank) +
                                    " failed: " + Reason);
}

void PoisonState::wake(int Rank) {
  std::atomic<std::uint32_t> &Slot = Slots[static_cast<std::size_t>(Rank)];
  Slot.fetch_add(1);
  Slot.notify_all();
}
