//===-- mpp/Runtime.cpp - SPMD runtime ------------------------------------===//

#include "mpp/Runtime.h"

#include "mpp/Group.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#define FUPERMOD_HAVE_PTHREAD_STACKS 1
#include <pthread.h>
#endif

using namespace fupermod;

double SpmdResult::makespan() const {
  double Max = 0.0;
  for (double T : FinalTimes)
    Max = std::max(Max, T);
  return Max;
}

bool SpmdResult::allOk() const {
  for (const RankStatus &S : Ranks)
    if (!S.Ok)
      return false;
  return true;
}

int SpmdResult::firstFailedRank() const {
  for (std::size_t R = 0; R < Ranks.size(); ++R)
    if (!Ranks[R].Ok)
      return static_cast<int>(R);
  return -1;
}

namespace {

/// One rank's worker thread. std::thread offers no stack-size control,
/// so a thread with a given stack size is spawned through pthreads;
/// otherwise — including on non-POSIX hosts — it falls back to
/// std::thread and the platform default.
class RankThread {
public:
  RankThread(std::function<void()> Fn, std::size_t StackBytes) {
#ifdef FUPERMOD_HAVE_PTHREAD_STACKS
    if (StackBytes != 0) {
      pthread_attr_t Attr;
      if (pthread_attr_init(&Attr) != 0)
        throw std::runtime_error("runSpmd: pthread_attr_init failed");
      pthread_attr_setstacksize(&Attr, StackBytes);
      auto Start = std::make_unique<std::function<void()>>(std::move(Fn));
      int Err = pthread_create(&Handle, &Attr, &RankThread::run,
                               Start.get());
      pthread_attr_destroy(&Attr);
      if (Err != 0)
        throw std::runtime_error(
            "runSpmd: pthread_create failed (too many threads?)");
      Start.release(); // run() owns it now.
      UsePthread = true;
      return;
    }
#else
    (void)StackBytes;
#endif
    Fallback = std::thread(std::move(Fn));
  }

  void join() {
#ifdef FUPERMOD_HAVE_PTHREAD_STACKS
    if (UsePthread) {
      pthread_join(Handle, nullptr);
      return;
    }
#endif
    Fallback.join();
  }

private:
#ifdef FUPERMOD_HAVE_PTHREAD_STACKS
  static void *run(void *Arg) {
    std::unique_ptr<std::function<void()>> Fn(
        static_cast<std::function<void()> *>(Arg));
    (*Fn)();
    return nullptr;
  }

  pthread_t Handle{};
  bool UsePthread = false;
#endif
  std::thread Fallback;
};

} // namespace

SpmdResult fupermod::runSpmd(int NumRanks,
                             const std::function<void(Comm &)> &Body,
                             std::shared_ptr<const CostModel> Cost,
                             const SpmdOptions &Options) {
  if (NumRanks <= 0)
    throw std::invalid_argument(
        "runSpmd: NumRanks must be positive, got " +
        std::to_string(NumRanks));
  if (!Cost)
    Cost = std::make_shared<FreeCostModel>();

  // Default stacks below 512 ranks, 1 MiB from there up so thousand-rank
  // worlds fit comfortably in memory.
  std::size_t StackBytes = NumRanks >= 512 ? std::size_t{1} << 20 : 0;

  std::vector<int> Identity(static_cast<std::size_t>(NumRanks));
  std::iota(Identity.begin(), Identity.end(), 0);
  auto World = std::make_shared<Group>(std::move(Cost), Identity, Identity,
                                       nullptr, nullptr,
                                       Options.TwoLevelMinRanks);

  std::vector<VirtualClock> Clocks(static_cast<std::size_t>(NumRanks));
  std::vector<RankStatus> Statuses(static_cast<std::size_t>(NumRanks));
  std::vector<RankThread> Threads;
  Threads.reserve(static_cast<std::size_t>(NumRanks));
  for (int R = 0; R < NumRanks; ++R) {
    auto RankMain = [&, R] {
      Comm C(World, R, &Clocks[static_cast<std::size_t>(R)]);
      RankStatus &Status = Statuses[static_cast<std::size_t>(R)];
      try {
        Body(C);
      } catch (const CommError &E) {
        // Secondary failure: this rank observed a peer's death. The
        // world is already poisoned.
        Status.Ok = false;
        Status.Error = E.what();
      } catch (const std::exception &E) {
        // Primary failure: poison the world so peers blocked on this
        // rank get a CommError instead of deadlocking.
        World->poison().poison(R, E.what());
        Status.Ok = false;
        Status.Error = E.what();
      } catch (...) {
        World->poison().poison(R, "unknown exception");
        Status.Ok = false;
        Status.Error = "unknown exception";
      }
    };
    try {
      Threads.emplace_back(RankMain, StackBytes);
    } catch (...) {
      // Could not spawn rank R: poison the world so the already-running
      // ranks drain out with CommErrors (instead of waiting forever for
      // a rank that never starts), join them, then report the failure.
      World->poison().poison(R, "rank thread creation failed");
      for (RankThread &T : Threads)
        T.join();
      throw;
    }
  }
  for (RankThread &T : Threads)
    T.join();

  SpmdResult Result;
  Result.FinalTimes.reserve(Clocks.size());
  for (const auto &C : Clocks)
    Result.FinalTimes.push_back(C.now());
  Result.Ranks = std::move(Statuses);
  Result.Comm = World->statsSnapshot();
  return Result;
}
