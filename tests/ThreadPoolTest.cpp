//===-- tests/ThreadPoolTest.cpp - worker pool unit tests -----------------===//
//
// A ThreadPool is the worker set behind parallelFor, which the
// measurement campaign and the matmul ranks share the host pool through.
// parallelFor runs every index exactly once even with several callers on
// one pool, rethrows a body's exception only after all claimed work has
// finished, and never waits for a helper that has not started, so a call
// from inside one of the pool's own tasks returns.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace fupermod;

TEST(ThreadPool, WorkerCountClampedToAtLeastOne) {
  // A pool asked for no workers still gets one: while the caller's lane
  // holds one of the two indices, the other can only run on a worker.
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.workerCount(), 1u);
  const std::thread::id Caller = std::this_thread::get_id();
  std::atomic<int> Started{0};
  std::atomic<bool> WorkerRan{false};
  parallelFor(Pool, 2, [&](std::size_t) {
    if (std::this_thread::get_id() != Caller)
      WorkerRan.store(true);
    Started.fetch_add(1);
    auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (Started.load() < 2 && std::chrono::steady_clock::now() < Deadline)
      std::this_thread::yield();
  });
  EXPECT_TRUE(WorkerRan.load());
}

TEST(ParallelFor, EveryIndexRunsExactlyOnceUnderConcurrentCallers) {
  // Three callers share one pool, as threads that each run a campaign or
  // a matmul share the host pool; every count from empty to many indices
  // per lane.
  ThreadPool Pool(3);
  const std::size_t Workers = Pool.workerCount();
  std::vector<std::thread> Callers;
  std::vector<std::string> Failures(3);
  for (std::size_t T = 0; T < 3; ++T)
    Callers.emplace_back([&, T] {
      for (std::size_t Count : {std::size_t{0}, std::size_t{1}, Workers,
                                100 * Workers}) {
        std::vector<std::atomic<int>> Hits(Count);
        parallelFor(Pool, Count, [&](std::size_t I) {
          Hits[I].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t I = 0; I < Count; ++I)
          if (Hits[I].load() != 1 && Failures[T].empty())
            Failures[T] = "caller " + std::to_string(T) + ": index " +
                          std::to_string(I) + " of " +
                          std::to_string(Count) + " ran " +
                          std::to_string(Hits[I].load()) + " times";
      }
    });
  for (std::thread &C : Callers)
    C.join();
  for (const std::string &F : Failures)
    EXPECT_TRUE(F.empty()) << F;
}

TEST(ParallelFor, ExceptionArrivesAfterAllClaimedWorkFinished) {
  // Index 0 throws once two other indices are running, so helpers are
  // still busy when the failure is recorded; the caller must not rethrow
  // until they are done.
  // The counters outlive the pool, whose destructor joins the workers.
  std::atomic<int> Started{0}, Finished{0};
  ThreadPool Pool(3);
  auto Body = [&](std::size_t I) {
    if (I == 0) {
      auto Deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (Started.load() < 2 && std::chrono::steady_clock::now() < Deadline)
        std::this_thread::yield();
      throw std::runtime_error("band 0 failed");
    }
    Started.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Finished.fetch_add(1);
  };
  try {
    parallelFor(Pool, 16, Body);
    ADD_FAILURE() << "parallelFor swallowed the exception";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "band 0 failed");
    EXPECT_GE(Started.load(), 2);
    EXPECT_EQ(Finished.load(), Started.load());
  }
}

TEST(ParallelFor, CallFromInsidePoolTaskReturns) {
  // Every outer body calls parallelFor on the same pool. The caller's
  // lane holds its first body until the only worker has started one, so
  // at least one nested call runs on that worker: the helper it queues
  // cannot start until the call returns, so the call must claim every
  // index itself.
  ThreadPool Pool(1);
  const std::size_t Outer = 16, Inner = 100;
  const std::thread::id Caller = std::this_thread::get_id();
  std::atomic<bool> WorkerStarted{false};
  std::atomic<std::size_t> Ran{0}, Returned{0};
  parallelFor(Pool, Outer, [&](std::size_t) {
    if (std::this_thread::get_id() != Caller) {
      WorkerStarted.store(true);
    } else {
      auto Deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!WorkerStarted.load() &&
             std::chrono::steady_clock::now() < Deadline)
        std::this_thread::yield();
    }
    parallelFor(Pool, Inner, [&](std::size_t) { Ran.fetch_add(1); });
    Returned.fetch_add(1);
  });
  EXPECT_TRUE(WorkerStarted.load());
  EXPECT_EQ(Returned.load(), Outer);
  EXPECT_EQ(Ran.load(), Outer * Inner);
}

TEST(ParallelFor, HostPoolLeavesTheCallerALane) {
  unsigned Hw = std::thread::hardware_concurrency();
  EXPECT_EQ(hostPool().workerCount(), std::max(2u, Hw) - 1);
  EXPECT_EQ(&hostPool(), &hostPool());
}
