//===-- tests/ThreadPoolTest.cpp - worker pool unit tests -----------------===//
//
// The pool's contract is pinned here: results arrive through futures
// regardless of execution order, worker exceptions surface at
// future.get() (not std::terminate), and explicit shutdown() completes
// every queued task before joining — no abandoned futures. The
// destructor, by contrast, cancels queued-but-unstarted tasks: their
// futures complete with broken_promise instead of hanging any waiter
// forever.
//
// parallelFor, which the measurement campaign and the matmul ranks share
// the host pool through, runs every index exactly once even with several
// callers on one pool, rethrows a body's exception only after all claimed
// work has finished, and never waits for a helper that has not started.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace fupermod;

TEST(ThreadPool, ResultsIndependentOfExecutionOrder) {
  ThreadPool Pool(4);
  std::vector<std::future<int>> Futures;
  for (int I = 0; I < 100; ++I)
    Futures.push_back(Pool.submit([I] {
      if (I % 7 == 0) // Stagger some tasks so completion order scrambles.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return I * I;
    }));
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Futures[static_cast<std::size_t>(I)].get(), I * I);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool Pool(2);
  std::future<int> Bad = Pool.submit(
      []() -> int { throw std::runtime_error("device exploded"); });
  std::future<int> Good = Pool.submit([] { return 42; });
  EXPECT_THROW(
      {
        try {
          Bad.get();
        } catch (const std::runtime_error &E) {
          EXPECT_STREQ(E.what(), "device exploded");
          throw;
        }
      },
      std::runtime_error);
  // A thrown task must not poison the pool for its siblings.
  EXPECT_EQ(Good.get(), 42);
}

TEST(ThreadPool, ShutdownCompletesQueuedTasks) {
  std::atomic<int> Completed{0};
  std::vector<std::future<void>> Futures;
  {
    // One worker and 50 slow-ish tasks: most are still queued when
    // shutdown() runs, and shutdown() must drain them all.
    ThreadPool Pool(1);
    for (int I = 0; I < 50; ++I)
      Futures.push_back(Pool.submit([&Completed] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        Completed.fetch_add(1, std::memory_order_relaxed);
      }));
    Pool.shutdown();
  }
  EXPECT_EQ(Completed.load(), 50);
  for (std::future<void> &F : Futures)
    EXPECT_NO_THROW(F.get()); // Every future was fulfilled, none dropped.
}

TEST(ThreadPool, DestructorBreaksQueuedPromises) {
  // Destroying the pool without an explicit shutdown() cancels tasks
  // that never started: their futures must complete with broken_promise
  // rather than leave a waiter blocked forever. The task already running
  // still finishes (the worker is joined, not killed).
  std::promise<void> Release;
  std::shared_future<void> Gate = Release.get_future().share();
  std::atomic<bool> FirstRan{false};
  std::future<void> Running;
  std::vector<std::future<int>> Queued;
  // The gate opens only after a delay, so the destructor below runs
  // while the lone worker is still parked inside the first task and the
  // 8 queued tasks are untouched. The destructor cancels the queue
  // BEFORE joining, so the join then completes once the gate opens.
  std::thread Opener;
  {
    ThreadPool Pool(1);
    Running = Pool.submit([&FirstRan, Gate] {
      FirstRan.store(true, std::memory_order_release);
      Gate.wait(); // Hold the only worker until the queue has backlog.
    });
    while (!FirstRan.load(std::memory_order_acquire))
      std::this_thread::yield();
    for (int I = 0; I < 8; ++I)
      Queued.push_back(Pool.submit([I] { return I; }));
    Opener = std::thread([&Release] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      Release.set_value();
    });
    // Pool destructor runs here with (up to) 8 tasks still queued.
  }
  Opener.join();
  EXPECT_NO_THROW(Running.get());
  int Cancelled = 0;
  for (std::future<int> &F : Queued) {
    try {
      (void)F.get(); // Tasks that squeezed in before cancellation.
    } catch (const std::future_error &E) {
      EXPECT_EQ(E.code(), std::future_errc::broken_promise);
      ++Cancelled;
    }
  }
  // The worker was parked on the gate while all 8 were queued, so the
  // destructor saw a non-empty queue; at least the tail is cancelled.
  EXPECT_GT(Cancelled, 0);
}

TEST(ThreadPool, DrainWaitsForInFlightWork) {
  ThreadPool Pool(3);
  std::atomic<int> Completed{0};
  for (int I = 0; I < 30; ++I)
    Pool.submit([&Completed] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      Completed.fetch_add(1, std::memory_order_relaxed);
    });
  Pool.drain();
  EXPECT_EQ(Completed.load(), 30);
  // The pool stays usable after a drain.
  EXPECT_EQ(Pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool Pool(2);
  Pool.shutdown();
  EXPECT_THROW(Pool.submit([] { return 1; }), std::runtime_error);
}

TEST(ThreadPool, WorkerCountClampedToAtLeastOne) {
  ThreadPool Pool(0);
  EXPECT_GE(Pool.workerCount(), 1u);
  EXPECT_EQ(Pool.submit([] { return 3; }).get(), 3);
}

TEST(ParallelFor, EveryIndexRunsExactlyOnceUnderConcurrentCallers) {
  // Three callers share one pool, as the matmul rank threads share the
  // host pool; every count from empty to many indices per lane.
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
  // The only worker runs the caller, so the helper it queues cannot start
  // until the call returns: the caller must claim every index itself.
  std::atomic<int> Ran{0};
  ThreadPool Pool(1);
  std::future<void> Outer = Pool.submit([&] {
    parallelFor(Pool, 100, [&](std::size_t) { Ran.fetch_add(1); });
  });
  ASSERT_EQ(Outer.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  Outer.get();
  EXPECT_EQ(Ran.load(), 100);
}

TEST(ParallelFor, HostPoolLeavesTheCallerALane) {
  unsigned Hw = std::thread::hardware_concurrency();
  EXPECT_EQ(hostPool().workerCount(), std::max(2u, Hw) - 1);
  EXPECT_EQ(&hostPool(), &hostPool());
}
