//===-- support/ThreadPool.cpp - Fixed-size worker pool -------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

using namespace fupermod;

ThreadPool::ThreadPool(unsigned Workers) {
  if (Workers == 0)
    Workers = 1;
  Threads.reserve(Workers);
  for (unsigned I = 0; I < Workers; ++I)
    Threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WakeWorker.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void ThreadPool::enqueue(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Task));
  }
  WakeWorker.notify_one();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WakeWorker.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Stopping)
        return;
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    // parallelFor's helpers catch their bodies' exceptions, so Task()
    // never throws out of the worker.
    Task();
  }
}

ThreadPool &fupermod::hostPool() {
  static ThreadPool Pool(hostLanes() - 1);
  return Pool;
}

unsigned fupermod::hostLanes() {
  static const unsigned Lanes =
      std::max(2u, std::thread::hardware_concurrency());
  return Lanes;
}

namespace {

/// What the caller of parallelFor shares with its helpers. Owned jointly,
/// so a helper that starts after the caller returned still finds it.
struct ForLoop {
  std::atomic<std::size_t> Next{0};
  std::size_t Count = 0;
  /// The caller's body; dereferenced only by whoever claimed an index,
  /// which the caller waits for.
  const std::function<void(std::size_t)> *Body = nullptr;
  std::atomic<bool> Failed{false};
  std::mutex Mutex;
  std::condition_variable AllDone;
  std::size_t Finished = 0; // Guarded by Mutex.
  std::exception_ptr Error; // Guarded by Mutex; the first failure.

  /// Claims and runs indices until none are left, then reports how many
  /// this lane finished.
  void drain() {
    std::size_t Done = 0;
    for (std::size_t I = Next.fetch_add(1); I < Count;
         I = Next.fetch_add(1), ++Done) {
      if (Failed.load())
        continue;
      try {
        (*Body)(I);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(Mutex);
        if (!Error)
          Error = std::current_exception();
        Failed.store(true);
      }
    }
    if (Done == 0)
      return;
    std::lock_guard<std::mutex> Lock(Mutex);
    Finished += Done;
    if (Finished == Count)
      AllDone.notify_all();
  }
};

} // namespace

void fupermod::parallelFor(ThreadPool &Pool, std::size_t Count,
                           const std::function<void(std::size_t)> &Body) {
  if (Count == 0)
    return;
  auto Loop = std::make_shared<ForLoop>();
  Loop->Count = Count;
  Loop->Body = &Body;
  std::size_t Helpers =
      std::min<std::size_t>(Pool.workerCount(), Count - 1);
  try {
    for (std::size_t H = 0; H < Helpers; ++H)
      Pool.enqueue([Loop] { Loop->drain(); });
  } catch (...) {
    // A helper that could not be queued claims nothing; the caller's lane
    // below still claims every index the queued helpers do not.
  }
  Loop->drain();
  std::unique_lock<std::mutex> Lock(Loop->Mutex);
  Loop->AllDone.wait(Lock, [&] { return Loop->Finished == Count; });
  // Take the error out of the shared state before rethrowing it, so the
  // exception object is released on this thread: a helper that returns
  // late may destroy the shared state on its own, and ThreadSanitizer
  // cannot see the reference count (kept in the uninstrumented C++
  // runtime) that orders that release after the caller's handler.
  if (std::exception_ptr Error = std::exchange(Loop->Error, nullptr))
    std::rethrow_exception(Error);
}
