//===-- support/ThreadPool.cpp - Fixed-size worker pool -------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>

using namespace fupermod;

ThreadPool::ThreadPool(unsigned Workers) {
  if (Workers == 0)
    Workers = 1;
  Threads.reserve(Workers);
  for (unsigned I = 0; I < Workers; ++I)
    Threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() { shutdownNow(); }

void ThreadPool::enqueue(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Stopping)
      throw std::runtime_error("ThreadPool: submit after shutdown");
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
      // Stopping only ends a worker once the queue is dry: every task
      // queued before shutdown() still runs (clean shutdown).
      if (Queue.empty())
        return;
      Task = std::move(Queue.front());
      Queue.pop_front();
      ++Running;
    }
    // A packaged_task captures any exception into its future, and
    // parallelFor's helpers catch their own, so Task() never throws out
    // of the worker.
    Task();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      --Running;
    }
    Idle.notify_all();
  }
}

void ThreadPool::drain() {
  std::unique_lock<std::mutex> Lock(Mutex);
  Idle.wait(Lock, [this] { return Queue.empty() && Running == 0; });
}

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Stopping && Threads.empty())
      return;
    Stopping = true;
  }
  WakeWorker.notify_all();
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();
  Threads.clear();
}

void ThreadPool::shutdownNow() {
  // Pull the pending tasks out before stopping so no worker can start
  // them; destroying the callables below destroys their packaged_tasks,
  // which completes every associated future with broken_promise.
  std::deque<std::function<void()>> Cancelled;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Stopping && Threads.empty() && Queue.empty())
      return;
    Cancelled.swap(Queue);
    Stopping = true;
  }
  WakeWorker.notify_all();
  Cancelled.clear(); // Break the promises before joining: a task that is
                     // blocked waiting on a sibling's future wakes up and
                     // can finish, so the joins below cannot deadlock.
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();
  Threads.clear();
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
    // A stopped pool takes no helpers; the caller's lane below still
    // claims every index the queued helpers do not.
  }
  Loop->drain();
  std::unique_lock<std::mutex> Lock(Loop->Mutex);
  Loop->AllDone.wait(Lock, [&] { return Loop->Finished == Count; });
  if (Loop->Error)
    std::rethrow_exception(Loop->Error);
}
