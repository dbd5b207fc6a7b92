//===-- support/ThreadPool.h - Fixed-size worker pool -----------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool used to parallelise the embarrassingly
/// parallel stages of the FuPerMod pipeline (per-device model building,
/// the simulated ranks' real arithmetic). Tasks are submitted as
/// callables and their results retrieved through std::future, so an
/// exception thrown inside a worker propagates to whoever calls get() —
/// never terminates the pool.
///
/// hostPool() is the one pool the whole process shares for the
/// measurement campaign's devices and the real arithmetic of the
/// simulated ranks, and parallelFor() spreads a loop over the calling
/// thread plus a pool's workers.
///
/// Shutdown has two flavours. An explicit shutdown() is a drain: every
/// task already queued runs to completion before the workers join. The
/// destructor is a cancel: tasks that are queued but have not started are
/// discarded, and because each queued callable owns its packaged_task,
/// discarding it completes the task's future with std::future_error
/// (broken_promise) — a waiter blocked on get() wakes with an error
/// instead of hanging forever on a future nobody will ever fulfil. The
/// task currently running on each worker always finishes either way.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_SUPPORT_THREADPOOL_H
#define FUPERMOD_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace fupermod {

/// Fixed set of worker threads draining a FIFO task queue.
class ThreadPool {
public:
  /// Spawns \p Workers threads (at least one).
  explicit ThreadPool(unsigned Workers);

  /// Cancels queued-but-unstarted tasks (their futures complete with a
  /// broken_promise error), finishes the tasks already running, and
  /// joins the workers. Use shutdown() first for drain semantics.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of worker threads.
  unsigned workerCount() const { return static_cast<unsigned>(Threads.size()); }

  /// Enqueues \p Fn and returns a future for its result. An exception
  /// escaping \p Fn is captured into the future. Submitting after
  /// shutdown() throws std::runtime_error.
  template <class F>
  auto submit(F &&Fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto Task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(Fn));
    std::future<R> Result = Task->get_future();
    enqueue([Task] { (*Task)(); });
    return Result;
  }

  /// Blocks until every queued task has started and finished. Tasks
  /// submitted while waiting extend the wait.
  void drain();

  /// Completes all queued tasks, then stops and joins the workers. Safe
  /// to call more than once.
  void shutdown();

  /// Stops without draining: discards every queued-but-unstarted task
  /// (breaking its future's promise), waits only for the tasks already
  /// running, and joins the workers. Safe to call more than once.
  void shutdownNow();

private:
  friend void parallelFor(ThreadPool &Pool, std::size_t Count,
                          const std::function<void(std::size_t)> &Body);

  void enqueue(std::function<void()> Task);
  void workerLoop();

  std::vector<std::thread> Threads;
  std::deque<std::function<void()>> Queue;
  mutable std::mutex Mutex;
  std::condition_variable WakeWorker;
  std::condition_variable Idle;
  unsigned Running = 0; // Tasks currently executing.
  bool Stopping = false;
};

/// The process-wide pool that shares the host's cores across every
/// caller, with max(2, hardware_concurrency()) - 1 workers: the thread
/// that calls parallelFor() is the extra lane. Built on first use and
/// joined at exit.
///
/// It is one pool for the whole process on purpose, not one per call or
/// per rank: glibc gives every new thread its own malloc arena, so a
/// pool built per matmul call grew perfbench's matmul-static peak RSS
/// from 24.0 to 35.1 MiB on a 4-vCPU Xeon VM (23.8 MiB with
/// MALLOC_ARENA_MAX=1).
ThreadPool &hostPool();

/// The lanes a parallelFor() on hostPool() runs on: its workers plus the
/// calling thread, max(2, hardware_concurrency()). The one place that
/// count is computed; hostPool() is sized from it.
unsigned hostLanes();

/// Runs \p Body(I) once for every I in [0, Count), on the calling thread
/// and up to min(workers, Count - 1) helper tasks of \p Pool, all claiming
/// indices from one shared counter. Returns once every claimed index has
/// finished; it never waits for a helper that has not started, so calling
/// it from inside one of \p Pool's own tasks cannot deadlock. A helper
/// that starts late finds nothing left to claim and touches nothing of
/// the caller's (the shared state is reference-counted). If \p Body
/// throws, the indices claimed after that are skipped, and the first
/// exception is rethrown here once all claimed work has finished.
void parallelFor(ThreadPool &Pool, std::size_t Count,
                 const std::function<void(std::size_t)> &Body);

} // namespace fupermod

#endif // FUPERMOD_SUPPORT_THREADPOOL_H
