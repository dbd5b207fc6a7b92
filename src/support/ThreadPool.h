//===-- support/ThreadPool.h - Fixed-size worker pool -----------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worker threads behind parallelFor(), which spreads the
/// embarrassingly parallel stages of the FuPerMod pipeline (the
/// measurement campaign's devices, the simulated ranks' real arithmetic)
/// over the calling thread plus a pool's workers. A pool runs only the
/// helper tasks parallelFor() queues on it; a body's exception reaches
/// parallelFor()'s caller, never a worker.
///
/// hostPool() is the one pool the whole process shares for those stages.
///
/// The destructor lets each worker finish the task it is running, drops
/// the helpers still queued (parallelFor() never waits for a helper that
/// has not started, so nothing waits for them) and joins the workers.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_SUPPORT_THREADPOOL_H
#define FUPERMOD_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fupermod {

/// Fixed set of worker threads draining a FIFO queue of parallelFor()
/// helper tasks.
class ThreadPool {
public:
  /// Spawns \p Workers threads (at least one).
  explicit ThreadPool(unsigned Workers);

  /// Finishes the tasks already running, drops the queued ones and joins
  /// the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of worker threads.
  unsigned workerCount() const { return static_cast<unsigned>(Threads.size()); }

private:
  friend void parallelFor(ThreadPool &Pool, std::size_t Count,
                          const std::function<void(std::size_t)> &Body);

  void enqueue(std::function<void()> Task);
  void workerLoop();

  std::vector<std::thread> Threads;
  std::deque<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable WakeWorker;
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
