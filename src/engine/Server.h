//===-- engine/Server.h - Concurrent partition service ----------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent, overload-safe service layer over engine::Session: N
/// worker threads draining a bounded request queue, answering partition
/// requests through Session::partitionRendered() (which is thread-safe
/// and epoch-stamped, so hot reloads are atomic with respect to
/// in-flight solves). The server keeps no cache of its own: a repeat
/// request is answered from the session's per-(algorithm, total) memo,
/// which replays the rendered reply while the model epoch is unchanged.
/// The server never falls over under load — it degrades in structured,
/// observable ways:
///
///   admission control   submit() on a full queue (or after shutdown
///                       begins) resolves immediately with a
///                       Rejected{queue_full | shutting_down} response
///                       instead of growing the queue without bound;
///   deadlines           a request may carry a latency budget; it is
///                       enforced when the request is dequeued and again
///                       after the solve, yielding Rejected{deadline}
///                       rather than a late answer nobody wants.
///
/// Every submitted request receives exactly one response — Ok, Error, or
/// a structured rejection — and shutdown() drains: requests already
/// admitted to the queue are answered before the workers join.
///
//======---------------------------------------------------------------===//

#ifndef FUPERMOD_ENGINE_SERVER_H
#define FUPERMOD_ENGINE_SERVER_H

#include "engine/Session.h"
#include "support/BoundedQueue.h"

#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace fupermod {
namespace engine {

/// Why a request was shed instead of answered.
enum class RejectReason {
  QueueFull,    ///< Admission control: the bounded queue was at capacity.
  Deadline,     ///< The request's latency budget expired before/while solving.
  ShuttingDown, ///< The server no longer accepts work.
};

/// Stable wire/JSON name of a rejection ("queue_full", "deadline",
/// "shutting_down").
const char *rejectReasonName(RejectReason Reason);

/// One partition request to the server.
struct ServerRequest {
  /// Units to partition (must be positive).
  std::int64_t Total = 0;
  /// Algorithm name; empty = the session default.
  std::string Algorithm;
  /// Per-request latency budget; zero means the server default (and a
  /// zero default means no deadline at all).
  std::chrono::nanoseconds Timeout{0};
};

/// Exactly one of these resolves every submitted request.
struct ServerResponse {
  enum class Kind {
    Ok,       ///< Reply holds the partition.
    Rejected, ///< Shed with a structured reason; no partition attempted
              ///< (or its result discarded on deadline expiry).
    Error,    ///< The solve itself failed; Message holds the diagnostic.
  };
  Kind K = Kind::Error;
  /// Valid when K == Rejected.
  RejectReason Reason = RejectReason::QueueFull;
  /// Diagnostic when K == Error.
  std::string Message;
  /// The partition reply (dist + epoch + rendered text) when K == Ok;
  /// Reply.Memoized marks a replay from the session's memo.
  PartitionReply Reply;
  /// submit() -> response latency as measured by the server.
  double LatencySeconds = 0.0;
};

/// Lifetime counters; every submitted request lands in exactly one of
/// Answered / Errors / ShedQueueFull / ShedDeadline / ShedShutdown.
struct ServerStats {
  std::uint64_t Submitted = 0;
  std::uint64_t Answered = 0;
  std::uint64_t Errors = 0;
  std::uint64_t ShedQueueFull = 0;
  std::uint64_t ShedDeadline = 0;
  std::uint64_t ShedShutdown = 0;
  /// Always 0: identical requests in flight are each passed to the
  /// session, whose memo answers the repeats. The field stays until the
  /// benchmark that reads it stops reporting a coalesced ratio.
  std::uint64_t Coalesced = 0;
  /// Requests passed to Session::partitionRendered(), and the replies
  /// that came back Memoized (also counted in Answered or ShedDeadline).
  std::uint64_t CacheLookups = 0;
  std::uint64_t CacheHits = 0;
  /// Models hot-reloaded through reload().
  std::uint64_t Reloads = 0;
};

struct ServerConfig {
  /// Worker threads draining the queue (at least 1).
  int Workers = 4;
  /// Bounded queue capacity; submissions beyond it are shed.
  std::size_t QueueCapacity = 256;
  /// Default latency budget for requests that carry none; zero = no
  /// deadline. Must fit std::chrono::nanoseconds.
  std::chrono::milliseconds DefaultDeadline{0};
  /// Artificial per-solve delay — test/bench instrumentation that
  /// stands in for a slow solve, to make queue-full shedding and
  /// deadline expiry deterministic on fast machines. It applies only
  /// when the session actually solved, so memo replays stay free. Zero
  /// in production.
  std::chrono::microseconds SolveDelay{0};
};

/// The server. Owns its worker threads; the Session must outlive it.
/// While a server is running, the session's partition/refresh/feedback
/// calls are safe from any thread, but structural mutations that replace
/// the slot vector (loadModels, measure*) must not race active serving.
class Server {
public:
  Server(Session &S, ServerConfig Config);

  /// shutdown() — drains admitted requests, then joins.
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Submits one request. Never blocks: on a full queue or after
  /// shutdown began, the returned future resolves immediately with a
  /// structured rejection. Otherwise it resolves once a worker answers.
  std::future<ServerResponse> submit(ServerRequest Req);

  /// Hot-reloads the session's file-backed models (atomic with respect
  /// to in-flight solves; the epoch bump retires every memoized reply).
  /// Returns the number of models reloaded.
  Result<int> reload();

  /// Stops intake (new submissions are rejected with shutting_down),
  /// answers every request already admitted to the queue, then joins the
  /// workers. Idempotent.
  void shutdown();

  /// Snapshot of the lifetime counters.
  ServerStats stats() const;

  const ServerConfig &config() const { return Config; }

  /// The session this server answers from (for warning drains and
  /// model introspection; it is thread-safe).
  Session &session() { return S; }

private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    ServerRequest Req;
    Clock::time_point Submitted;
    Clock::time_point Deadline; // Meaningful only when HasDeadline.
    bool HasDeadline = false;
    std::promise<ServerResponse> Promise;
  };

  void workerLoop();
  void answer(Job &&J);
  /// Resolves \p J with \p R, stamping latency and bumping the counters.
  void resolve(Job &&J, ServerResponse R);
  static ServerResponse rejected(RejectReason Reason);

  Session &S;
  const ServerConfig Config;
  BoundedQueue<Job> Queue;
  std::vector<std::thread> Workers;

  mutable std::mutex StatsMutex;
  ServerStats Stats;

  std::mutex ShutdownMutex;
  bool ShuttingDown = false;
};

} // namespace engine
} // namespace fupermod

#endif // FUPERMOD_ENGINE_SERVER_H
