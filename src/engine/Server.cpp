//===-- engine/Server.cpp - Concurrent partition service ------------------===//

#include "engine/Server.h"

#include <algorithm>
#include <future>
#include <thread>
#include <utility>

using namespace fupermod;
using namespace fupermod::engine;

const char *fupermod::engine::rejectReasonName(RejectReason Reason) {
  switch (Reason) {
  case RejectReason::QueueFull:
    return "queue_full";
  case RejectReason::Deadline:
    return "deadline";
  case RejectReason::ShuttingDown:
    return "shutting_down";
  }
  return "unknown";
}

Server::Server(Session &S, ServerConfig Config)
    : S(S), Config([&] {
        ServerConfig C = Config;
        C.Workers = std::max(1, C.Workers);
        return C;
      }()),
      Queue(this->Config.QueueCapacity) {
  Workers.reserve(static_cast<std::size_t>(this->Config.Workers));
  for (int I = 0; I < this->Config.Workers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

Server::~Server() { shutdown(); }

ServerResponse Server::rejected(RejectReason Reason) {
  ServerResponse R;
  R.K = ServerResponse::Kind::Rejected;
  R.Reason = Reason;
  R.Message = rejectReasonName(Reason);
  return R;
}

std::future<ServerResponse> Server::submit(ServerRequest Req) {
  Job J;
  J.Req = std::move(Req);
  J.Submitted = Clock::now();
  std::chrono::nanoseconds Budget =
      J.Req.Timeout.count() > 0
          ? J.Req.Timeout
          : std::chrono::nanoseconds(Config.DefaultDeadline);
  // A budget that reaches past the clock's range can never expire.
  if (Budget.count() > 0 && Budget < Clock::time_point::max() - J.Submitted) {
    J.HasDeadline = true;
    J.Deadline = J.Submitted + Budget;
  }
  std::future<ServerResponse> Out = J.Promise.get_future();
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.Submitted;
  }
  switch (Queue.tryPush(std::move(J))) {
  case QueuePush::Ok:
    break;
  case QueuePush::Full:
    resolve(std::move(J), rejected(RejectReason::QueueFull));
    break;
  case QueuePush::Closed:
    resolve(std::move(J), rejected(RejectReason::ShuttingDown));
    break;
  }
  return Out;
}

void Server::workerLoop() {
  // pop() returns nullopt only once the queue is closed *and* drained,
  // so every admitted request is answered before the worker exits.
  while (std::optional<Job> J = Queue.pop())
    answer(std::move(*J));
}

void Server::resolve(Job &&J, ServerResponse R) {
  R.LatencySeconds =
      std::chrono::duration<double>(Clock::now() - J.Submitted).count();
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    switch (R.K) {
    case ServerResponse::Kind::Ok:
      ++Stats.Answered;
      break;
    case ServerResponse::Kind::Error:
      ++Stats.Errors;
      break;
    case ServerResponse::Kind::Rejected:
      switch (R.Reason) {
      case RejectReason::QueueFull:
        ++Stats.ShedQueueFull;
        break;
      case RejectReason::Deadline:
        ++Stats.ShedDeadline;
        break;
      case RejectReason::ShuttingDown:
        ++Stats.ShedShutdown;
        break;
      }
      break;
    }
  }
  J.Promise.set_value(std::move(R));
}

void Server::answer(Job &&J) {
  // Deadline at dequeue: a request that waited out its budget in the
  // queue is shed before any solve work is spent on it.
  if (J.HasDeadline && Clock::now() > J.Deadline) {
    resolve(std::move(J), rejected(RejectReason::Deadline));
    return;
  }

  Result<PartitionReply> Solved =
      S.partitionRendered(J.Req.Total, J.Req.Algorithm);
  bool Memoized = Solved.ok() && Solved.value().Memoized;
  if (!Memoized && Config.SolveDelay.count() > 0)
    std::this_thread::sleep_for(Config.SolveDelay);
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.CacheLookups;
    if (Memoized)
      ++Stats.CacheHits;
  }

  // Deadline after the solve: a request whose budget expired while it
  // was being solved is shed, not answered late.
  if (J.HasDeadline && Clock::now() > J.Deadline) {
    resolve(std::move(J), rejected(RejectReason::Deadline));
    return;
  }
  ServerResponse R;
  if (Solved.ok()) {
    R.K = ServerResponse::Kind::Ok;
    R.Reply = std::move(Solved.value());
  } else {
    R.K = ServerResponse::Kind::Error;
    R.Message = Solved.error();
  }
  resolve(std::move(J), std::move(R));
}

Result<int> Server::reload() {
  Result<int> R = S.refreshModels();
  if (R.ok() && R.value() > 0) {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    Stats.Reloads += static_cast<std::uint64_t>(R.value());
  }
  return R;
}

void Server::shutdown() {
  std::lock_guard<std::mutex> Lock(ShutdownMutex);
  if (ShuttingDown && Workers.empty())
    return;
  ShuttingDown = true;
  Queue.close();
  for (std::thread &W : Workers)
    if (W.joinable())
      W.join();
  Workers.clear();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> Lock(StatsMutex);
  return Stats;
}
