//===-- tests/ServerStressTest.cpp - concurrent service stress tests ------===//
//
// Pins the engine::Server contract under contention (these run under the
// TSan job as well as tier-1; see tests/CMakeLists.txt):
//
//   * every submitted request resolves exactly one future — Ok, Error,
//     or a structured rejection; nothing is lost or answered twice;
//   * concurrent answers are bit-identical to what a serial Session
//     produces for the same request;
//   * hot-reload churn never corrupts an in-flight solve (epoch
//     atomicity): every Ok reply is internally consistent;
//   * overload sheds with Rejected{queue_full}, deadlines expire as
//     Rejected{deadline}, shutdown rejects new work as
//     Rejected{shutting_down} while draining admitted requests;
//   * repeats of one request are replays of the session's memoized
//     reply, all byte-identical, and the server counts every replay.
//
// The host may have a single CPU, so these tests assert correctness
// invariants, never parallel speedups; ServerConfig::SolveDelay widens
// the in-flight windows to make shedding deterministic.
//
//===----------------------------------------------------------------------===//

#include "engine/Server.h"
#include "engine/Session.h"
#include "core/ModelIO.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace fupermod;
using namespace fupermod::engine;

namespace {

Point makePoint(double Units, double Time, int Reps = 3) {
  Point P;
  P.Units = Units;
  P.Time = Time;
  P.Reps = Reps;
  P.ConfidenceInterval = 0.01;
  return P;
}

/// Writes a fitted model file whose speed is \p UnitsPerSec.
void writeModelFile(const std::string &Path, double UnitsPerSec) {
  auto M = makeModel("piecewise");
  for (int I = 1; I <= 4; ++I)
    M->update(makePoint(100.0 * I, 100.0 * I / UnitsPerSec));
  ASSERT_TRUE(fupermod::saveModel(Path, *M));
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "/" + Name;
}

/// A session loaded over freshly written model files. Paths are
/// returned through \p PathsOut for churn tests that rewrite them and
/// for tests that must load a second session over the same files.
std::unique_ptr<Session> makeServedSession(const std::string &Tag,
                                           std::vector<std::string> *PathsOut,
                                           int Ranks = 3) {
  SessionConfig Cfg;
  auto SR = Session::create(std::move(Cfg));
  EXPECT_TRUE(SR.ok()) << SR.error();
  std::vector<std::string> Paths;
  for (int R = 0; R < Ranks; ++R) {
    Paths.push_back(tempPath("srvstress_" + Tag + std::to_string(R) + ".fpm"));
    writeModelFile(Paths.back(), 300.0 * (R + 1));
  }
  EXPECT_TRUE(SR.value()->loadModels(Paths).ok());
  if (PathsOut)
    *PathsOut = Paths;
  return std::move(SR.value());
}

/// A second session over files already written by makeServedSession.
std::unique_ptr<Session> loadSession(const std::vector<std::string> &Paths) {
  SessionConfig Cfg;
  auto SR = Session::create(std::move(Cfg));
  EXPECT_TRUE(SR.ok()) << SR.error();
  EXPECT_TRUE(SR.value()->loadModels(Paths).ok());
  return std::move(SR.value());
}

/// Total units an Ok reply hands out, parsed back from its Dist.
std::int64_t distSum(const ServerResponse &R) {
  std::int64_t Sum = 0;
  for (const auto &P : R.Reply.D.Parts)
    Sum += P.Units;
  return Sum;
}

} // namespace

TEST(ServerStress, BitIdenticalToSerial) {
  // A serial session and a concurrent server answer the same mixed
  // batch; every concurrent reply must match the serial text byte for
  // byte (no churn, so the epoch is stable).
  std::vector<std::string> Paths;
  auto Serial = makeServedSession("ident_", &Paths);
  std::unique_ptr<Session> Conc = loadSession(Paths);

  struct Case {
    std::int64_t Total;
    std::string Algorithm;
  };
  std::vector<Case> Cases;
  for (int I = 0; I < 32; ++I) {
    Case C;
    C.Total = 500 + (I % 6) * 333;
    if (I % 3 == 1)
      C.Algorithm = "numerical";
    else if (I % 3 == 2)
      C.Algorithm = "constant";
    Cases.push_back(C);
  }

  ServerConfig Cfg;
  Cfg.Workers = 4;
  Cfg.QueueCapacity = Cases.size();
  Server Srv(*Conc, Cfg);
  std::vector<std::future<ServerResponse>> Futures;
  for (const Case &C : Cases) {
    ServerRequest Req;
    Req.Total = C.Total;
    Req.Algorithm = C.Algorithm;
    Futures.push_back(Srv.submit(std::move(Req)));
  }
  for (std::size_t I = 0; I < Cases.size(); ++I) {
    ServerResponse R = Futures[I].get();
    ASSERT_EQ(R.K, ServerResponse::Kind::Ok) << R.Message;
    Result<PartitionReply> Want =
        Serial->partitionRendered(Cases[I].Total, Cases[I].Algorithm);
    ASSERT_TRUE(Want.ok()) << Want.error();
    EXPECT_EQ(R.Reply.Text, Want.value().Text) << "request " << I;
  }
  Srv.shutdown();
  ServerStats St = Srv.stats();
  EXPECT_EQ(St.Submitted, Cases.size());
  EXPECT_EQ(St.Answered, Cases.size());
  EXPECT_EQ(St.Errors + St.ShedQueueFull + St.ShedDeadline + St.ShedShutdown,
            0u);
}

TEST(ServerStress, HotReloadChurnKeepsEveryReplyConsistent) {
  // Many client threads flood the server while a churn thread rewrites
  // a model file and hot-reloads it. Exactly one response per request,
  // and every Ok reply hands out exactly the requested total — a torn
  // reload would break that or trip TSan.
  std::vector<std::string> Paths;
  auto S = makeServedSession("churn_", &Paths);

  ServerConfig Cfg;
  Cfg.Workers = 4;
  Cfg.QueueCapacity = 512;
  Server Srv(*S, Cfg);

  std::atomic<bool> StopChurn{false};
  std::thread Churn([&] {
    for (int Flip = 0; !StopChurn.load(std::memory_order_acquire); ++Flip) {
      writeModelFile(Paths[0], Flip % 2 == 0 ? 900.0 : 300.0);
      // Nudge the mtime forward in case the filesystem clock is coarse;
      // the content hash catches same-mtime rewrites anyway.
      std::filesystem::last_write_time(
          Paths[0], std::filesystem::last_write_time(Paths[0]) +
                        std::chrono::milliseconds(Flip + 1));
      Result<int> R = Srv.reload();
      ASSERT_TRUE(R.ok()) << R.error();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  constexpr int Clients = 4;
  constexpr int PerClient = 32;
  std::atomic<int> OkCount{0}, BadCount{0};
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      for (int I = 0; I < PerClient; ++I) {
        std::int64_t Total = 1000 + C * 100 + I;
        ServerRequest Req;
        Req.Total = Total;
        ServerResponse R = Srv.submit(std::move(Req)).get();
        if (R.K == ServerResponse::Kind::Ok && distSum(R) == Total)
          OkCount.fetch_add(1, std::memory_order_relaxed);
        else
          BadCount.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  StopChurn.store(true, std::memory_order_release);
  Churn.join();
  Srv.shutdown();

  // The queue was big enough for everything, no deadlines: every single
  // request must have come back Ok with an exact handout.
  EXPECT_EQ(OkCount.load(), Clients * PerClient);
  EXPECT_EQ(BadCount.load(), 0);
  ServerStats St = Srv.stats();
  EXPECT_EQ(St.Submitted, static_cast<std::uint64_t>(Clients * PerClient));
  EXPECT_EQ(St.Answered, St.Submitted);
  EXPECT_GT(St.Reloads, 0u);
}

TEST(ServerStress, QueueFullShedsWithStructuredRejection) {
  auto S = makeServedSession("shed_", nullptr);
  ServerConfig Cfg;
  Cfg.Workers = 1;
  Cfg.QueueCapacity = 1;
  Cfg.SolveDelay = std::chrono::milliseconds(20);
  Server Srv(*S, Cfg);

  constexpr int N = 12;
  std::vector<std::future<ServerResponse>> Futures;
  for (int I = 0; I < N; ++I) {
    ServerRequest Req;
    Req.Total = 1000 + I; // Unique totals: the memo cannot absorb them.
    Futures.push_back(Srv.submit(std::move(Req)));
  }
  int Ok = 0, QueueFull = 0, Other = 0;
  for (auto &F : Futures) {
    ServerResponse R = F.get();
    if (R.K == ServerResponse::Kind::Ok)
      ++Ok;
    else if (R.K == ServerResponse::Kind::Rejected &&
             R.Reason == RejectReason::QueueFull)
      ++QueueFull;
    else
      ++Other;
  }
  Srv.shutdown();
  // With a 20 ms solve, one worker and a one-deep queue, a burst of 12
  // cannot all be admitted. Everything resolved, nothing hung.
  EXPECT_EQ(Ok + QueueFull + Other, N);
  EXPECT_GT(QueueFull, 0);
  EXPECT_GT(Ok, 0);
  EXPECT_EQ(Other, 0);
  ServerStats St = Srv.stats();
  EXPECT_EQ(St.ShedQueueFull, static_cast<std::uint64_t>(QueueFull));
  EXPECT_EQ(St.Answered, static_cast<std::uint64_t>(Ok));
  EXPECT_STREQ(rejectReasonName(RejectReason::QueueFull), "queue_full");
}

TEST(ServerStress, ExpiredDeadlineIsShedNotAnswered) {
  auto S = makeServedSession("deadline_", nullptr);
  ServerConfig Cfg;
  Cfg.Workers = 1;
  Cfg.QueueCapacity = 8;
  Server Srv(*S, Cfg);

  // A deadline that has effectively already passed must come back as a
  // structured deadline rejection, never as a late answer.
  ServerRequest Req;
  Req.Total = 1000;
  Req.Timeout = std::chrono::nanoseconds(1);
  ServerResponse R = Srv.submit(std::move(Req)).get();
  EXPECT_EQ(R.K, ServerResponse::Kind::Rejected);
  EXPECT_EQ(R.Reason, RejectReason::Deadline);

  // A generous deadline is answered normally.
  ServerRequest Req2;
  Req2.Total = 1000;
  Req2.Timeout = std::chrono::seconds(30);
  ServerResponse R2 = Srv.submit(std::move(Req2)).get();
  EXPECT_EQ(R2.K, ServerResponse::Kind::Ok) << R2.Message;

  // So is one that reaches past the clock's range (adding it to the
  // submission time must not wrap into the past).
  ServerRequest Req3;
  Req3.Total = 1000;
  Req3.Timeout = std::chrono::nanoseconds::max();
  ServerResponse R3 = Srv.submit(std::move(Req3)).get();
  EXPECT_EQ(R3.K, ServerResponse::Kind::Ok) << R3.Message;
  Srv.shutdown();
  EXPECT_EQ(Srv.stats().ShedDeadline, 1u);
  EXPECT_STREQ(rejectReasonName(RejectReason::Deadline), "deadline");
}

TEST(ServerStress, IdenticalRequestsReplayTheMemoizedAnswer) {
  auto S = makeServedSession("memo_", nullptr);
  ServerConfig Cfg;
  Cfg.Workers = 2;
  Cfg.QueueCapacity = 64;
  Cfg.SolveDelay = std::chrono::milliseconds(10);
  Server Srv(*S, Cfg);

  constexpr int N = 24;
  std::vector<std::future<ServerResponse>> Futures;
  for (int I = 0; I < N; ++I) {
    ServerRequest Req;
    Req.Total = 4242; // All identical: the first solve feeds the rest.
    Futures.push_back(Srv.submit(std::move(Req)));
  }
  std::set<std::string> Texts;
  int Memoized = 0;
  for (auto &F : Futures) {
    ServerResponse R = F.get();
    ASSERT_EQ(R.K, ServerResponse::Kind::Ok) << R.Message;
    Texts.insert(R.Reply.Text);
    if (R.Reply.Memoized)
      ++Memoized;
  }
  Srv.shutdown();
  // One text across all replies; at most one solve per worker raced the
  // first write-back, every other reply is a memo replay, and the
  // server's counters agree with the replies.
  EXPECT_EQ(Texts.size(), 1u);
  EXPECT_GE(Memoized, N - Cfg.Workers);
  ServerStats St = Srv.stats();
  EXPECT_EQ(St.CacheHits, static_cast<std::uint64_t>(Memoized));
  EXPECT_EQ(St.CacheLookups, static_cast<std::uint64_t>(N));
  EXPECT_EQ(St.Coalesced, 0u);
}

TEST(ServerStress, ShutdownDrainsAdmittedAndRejectsNew) {
  auto S = makeServedSession("shutdown_", nullptr);
  ServerConfig Cfg;
  Cfg.Workers = 1;
  Cfg.QueueCapacity = 32;
  Cfg.SolveDelay = std::chrono::milliseconds(5);
  Server Srv(*S, Cfg);

  std::vector<std::future<ServerResponse>> Futures;
  for (int I = 0; I < 8; ++I) {
    ServerRequest Req;
    Req.Total = 2000 + I;
    Futures.push_back(Srv.submit(std::move(Req)));
  }
  Srv.shutdown(); // Must drain: all 8 were admitted.
  for (auto &F : Futures) {
    ServerResponse R = F.get();
    EXPECT_EQ(R.K, ServerResponse::Kind::Ok) << R.Message;
  }
  // New work after shutdown is rejected with the structured reason, not
  // dropped on the floor.
  ServerRequest Late;
  Late.Total = 999;
  ServerResponse R = Srv.submit(std::move(Late)).get();
  EXPECT_EQ(R.K, ServerResponse::Kind::Rejected);
  EXPECT_EQ(R.Reason, RejectReason::ShuttingDown);
  EXPECT_STREQ(rejectReasonName(RejectReason::ShuttingDown),
               "shutting_down");
  ServerStats St = Srv.stats();
  EXPECT_EQ(St.Answered, 8u);
  EXPECT_EQ(St.ShedShutdown, 1u);
  // shutdown() is idempotent.
  Srv.shutdown();
}

TEST(ServerStress, ErrorsAreAnswersNotCrashes) {
  // A request naming an unknown algorithm yields Kind::Error with the
  // registry diagnostic; the server keeps serving afterwards.
  auto S = makeServedSession("error_", nullptr);
  ServerConfig Cfg;
  Cfg.Workers = 2;
  Server Srv(*S, Cfg);

  ServerRequest Bad;
  Bad.Total = 1000;
  Bad.Algorithm = "fastest";
  ServerResponse R = Srv.submit(std::move(Bad)).get();
  EXPECT_EQ(R.K, ServerResponse::Kind::Error);
  EXPECT_NE(R.Message.find("unknown partitioner 'fastest'"),
            std::string::npos)
      << R.Message;

  ServerRequest Good;
  Good.Total = 1000;
  ServerResponse R2 = Srv.submit(std::move(Good)).get();
  EXPECT_EQ(R2.K, ServerResponse::Kind::Ok) << R2.Message;
  Srv.shutdown();
  ServerStats St = Srv.stats();
  EXPECT_EQ(St.Errors, 1u);
  EXPECT_EQ(St.Answered, 1u);
}
