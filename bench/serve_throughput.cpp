//===-- bench/serve_throughput.cpp - serve-mode request throughput --------===//
//
// Three serving paths over the same model files:
//
//  1. serial batch (engine::serveRequests): the PR-4 baseline — one
//     long-lived Session answering one request at a time, against the
//     pre-engine workflow of a fresh one-shot session per request. The
//     reported speedup is a lower bound on the real CLI ratio.
//  2. concurrent (engine::Server): N workers over the bounded queue
//     answering the *same* batch; the concatenated responses must be
//     byte-identical to the serial output and every request must get
//     exactly one response.
//  3. churn: open-loop overload with hot-reload churn — a background
//     thread rewrites a model file and reloads it while hundreds of
//     requests (a mix of popular totals that coalesce/cache and unique
//     totals that keep the workers busy) flood a small queue with a
//     deadline. Reports p50/p99 latency, shed rate, and coalesce+cache
//     hit rates, and checks the exactly-once accounting: submitted ==
//     answered + errors + shed, with zero errors and zero lost futures.
//
// Output: a summary on stdout and BENCH_serve_throughput.json in the
// working directory. With --smoke, runs tiny batches and only the
// correctness tripwires; the full run additionally enforces the >= 5x
// serial amortisation floor. --workers N sets the concurrent width
// (default 4).
//
//===----------------------------------------------------------------------===//

#include "core/Benchmark.h"
#include "engine/Serve.h"
#include "engine/Server.h"
#include "engine/Session.h"
#include "sim/Cluster.h"
#include "support/Options.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace fupermod;

namespace {

/// The model files' directory, private to this process and removed when
/// the run ends: concurrent runs (the serial and the concurrent smoke
/// under a parallel ctest) must never read a file that another run's
/// churn phase is rewriting.
struct ModelDir {
  std::filesystem::path Path;
  ModelDir() : Path("serve_bench_models." + std::to_string(::getpid())) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~ModelDir() {
    std::error_code Ignored;
    std::filesystem::remove_all(Path, Ignored);
  }
  ModelDir(const ModelDir &) = delete;
  ModelDir &operator=(const ModelDir &) = delete;
  std::string file(const std::string &Name) const {
    return (Path / Name).string();
  }
};

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A loadModels-only session over \p Paths, as both the serve and the
/// one-shot partitioner create it. Returns nullptr on failure.
std::unique_ptr<engine::Session>
makeLoadedSession(const std::vector<std::string> &Paths) {
  engine::SessionConfig Cfg;
  Cfg.Algorithm = "geometric";
  Result<std::unique_ptr<engine::Session>> S =
      engine::Session::create(std::move(Cfg));
  if (!S) {
    std::cerr << "error: " << S.error() << "\n";
    return nullptr;
  }
  if (Status St = S.value()->loadModels(Paths); !St) {
    std::cerr << "error: " << St.error() << "\n";
    return nullptr;
  }
  return std::move(S.value());
}

double percentile(std::vector<double> Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  std::sort(Sorted.begin(), Sorted.end());
  std::size_t I = static_cast<std::size_t>(P * (Sorted.size() - 1) + 0.5);
  return Sorted[std::min(I, Sorted.size() - 1)];
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv, {"smoke"});
  const bool Smoke = Opts.has("smoke");
  const int Workers =
      static_cast<int>(std::max<std::int64_t>(1, Opts.getInt("workers", 4)));

  const int Ranks = Smoke ? 3 : 8;
  const int NumRequests = Smoke ? 8 : 64;

  // Build one model file per device, exactly as `builder --rank all`
  // would, so all serving paths start from files on disk.
  Cluster Cl = makeHeterogeneousCluster(Ranks, /*Variant=*/17);
  Cl.NoiseSigma = 0.02;
  engine::SessionConfig BuildCfg;
  BuildCfg.Platform = Cl;
  Result<std::unique_ptr<engine::Session>> BuildS =
      engine::Session::create(std::move(BuildCfg));
  if (!BuildS) {
    std::cerr << "error: " << BuildS.error() << "\n";
    return 1;
  }
  ModelBuildPlan Plan;
  Plan.MinSize = 100.0;
  Plan.MaxSize = 6000.0;
  Plan.NumPoints = Smoke ? 4 : 16;
  Plan.Prec.MinReps = 3;
  Plan.Prec.MaxReps = Smoke ? 4 : 6;
  Plan.Prec.TargetRelativeError = 0.02;
  if (Status St = BuildS.value()->measure(Plan); !St) {
    std::cerr << "error: " << St.error() << "\n";
    return 1;
  }
  ModelDir Dir;
  std::vector<std::string> Paths;
  for (int R = 0; R < Ranks; ++R) {
    Paths.push_back(Dir.file("dev" + std::to_string(R) + ".fpm"));
    if (Status St = BuildS.value()->saveModel(R, Paths.back()); !St) {
      std::cerr << "error: " << St.error() << "\n";
      return 1;
    }
  }
  // Two alternative contents for the churn phase: the original model and
  // a differently-fitted one, flipped onto dev0's path while serving.
  const std::string ChurnPath = Paths[0];
  std::string ContentA, ContentB;
  {
    std::ifstream IS(ChurnPath);
    std::ostringstream SS;
    SS << IS.rdbuf();
    ContentA = SS.str();
  }
  {
    std::string Alt = Dir.file("dev0_alt.fpm");
    if (Status St = BuildS.value()->saveModel(1 % Ranks, Alt); !St) {
      std::cerr << "error: " << St.error() << "\n";
      return 1;
    }
    std::ifstream IS(Alt);
    std::ostringstream SS;
    SS << IS.rdbuf();
    ContentB = SS.str();
  }

  // The request batch: varying totals, mixed algorithms, with repeats so
  // the long-lived session's inverse-time caches can pay off.
  std::vector<engine::ServeRequest> Requests;
  for (int I = 0; I < NumRequests; ++I) {
    engine::ServeRequest Req;
    Req.Total = 1000 + (I % 8) * 500;
    if (I % 3 == 1)
      Req.Algorithm = "numerical";
    else if (I % 3 == 2)
      Req.Algorithm = "constant";
    Requests.push_back(Req);
  }

  std::cout << "=== serve throughput: serial, one-shot, concurrent ===\n\n"
            << "platform: " << Ranks << " devices, " << Plan.NumPoints
            << " points per model, " << NumRequests << " requests, "
            << Workers << " workers\n\n";

  // --- 1a. serial batch: one session answers the batch sequentially.
  std::ostringstream ServeOut;
  double T0 = now();
  std::unique_ptr<engine::Session> Long = makeLoadedSession(Paths);
  if (!Long)
    return 1;
  engine::ServeStats ServeSt = engine::serveRequests(*Long, Requests, ServeOut);
  double ServeSeconds = now() - T0;

  // --- 1b. one-shot: a fresh session (create + load + cold caches) per
  // request, the way repeated `partitioner --total N` invocations work.
  std::ostringstream OneShotOut;
  int OneShotAnswered = 0;
  T0 = now();
  for (const engine::ServeRequest &Req : Requests) {
    std::unique_ptr<engine::Session> S = makeLoadedSession(Paths);
    if (!S)
      return 1;
    OneShotAnswered +=
        engine::serveRequests(*S, {&Req, 1}, OneShotOut).Answered;
  }
  double OneShotSeconds = now() - T0;

  // --- 2. concurrent: N workers answer the same batch; responses are
  // collected in submission order and must concatenate to the serial
  // output byte for byte.
  std::unique_ptr<engine::Session> ConcS = makeLoadedSession(Paths);
  if (!ConcS)
    return 1;
  std::string ConcurrentOut;
  std::uint64_t ConcurrentCacheHits = 0, ConcurrentCoalesced = 0;
  double ConcurrentSeconds = 0.0;
  int ConcurrentAnswered = 0;
  {
    engine::ServerConfig SrvCfg;
    SrvCfg.Workers = Workers;
    SrvCfg.QueueCapacity = static_cast<std::size_t>(NumRequests) + 1;
    engine::Server Srv(*ConcS, SrvCfg);
    std::vector<std::future<engine::ServerResponse>> Futures;
    Futures.reserve(Requests.size());
    T0 = now();
    for (const engine::ServeRequest &Req : Requests) {
      engine::ServerRequest SReq;
      SReq.Total = Req.Total;
      SReq.Algorithm = Req.Algorithm;
      Futures.push_back(Srv.submit(std::move(SReq)));
    }
    for (auto &F : Futures) {
      engine::ServerResponse R = F.get();
      if (R.K == engine::ServerResponse::Kind::Ok) {
        ConcurrentOut += R.Reply.Text;
        ++ConcurrentAnswered;
      }
    }
    ConcurrentSeconds = now() - T0;
    engine::ServerStats St = Srv.stats();
    ConcurrentCacheHits = St.CacheHits;
    ConcurrentCoalesced = St.Coalesced;
  }

  // --- 3. churn: overload a small queue under hot-reload churn. Half
  // the requests hit popular totals (coalesce/cache food), half are
  // unique (keep the workers and the queue busy).
  const int ChurnRequests = Smoke ? 64 : 512;
  const int ChurnFlips = Smoke ? 6 : 24;
  std::unique_ptr<engine::Session> ChurnS = makeLoadedSession(Paths);
  if (!ChurnS)
    return 1;
  engine::ServerStats ChurnStats;
  std::vector<double> OkLatencies;
  int ChurnOk = 0, ChurnErr = 0, ChurnRej = 0;
  double ChurnSeconds = 0.0;
  std::uint64_t ChurnReloads = 0;
  {
    engine::ServerConfig SrvCfg;
    SrvCfg.Workers = Workers;
    SrvCfg.QueueCapacity = 16;
    SrvCfg.DefaultDeadline = std::chrono::milliseconds(Smoke ? 200 : 50);
    SrvCfg.SolveDelay = std::chrono::microseconds(200);
    engine::Server Srv(*ChurnS, SrvCfg);

    std::atomic<bool> StopChurn{false};
    std::thread Churn([&] {
      for (int Flip = 0; Flip < ChurnFlips && !StopChurn.load(); ++Flip) {
        {
          std::ofstream OS(ChurnPath, std::ios::binary | std::ios::trunc);
          OS << (Flip % 2 == 0 ? ContentB : ContentA);
        }
        if (Result<int> R = Srv.reload(); !R)
          std::cerr << "warning: churn reload failed: " << R.error() << "\n";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });

    std::vector<std::future<engine::ServerResponse>> Futures;
    Futures.reserve(static_cast<std::size_t>(ChurnRequests));
    T0 = now();
    for (int I = 0; I < ChurnRequests; ++I) {
      engine::ServerRequest Req;
      // Even: one of 4 popular totals. Odd: unique total.
      Req.Total = (I % 2 == 0) ? 2000 + (I % 8) * 250 : 100000 + I;
      Futures.push_back(Srv.submit(std::move(Req)));
      // Open-loop pacing: bursts of 4 arriving faster than the workers
      // drain (the SolveDelay above caps service rate), so the queue
      // oscillates around full — some requests shed, duplicates of the
      // popular totals meet in flight and coalesce or hit the cache.
      if (I % 4 == 3)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    for (auto &F : Futures) {
      engine::ServerResponse R = F.get();
      switch (R.K) {
      case engine::ServerResponse::Kind::Ok:
        ++ChurnOk;
        OkLatencies.push_back(R.LatencySeconds);
        break;
      case engine::ServerResponse::Kind::Error:
        ++ChurnErr;
        break;
      case engine::ServerResponse::Kind::Rejected:
        ++ChurnRej;
        break;
      }
    }
    ChurnSeconds = now() - T0;
    StopChurn.store(true);
    Churn.join();
    Srv.shutdown();
    ChurnStats = Srv.stats();
    ChurnReloads = ChurnStats.Reloads;
  }
  // Restore the churned file for any later phase/rerun.
  {
    std::ofstream OS(ChurnPath, std::ios::binary | std::ios::trunc);
    OS << ContentA;
  }

  const double ServeRps = NumRequests / ServeSeconds;
  const double OneShotRps = NumRequests / OneShotSeconds;
  const double ConcurrentRps = NumRequests / ConcurrentSeconds;
  const double Speedup = OneShotSeconds / ServeSeconds;
  const bool Identical = ServeOut.str() == OneShotOut.str();
  const bool ConcurrentIdentical = ConcurrentOut == ServeOut.str();
  const bool AllAnswered =
      ServeSt.Answered == NumRequests && ServeSt.Failed == 0 &&
      OneShotAnswered == NumRequests && ConcurrentAnswered == NumRequests;

  const double P50 = percentile(OkLatencies, 0.50) * 1e3;
  const double P99 = percentile(OkLatencies, 0.99) * 1e3;
  const std::uint64_t ChurnShed = ChurnStats.ShedQueueFull +
                                  ChurnStats.ShedDeadline +
                                  ChurnStats.ShedShutdown;
  const double ShedRate =
      ChurnStats.Submitted
          ? static_cast<double>(ChurnShed) /
                static_cast<double>(ChurnStats.Submitted)
          : 0.0;
  const double CacheHitRate =
      ChurnStats.CacheLookups
          ? static_cast<double>(ChurnStats.CacheHits) /
                static_cast<double>(ChurnStats.CacheLookups)
          : 0.0;
  // Exactly-once accounting: every churn submission resolved exactly one
  // future, and the server's own tally agrees.
  const bool ChurnAccounted =
      ChurnOk + ChurnErr + ChurnRej == ChurnRequests &&
      ChurnStats.Submitted == static_cast<std::uint64_t>(ChurnRequests) &&
      ChurnStats.Answered + ChurnStats.Errors + ChurnShed ==
          ChurnStats.Submitted &&
      ChurnErr == 0;

  std::printf("serial:     %d requests in %.4f s  (%.0f req/s)\n",
              NumRequests, ServeSeconds, ServeRps);
  std::printf("one-shot:   %d requests in %.4f s  (%.0f req/s)\n",
              NumRequests, OneShotSeconds, OneShotRps);
  std::printf("concurrent: %d requests in %.4f s  (%.0f req/s), "
              "%llu coalesced, %llu cache hits, outputs %s\n",
              NumRequests, ConcurrentSeconds, ConcurrentRps,
              static_cast<unsigned long long>(ConcurrentCoalesced),
              static_cast<unsigned long long>(ConcurrentCacheHits),
              ConcurrentIdentical ? "byte-identical" : "DIVERGED");
  std::printf("speedup:    %.1fx serial over one-shot, outputs %s\n",
              Speedup, Identical ? "byte-identical" : "DIVERGED");
  std::printf("churn:      %d requests in %.4f s under %llu reload(s): "
              "p50 %.2f ms, p99 %.2f ms, shed %.1f%% "
              "(queue_full %llu, deadline %llu), %llu coalesced, "
              "cache hit rate %.1f%%, accounting %s\n",
              ChurnRequests, ChurnSeconds,
              static_cast<unsigned long long>(ChurnReloads), P50, P99,
              100.0 * ShedRate,
              static_cast<unsigned long long>(ChurnStats.ShedQueueFull),
              static_cast<unsigned long long>(ChurnStats.ShedDeadline),
              static_cast<unsigned long long>(ChurnStats.Coalesced),
              100.0 * CacheHitRate, ChurnAccounted ? "exact" : "BROKEN");

  std::FILE *J = std::fopen("BENCH_serve_throughput.json", "w");
  if (J) {
    std::fprintf(J,
                 "{\n"
                 "  \"bench\": \"serve_throughput\",\n"
                 "  \"mode\": \"%s\",\n"
                 "  \"devices\": %d,\n"
                 "  \"points_per_model\": %d,\n"
                 "  \"requests\": %d,\n"
                 "  \"workers\": %d,\n"
                 "  \"serve_seconds\": %.6f,\n"
                 "  \"oneshot_seconds\": %.6f,\n"
                 "  \"concurrent_seconds\": %.6f,\n"
                 "  \"serve_requests_per_second\": %.1f,\n"
                 "  \"oneshot_requests_per_second\": %.1f,\n"
                 "  \"concurrent_requests_per_second\": %.1f,\n"
                 "  \"speedup\": %.2f,\n"
                 "  \"outputs_identical\": %s,\n"
                 "  \"concurrent_outputs_identical\": %s,\n"
                 "  \"churn\": {\n"
                 "    \"requests\": %d,\n"
                 "    \"reloads\": %llu,\n"
                 "    \"p50_latency_ms\": %.3f,\n"
                 "    \"p99_latency_ms\": %.3f,\n"
                 "    \"shed_rate\": %.4f,\n"
                 "    \"shed_queue_full\": %llu,\n"
                 "    \"shed_deadline\": %llu,\n"
                 "    \"coalesced\": %llu,\n"
                 "    \"cache_hits\": %llu,\n"
                 "    \"cache_lookups\": %llu,\n"
                 "    \"cache_hit_rate\": %.4f,\n"
                 "    \"exactly_once\": %s\n"
                 "  }\n"
                 "}\n",
                 Smoke ? "smoke" : "full", Ranks, Plan.NumPoints, NumRequests,
                 Workers, ServeSeconds, OneShotSeconds, ConcurrentSeconds,
                 ServeRps, OneShotRps, ConcurrentRps, Speedup,
                 Identical ? "true" : "false",
                 ConcurrentIdentical ? "true" : "false", ChurnRequests,
                 static_cast<unsigned long long>(ChurnReloads), P50, P99,
                 ShedRate,
                 static_cast<unsigned long long>(ChurnStats.ShedQueueFull),
                 static_cast<unsigned long long>(ChurnStats.ShedDeadline),
                 static_cast<unsigned long long>(ChurnStats.Coalesced),
                 static_cast<unsigned long long>(ChurnStats.CacheHits),
                 static_cast<unsigned long long>(ChurnStats.CacheLookups),
                 CacheHitRate, ChurnAccounted ? "true" : "false");
    std::fclose(J);
    std::cout << "# wrote BENCH_serve_throughput.json\n";
  }

  // Tripwires. Correctness gates every mode; the amortisation floor
  // gates the full run only (the smoke batch is too short to time).
  if (!Identical || !ConcurrentIdentical || !AllAnswered) {
    std::cout << "FAIL: serve outputs diverged across modes\n";
    return 1;
  }
  if (!ChurnAccounted) {
    std::cout << "FAIL: churn accounting lost or duplicated responses\n";
    return 1;
  }
  if (!Smoke && Speedup < 5.0) {
    std::cout << "FAIL: serve speedup " << Speedup << " < 5x floor\n";
    return 1;
  }
  return 0;
}
