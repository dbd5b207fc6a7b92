//===-- perfbench/cpp/Serve.cpp - The serve-repeat and serve-churn probes -===//
//
// Two probes of the engine's serve paths, run in matmul-numerical's traced
// run. Neither is a gated workload: their request latencies follow the
// host's syscall cost, which moved by up to 1.5x within seconds on the
// reference host (perfbench/results/dropped.md).
//
// serve-repeat is the `partitioner --serve REQFILE` path: engine::
// serveRequests answers one request at a time over 32 model files,
// cycling through a fixed set of (total, algorithm) keys after an untimed
// warm-up pass, so every timed request replays its memoized hint and the
// staleness check (Session::refreshModels) dominates.
//
// serve-churn drives engine::Server with 2 workers over 16 model files,
// one client thread keeping 4 requests in flight, half to a few popular
// totals and half to first-seen totals (cold solves, a third of them
// numerical), and every 32 submissions a model file rewritten and
// Server::reload called. It is the only traffic that reaches the queue,
// the reply cache, coalescing, reloads and cold solves.
//
// Every reply must be byte-equal to what a fresh one-shot Session
// answers for the model contents of the epoch the reply reports.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Workloads.h"

#include "engine/Serve.h"
#include "engine/Server.h"
#include "engine/Session.h"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>

using namespace perfbench;
using namespace fupermod;

namespace {

/// Seeded model files on disk plus the true profiles behind them.
struct ModelSet {
  std::vector<std::string> Paths;
  std::vector<DeviceProfile> Profiles;
  /// Contents of Paths[0] as written, and an alternate fit of a device
  /// 25% faster (serve-churn's rewrites flip between the two).
  std::string Original;
  std::string Alternate;
};

Cluster makeServeCluster(int Devices, SeedStream &S) {
  Cluster Cl;
  for (int R = 0; R < Devices; ++R) {
    Cl.Devices.push_back(makeCpuProfile(
        "srv-dev" + std::to_string(R), S.uniform(400.0, 1200.0),
        S.uniform(20.0, 80.0), S.uniform(2500.0, 6000.0),
        /*CliffWidth=*/500.0, S.uniform(0.2, 0.5)));
    Cl.NodeOfRank.push_back(R / 4);
  }
  Cl.NoiseSigma = 0.02;
  Cl.Seed = S.next();
  return Cl;
}

ModelBuildPlan servePlan() {
  ModelBuildPlan Plan;
  Plan.MinSize = 100.0;
  Plan.MaxSize = 8000.0;
  Plan.NumPoints = 16;
  Plan.Prec.MinReps = 3;
  Plan.Prec.MaxReps = 6;
  Plan.Prec.TargetRelativeError = 0.02;
  return Plan;
}

/// Measures every device of a seeded cluster and writes one model file
/// per device into \p Dir (the `builder --rank all` output).
Result<ModelSet> makeModelFiles(const std::string &Dir, int Devices,
                                std::uint64_t Seed) {
  using R = Result<ModelSet>;
  SeedStream S(Seed * 0x9e3779b97f4a7c15ull + 3);
  Cluster Cl = makeServeCluster(Devices, S);
  std::filesystem::create_directories(Dir);
  engine::SessionConfig Cfg;
  Cfg.Platform = Cl;
  Result<std::unique_ptr<engine::Session>> Builder =
      engine::Session::create(std::move(Cfg));
  if (!Builder)
    return R::failure(Builder.error());
  if (Status St = Builder.value()->measure(servePlan()); !St)
    return R::failure(St.error());
  ModelSet M;
  M.Profiles = Cl.Devices;
  for (int Rank = 0; Rank < Devices; ++Rank) {
    M.Paths.push_back(Dir + "/dev" + std::to_string(Rank) + ".fpm");
    if (Status St = Builder.value()->saveModel(Rank, M.Paths.back()); !St)
      return R::failure(St.error());
  }
  M.Original = readFile(M.Paths[0]);

  // The alternate contents: device 0 re-measured 25% faster.
  Cluster Alt;
  Alt.Devices.push_back(makeCpuProfile("srv-dev0-alt",
                                       1.25 * Cl.Devices[0].speed(8000.0),
                                       40.0, 6000.0, 500.0, 0.3));
  Alt.NodeOfRank = {0};
  Alt.Seed = S.next();
  engine::SessionConfig AltCfg;
  AltCfg.Platform = Alt;
  Result<std::unique_ptr<engine::Session>> AltBuilder =
      engine::Session::create(std::move(AltCfg));
  if (!AltBuilder)
    return R::failure(AltBuilder.error());
  if (Status St = AltBuilder.value()->measure(servePlan()); !St)
    return R::failure(St.error());
  std::string AltPath = Dir + "/dev0.alt.fpm";
  if (Status St = AltBuilder.value()->saveModel(0, AltPath); !St)
    return R::failure(St.error());
  M.Alternate = readFile(AltPath);
  std::filesystem::remove(AltPath);
  if (M.Original.empty() || M.Alternate.empty() || M.Original == M.Alternate)
    return R::failure("could not generate distinct model contents");
  return M;
}

/// Session::create + loadModels, with a span around the load.
Result<std::unique_ptr<engine::Session>>
loadedSession(const std::vector<std::string> &Paths, Tracer &T) {
  using R = Result<std::unique_ptr<engine::Session>>;
  engine::SessionConfig Cfg;
  Cfg.Algorithm = "geometric";
  R S = engine::Session::create(std::move(Cfg));
  if (!S)
    return S;
  Status St = [&] {
    Tracer::Scope Span(T, "engine.load", -1);
    return S.value()->loadModels(Paths);
  }();
  if (!St)
    return R::failure(St.error());
  return S;
}

/// The reply a fresh one-shot session (`partitioner --total`) gives.
Result<engine::PartitionReply> oneShot(const std::vector<std::string> &Paths,
                                       std::int64_t Total,
                                       const std::string &Algorithm) {
  Tracer Off(false);
  Result<std::unique_ptr<engine::Session>> S = loadedSession(Paths, Off);
  if (!S)
    return Result<engine::PartitionReply>::failure(S.error());
  return S.value()->partitionRendered(Total, Algorithm);
}

/// One request through serveRequests' steps, in its order, with a span
/// around each call into the engine: refresh, warning drain, solve +
/// render, emit. Writes exactly what serveRequests writes.
void serveTraced(engine::Session &S, const engine::ServeRequest &Req,
                 std::ostream &OS, Tracer &T, std::int64_t Op) {
  Tracer::Scope Root(T, "bench.request", Op);
  Result<int> Refreshed = [&] {
    Tracer::Scope Span(T, "engine.refresh", Op);
    return S.refreshModels();
  }();
  if (Refreshed.ok() && Refreshed.value() > 0)
    OS << "# reloaded " << Refreshed.value() << " model(s)\n";
  for (const std::string &W : S.takeWarnings())
    OS << "# warning: " << W << '\n';
  Result<engine::PartitionReply> Reply = [&] {
    Tracer::Scope Span(T, "engine.warm_solve_render", Op);
    return S.partitionRendered(Req.Total, Req.Algorithm);
  }();
  if (!Reply) {
    OS << "# error: " << Reply.error() << '\n';
    return;
  }
  Tracer::Scope Span(T, "engine.emit", Op);
  OS << Reply.value().Text;
}

} // namespace

//===----------------------------------------------------------------------===//
// serve-repeat probe
//===----------------------------------------------------------------------===//

void perfbench::addServeRepeatLayers(const Args &A, RunResult &R, Tracer &T) {
  const int Files = A.Smoke ? 6 : 32;
  const int Totals = A.Smoke ? 4 : 32;
  const int LoadRepeats = A.Smoke ? 3 : 9;
  const double Seconds = A.Smoke ? 0.5 : 3.0;
  const char *Algorithms[] = {"geometric", "numerical", "constant"};
  auto Fail = [&](const std::string &What) {
    R.check(false);
    R.note("error: serve-repeat probe: " + What);
  };

  Result<ModelSet> Models =
      makeModelFiles(A.OutDir + "/serve-repeat-seed" + std::to_string(A.Seed),
                     Files, A.Seed);
  if (!Models)
    return Fail(Models.error());
  const ModelSet &M = Models.value();

  // The request file: every (total, algorithm) key once, in seeded order.
  SeedStream S(A.Seed * 0xd1342543de82ef95ull + 5);
  std::set<std::int64_t> Chosen;
  while (static_cast<int>(Chosen.size()) < Totals)
    Chosen.insert(static_cast<std::int64_t>(S.uniform(800.0, 3500.0) * Files));
  std::vector<engine::ServeRequest> Requests;
  for (std::int64_t Total : Chosen)
    for (const char *Algo : Algorithms) {
      engine::ServeRequest Req;
      Req.Total = Total;
      Req.Algorithm = Algo;
      Requests.push_back(Req);
    }
  for (std::size_t I = Requests.size(); I > 1; --I)
    std::swap(Requests[I - 1], Requests[S.next() % I]);

  // Expected replies from fresh one-shot sessions.
  std::vector<std::string> Expected;
  for (const engine::ServeRequest &Req : Requests) {
    Result<engine::PartitionReply> Ref =
        oneShot(M.Paths, Req.Total, Req.Algorithm);
    if (!Ref)
      return Fail("reference solve failed: " + Ref.error());
    Expected.push_back(Ref.value().Text);
  }

  // Session::create + loadModels, repeated for engine.load_ms.
  std::unique_ptr<engine::Session> Live;
  for (int Rep = 0; Rep < LoadRepeats; ++Rep) {
    Live.reset();
    Result<std::unique_ptr<engine::Session>> Loaded = loadedSession(M.Paths, T);
    if (!Loaded)
      return Fail(Loaded.error());
    Live = std::move(Loaded.value());
  }

  // Warm-up pass: memoizes every key's hint.
  std::ostringstream Warm;
  engine::ServeStats WarmStats = engine::serveRequests(*Live, Requests, Warm);
  std::string AllExpected;
  for (const std::string &E : Expected)
    AllExpected += E;
  if (WarmStats.Failed != 0 || Warm.str() != AllExpected)
    return Fail("warm-up pass differs from the one-shot replies");
  R.check(true);

  // One request at a time through serveRequests; every other one runs
  // the same steps with a span around each call.
  SplitLatencies Split;
  std::ostringstream OS;
  Window W(Seconds, 0);
  for (std::size_t Op = 0; W.more(Op); ++Op) {
    std::size_t K = Op % Requests.size();
    bool Traced = Op % 2 == 0;
    T.setEnabled(Traced);
    OS.str("");
    double T0 = now();
    if (Traced)
      serveTraced(*Live, Requests[K], OS, T, static_cast<std::int64_t>(Op));
    else
      engine::serveRequests(*Live, {&Requests[K], 1}, OS);
    double Dt = now() - T0;
    R.check(OS.str() == Expected[K]);
    Split.add(Traced, Dt);
  }
  T.setEnabled(A.Trace);

  // Request rate and latencies from the untraced requests.
  const std::vector<double> &Lat = Split.Untraced;
  double Busy = std::accumulate(Lat.begin(), Lat.end(), 0.0);
  R.note("serve-repeat probe: " + std::to_string(Files) + " model files, " +
         std::to_string(Requests.size()) + " keys per batch, " +
         std::to_string(Lat.size()) + " untraced requests");
  R.add("engine.load_ms", median(T.durations("engine.load")) * 1e3, "ms");
  R.add("engine.refresh_us", median(T.durations("engine.refresh")) * 1e6, "us");
  R.add("engine.warm_solve_render_us",
        median(T.durations("engine.warm_solve_render")) * 1e6, "us");
  R.add("engine.emit_us", median(T.durations("engine.emit")) * 1e6, "us");
  R.add("engine.serve_requests_per_s",
        Busy > 0.0 ? static_cast<double>(Lat.size()) / Busy : 0.0, "1/s");
  R.add("engine.serve_latency_p50_us", median(Lat) * 1e6, "us");
  R.add("engine.serve_latency_p90_us", percentile(Lat, 90.0) * 1e6, "us");
  R.add("engine.serve_latency_p99_us", percentile(Lat, 99.0) * 1e6, "us");
}

//===----------------------------------------------------------------------===//
// serve-churn probe
//===----------------------------------------------------------------------===//

namespace {

struct Reply {
  std::uint64_t Epoch = 0;
  std::int64_t Total = 0;
  bool Numerical = false;
  std::uint64_t TextHash = 0;
};

struct Pending {
  std::future<engine::ServerResponse> Future;
  std::int64_t Total = 0;
  bool Numerical = false;
  double SubmittedAt = 0.0;
};

const char *algoName(bool Numerical) {
  return Numerical ? "numerical" : "geometric";
}

} // namespace

void perfbench::addServeChurnLayers(const Args &A, RunResult &R) {
  const int Files = A.Smoke ? 4 : 16;
  const double Seconds = A.Smoke ? 0.5 : 2.0;
  const std::size_t InFlight = 4;
  const std::uint64_t ReloadEvery = 32;
  const int ColdProbes = A.Smoke ? 4 : 40;
  // First-seen totals walk a seeded permutation of [ColdLo, ColdLo +
  // ColdSpan); the popular totals sit just above that range.
  const std::int64_t ColdLo = 500LL * Files;
  const std::int64_t ColdSpan = 2625LL * Files;
  const std::int64_t PopularLo = ColdLo + ColdSpan;
  // A failed model rewrite or reload fails the run without being a
  // request of its own.
  auto SideFailure = [&](const std::string &What) {
    ++R.Failed;
    R.note("error: serve-churn probe: " + What);
  };

  Result<ModelSet> Models =
      makeModelFiles(A.OutDir + "/serve-churn-seed" + std::to_string(A.Seed),
                     Files, A.Seed);
  if (!Models) {
    R.check(false);
    SideFailure(Models.error());
    return;
  }
  const ModelSet &M = Models.value();

  SeedStream S(A.Seed * 0xaf251af3b0f025b5ull + 9);
  std::vector<std::int64_t> Popular;
  while (Popular.size() < 4) {
    auto Total = PopularLo + static_cast<std::int64_t>(S.next() % 1000);
    if (std::find(Popular.begin(), Popular.end(), Total) == Popular.end())
      Popular.push_back(Total);
  }
  std::int64_t Stride = 1 + 2 * static_cast<std::int64_t>(S.next() % 1000);
  while (std::gcd(Stride, ColdSpan) != 1)
    Stride += 2;
  std::int64_t Offset = static_cast<std::int64_t>(S.next() % ColdSpan);
  std::int64_t ColdIssued = 0;

  Tracer Off(false);
  Result<std::unique_ptr<engine::Session>> Loaded = loadedSession(M.Paths, Off);
  if (!Loaded) {
    SideFailure(Loaded.error());
    return;
  }
  std::unique_ptr<engine::Session> Live = std::move(Loaded.value());
  engine::ServerConfig SrvCfg;
  SrvCfg.Workers = 2;
  SrvCfg.QueueCapacity = 64;
  auto Srv = std::make_unique<engine::Server>(*Live, SrvCfg);

  // Closed loop: 4 requests in flight from this thread.
  std::vector<std::pair<std::uint64_t, int>> EpochStates = {
      {Live->modelEpoch(), 0}};
  int State = 0;
  std::vector<double> ServerLat, ClientLat, ReloadTimes;
  std::vector<Reply> Replies;
  std::deque<Pending> Queue;
  std::uint64_t Submitted = 0;
  auto Complete = [&](Pending &P) {
    engine::ServerResponse Resp = P.Future.get();
    if (Resp.K != engine::ServerResponse::Kind::Ok) {
      R.check(false);
      return;
    }
    ClientLat.push_back(now() - P.SubmittedAt);
    ServerLat.push_back(Resp.LatencySeconds);
    Replies.push_back({Resp.Reply.Epoch, P.Total, P.Numerical,
                       fnv1a(Resp.Reply.Text)});
  };
  Window W(Seconds, 0);
  double Start = now();
  while (true) {
    while (Queue.size() < InFlight && W.more(0)) {
      Pending P;
      if (S.next() % 2 == 0) {
        P.Total = Popular[S.next() % Popular.size()];
        P.Numerical = S.next() % 2 == 0;
      } else {
        P.Total = ColdLo + (Offset + Stride * ColdIssued++) % ColdSpan;
        P.Numerical = S.next() % 3 == 0;
      }
      engine::ServerRequest Req;
      Req.Total = P.Total;
      Req.Algorithm = algoName(P.Numerical);
      P.SubmittedAt = now();
      P.Future = Srv->submit(std::move(Req));
      Queue.push_back(std::move(P));
      if (++Submitted % ReloadEvery == 0) {
        State ^= 1;
        if (!writeFile(M.Paths[0], State ? M.Alternate : M.Original))
          SideFailure("could not rewrite " + M.Paths[0]);
        double T0 = now();
        Result<int> Reloaded = Srv->reload();
        ReloadTimes.push_back(now() - T0);
        if (!Reloaded.ok() || Reloaded.value() != 1)
          SideFailure("reload did not pick up the rewritten model");
        EpochStates.push_back({Live->modelEpoch(), State});
      }
    }
    if (Queue.empty())
      break;
    // Block on the oldest request, then collect whatever else is done.
    Complete(Queue.front());
    Queue.pop_front();
    for (auto It = Queue.begin(); It != Queue.end();) {
      if (It->Future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        Complete(*It);
        It = Queue.erase(It);
      } else {
        ++It;
      }
    }
  }
  double Elapsed = now() - Start;
  engine::ServerStats Stats = Srv->stats();
  Srv.reset();
  InverseCacheCounts Cache = inverseCacheCounts(*Live);

  // Cold solves on first-seen totals below the stream's range.
  std::vector<double> ColdGeo, ColdNum;
  for (int I = 0; I < ColdProbes; ++I)
    for (bool Numerical : {false, true}) {
      double T0 = now();
      (void)Live->partitionRendered(250LL * Files + I, algoName(Numerical));
      (Numerical ? ColdNum : ColdGeo).push_back(now() - T0);
    }
  // The live session's caches are the largest allocation; drop them
  // before the reference sessions build theirs.
  Live.reset();

  // Checks: every reply against a fresh one-shot session for the model
  // contents of its epoch. First-seen totals are solved once by a
  // reference session per contents (cold, like a one-shot session);
  // popular keys each get their own fresh session.
  auto StateOf = [&](std::uint64_t Epoch) {
    int Found = 0;
    for (const auto &[E, St] : EpochStates)
      if (E <= Epoch)
        Found = St;
    return Found;
  };
  for (int St = 0; St < 2; ++St) {
    if (!writeFile(M.Paths[0], St ? M.Alternate : M.Original))
      SideFailure("could not rewrite " + M.Paths[0]);
    std::map<std::pair<std::int64_t, bool>, std::uint64_t> PopularHash;
    for (std::int64_t Total : Popular)
      for (bool Numerical : {false, true}) {
        Result<engine::PartitionReply> One =
            oneShot(M.Paths, Total, algoName(Numerical));
        PopularHash[{Total, Numerical}] = One ? fnv1a(One.value().Text) : 0;
      }
    // Three checkers, each with its own reference session (a shared one
    // would serialize them on the models' cache locks).
    constexpr std::size_t Checkers = 3;
    std::vector<long long> Good(Checkers, 0), Bad(Checkers, 0);
    std::vector<std::thread> Threads;
    for (std::size_t C = 0; C < Checkers; ++C)
      Threads.emplace_back([&, C] {
        Tracer Quiet(false);
        Result<std::unique_ptr<engine::Session>> Ref =
            loadedSession(M.Paths, Quiet);
        for (std::size_t I = C; I < Replies.size(); I += Checkers) {
          const Reply &Rep = Replies[I];
          if (StateOf(Rep.Epoch) != St)
            continue;
          auto P = PopularHash.find({Rep.Total, Rep.Numerical});
          std::uint64_t Want = 0;
          if (P != PopularHash.end()) {
            Want = P->second;
          } else if (Ref) {
            Result<engine::PartitionReply> Cold =
                Ref.value()->partitionRendered(Rep.Total,
                                               algoName(Rep.Numerical));
            Want = Cold ? fnv1a(Cold.value().Text) : 0;
          }
          ++(Want != 0 && Want == Rep.TextHash ? Good : Bad)[C];
        }
      });
    for (std::thread &Th : Threads)
      Th.join();
    for (std::size_t C = 0; C < Checkers; ++C) {
      R.Attempted += Good[C] + Bad[C];
      R.Failed += Bad[C];
    }
  }
  writeFile(M.Paths[0], M.Original);

  R.note("serve-churn probe: " + std::to_string(Files) +
         " model files, 2 workers, " + std::to_string(InFlight) +
         " in flight, " + std::to_string(Submitted) + " requests, " +
         std::to_string(ReloadTimes.size()) + " reloads");
  R.add("engine.churn_requests_per_s",
        static_cast<double>(ClientLat.size()) / Elapsed, "1/s");
  R.add("engine.churn_latency_p90_us", percentile(ClientLat, 90.0) * 1e6,
        "us");
  addInverseCache(R, Cache);
  R.add("core.cold_solve_geometric_us", median(ColdGeo) * 1e6, "us");
  R.add("core.cold_solve_numerical_us", median(ColdNum) * 1e6, "us");
  R.add("engine.reload_ms", median(ReloadTimes) * 1e3, "ms");
  R.add("engine.reloads", static_cast<double>(Stats.Reloads), "count");
  R.add("engine.server_cache_hit_ratio",
        Stats.CacheLookups ? static_cast<double>(Stats.CacheHits) /
                                 static_cast<double>(Stats.CacheLookups)
                           : 0.0,
        "ratio");
  R.add("engine.server_coalesced_ratio",
        Stats.Submitted ? static_cast<double>(Stats.Coalesced) /
                              static_cast<double>(Stats.Submitted)
                        : 0.0,
        "ratio");
  R.add("engine.server_resolve_p50_us", median(ServerLat) * 1e6, "us");
  R.add("engine.server_shed",
        static_cast<double>(Stats.ShedQueueFull + Stats.ShedDeadline +
                            Stats.ShedShutdown),
        "count");
}
