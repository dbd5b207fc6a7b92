//===-- tools/partitioner.cpp - data partitioning tool --------------------===//
//
// Counterpart of the original FuPerMod `partitioner` utility: reads the
// performance model files produced by `builder` (one per process) and
// computes the optimal distribution of a problem with the selected
// algorithm.
//
// The tool is a thin frontend over the engine Session: the session loads
// the models (remembering file mtimes), resolves the algorithm through
// the partitioner registry, and computes the distribution.
//
// Usage:
//   partitioner --total D [--algorithm constant|geometric|numerical]
//               [--output FILE] [--explain] [--allow-degraded] [--stats]
//               model0.fpm model1.fpm ...
//   partitioner --serve REQFILE [--algorithm A] [--allow-degraded]
//               [--workers N [--queue N] [--deadline-ms N]]
//               model0.fpm model1.fpm ...
//
// --serve REQFILE answers a batch of partition requests (one `TOTAL
// [ALGORITHM]` per line; `reload` forces a model re-read) from one
// long-lived session: the models are loaded and fitted once, and files
// that change on disk between requests are hot-reloaded automatically.
// REQFILE may be `-` to read requests from stdin — with a FIFO this is
// the pipe transport external clients drive a long-running server over.
//
// --workers N serves concurrently: N worker threads drain a bounded
// request queue (--queue, default 256) with admission control (overload
// sheds with structured `# rejected: queue_full|deadline|shutting_down`
// records instead of queueing without bound) and optional per-request
// deadlines (--deadline-ms). Responses are written in request order,
// byte-identical to the sequential mode's answers. In both modes a
// repeat request with unchanged models replays the session's memoized
// reply; the `# server:` footer counts those memo replays.
//
// --total prints the same reply block that --serve prints for that
// total, rendered by the session.
//
// --stats prints the partition latency and the data-movement cost of the
// distribution: the zero-copy handout broadcast, plus a replay of an
// even-split container migrating to the computed partition (minimal-move
// redistribute traffic) and one width-1 halo sweep over it — the comm
// counters an application pays to adopt the answer.
//
// --allow-degraded drops ranks whose model is unreadable, corrupt, or
// unfitted (no successful measurement — e.g. the device failed during
// model construction) with a warning, and partitions the full total over
// the survivors instead of refusing.
// --explain prints one line per rank stating whether it was included,
// capped by a feasibility limit, or excluded and why — so degraded runs
// are diagnosable from the CLI.
//
//===----------------------------------------------------------------------===//

#include "core/ModelIO.h"
#include "dist/PartitionedVector.h"
#include "engine/Serve.h"
#include "engine/Server.h"
#include "engine/Session.h"
#include "mpp/Runtime.h"
#include "support/Options.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>

using namespace fupermod;

namespace {

int usage(const char *Program) {
  std::fprintf(stderr,
               "usage: %s --total D [--algorithm "
               "constant|geometric|numerical] [--output FILE] "
               "[--explain] [--allow-degraded] [--stats] "
               "model0.fpm model1.fpm ...\n"
               "       %s --serve REQFILE|- [--algorithm A] "
               "[--allow-degraded] [--stats] [--workers N] [--queue N] "
               "[--deadline-ms N] model0.fpm model1.fpm ...\n",
               Program, Program);
  return 2;
}

/// The accumulated SPMD traffic of the session's runs, one deterministic
/// summary line shared by the serve modes and the one-shot --stats path.
void printTraffic(const engine::Session &Engine) {
  CommStatsSnapshot T = Engine.commTraffic();
  std::printf("# traffic: channels %llu, halo bytes %llu, redistribute "
              "bytes %llu\n",
              static_cast<unsigned long long>(T.ChannelsCreated),
              static_cast<unsigned long long>(T.HaloBytes),
              static_cast<unsigned long long>(T.RedistributeBytes));
}

/// Replays a client adopting \p D: an even-split container migrating to
/// it (minimal-move redistribute) plus one width-1 halo sweep. Returns
/// the run's comm counters — the cost of adopting the answer.
SpmdResult replayAdoption(const Dist &D) {
  Dist Even = Dist::even(D.Total, static_cast<int>(D.Parts.size()));
  return runSpmd(
      static_cast<int>(D.Parts.size()),
      [&](Comm &C) {
        dist::PartitionedVector<double> V(C, Even, 1);
        V.generate([](std::int64_t U, std::span<double> Row) {
          Row[0] = static_cast<double>(U);
        });
        V.redistribute(D);
        V.exchangeHalos(1, [](std::int64_t, std::span<double> Row) {
          Row[0] = 0.0;
        });
      },
      std::make_shared<UniformCostModel>(1e-5, 1e9));
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv, {"explain", "allow-degraded", "stats"});
  for (const std::string &Key :
       Opts.unknownKeys({"total", "algorithm", "output", "explain",
                         "allow-degraded", "stats", "serve", "workers",
                         "queue", "deadline-ms"})) {
    std::fprintf(stderr, "error: unknown option --%s\n", Key.c_str());
    return usage(Argv[0]);
  }

  // Range checks come before any narrowing: --workers becomes an int,
  // and --deadline-ms becomes std::chrono::nanoseconds.
  constexpr std::int64_t IntMax = std::numeric_limits<int>::max();
  constexpr std::int64_t DeadlineMaxMs =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::nanoseconds::max())
          .count();
  Result<std::int64_t> TotalR = Opts.checkedInt("total", 0);
  Result<std::int64_t> WorkersR = Opts.checkedInt("workers", 0, 0, IntMax);
  Result<std::int64_t> QueueR = Opts.checkedInt(
      "queue", 256, 1, std::numeric_limits<std::int64_t>::max());
  Result<std::int64_t> DeadlineR =
      Opts.checkedInt("deadline-ms", 0, 0, DeadlineMaxMs);
  for (const auto *R : {&TotalR, &WorkersR, &QueueR, &DeadlineR})
    if (!*R) {
      std::fprintf(stderr, "error: %s\n", R->error().c_str());
      return 2;
    }
  std::int64_t Total = TotalR.value();
  std::string Algorithm = Opts.get("algorithm", "geometric");
  std::string ServeFile = Opts.get("serve");
  bool Serve = Opts.has("serve");
  bool Explain = Opts.has("explain");
  bool AllowDegraded = Opts.has("allow-degraded");
  bool Stats = Opts.has("stats");
  const auto &Files = Opts.positional();

  if (Files.empty() || (Serve ? ServeFile.empty() : Total <= 0))
    return usage(Argv[0]);

  // One session behind both modes: it validates the algorithm name
  // against the registry, loads the models (remembering mtimes for hot
  // reload), and owns the partitioning pipeline.
  engine::SessionConfig Cfg;
  Cfg.Algorithm = Algorithm;
  Cfg.AllowDegraded = AllowDegraded;
  Result<std::unique_ptr<engine::Session>> SessionR =
      engine::Session::create(std::move(Cfg));
  if (!SessionR) {
    std::fprintf(stderr, "error: %s\n", SessionR.error().c_str());
    return 2;
  }
  engine::Session &Engine = *SessionR.value();

  if (Status S = Engine.loadModels(Files); !S) {
    std::fprintf(stderr, "error: %s\n", S.error().c_str());
    return 1;
  }
  for (const std::string &W : Engine.warnings())
    std::fprintf(stderr, "warning: %s\n", W.c_str());
  Engine.clearWarnings();

  if (Serve) {
    std::ifstream FileIS;
    if (ServeFile != "-") {
      FileIS.open(ServeFile);
      if (!FileIS) {
        std::fprintf(stderr, "error: cannot open request file %s\n",
                     ServeFile.c_str());
        return 1;
      }
    }
    std::istream &IS = ServeFile == "-" ? std::cin : FileIS;

    engine::ServeStats St;
    int Workers = static_cast<int>(WorkersR.value());
    if (Workers > 0) {
      // Concurrent serving: N workers over a bounded queue, streamed
      // straight from the request source (file, stdin, or FIFO pipe).
      engine::ServerConfig SrvCfg;
      SrvCfg.Workers = Workers;
      SrvCfg.QueueCapacity = static_cast<std::size_t>(QueueR.value());
      SrvCfg.DefaultDeadline = std::chrono::milliseconds(DeadlineR.value());
      engine::Server Srv(Engine, SrvCfg);
      St = engine::serveStream(Srv, IS, std::cout);
      Srv.shutdown();
      engine::ServerStats SrvSt = Srv.stats();
      std::printf("# served %d request(s), %d failed, %d rejected, "
                  "%d model reload(s)\n",
                  St.Answered, St.Failed, St.Rejected, St.Reloaded);
      std::printf("# server: %d workers, queue %zu, %llu memo replays / "
                  "%llu lookups, shed "
                  "queue_full=%llu deadline=%llu shutting_down=%llu\n",
                  Workers, SrvCfg.QueueCapacity,
                  static_cast<unsigned long long>(SrvSt.CacheHits),
                  static_cast<unsigned long long>(SrvSt.CacheLookups),
                  static_cast<unsigned long long>(SrvSt.ShedQueueFull),
                  static_cast<unsigned long long>(SrvSt.ShedDeadline),
                  static_cast<unsigned long long>(SrvSt.ShedShutdown));
      printTraffic(Engine);
    } else {
      Result<std::vector<engine::ServeRequest>> Requests =
          engine::parseServeRequests(IS);
      if (!Requests) {
        std::fprintf(stderr, "error: %s: %s\n", ServeFile.c_str(),
                     Requests.error().c_str());
        return 2;
      }
      St = engine::serveRequests(Engine, Requests.value(), std::cout);
      std::printf("# served %d request(s), %d failed, %d model reload(s)\n",
                  St.Answered, St.Failed, St.Reloaded);
      if (Stats) {
        // Adoption replay per distinct answered request: an even-split
        // container migrating to the answer plus one width-1 halo sweep,
        // recorded into the session so `# traffic:` below reports the
        // comm cost clients pay to adopt the served distributions.
        std::vector<std::pair<std::int64_t, std::string>> Seen;
        for (const engine::ServeRequest &Req : Requests.value()) {
          if (Req.Reload || !Req.ParseError.empty() || Req.Total <= 0)
            continue;
          std::pair<std::int64_t, std::string> Key{Req.Total,
                                                   Req.Algorithm};
          if (std::find(Seen.begin(), Seen.end(), Key) != Seen.end())
            continue;
          Seen.push_back(Key);
          Result<Dist> Answer = Engine.partition(Req.Total, Req.Algorithm);
          if (!Answer)
            continue; // Already reported as a per-request error.
          Engine.recordCommTraffic(replayAdoption(Answer.value()).Comm);
        }
      }
      printTraffic(Engine);
    }
    return St.Failed == 0 ? 0 : 1;
  }

  auto PartitionStart = std::chrono::steady_clock::now();
  Result<engine::PartitionReply> ReplyR = Engine.partitionRendered(Total);
  if (!ReplyR) {
    std::fprintf(stderr, "error: %s\n", ReplyR.error().c_str());
    return 1;
  }
  double PartitionSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    PartitionStart)
          .count();
  const Dist &Out = ReplyR.value().D;
  std::fputs(ReplyR.value().Text.c_str(), stdout);

  if (Stats) {
    std::printf("# stats: partition latency %.6f s\n", PartitionSeconds);

    // Comm-side counters: replay the handout of this distribution to the
    // P ranks through the runtime's zero-copy broadcast. Logical traffic
    // scales with the fan-out; physical copies do not (the serialized
    // distribution is shared, not duplicated per rank).
    std::ostringstream Ser;
    writeDist(Ser, Out);
    std::string Blob = Ser.str();
    std::vector<std::byte> Bytes(Blob.size());
    std::memcpy(Bytes.data(), Blob.data(), Blob.size());
    SpmdResult Handout = runSpmd(
        static_cast<int>(Files.size()),
        [&](Comm &C) {
          Payload Data;
          if (C.rank() == 0)
            Data = Payload::adoptBytes(Bytes);
          C.bcastPayload(Data, 0);
        },
        std::make_shared<UniformCostModel>(1e-5, 1e9));
    std::printf("# stats: handout of %zu-byte distribution to %zu ranks: "
                "messages %llu, bytes logically moved %llu, bytes "
                "physically copied %llu, channels instantiated %llu\n",
                Blob.size(), Files.size(),
                static_cast<unsigned long long>(Handout.Comm.Messages),
                static_cast<unsigned long long>(Handout.Comm.BytesLogical),
                static_cast<unsigned long long>(Handout.Comm.BytesCopied),
                static_cast<unsigned long long>(
                    Handout.Comm.ChannelsCreated));

    // Adoption cost (the interval-overlap plan moves the analytic
    // minimum). Both paths are zero-copy, so physical copies must stay 0.
    std::int64_t MinUnits = dist::minimalTransferUnits(
        Dist::even(Total, static_cast<int>(Files.size())).contiguousStarts(),
        Out.contiguousStarts());
    SpmdResult Adopt = replayAdoption(Out);
    std::printf("# stats: adopting the distribution from an even split: "
                "redistribute bytes %llu (analytic minimum %llu), halo "
                "bytes %llu per width-1 sweep, bytes physically copied "
                "%llu\n",
                static_cast<unsigned long long>(
                    Adopt.Comm.RedistributeBytes),
                static_cast<unsigned long long>(MinUnits) *
                    static_cast<unsigned long long>(sizeof(double)),
                static_cast<unsigned long long>(Adopt.Comm.HaloBytes),
                static_cast<unsigned long long>(Adopt.Comm.BytesCopied));
  }

  if (Explain) {
    for (std::size_t I = 0; I < Files.size(); ++I) {
      const engine::ModelSlot &Slot = Engine.slot(static_cast<int>(I));
      if (!Slot.Exclusion.empty()) {
        std::printf("explain rank %zu: excluded (%s)\n", I,
                    Slot.Exclusion.c_str());
        continue;
      }
      double Limit = Slot.M->feasibleLimit();
      if (std::isfinite(Limit))
        std::printf("explain rank %zu: included, capped at %lld units "
                    "(smallest known-infeasible size %g)\n",
                    I, static_cast<long long>(maxUnitsUnderCap(Limit)),
                    Limit);
      else
        std::printf("explain rank %zu: included, no feasibility cap\n", I);
    }
  }

  std::string Output = Opts.get("output");
  if (!Output.empty()) {
    std::ofstream OS(Output);
    if (!OS || !writeDist(OS, Out)) {
      std::fprintf(stderr, "error: cannot write %s\n", Output.c_str());
      return 1;
    }
    std::printf("# wrote %s\n", Output.c_str());
  }
  return 0;
}
