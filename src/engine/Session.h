//===-- engine/Session.h - The partition-engine session ---------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived partition engine behind the apps, tools and examples.
/// A Session owns one measure -> model -> partition pipeline: the
/// (simulated) platform and one performance-model slot per rank. It
/// exposes the pipeline as explicit phases —
///
///   measure   benchmark devices and fit models (three measurement modes:
///             parallel campaign, synchronised in-SPMD, native kernel);
///   fit       feed application-measured points into the per-rank models
///             (the adaptive routines' feedback loop);
///   partition compute a distribution of a total over the fitted models
///             with a registered algorithm;
///   execute   run an SPMD body on the session's platform.
///
/// Every phase returns a Result/Status instead of bool/assert, and every
/// name (model kind, partitioner, kernel) resolves through the registries,
/// so a bad name is a diagnosable error listing the alternatives.
///
/// Model slots loaded from files remember their source path plus an
/// (mtime, size, content hash) fingerprint; refreshModels() re-reads
/// files that changed on disk — including a rewrite within the same
/// timestamp granularity, which mtime alone cannot see — so a long-lived
/// session (partitioner --serve) picks up refreshed models without a
/// restart.
///
/// Sessions are thread-safe: model state is guarded by a shared mutex
/// (many concurrent partition() readers, exclusive mutators that new
/// readers queue behind, so a reload is never starved) and stamped
/// with a monotonically increasing *model epoch* that every mutation
/// bumps. A refreshModels() hot reload is therefore atomic with respect
/// to in-flight partition() calls — a solve sees either the old fit or
/// the new one, never a mix — and partitionRendered() reports the epoch
/// its answer was computed against. Models are handed out read-only, so
/// every mutation goes through a Session call that bumps the epoch.
///
/// The session keeps one memo entry per (algorithm, total), and it is
/// the engine's only partition cache. The entry is the last answer as a
/// PartitionReply: the Dist, the model epoch it was solved against and,
/// once partitionRendered() has rendered it, the reply text. Every model
/// mutation bumps the epoch under the exclusive lock and every solve
/// holds the shared lock, so an entry stamped with the current epoch is
/// the exact answer: partition() replays its Dist and
/// partitionRendered() the whole reply, without solving.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_ENGINE_SESSION_H
#define FUPERMOD_ENGINE_SESSION_H

#include "core/Benchmark.h"
#include "core/Partition.h"
#include "equalize/Policy.h"
#include "mpp/Runtime.h"
#include "sim/Cluster.h"
#include "support/Result.h"

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

namespace fupermod {

class Comm;
struct SpmdResult;

namespace engine {

/// Construction parameters of a Session. Names are validated against the
/// registries at create() time.
struct SessionConfig {
  /// The simulated platform (empty for sessions that only load model
  /// files or benchmark the native kernel).
  Cluster Platform;
  /// Model kind for every model the session builds.
  std::string ModelKind = "piecewise";
  /// Default partitioning algorithm (partition() can override per call).
  std::string Algorithm = "geometric";
  /// Kernel used by native measurement.
  std::string KernelName = "gemm";
  KernelConfig Kernel;
  /// When loading model files: skip unreadable/corrupt/unfitted models
  /// with a warning (excluding their rank from partitioning) instead of
  /// failing the load.
  bool AllowDegraded = false;
  /// Equalization policy for the session's balanced loops. When left
  /// empty and the platform spec carries an `equalize` line, create()
  /// adopts the spec's configuration; with neither, makeEqualizer()
  /// balances every round.
  equalize::EqualizeConfig Equalize;
};

/// One rank's model and its provenance.
struct ModelSlot {
  std::unique_ptr<Model> M;
  /// Raw measured points in benchmark order (measurement phases only).
  std::vector<Point> Raw;
  /// File the model was loaded from; empty for measured models.
  std::string Source;
  /// mtime of Source at load time (hot-reload detection).
  std::filesystem::file_time_type MTime{};
  /// Size of Source at load time. A rewrite within the mtime granularity
  /// usually changes the size; comparing it is cheap (one stat).
  std::uintmax_t FileSize = 0;
  /// FNV-1a hash of Source's bytes at load time — the backstop that
  /// catches a same-size rewrite within the mtime granularity.
  std::uint64_t ContentHash = 0;
  /// Why the rank is excluded from partitioning; empty = participating.
  std::string Exclusion;
};

/// Synchronised in-SPMD measurement plan: every rank of the platform
/// benchmarks its device at each size with barrier-synchronised
/// repetitions, and the points are allgathered so the session's models
/// see every rank's measurements (the examples' model-building loop).
struct SyncMeasurePlan {
  std::vector<double> Sizes;
  Precision Prec;
};

/// Native measurement plan: benchmark the session's kernel on this
/// machine over an even size grid.
struct NativeMeasurePlan {
  double MinSize = 32.0;
  double MaxSize = 1024.0;
  int NumPoints = 10;
  Precision Prec;
  /// Called after each size is measured (progress reporting).
  std::function<void(double Size, const Point &P)> OnPoint;
};

class BalancedLoop;

/// A partition answer stamped with the model epoch it was computed
/// against, plus the rendered one-shot-compatible text block. Dist,
/// epoch and text are produced under one reader lock, so they are
/// guaranteed mutually consistent even while hot reloads race the call.
struct PartitionReply {
  Dist D;
  /// Model epoch the solve ran against (see Session::modelEpoch()).
  std::uint64_t Epoch = 0;
  /// The partition block exactly as the one-shot partitioner prints it.
  std::string Text;
  /// True when the reply was replayed from the session's memo, without
  /// solving or rendering.
  bool Memoized = false;
};

/// The long-lived engine object. Create via Session::create(); all
/// phases are ordinary member calls returning Result/Status.
class Session {
public:
  /// Validates \p Config against the registries (model kind, default
  /// algorithm, kernel name). Returns a failure naming the registered
  /// alternatives on any unknown name.
  static Result<std::unique_ptr<Session>> create(SessionConfig Config);

  const SessionConfig &config() const { return Config; }
  const Cluster &platform() const { return Config.Platform; }

  /// --- measure -----------------------------------------------------
  ///
  /// Every measure call first checks its plan's Precision and fails
  /// without measuring unless 1 <= MinReps <= MaxReps, the target
  /// relative error, time limit and repetition timeout are positive,
  /// MaxRetries is non-negative and RetryBackoff is finite and
  /// non-negative.

  /// Benchmarks every device of the platform per \p Plan (the parallel
  /// model-building campaign; Plan.Kind is overridden by the session's
  /// model kind) and fills one slot per rank.
  Status measure(ModelBuildPlan Plan);

  /// Synchronised in-SPMD measurement: reproduces the examples' loop
  /// (one SimDeviceBackend per rank, barrier-synchronised repetitions,
  /// points allgathered each size) bit for bit.
  Status measureSynchronized(const SyncMeasurePlan &Plan);

  /// Benchmarks the configured kernel natively on this machine; fills a
  /// single slot.
  Status measureNative(const NativeMeasurePlan &Plan);

  /// --- model I/O and hot reload ------------------------------------

  /// Loads one model file per rank. On an unreadable or corrupt file the
  /// load fails with a diagnostic naming the file and parse error —
  /// unless AllowDegraded, which records a warning and excludes the
  /// rank. Unfitted models are likewise an error or an exclusion.
  Status loadModels(std::span<const std::string> Paths);

  /// Re-reads every file-backed slot whose source changed on disk since
  /// it was (re)loaded. Returns the number of models reloaded. A slot
  /// whose file became unreadable/corrupt keeps the old model (a warning
  /// is recorded).
  Result<int> refreshModels();

  /// Writes the model of \p Rank to \p Path.
  Status saveModel(int Rank, const std::string &Path) const;

  /// --- fit ---------------------------------------------------------

  /// Discards all slots and installs \p Count empty models of the
  /// session's kind (the adaptive feedback loop starts unfitted).
  Status initModels(int Count);

  /// Feeds one application-measured point into the model of \p Rank.
  Status feedback(int Rank, const Point &P);

  /// --- partition ---------------------------------------------------

  /// Distributes \p Total units over the participating ranks with
  /// \p Algorithm (empty = the session default). Excluded ranks receive
  /// zero units. Fails on unknown algorithm names (listing registered
  /// ones), unfitted models, or when the algorithm cannot produce a
  /// valid distribution. The answer is memoized per (algorithm, total);
  /// while the model epoch is unchanged a repeat replays it without
  /// solving.
  Result<Dist> partition(std::int64_t Total,
                         const std::string &Algorithm = "");

  /// Like partition(), but additionally stamps the answer with the model
  /// epoch it was computed against and renders the one-shot-compatible
  /// text block, all under one reader lock. This is the call the
  /// concurrent server and serve mode answer requests with: two replies
  /// with equal (Epoch, Total, algorithm) are bit-identical. The reply
  /// is memoized per (algorithm, total); while the model epoch is
  /// unchanged a repeat returns it marked Memoized, without solving or
  /// rendering. An answer partition() memoized is rendered without
  /// solving.
  Result<PartitionReply> partitionRendered(std::int64_t Total,
                                           const std::string &Algorithm = "");

  /// --- execute -----------------------------------------------------

  /// Runs \p Body on \p Ranks simulated processes of the platform under
  /// its cost model.
  Result<SpmdResult> execute(int Ranks,
                             const std::function<void(Comm &)> &Body);

  /// Builds a dynamic-balancing loop (partial models, even start) from
  /// the session's validated algorithm and model kind. Safe to call
  /// concurrently from execute() bodies.
  BalancedLoop makeBalancedLoop(std::int64_t Total, int NumProcs,
                                double StalenessDecay = 1.0) const;

  /// Instantiates the session's equalization policy — the one place the
  /// balanced loops' policy is chosen: the configured Equalize policy
  /// (explicit, or adopted from the platform spec by create()), else
  /// "every" with period 1. Replicate per rank: call once per SPMD rank.
  /// Fails only when a knob is out of range, which create() has already
  /// ruled out.
  Result<std::unique_ptr<equalize::Equalizer>> makeEqualizer() const;

  /// --- introspection -----------------------------------------------

  int rankCount() const;
  /// Read-only: models change only through the Session calls that bump
  /// the model epoch.
  const Model *model(int Rank) const;
  /// Read-only as well: never mutate the slot's model through it.
  const ModelSlot &slot(int Rank) const;
  /// Pointers to the participating (non-excluded) models, with their
  /// rank indices — the exact inputs partition() hands the algorithm.
  std::vector<const Model *> activeModels() const;

  /// Monotonically increasing counter of the model state: every mutation
  /// (load, measure, feedback, successful hot reload) bumps it. Two
  /// partitionRendered() replies with the same (epoch, total, algorithm)
  /// are interchangeable — the validity rule of the reply memo.
  std::uint64_t modelEpoch() const;

  /// Accumulated communication traffic of every SPMD run the session
  /// launched (execute() folds each run's counter snapshot in; callers
  /// that run SPMD through other channels can record extra snapshots).
  /// The serve summary's `# traffic:` line reads this.
  CommStatsSnapshot commTraffic() const;
  void recordCommTraffic(const CommStatsSnapshot &S);

  /// Warnings accumulated by degraded loads and refreshes (a snapshot —
  /// the live list may grow concurrently).
  std::vector<std::string> warnings() const;
  void clearWarnings();
  /// Atomically returns and clears the accumulated warnings (so two
  /// concurrent drains never print the same warning twice).
  std::vector<std::string> takeWarnings();

private:
  explicit Session(SessionConfig Config) : Config(std::move(Config)) {}

  /// Loads \p Path into \p Slot (model + source + fingerprint). On
  /// failure returns the diagnostic; with \p Degraded the slot is
  /// excluded instead and a warning recorded. Caller holds StateMutex.
  Status loadSlot(ModelSlot &Slot, const std::string &Path, bool Degraded);

  /// The memoized answer while its epoch is current, else a solve that
  /// is then memoized; caller holds StateMutex (shared suffices).
  /// \p Algorithm is already resolved (never empty).
  Result<Dist> partitionLocked(std::int64_t Total,
                               const std::string &Algorithm);

  /// The algorithm a request names: \p Algorithm, or the session default
  /// when it is empty.
  const std::string &algorithmName(const std::string &Algorithm) const {
    return Algorithm.empty() ? Config.Algorithm : Algorithm;
  }

  /// StateMutex shared, taken behind the turnstile (see Turnstile).
  std::shared_lock<std::shared_mutex> readLock() const;
  /// Both locks a mutation holds; the state lock is released first.
  struct WriteLock {
    std::unique_lock<std::mutex> Turn;
    std::unique_lock<std::shared_mutex> State;
  };
  WriteLock writeLock();

  SessionConfig Config;

  /// Guards Slots, Warnings and Epoch: shared for partition()/readers,
  /// exclusive for every mutation — which makes a hot reload atomic with
  /// respect to in-flight partition calls. Taken only through readLock()
  /// and writeLock().
  mutable std::shared_mutex StateMutex;
  /// The turnstile in front of StateMutex. glibc's rwlock lets new
  /// readers in while a writer waits, so a steady stream of partition()
  /// calls would hold a reload back for as long as it lasts. A writer
  /// holds the turnstile while it waits for and holds the exclusive lock,
  /// and every reader passes through it first, so readers that arrive
  /// after a waiting writer queue behind it. Hence no path may take
  /// StateMutex while it already holds it: the inner shared lock would
  /// wait behind a writer that waits for the outer one.
  mutable std::mutex Turnstile;
  std::vector<ModelSlot> Slots;
  std::vector<std::string> Warnings;
  std::uint64_t Epoch = 0;

  /// One memo entry per (algorithm, total): the last PartitionReply,
  /// whose Text stays empty until partitionRendered() renders it.
  using MemoKey = std::pair<std::string, std::int64_t>;

  /// Stores \p Reply as the entry for \p Key. A full memo is cleared
  /// first: that is rare at MaxMemoEntries distinct keys, and dropping
  /// all is simpler than an eviction order (it only costs the next calls
  /// a solve).
  void remember(const MemoKey &Key, PartitionReply Reply);

  /// Guards Memo. It has its own mutex because partition() readers
  /// share StateMutex yet must update it; it is held for a lookup or a
  /// write, never across a solve. Entries of an older epoch are
  /// harmless: the epoch check skips them.
  std::mutex MemoMutex;
  std::map<MemoKey, PartitionReply> Memo;
  static constexpr std::size_t MaxMemoEntries = 128;

  /// Folded counter snapshots of the session's SPMD runs (see
  /// commTraffic()).
  mutable std::mutex TrafficMutex;
  CommStatsSnapshot Traffic;
};

} // namespace engine
} // namespace fupermod

#endif // FUPERMOD_ENGINE_SESSION_H
