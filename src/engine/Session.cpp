//===-- engine/Session.cpp - The partition-engine session -----------------===//

#include "engine/Session.h"

#include "core/Dynamic.h"
#include "core/ModelIO.h"
#include "core/Partitioners.h"
#include "engine/Balance.h"
#include "mpp/Runtime.h"
#include "support/Hash.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <system_error>
#include <utility>

using namespace fupermod;
using namespace fupermod::engine;

namespace {

/// What refreshModels() compares to decide whether a file changed: the
/// cheap stat fields first, the content hash as the backstop for a
/// rewrite within the filesystem's timestamp granularity.
struct FileFingerprint {
  std::filesystem::file_time_type MTime{};
  std::uintmax_t Size = 0;
};

/// Stat of \p Path; epoch-default mtime and zero size when it cannot be
/// stat'ed (the subsequent reload then reports the real error).
FileFingerprint statOf(const std::string &Path) {
  FileFingerprint F;
  std::error_code Ec;
  F.MTime = std::filesystem::last_write_time(Path, Ec);
  if (Ec)
    F.MTime = std::filesystem::file_time_type{};
  F.Size = std::filesystem::file_size(Path, Ec);
  if (Ec)
    F.Size = 0;
  return F;
}

/// FNV-1a over the file's bytes; 0 when the file cannot be read (which
/// never matches a successfully hashed load, so the file reads as
/// changed and the reload path reports the real error).
std::uint64_t hashFileContents(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS)
    return 0;
  std::uint64_t H = Fnv1aBasis;
  char Buf[4096];
  while (IS.read(Buf, sizeof(Buf)) || IS.gcount() > 0) {
    H = fnv1a(std::as_bytes(std::span<const char>(
                  Buf, static_cast<std::size_t>(IS.gcount()))),
              H);
    if (!IS)
      break;
  }
  return H;
}

/// Fails unless \p Prec is one runBenchmark can honour (it only asserts
/// its repetition bounds, which release builds compile out).
Status checkPrecision(const char *Caller, const Precision &Prec) {
  if (Prec.MinReps < 1 || Prec.MaxReps < Prec.MinReps ||
      !(Prec.TargetRelativeError > 0.0) || !(Prec.TimeLimit > 0.0) ||
      !(Prec.RepTimeout > 0.0) || Prec.MaxRetries < 0 ||
      !(Prec.RetryBackoff >= 0.0) || !std::isfinite(Prec.RetryBackoff))
    return Status::failure(
        std::string(Caller) +
        ": invalid precision (need 1 <= min reps <= max reps, positive "
        "relative error, time limit and repetition timeout, retries >= 0 "
        "and a finite backoff >= 0)");
  return okStatus();
}

} // namespace

Result<std::unique_ptr<Session>> Session::create(SessionConfig Config) {
  using R = Result<std::unique_ptr<Session>>;
  if (!modelRegistry().contains(Config.ModelKind))
    return R::failure(modelRegistry().unknownNameError(Config.ModelKind));
  if (!Config.Algorithm.empty() &&
      !partitionerRegistry().contains(Config.Algorithm))
    return R::failure(
        partitionerRegistry().unknownNameError(Config.Algorithm));
  if (!kernelRegistry().contains(Config.KernelName))
    return R::failure(kernelRegistry().unknownNameError(Config.KernelName));
  // Explicit config wins; otherwise adopt the platform spec's `equalize`
  // line, so a .cluster file alone can turn the subsystem on.
  if (Config.Equalize.Policy.empty() &&
      !Config.Platform.Equalize.Policy.empty()) {
    Result<equalize::EqualizeConfig> FromSpec =
        equalize::configFromSpec(Config.Platform.Equalize);
    if (!FromSpec)
      return R::failure(FromSpec.error());
    Config.Equalize = FromSpec.value();
  } else if (Status S = equalize::validateConfig(Config.Equalize); !S) {
    return R::failure(S.error());
  }
  return std::unique_ptr<Session>(new Session(std::move(Config)));
}

std::shared_lock<std::shared_mutex> Session::readLock() const {
  std::lock_guard<std::mutex> Turn(Turnstile);
  return std::shared_lock<std::shared_mutex>(StateMutex);
}

Session::WriteLock Session::writeLock() {
  std::unique_lock<std::mutex> Turn(Turnstile);
  return {std::move(Turn), std::unique_lock<std::shared_mutex>(StateMutex)};
}

Status Session::measure(ModelBuildPlan Plan) {
  if (Config.Platform.size() <= 0)
    return Status::failure("measure: the session has no platform devices");
  if (Plan.MinSize <= 0.0 || Plan.MaxSize < Plan.MinSize ||
      Plan.NumPoints < 1 || Plan.Jobs < 1)
    return Status::failure("measure: invalid benchmark plan (need "
                           "0 < min <= max, points >= 1, jobs >= 1)");
  if (Status S = checkPrecision("measure", Plan.Prec); !S)
    return S;
  Plan.Kind = Config.ModelKind;
  // The campaign itself runs unlocked (it can take seconds and touches
  // no session state); only installing the results needs exclusivity.
  std::vector<BuiltModel> Built = buildModelsParallel(Config.Platform, Plan);
  WriteLock Lock = writeLock();
  Slots.clear();
  Slots.resize(Built.size());
  for (std::size_t I = 0; I < Built.size(); ++I) {
    Slots[I].M = std::move(Built[I].M);
    Slots[I].Raw = std::move(Built[I].Raw);
  }
  ++Epoch;
  return okStatus();
}

Status Session::measureSynchronized(const SyncMeasurePlan &Plan) {
  const Cluster &Cl = Config.Platform;
  if (Cl.size() <= 0)
    return Status::failure(
        "measureSynchronized: the session has no platform devices");
  if (Plan.Sizes.empty())
    return Status::failure("measureSynchronized: no benchmark sizes");
  if (Status S = checkPrecision("measureSynchronized", Plan.Prec); !S)
    return S;
  // Exclusive for the whole SPMD run: rank 0's body writes the slots,
  // and runSpmd's join orders those writes before the models are fitted.
  WriteLock Lock = writeLock();
  Slots.clear();
  Slots.resize(static_cast<std::size_t>(Cl.size()));
  runSpmd(
      Cl.size(),
      [&](Comm &C) {
        SimDevice Dev = Cl.makeDevice(C.rank());
        SimDeviceBackend Backend(Dev, &C);
        for (double Size : Plan.Sizes) {
          Point P = runBenchmark(Backend, Size, Plan.Prec, &C);
          std::vector<Point> All =
              C.allgatherv(std::span<const Point>(&P, 1));
          if (C.rank() == 0)
            for (int Q = 0; Q < C.size(); ++Q)
              Slots[static_cast<std::size_t>(Q)].Raw.push_back(
                  All[static_cast<std::size_t>(Q)]);
        }
      },
      Cl.makeCostModel());
  for (ModelSlot &S : Slots) {
    S.M = makeModel(Config.ModelKind);
    S.M->updateAll(S.Raw);
  }
  ++Epoch;
  return okStatus();
}

Status Session::measureNative(const NativeMeasurePlan &Plan) {
  if (Plan.MinSize <= 0.0 || Plan.MaxSize < Plan.MinSize ||
      Plan.NumPoints < 1)
    return Status::failure("measureNative: invalid benchmark plan (need "
                           "0 < min <= max, points >= 1)");
  if (Status S = checkPrecision("measureNative", Plan.Prec); !S)
    return S;
  std::string Err;
  std::unique_ptr<Kernel> K = makeKernel(Config.KernelName, Config.Kernel,
                                         &Err);
  if (!K)
    return Status::failure(Err);
  NativeKernelBackend Backend(*K);
  ModelSlot Slot;
  ModelBuildPlan Grid;
  Grid.MinSize = Plan.MinSize;
  Grid.MaxSize = Plan.MaxSize;
  Grid.NumPoints = Plan.NumPoints;
  for (double Size : buildSizeGrid(Grid)) {
    Point P = runBenchmark(Backend, Size, Plan.Prec);
    Slot.Raw.push_back(P);
    if (Plan.OnPoint)
      Plan.OnPoint(Size, P);
  }
  Slot.M = makeModel(Config.ModelKind);
  Slot.M->updateAll(Slot.Raw);
  WriteLock Lock = writeLock();
  Slots.clear();
  Slots.push_back(std::move(Slot));
  ++Epoch;
  return okStatus();
}

Status Session::loadSlot(ModelSlot &Slot, const std::string &Path,
                         bool Degraded) {
  Slot.Source = Path;
  FileFingerprint F = statOf(Path);
  Slot.MTime = F.MTime;
  Slot.FileSize = F.Size;
  Slot.ContentHash = hashFileContents(Path);
  std::string Err;
  std::unique_ptr<Model> M = loadModel(Path, &Err);
  if (!M) {
    if (!Degraded)
      return Status::failure("cannot read model file " + Err);
    Warnings.push_back("skipping unreadable model " + Err);
    Slot.Exclusion = Err;
    return okStatus();
  }
  if (!M->fitted()) {
    if (!Degraded)
      return Status::failure(
          "model " + Path +
          " has no successful measurements (rerun builder, or pass "
          "--allow-degraded to partition over the remaining ranks)");
    Warnings.push_back("excluding " + Path +
                       ": model unfitted, no successful measurements");
    Slot.Exclusion = "model unfitted: no successful measurements";
    Slot.M = std::move(M);
    return okStatus();
  }
  Slot.M = std::move(M);
  Slot.Exclusion.clear();
  return okStatus();
}

Status Session::loadModels(std::span<const std::string> Paths) {
  if (Paths.empty())
    return Status::failure("loadModels: no model files given");
  WriteLock Lock = writeLock();
  std::vector<ModelSlot> Loaded(Paths.size());
  for (std::size_t I = 0; I < Paths.size(); ++I) {
    Status S = loadSlot(Loaded[I], Paths[I], Config.AllowDegraded);
    if (!S)
      return S;
  }
  Slots = std::move(Loaded);
  ++Epoch;
  return okStatus();
}

Result<int> Session::refreshModels() {
  WriteLock Lock = writeLock();
  int Reloaded = 0;
  for (ModelSlot &Slot : Slots) {
    if (Slot.Source.empty())
      continue;
    FileFingerprint Now = statOf(Slot.Source);
    if (Now.MTime == Slot.MTime && Now.Size == Slot.FileSize) {
      // mtime and size unchanged — but a rewrite within the timestamp
      // granularity looks exactly like this, so hash the contents
      // before declaring the file unchanged.
      std::uint64_t Hash = hashFileContents(Slot.Source);
      if (Hash == Slot.ContentHash)
        continue;
      Slot.ContentHash = Hash;
    } else {
      Slot.ContentHash = hashFileContents(Slot.Source);
    }
    // Remember the observed fingerprint even when the reload fails, so a
    // broken file is re-parsed only after it changes again.
    Slot.MTime = Now.MTime;
    Slot.FileSize = Now.Size;
    std::string Err;
    std::unique_ptr<Model> M = loadModel(Slot.Source, &Err);
    if (!M) {
      Warnings.push_back("reload of " + Err +
                         "; keeping the previous model");
      continue;
    }
    if (!M->fitted()) {
      Warnings.push_back("reload of " + Slot.Source +
                         " produced an unfitted model; keeping the "
                         "previous model");
      continue;
    }
    Slot.M = std::move(M);
    Slot.Exclusion.clear();
    ++Reloaded;
  }
  if (Reloaded > 0)
    ++Epoch;
  return Reloaded;
}

Status Session::saveModel(int Rank, const std::string &Path) const {
  auto Lock = readLock();
  if (Rank < 0 || Rank >= static_cast<int>(Slots.size()))
    return Status::failure("saveModel: rank " + std::to_string(Rank) +
                           " out of range");
  const ModelSlot &Slot = Slots[static_cast<std::size_t>(Rank)];
  if (!Slot.M)
    return Status::failure("saveModel: rank " + std::to_string(Rank) +
                           " has no model");
  if (!fupermod::saveModel(Path, *Slot.M))
    return Status::failure("cannot write " + Path);
  return okStatus();
}

Status Session::initModels(int Count) {
  if (Count <= 0)
    return Status::failure("initModels: need at least one model");
  WriteLock Lock = writeLock();
  Slots.clear();
  Slots.resize(static_cast<std::size_t>(Count));
  for (ModelSlot &S : Slots)
    S.M = makeModel(Config.ModelKind);
  ++Epoch;
  return okStatus();
}

Status Session::feedback(int Rank, const Point &P) {
  WriteLock Lock = writeLock();
  if (Rank < 0 || Rank >= static_cast<int>(Slots.size()))
    return Status::failure("feedback: rank " + std::to_string(Rank) +
                           " out of range");
  ModelSlot &Slot = Slots[static_cast<std::size_t>(Rank)];
  if (!Slot.M)
    return Status::failure("feedback: rank " + std::to_string(Rank) +
                           " has no model");
  Slot.M->update(P);
  ++Epoch;
  return okStatus();
}

void Session::remember(const MemoKey &Key, PartitionReply Reply) {
  std::lock_guard<std::mutex> MemoLock(MemoMutex);
  if (Memo.size() >= MaxMemoEntries && Memo.find(Key) == Memo.end())
    Memo.clear();
  Memo[Key] = std::move(Reply);
}

Result<Dist> Session::partitionLocked(std::int64_t Total,
                                      const std::string &Name) {
  using R = Result<Dist>;
  MemoKey Key(Name, Total);
  {
    // Every model mutation bumps Epoch under the exclusive lock, so an
    // answer stamped with the current epoch is still the exact answer.
    std::lock_guard<std::mutex> MemoLock(MemoMutex);
    auto It = Memo.find(Key);
    if (It != Memo.end() && It->second.Epoch == Epoch)
      return It->second.D;
  }
  std::string Err;
  Partitioner Algo = findPartitioner(Name, &Err);
  if (!Algo)
    return R::failure(Err);
  if (Total <= 0)
    return R::failure("partition: total must be positive, got " +
                      std::to_string(Total));
  if (Slots.empty())
    return R::failure("partition: no models (run a measure phase or "
                      "loadModels first)");

  std::vector<Model *> Active;
  std::vector<std::size_t> ActiveRanks;
  for (std::size_t I = 0; I < Slots.size(); ++I) {
    ModelSlot &Slot = Slots[I];
    if (!Slot.Exclusion.empty())
      continue;
    if (!Slot.M || !Slot.M->fitted()) {
      std::string Who = Slot.Source.empty() ? "rank " + std::to_string(I)
                                            : Slot.Source;
      return R::failure("partition: model of " + Who +
                        " has no successful measurements");
    }
    Active.push_back(Slot.M.get());
    ActiveRanks.push_back(I);
  }
  if (Active.empty())
    return R::failure("partition: every rank's model is unfitted or "
                      "excluded");

  Dist Sub;
  if (!Algo(Total, Active, Sub))
    return R::failure("partitioning failed (unfitted model or insufficient "
                      "device capacity for " + std::to_string(Total) +
                      " units)");

  // Map the participating ranks' shares back; excluded ranks hold 0.
  Dist Out;
  Out.Total = Total;
  Out.Parts.assign(Slots.size(), Part());
  for (std::size_t I = 0; I < ActiveRanks.size(); ++I)
    Out.Parts[ActiveRanks[I]] = Sub.Parts[I];
  remember(Key, {Out, Epoch, /*Text=*/"", /*Memoized=*/false});
  return Out;
}

Result<Dist> Session::partition(std::int64_t Total,
                                const std::string &Algorithm) {
  auto Lock = readLock();
  return partitionLocked(Total, algorithmName(Algorithm));
}

Result<PartitionReply> Session::partitionRendered(
    std::int64_t Total, const std::string &Algorithm) {
  using R = Result<PartitionReply>;
  const std::string &Name = algorithmName(Algorithm);
  auto Lock = readLock();
  {
    std::lock_guard<std::mutex> MemoLock(MemoMutex);
    auto It = Memo.find({Name, Total});
    if (It != Memo.end() && It->second.Epoch == Epoch &&
        !It->second.Text.empty()) {
      PartitionReply Replay = It->second;
      Replay.Memoized = true;
      return Replay;
    }
  }
  Result<Dist> D = partitionLocked(Total, Name);
  if (!D)
    return R::failure(D.error());

  PartitionReply Reply;
  Reply.D = std::move(D.value());
  Reply.Epoch = Epoch;

  // The numbers go through Buf, which holds any of them (%.6f of the
  // largest double is 316 characters); the algorithm name and the model
  // paths are appended whole, whatever their length.
  const Dist &Out = Reply.D;
  std::string &Text = Reply.Text;
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                " partitioning of %lld units over %zu processes\n",
                static_cast<long long>(Out.Total), Out.Parts.size());
  Text += "# ";
  Text += Name;
  Text += Buf;
  for (std::size_t I = 0; I < Out.Parts.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf),
                  "rank %-3zu units %-10lld predicted_time %.6f  (", I,
                  static_cast<long long>(Out.Parts[I].Units),
                  Out.Parts[I].PredictedTime);
    Text += Buf;
    Text += Slots[I].Source;
    Text += ")\n";
  }
  std::snprintf(Buf, sizeof(Buf), "# max predicted time: %.6f\n",
                Out.maxPredictedTime());
  Text += Buf;

  remember({Name, Total}, Reply);
  return Reply;
}

Result<SpmdResult> Session::execute(int Ranks,
                                    const std::function<void(Comm &)> &Body) {
  using R = Result<SpmdResult>;
  if (Ranks <= 0)
    return R::failure("execute: need at least one rank");
  if (Config.Platform.size() <= 0)
    return R::failure("execute: the session has no platform devices");
  if (!Body)
    return R::failure("execute: no SPMD body");
  R Res = runSpmd(Ranks, Body, Config.Platform.makeCostModel());
  if (Res)
    recordCommTraffic(Res.value().Comm);
  return Res;
}

BalancedLoop Session::makeBalancedLoop(std::int64_t Total, int NumProcs,
                                       double StalenessDecay) const {
  // Names were validated at create(); the lookup cannot fail here.
  return BalancedLoop(findPartitioner(Config.Algorithm), Config.ModelKind,
                      Total, NumProcs, StalenessDecay);
}

Result<std::unique_ptr<equalize::Equalizer>> Session::makeEqualizer() const {
  if (!Config.Equalize.Policy.empty())
    return equalize::makeEqualizer(Config.Equalize);
  equalize::EqualizeConfig EveryRound;
  EveryRound.Policy = "every";
  return equalize::makeEqualizer(EveryRound);
}

CommStatsSnapshot Session::commTraffic() const {
  std::lock_guard<std::mutex> Lock(TrafficMutex);
  return Traffic;
}

void Session::recordCommTraffic(const CommStatsSnapshot &S) {
  std::lock_guard<std::mutex> Lock(TrafficMutex);
  Traffic.Messages += S.Messages;
  Traffic.BytesLogical += S.BytesLogical;
  Traffic.BytesCopied += S.BytesCopied;
  Traffic.HaloBytes += S.HaloBytes;
  Traffic.RedistributeBytes += S.RedistributeBytes;
  Traffic.ChannelsCreated += S.ChannelsCreated;
  for (const auto &[Name, Value] : S.Counters)
    Traffic.Counters[Name] += Value;
}

int Session::rankCount() const {
  auto Lock = readLock();
  return static_cast<int>(Slots.size());
}

std::uint64_t Session::modelEpoch() const {
  auto Lock = readLock();
  return Epoch;
}

const Model *Session::model(int Rank) const {
  auto Lock = readLock();
  if (Rank < 0 || Rank >= static_cast<int>(Slots.size()))
    return nullptr;
  return Slots[static_cast<std::size_t>(Rank)].M.get();
}

const ModelSlot &Session::slot(int Rank) const {
  auto Lock = readLock();
  return Slots.at(static_cast<std::size_t>(Rank));
}

std::vector<const Model *> Session::activeModels() const {
  auto Lock = readLock();
  std::vector<const Model *> Out;
  for (const ModelSlot &Slot : Slots)
    if (Slot.Exclusion.empty() && Slot.M && Slot.M->fitted())
      Out.push_back(Slot.M.get());
  return Out;
}

std::vector<std::string> Session::warnings() const {
  auto Lock = readLock();
  return Warnings;
}

void Session::clearWarnings() {
  WriteLock Lock = writeLock();
  Warnings.clear();
}

std::vector<std::string> Session::takeWarnings() {
  WriteLock Lock = writeLock();
  std::vector<std::string> Out;
  Out.swap(Warnings);
  return Out;
}
