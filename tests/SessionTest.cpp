//===-- tests/SessionTest.cpp - partition-engine session tests ------------===//

#include "engine/Serve.h"
#include "engine/Session.h"
#include "core/ModelIO.h"
#include "mpp/Runtime.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

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

/// A session over the two-device simulated platform.
std::unique_ptr<Session> makeTwoDeviceSession() {
  SessionConfig Cfg;
  Cfg.Platform = makeTwoDeviceCluster();
  Cfg.Platform.NoiseSigma = 0.0;
  auto R = Session::create(std::move(Cfg));
  EXPECT_TRUE(R.ok()) << R.error();
  return std::move(R.value());
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

/// refreshModels() keys on mtime; filesystem timestamps can be coarse,
/// so force a visibly newer mtime after rewriting a file.
void bumpMTime(const std::string &Path) {
  std::filesystem::last_write_time(
      Path, std::filesystem::last_write_time(Path) +
                std::chrono::milliseconds(10));
}

} // namespace

TEST(Session, CreateRejectsUnknownNamesWithAlternatives) {
  {
    SessionConfig Cfg;
    Cfg.ModelKind = "spline";
    auto R = Session::create(std::move(Cfg));
    ASSERT_FALSE(R.ok());
    EXPECT_NE(R.error().find("unknown model kind 'spline'"),
              std::string::npos)
        << R.error();
    EXPECT_NE(R.error().find("piecewise"), std::string::npos) << R.error();
  }
  {
    SessionConfig Cfg;
    Cfg.Algorithm = "fastest";
    auto R = Session::create(std::move(Cfg));
    ASSERT_FALSE(R.ok());
    EXPECT_NE(R.error().find("unknown partitioner 'fastest'"),
              std::string::npos)
        << R.error();
  }
  {
    SessionConfig Cfg;
    Cfg.KernelName = "fft";
    auto R = Session::create(std::move(Cfg));
    ASSERT_FALSE(R.ok());
    EXPECT_NE(R.error().find("unknown kernel 'fft'"), std::string::npos)
        << R.error();
  }
}

TEST(Session, MeasureSynchronizedFitsEveryRank) {
  auto S = makeTwoDeviceSession();
  SyncMeasurePlan Plan;
  Plan.Prec.MinReps = 2;
  Plan.Prec.MaxReps = 3;
  for (int I = 1; I <= 5; ++I)
    Plan.Sizes.push_back(100.0 * I);
  ASSERT_TRUE(S->measureSynchronized(Plan).ok());
  ASSERT_EQ(S->rankCount(), 2);
  for (int R = 0; R < 2; ++R) {
    ASSERT_NE(S->model(R), nullptr);
    EXPECT_TRUE(S->model(R)->fitted()) << R;
    EXPECT_EQ(S->slot(R).Raw.size(), Plan.Sizes.size());
  }
  Result<Dist> D = S->partition(1000);
  ASSERT_TRUE(D.ok()) << D.error();
  EXPECT_EQ(D.value().Parts[0].Units + D.value().Parts[1].Units, 1000);
}

TEST(Session, FeedbackLoopDrivesPartitioning) {
  auto S = makeTwoDeviceSession();
  ASSERT_TRUE(S->initModels(2).ok());
  // Unfitted models are a partition error naming the rank.
  Result<Dist> Unfitted = S->partition(100);
  ASSERT_FALSE(Unfitted.ok());
  EXPECT_NE(Unfitted.error().find("rank 0"), std::string::npos)
      << Unfitted.error();

  // Rank 0 is 3x faster; the distribution must lean its way.
  for (int I = 1; I <= 3; ++I) {
    ASSERT_TRUE(S->feedback(0, makePoint(90.0 * I, 1.0 * I)).ok());
    ASSERT_TRUE(S->feedback(1, makePoint(30.0 * I, 1.0 * I)).ok());
  }
  Result<Dist> D = S->partition(400);
  ASSERT_TRUE(D.ok()) << D.error();
  EXPECT_GT(D.value().Parts[0].Units, D.value().Parts[1].Units);
  EXPECT_FALSE(S->feedback(7, makePoint(1.0, 1.0)).ok());
}

TEST(Session, PartitionValidatesInputs) {
  auto S = makeTwoDeviceSession();
  Result<Dist> NoModels = S->partition(100);
  ASSERT_FALSE(NoModels.ok());
  EXPECT_NE(NoModels.error().find("no models"), std::string::npos);

  ASSERT_TRUE(S->initModels(2).ok());
  ASSERT_TRUE(S->feedback(0, makePoint(100.0, 1.0)).ok());
  ASSERT_TRUE(S->feedback(1, makePoint(100.0, 1.0)).ok());
  Result<Dist> BadTotal = S->partition(0);
  ASSERT_FALSE(BadTotal.ok());
  EXPECT_NE(BadTotal.error().find("positive"), std::string::npos);

  Result<Dist> BadAlgo = S->partition(100, "fastest");
  ASSERT_FALSE(BadAlgo.ok());
  EXPECT_NE(BadAlgo.error().find("unknown partitioner"), std::string::npos);

  // A per-call override beats the session default.
  Result<Dist> Constant = S->partition(100, "constant");
  ASSERT_TRUE(Constant.ok()) << Constant.error();
}

TEST(Session, LoadModelsReportsFileAndParseError) {
  SessionConfig Cfg;
  auto SR = Session::create(std::move(Cfg));
  ASSERT_TRUE(SR.ok());
  Session &S = *SR.value();

  std::string Missing = tempPath("session_missing.fpm");
  std::vector<std::string> Paths = {Missing};
  Status R = S.loadModels(Paths);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find(Missing), std::string::npos) << R.error();
  EXPECT_NE(R.error().find("cannot open file"), std::string::npos)
      << R.error();

  std::string Corrupt = tempPath("session_corrupt.fpm");
  {
    std::ofstream OS(Corrupt);
    OS << "# fupermod model\nkind piecewise\npoints 1\nnot a point\n";
  }
  Paths = {Corrupt};
  R = S.loadModels(Paths);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find(Corrupt), std::string::npos) << R.error();
  EXPECT_NE(R.error().find("line 4"), std::string::npos) << R.error();
}

TEST(Session, AllowDegradedExcludesBrokenRanksWithWarnings) {
  SessionConfig Cfg;
  Cfg.AllowDegraded = true;
  auto SR = Session::create(std::move(Cfg));
  ASSERT_TRUE(SR.ok());
  Session &S = *SR.value();

  std::string Good = tempPath("session_degraded_good.fpm");
  writeModelFile(Good, 500.0);
  std::string Missing = tempPath("session_degraded_missing.fpm");
  std::vector<std::string> Paths = {Good, Missing};
  ASSERT_TRUE(S.loadModels(Paths).ok());
  EXPECT_FALSE(S.warnings().empty());
  EXPECT_TRUE(S.slot(0).Exclusion.empty());
  EXPECT_FALSE(S.slot(1).Exclusion.empty());

  Result<Dist> D = S.partition(300);
  ASSERT_TRUE(D.ok()) << D.error();
  EXPECT_EQ(D.value().Parts[0].Units, 300);
  EXPECT_EQ(D.value().Parts[1].Units, 0);
  EXPECT_EQ(S.activeModels().size(), 1u);
}

TEST(Session, RefreshModelsHotReloadsChangedFiles) {
  SessionConfig Cfg;
  auto SR = Session::create(std::move(Cfg));
  ASSERT_TRUE(SR.ok());
  Session &S = *SR.value();

  std::string A = tempPath("session_reload_a.fpm");
  std::string B = tempPath("session_reload_b.fpm");
  writeModelFile(A, 400.0);
  writeModelFile(B, 400.0);
  std::vector<std::string> Paths = {A, B};
  ASSERT_TRUE(S.loadModels(Paths).ok());

  // Unchanged files: nothing to do.
  Result<int> None = S.refreshModels();
  ASSERT_TRUE(None.ok());
  EXPECT_EQ(None.value(), 0);
  Dist Before = S.partition(1000).value();
  EXPECT_EQ(Before.Parts[0].Units, Before.Parts[1].Units);

  // Rank 0 got 3x faster on disk; a refresh must shift the partition.
  writeModelFile(A, 1200.0);
  bumpMTime(A);
  Result<int> One = S.refreshModels();
  ASSERT_TRUE(One.ok());
  EXPECT_EQ(One.value(), 1);
  Dist After = S.partition(1000).value();
  EXPECT_GT(After.Parts[0].Units, After.Parts[1].Units);

  // A reload that breaks keeps the previous model and records a warning.
  {
    std::ofstream OS(A);
    OS << "kind piecewise\n"; // Missing points header.
  }
  bumpMTime(A);
  Result<int> Broken = S.refreshModels();
  ASSERT_TRUE(Broken.ok());
  EXPECT_EQ(Broken.value(), 0);
  EXPECT_FALSE(S.warnings().empty());
  Dist Kept = S.partition(1000).value();
  EXPECT_EQ(Kept.Parts[0].Units, After.Parts[0].Units);
}

TEST(Session, RefreshKeepsTheModelWhenAFileGetsAHostileCount) {
  // A served file rewritten to "points -1" used to throw out of the
  // reader and abort the process; the refresh contract is to keep the
  // previous model and record a warning.
  SessionConfig Cfg;
  auto SR = Session::create(std::move(Cfg));
  ASSERT_TRUE(SR.ok());
  Session &S = *SR.value();
  std::string A = tempPath("session_hostile_a.fpm");
  std::string B = tempPath("session_hostile_b.fpm");
  writeModelFile(A, 1200.0);
  writeModelFile(B, 400.0);
  std::vector<std::string> Paths = {A, B};
  ASSERT_TRUE(S.loadModels(Paths).ok());
  Dist Before = S.partition(1000).value();
  std::uint64_t Epoch = S.modelEpoch();

  {
    std::ofstream OS(A);
    OS << "# fupermod model\nkind piecewise\npoints -1\n";
  }
  bumpMTime(A);
  Result<int> R = S.refreshModels();
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R.value(), 0);
  EXPECT_EQ(S.modelEpoch(), Epoch);
  std::vector<std::string> Warnings = S.warnings();
  ASSERT_EQ(Warnings.size(), 1u);
  EXPECT_NE(Warnings[0].find("keeping the previous model"), std::string::npos)
      << Warnings[0];
  EXPECT_NE(Warnings[0].find("line 3"), std::string::npos) << Warnings[0];
  Dist After = S.partition(1000).value();
  EXPECT_EQ(After.Parts[0].Units, Before.Parts[0].Units);
  EXPECT_EQ(After.Parts[1].Units, Before.Parts[1].Units);
}

TEST(Session, RefreshModelsCatchesSameMTimeRewrite) {
  // Regression: refreshModels used to key change detection on mtime
  // alone. A rewrite landing within the filesystem timestamp granularity
  // (same mtime, same or different size) was silently skipped. The
  // fingerprint is now (mtime, size, content hash).
  SessionConfig Cfg;
  auto SR = Session::create(std::move(Cfg));
  ASSERT_TRUE(SR.ok());
  Session &S = *SR.value();

  std::string A = tempPath("session_mtime_race_a.fpm");
  std::string B = tempPath("session_mtime_race_b.fpm");
  writeModelFile(A, 400.0);
  writeModelFile(B, 400.0);
  std::vector<std::string> Paths = {A, B};
  ASSERT_TRUE(S.loadModels(Paths).ok());

  // Rewrite A with different content (3x faster device) but force the
  // mtime back to exactly what the session remembers.
  auto OldTime = std::filesystem::last_write_time(A);
  auto OldSize = std::filesystem::file_size(A);
  writeModelFile(A, 1200.0);
  std::filesystem::last_write_time(A, OldTime);

  Result<int> R = S.refreshModels();
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.value(), 1) << "same-mtime rewrite must still be detected";
  Dist After = S.partition(1000).value();
  EXPECT_GT(After.Parts[0].Units, After.Parts[1].Units);

  // The pathological corner: same mtime AND same size but different
  // bytes — only the content hash can tell. Flip one digit in place.
  std::string Content;
  {
    std::ifstream IS(A, std::ios::binary);
    std::ostringstream SS;
    SS << IS.rdbuf();
    Content = SS.str();
  }
  OldTime = std::filesystem::last_write_time(A);
  OldSize = std::filesystem::file_size(A);
  std::size_t Digit = Content.find_last_of("0123456789");
  ASSERT_NE(Digit, std::string::npos);
  Content[Digit] = Content[Digit] == '9' ? '8' : '9';
  {
    std::ofstream OS(A, std::ios::binary | std::ios::trunc);
    OS << Content;
  }
  ASSERT_EQ(std::filesystem::file_size(A), OldSize);
  std::filesystem::last_write_time(A, OldTime);
  Result<int> R2 = S.refreshModels();
  ASSERT_TRUE(R2.ok());
  EXPECT_EQ(R2.value(), 1)
      << "same-mtime same-size byte flip must still be detected";

  // And a genuine no-op rewrite (same bytes, same mtime) must not count
  // as a reload.
  std::filesystem::last_write_time(A, OldTime);
  Result<int> R3 = S.refreshModels();
  ASSERT_TRUE(R3.ok());
  EXPECT_EQ(R3.value(), 0);
}

TEST(Session, ModelEpochAdvancesOnEveryMutation) {
  SessionConfig Cfg;
  auto SR = Session::create(std::move(Cfg));
  ASSERT_TRUE(SR.ok());
  Session &S = *SR.value();

  std::uint64_t E0 = S.modelEpoch();
  std::string A = tempPath("session_epoch_a.fpm");
  writeModelFile(A, 400.0);
  std::vector<std::string> Paths = {A};
  ASSERT_TRUE(S.loadModels(Paths).ok());
  std::uint64_t E1 = S.modelEpoch();
  EXPECT_GT(E1, E0);

  // A refresh that reloads nothing must not bump the epoch (cached
  // partition replies keyed by it stay valid).
  Result<int> None = S.refreshModels();
  ASSERT_TRUE(None.ok());
  EXPECT_EQ(None.value(), 0);
  EXPECT_EQ(S.modelEpoch(), E1);

  writeModelFile(A, 800.0);
  bumpMTime(A);
  ASSERT_TRUE(S.refreshModels().ok());
  EXPECT_GT(S.modelEpoch(), E1);

  // partitionRendered stamps the epoch the solve actually used.
  Result<PartitionReply> Reply = S.partitionRendered(1000);
  ASSERT_TRUE(Reply.ok()) << Reply.error();
  EXPECT_EQ(Reply.value().Epoch, S.modelEpoch());
  EXPECT_NE(Reply.value().Text.find("partitioning of 1000 units"),
            std::string::npos)
      << Reply.value().Text;
}

namespace {

/// A session over freshly loaded \p Paths.
std::unique_ptr<Session> loadSession(const std::vector<std::string> &Paths) {
  SessionConfig Cfg;
  auto SR = Session::create(std::move(Cfg));
  EXPECT_TRUE(SR.ok()) << SR.error();
  EXPECT_TRUE(SR.value()->loadModels(Paths).ok());
  return std::move(SR.value());
}

} // namespace

TEST(Session, RepeatedRenderedRequestReplaysTheMemo) {
  std::string A = tempPath("session_memo_a.fpm");
  std::string B = tempPath("session_memo_b.fpm");
  writeModelFile(A, 900.0);
  writeModelFile(B, 300.0);
  auto S = loadSession({A, B});

  for (const char *Algorithm : {"", "numerical", "constant"}) {
    Result<PartitionReply> First = S->partitionRendered(1234, Algorithm);
    ASSERT_TRUE(First.ok()) << First.error();
    EXPECT_FALSE(First.value().Memoized) << Algorithm;
    Result<PartitionReply> Again = S->partitionRendered(1234, Algorithm);
    ASSERT_TRUE(Again.ok()) << Again.error();
    EXPECT_TRUE(Again.value().Memoized) << Algorithm;
    EXPECT_EQ(Again.value().Text, First.value().Text) << Algorithm;
    EXPECT_EQ(Again.value().Epoch, First.value().Epoch) << Algorithm;
    ASSERT_EQ(Again.value().D.Parts.size(), First.value().D.Parts.size());
    for (std::size_t I = 0; I < First.value().D.Parts.size(); ++I)
      EXPECT_EQ(Again.value().D.Parts[I].Units,
                First.value().D.Parts[I].Units);
  }
  // The default algorithm named explicitly shares the unnamed entry.
  Result<PartitionReply> Named = S->partitionRendered(1234, "geometric");
  ASSERT_TRUE(Named.ok()) << Named.error();
  EXPECT_TRUE(Named.value().Memoized);

  // The per-solve path reads the same answer without rendering it.
  Result<Dist> Plain = S->partition(1234);
  ASSERT_TRUE(Plain.ok()) << Plain.error();
  ASSERT_EQ(Plain.value().Parts.size(), Named.value().D.Parts.size());
  for (std::size_t I = 0; I < Plain.value().Parts.size(); ++I) {
    EXPECT_EQ(Plain.value().Parts[I].Units, Named.value().D.Parts[I].Units);
    EXPECT_EQ(Plain.value().Parts[I].PredictedTime,
              Named.value().D.Parts[I].PredictedTime);
  }
}

TEST(Session, FeedbackRetiresTheMemoizedReply) {
  std::string A = tempPath("session_memo_fb_a.fpm");
  std::string B = tempPath("session_memo_fb_b.fpm");
  writeModelFile(A, 900.0);
  writeModelFile(B, 300.0);
  auto S = loadSession({A, B});
  Result<PartitionReply> Before = S->partitionRendered(2000);
  ASSERT_TRUE(Before.ok()) << Before.error();

  // Rank 1 reports a much faster measurement at about its share.
  Point Fast = makePoint(500.0, 0.5);
  ASSERT_TRUE(S->feedback(1, Fast).ok());
  Result<PartitionReply> After = S->partitionRendered(2000);
  ASSERT_TRUE(After.ok()) << After.error();
  EXPECT_FALSE(After.value().Memoized);
  EXPECT_EQ(After.value().Epoch, S->modelEpoch());
  EXPECT_NE(After.value().Text, Before.value().Text);

  auto Fresh = loadSession({A, B});
  ASSERT_TRUE(Fresh->feedback(1, Fast).ok());
  Result<PartitionReply> Want = Fresh->partitionRendered(2000);
  ASSERT_TRUE(Want.ok()) << Want.error();
  EXPECT_EQ(After.value().Text, Want.value().Text);
}

TEST(Session, HotReloadRetiresTheMemoizedReply) {
  std::string A = tempPath("session_memo_reload_a.fpm");
  std::string B = tempPath("session_memo_reload_b.fpm");
  writeModelFile(A, 400.0);
  writeModelFile(B, 400.0);
  auto S = loadSession({A, B});
  Result<PartitionReply> Before = S->partitionRendered(1000, "numerical");
  ASSERT_TRUE(Before.ok()) << Before.error();

  writeModelFile(A, 1200.0);
  bumpMTime(A);
  Result<int> Reloaded = S->refreshModels();
  ASSERT_TRUE(Reloaded.ok()) << Reloaded.error();
  ASSERT_EQ(Reloaded.value(), 1);
  Result<PartitionReply> After = S->partitionRendered(1000, "numerical");
  ASSERT_TRUE(After.ok()) << After.error();
  EXPECT_FALSE(After.value().Memoized);
  EXPECT_EQ(After.value().Epoch, S->modelEpoch());
  EXPECT_NE(After.value().Text, Before.value().Text);

  auto Fresh = loadSession({A, B});
  Result<PartitionReply> Want = Fresh->partitionRendered(1000, "numerical");
  ASSERT_TRUE(Want.ok()) << Want.error();
  EXPECT_EQ(After.value().Text, Want.value().Text);
}

TEST(Session, ExecuteRunsTheBodyOnThePlatform) {
  auto S = makeTwoDeviceSession();
  std::vector<int> Seen(2, 0);
  Result<SpmdResult> R = S->execute(2, [&](Comm &C) {
    Seen[static_cast<std::size_t>(C.rank())] = 1;
    C.compute(0.5);
  });
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(Seen[0] + Seen[1], 2);
  EXPECT_GE(R.value().makespan(), 0.5);
  EXPECT_FALSE(S->execute(0, [](Comm &) {}).ok());
}

TEST(Serve, ParsesRequestsAndReportsBadLines) {
  {
    std::istringstream IS("# comment\n3000\n1000 numerical\nreload\n");
    auto R = parseServeRequests(IS);
    ASSERT_TRUE(R.ok()) << R.error();
    ASSERT_EQ(R.value().size(), 3u);
    EXPECT_EQ(R.value()[0].Total, 3000);
    EXPECT_EQ(R.value()[1].Algorithm, "numerical");
    EXPECT_TRUE(R.value()[2].Reload);
  }
  {
    // Malformed lines no longer abort the batch: they come back as
    // skip-and-record requests carrying the line number and diagnostic.
    std::istringstream IS("3000\nnonsense\n2000\n");
    auto R = parseServeRequests(IS);
    ASSERT_TRUE(R.ok()) << R.error();
    ASSERT_EQ(R.value().size(), 3u);
    EXPECT_TRUE(R.value()[0].ParseError.empty());
    EXPECT_EQ(R.value()[1].LineNo, 2u);
    EXPECT_NE(R.value()[1].ParseError.find("line 2"), std::string::npos)
        << R.value()[1].ParseError;
    EXPECT_NE(R.value()[1].ParseError.find("nonsense"), std::string::npos)
        << R.value()[1].ParseError;
    EXPECT_TRUE(R.value()[2].ParseError.empty());
    EXPECT_EQ(R.value()[2].Total, 2000);
  }
  {
    // Trailing junk after a well-formed request is also recorded.
    ServeRequest Req;
    ASSERT_TRUE(parseServeLine("1000 numerical extra", 7, Req));
    EXPECT_NE(Req.ParseError.find("line 7"), std::string::npos)
        << Req.ParseError;
    EXPECT_NE(Req.ParseError.find("extra"), std::string::npos)
        << Req.ParseError;
  }
}

TEST(Serve, MalformedLinesAreReportedInPlaceAndServingContinues) {
  SessionConfig Cfg;
  auto SR = Session::create(std::move(Cfg));
  ASSERT_TRUE(SR.ok());
  Session &S = *SR.value();
  std::string A = tempPath("serve_malformed_a.fpm");
  writeModelFile(A, 500.0);
  std::vector<std::string> Paths = {A};
  ASSERT_TRUE(S.loadModels(Paths).ok());

  std::istringstream IS("1000\nbogus line\n-5\n2000\n");
  auto Requests = parseServeRequests(IS);
  ASSERT_TRUE(Requests.ok());
  std::ostringstream OS;
  ServeStats St = serveRequests(S, Requests.value(), OS);
  EXPECT_EQ(St.Answered, 2);
  EXPECT_EQ(St.Failed, 2);
  EXPECT_EQ(St.Malformed, 2);
  // Both error records name their line, and the batch still answered
  // the requests around them.
  EXPECT_NE(OS.str().find("# error: request line 2"), std::string::npos)
      << OS.str();
  EXPECT_NE(OS.str().find("# error: request line 3"), std::string::npos)
      << OS.str();
  EXPECT_NE(OS.str().find("partitioning of 2000 units"), std::string::npos)
      << OS.str();
}

TEST(Serve, AnswersRequestsFromOneSession) {
  SessionConfig Cfg;
  auto SR = Session::create(std::move(Cfg));
  ASSERT_TRUE(SR.ok());
  Session &S = *SR.value();
  std::string A = tempPath("serve_a.fpm");
  std::string B = tempPath("serve_b.fpm");
  writeModelFile(A, 900.0);
  writeModelFile(B, 300.0);
  std::vector<std::string> Paths = {A, B};
  ASSERT_TRUE(S.loadModels(Paths).ok());

  std::vector<ServeRequest> Requests(2);
  Requests[0].Total = 1200;
  Requests[1].Total = 400;
  Requests[1].Algorithm = "constant";
  std::ostringstream OS;
  ServeStats St = serveRequests(S, Requests, OS);
  EXPECT_EQ(St.Answered, 2);
  EXPECT_EQ(St.Failed, 0);
  EXPECT_NE(OS.str().find("geometric partitioning of 1200 units"),
            std::string::npos)
      << OS.str();
  EXPECT_NE(OS.str().find("constant partitioning of 400 units"),
            std::string::npos)
      << OS.str();

  // A bad per-request algorithm fails that request, not the batch.
  Requests[0].Algorithm = "fastest";
  std::ostringstream OS2;
  St = serveRequests(S, Requests, OS2);
  EXPECT_EQ(St.Answered, 1);
  EXPECT_EQ(St.Failed, 1);
  EXPECT_NE(OS2.str().find("# error: unknown partitioner 'fastest'"),
            std::string::npos)
      << OS2.str();
}
