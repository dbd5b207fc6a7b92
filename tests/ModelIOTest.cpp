//===-- tests/ModelIOTest.cpp - model persistence tests -------------------===//

#include "core/ModelIO.h"
#include "core/Partitioners.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

using namespace fupermod;

namespace {

Point makePoint(double Units, double Time, int Reps = 3, double Ci = 0.01) {
  Point P;
  P.Units = Units;
  P.Time = Time;
  P.Reps = Reps;
  P.ConfidenceInterval = Ci;
  return P;
}

} // namespace

TEST(ModelIO, RoundTripsEveryKind) {
  for (const char *Kind : {"cpm", "piecewise", "akima", "linear"}) {
    auto M = makeModel(Kind);
    M->update(makePoint(10.0, 1.5));
    M->update(makePoint(20.0, 3.25, 5, 0.02));
    M->update(makePoint(40.0, 7.125));

    std::stringstream SS;
    ASSERT_TRUE(writeModel(SS, *M)) << Kind;
    std::unique_ptr<Model> Back = readModel(SS);
    ASSERT_NE(Back, nullptr) << Kind;
    EXPECT_STREQ(Back->kind(), Kind);
    ASSERT_EQ(Back->points().size(), 3u);
    EXPECT_DOUBLE_EQ(Back->points()[1].Units, 20.0);
    EXPECT_DOUBLE_EQ(Back->points()[1].Time, 3.25);
    EXPECT_EQ(Back->points()[1].Reps, 5);
    // Identical predictions after the round trip.
    for (double X : {5.0, 15.0, 30.0, 60.0})
      EXPECT_DOUBLE_EQ(Back->timeAt(X), M->timeAt(X)) << Kind << " " << X;
  }
}

TEST(ModelIO, PreservesFeasibilityLimit) {
  auto M = makeModel("piecewise");
  M->update(makePoint(100.0, 2.0));
  Point Fail;
  Fail.Units = 500.0;
  Fail.Reps = 0;
  Fail.Time = std::numeric_limits<double>::infinity();
  M->update(Fail);
  ASSERT_DOUBLE_EQ(M->feasibleLimit(), 500.0);

  std::stringstream SS;
  ASSERT_TRUE(writeModel(SS, *M));
  std::unique_ptr<Model> Back = readModel(SS);
  ASSERT_NE(Back, nullptr);
  EXPECT_DOUBLE_EQ(Back->feasibleLimit(), 500.0);
}

TEST(ModelIO, PreservesFeasibilityLimitToTheLastDigit) {
  // The limit used to be written at the stream's default 6 digits, so
  // 1234567 saved as 1.23457e+06 and reloaded 3 units looser.
  auto M = makeModel("piecewise");
  M->update(makePoint(100.0, 2.0));
  Point Fail;
  Fail.Units = 1234567.0;
  Fail.Reps = 0;
  Fail.Time = std::numeric_limits<double>::infinity();
  M->update(Fail);

  std::stringstream SS;
  ASSERT_TRUE(writeModel(SS, *M));
  std::unique_ptr<Model> Back = readModel(SS);
  ASSERT_NE(Back, nullptr);
  EXPECT_EQ(Back->feasibleLimit(), 1234567.0);
}

TEST(ModelIO, RoundTripsPointWeights) {
  auto M = makeModel("piecewise");
  M->update(makePoint(10.0, 1.0, 4));
  M->update(makePoint(20.0, 2.0, 6));
  M->update(makePoint(40.0, 4.5, 2));
  M->decayWeights(0.75);
  M->update(makePoint(80.0, 9.0, 5)); // Fresh point at full weight.
  ASSERT_EQ(M->weights().size(), 4u);

  std::stringstream SS;
  ASSERT_TRUE(writeModel(SS, *M));
  std::unique_ptr<Model> Back = readModel(SS);
  ASSERT_NE(Back, nullptr);
  ASSERT_EQ(Back->weights().size(), M->weights().size());
  for (std::size_t I = 0; I < M->weights().size(); ++I)
    EXPECT_DOUBLE_EQ(Back->weights()[I], M->weights()[I]) << I;
  for (double X : {5.0, 15.0, 30.0, 60.0, 100.0})
    EXPECT_DOUBLE_EQ(Back->timeAt(X), M->timeAt(X)) << X;
}

TEST(ModelIO, UndecayedModelsKeepTheFourColumnFormat) {
  // Weight == Reps is the default state; the writer must not add a fifth
  // column, so files from older builds stay byte-compatible.
  auto M = makeModel("cpm");
  M->update(makePoint(10.0, 1.0, 4));
  std::stringstream SS;
  ASSERT_TRUE(writeModel(SS, *M));
  std::string Line;
  bool SawPoint = false;
  while (std::getline(SS, Line)) {
    if (Line.empty() || Line[0] == '#' || Line.rfind("kind", 0) == 0 ||
        Line.rfind("points", 0) == 0)
      continue;
    SawPoint = true;
    std::istringstream LS(Line);
    std::string Tok;
    int Columns = 0;
    while (LS >> Tok)
      ++Columns;
    EXPECT_EQ(Columns, 4) << Line;
  }
  EXPECT_TRUE(SawPoint);
}

TEST(ModelIO, StalenessDecayContinuesIdenticallyAfterRoundTrip) {
  // A reloaded model must carry the decay state: applying the same
  // further decay to the original and the copy drops the same points.
  auto M = makeModel("piecewise");
  M->update(makePoint(10.0, 1.0, 2));
  M->update(makePoint(20.0, 2.0, 8));
  M->decayWeights(0.6); // 1.2 and 4.8: both above the 0.5 keep floor.

  std::stringstream SS;
  ASSERT_TRUE(writeModel(SS, *M));
  std::unique_ptr<Model> Back = readModel(SS);
  ASSERT_NE(Back, nullptr);

  M->decayWeights(0.3); // 0.36 and 1.44: the first point is dropped.
  Back->decayWeights(0.3);
  ASSERT_EQ(M->points().size(), 1u);
  ASSERT_EQ(Back->points().size(), M->points().size());
  EXPECT_DOUBLE_EQ(Back->points()[0].Units, M->points()[0].Units);
  ASSERT_EQ(Back->weights().size(), M->weights().size());
  EXPECT_DOUBLE_EQ(Back->weights()[0], M->weights()[0]);
}

TEST(ModelIO, RepartitionAfterRoundTripMatchesInMemory) {
  // The acceptance check of the persistence layer: write -> read ->
  // re-partition must reproduce the in-memory distribution exactly.
  auto Fast = makeModel("piecewise");
  auto Slow = makeModel("piecewise");
  for (int I = 1; I <= 6; ++I) {
    Fast->update(makePoint(100.0 * I, 0.08 * I, 3, 0.004 * I));
    Slow->update(makePoint(100.0 * I, 0.31 * I, 3, 0.009 * I));
  }
  Slow->decayWeights(0.9); // Exercise the weight column too.
  Point Fail;
  Fail.Units = 900.0;
  Fail.Reps = 0;
  Fail.Time = std::numeric_limits<double>::infinity();
  Slow->update(Fail);

  std::stringstream F, S;
  ASSERT_TRUE(writeModel(F, *Fast));
  ASSERT_TRUE(writeModel(S, *Slow));
  std::unique_ptr<Model> FastBack = readModel(F);
  std::unique_ptr<Model> SlowBack = readModel(S);
  ASSERT_NE(FastBack, nullptr);
  ASSERT_NE(SlowBack, nullptr);
  EXPECT_DOUBLE_EQ(SlowBack->feasibleLimit(), Slow->feasibleLimit());

  for (const char *Algorithm : {"constant", "geometric", "numerical"}) {
    Partitioner Algo = findPartitioner(Algorithm);
    ASSERT_NE(Algo, nullptr);
    std::vector<Model *> Mem = {Fast.get(), Slow.get()};
    std::vector<Model *> Disk = {FastBack.get(), SlowBack.get()};
    Dist InMemory, FromDisk;
    ASSERT_TRUE(Algo(1000, Mem, InMemory)) << Algorithm;
    ASSERT_TRUE(Algo(1000, Disk, FromDisk)) << Algorithm;
    ASSERT_EQ(InMemory.Parts.size(), FromDisk.Parts.size());
    for (std::size_t I = 0; I < InMemory.Parts.size(); ++I) {
      EXPECT_EQ(FromDisk.Parts[I].Units, InMemory.Parts[I].Units)
          << Algorithm << " rank " << I;
      EXPECT_DOUBLE_EQ(FromDisk.Parts[I].PredictedTime,
                       InMemory.Parts[I].PredictedTime)
          << Algorithm << " rank " << I;
    }
  }
}

TEST(ModelIO, ReportsParseErrorsWithLineNumbers) {
  {
    std::stringstream SS("kind cpm\npoints 1\n10 1 3 0 0.5 extra\n");
    std::string Err;
    EXPECT_EQ(readModel(SS, &Err), nullptr);
    EXPECT_NE(Err.find("line 3"), std::string::npos) << Err;
  }
  {
    std::stringstream SS("kind nosuch\npoints 0\n");
    std::string Err;
    EXPECT_EQ(readModel(SS, &Err), nullptr);
    EXPECT_NE(Err.find("unknown model kind 'nosuch'"), std::string::npos)
        << Err;
    EXPECT_NE(Err.find("registered"), std::string::npos) << Err;
  }
  {
    // Weights must be positive.
    std::stringstream SS("kind cpm\npoints 1\n10 1 3 0 -2\n");
    std::string Err;
    EXPECT_EQ(readModel(SS, &Err), nullptr);
    EXPECT_NE(Err.find("weight"), std::string::npos) << Err;
  }
}

TEST(ModelIO, RejectsMalformedInput) {
  {
    std::stringstream SS("garbage\n");
    EXPECT_EQ(readModel(SS), nullptr);
  }
  {
    std::stringstream SS("kind nosuch\npoints 0\n");
    EXPECT_EQ(readModel(SS), nullptr);
  }
  {
    // Fewer points than declared.
    std::stringstream SS("kind cpm\npoints 2\n10 1 3 0\n");
    EXPECT_EQ(readModel(SS), nullptr);
  }
  {
    // Non-positive time.
    std::stringstream SS("kind cpm\npoints 1\n10 0 3 0\n");
    EXPECT_EQ(readModel(SS), nullptr);
  }
}

TEST(ModelIO, HostilePointCountsFailWithADiagnostic) {
  // The reader used to size its buffers from the header: "points -1"
  // threw std::length_error and a huge count std::bad_alloc.
  for (const char *Text : {"kind cpm\npoints -1\n10 1 3 0\n",
                           "kind cpm\npoints 100000000000000\n10 1 3 0\n",
                           "kind cpm\npoints 99999999999999999999\n"}) {
    std::stringstream SS(Text);
    std::string Err;
    std::unique_ptr<Model> M;
    EXPECT_NO_THROW(M = readModel(SS, &Err)) << Text;
    EXPECT_EQ(M, nullptr) << Text;
    EXPECT_FALSE(Err.empty()) << Text;
  }
  std::stringstream Negative("kind cpm\npoints -1\n");
  std::string Err;
  EXPECT_EQ(readModel(Negative, &Err), nullptr);
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
  std::stringstream Huge("kind cpm\npoints 100000000000000\n10 1 3 0\n");
  EXPECT_EQ(readModel(Huge, &Err), nullptr);
  EXPECT_NE(Err.find("truncated"), std::string::npos) << Err;
}

TEST(ModelIO, MalformedInputIsRejectedWithLineNumbers) {
  // "limit abc" used to read as a zero limit and "points x" as zero
  // points: the failed extractions were ignored. Point fields must
  // convert in full, and sizes must be distinct and ascending.
  struct Case {
    const char *Text;
    const char *Line;
  };
  for (const Case &C : {Case{"kind cpm\nlimit abc\npoints 0\n", "line 2"},
                        Case{"kind cpm\nlimit 1e999\npoints 0\n", "line 2"},
                        Case{"kind cpm\nlimit -5\npoints 0\n", "line 2"},
                        Case{"kind cpm\npoints x\n", "line 2"},
                        Case{"kind cpm\npoints 1.5\n10 1 3 0\n", "line 2"},
                        Case{"# c\nkind cpm extra\npoints 0\n", "line 2"},
                        Case{"kind cpm\npoints 1\n10 1 3 0 -\n", "line 3"},
                        Case{"kind cpm\npoints 1\n10 1e999 3 0\n", "line 3"},
                        // A repeated size would merge and sum the
                        // repetition counts past INT_MAX.
                        Case{"kind cpm\npoints 2\n10 1 2000000000 0\n"
                             "10 1 2000000000 0\n",
                             "line 4"},
                        Case{"kind cpm\npoints 2\n20 2 3 0 1.5\n10 1 3 0\n",
                             "line 4"},
                        // Within update()'s merge tolerance of the size
                        // before it, though numerically larger.
                        Case{"kind cpm\npoints 2\n10 1 3 0\n"
                             "10.000000000001 1 3 0\n",
                             "line 4"}}) {
    std::stringstream SS(C.Text);
    std::string Err;
    EXPECT_EQ(readModel(SS, &Err), nullptr) << C.Text;
    EXPECT_NE(Err.find(C.Line), std::string::npos) << C.Text << ": " << Err;
  }
}

TEST(ModelIO, IgnoresCommentsAndBlankLines) {
  std::stringstream SS(
      "# header\n\nkind cpm\n# noise\npoints 1\n10 2 3 0.1\n");
  std::unique_ptr<Model> M = readModel(SS);
  ASSERT_NE(M, nullptr);
  EXPECT_DOUBLE_EQ(M->speedAt(1.0), 5.0);
}

TEST(ModelIO, FileRoundTrip) {
  auto M = makeModel("akima");
  M->update(makePoint(8.0, 0.5));
  M->update(makePoint(16.0, 1.25));
  std::string Path = ::testing::TempDir() + "/fupermod_model_io_test.model";
  ASSERT_TRUE(saveModel(Path, *M));
  std::unique_ptr<Model> Back = loadModel(Path);
  ASSERT_NE(Back, nullptr);
  EXPECT_EQ(Back->points().size(), 2u);
  EXPECT_EQ(loadModel(Path + ".missing"), nullptr);
}

TEST(DistIO, RoundTrip) {
  Dist D = Dist::even(100, 3);
  D.Parts[0].PredictedTime = 1.5;
  D.Parts[2].PredictedTime = 2.25;
  std::stringstream SS;
  ASSERT_TRUE(writeDist(SS, D));
  Dist Back;
  ASSERT_TRUE(readDist(SS, Back));
  EXPECT_EQ(Back.Total, 100);
  ASSERT_EQ(Back.Parts.size(), 3u);
  EXPECT_EQ(Back.Parts[0].Units, 34);
  EXPECT_DOUBLE_EQ(Back.Parts[2].PredictedTime, 2.25);
}

TEST(DistIO, RejectsRankMismatch) {
  std::stringstream SS("total 10\nparts 2\n0 5 0\n5 5 0\n");
  Dist Back;
  EXPECT_FALSE(readDist(SS, Back));
}

TEST(DistIO, HostileHeadersFailWithADiagnostic) {
  // "parts -1" used to resize the distribution to 2^64 - 1 parts.
  for (const char *Text : {"total 10\nparts -1\n",
                           "total 10\nparts 100000000000000\n0 5 0\n",
                           "total x\nparts 1\n0 10 0\n",
                           "total 10\nparts 1\n0 10 0 extra\n"}) {
    std::stringstream SS(Text);
    Dist Back;
    std::string Err;
    bool Ok = true;
    EXPECT_NO_THROW(Ok = readDist(SS, Back, &Err)) << Text;
    EXPECT_FALSE(Ok) << Text;
    EXPECT_FALSE(Err.empty()) << Text;
  }
}
