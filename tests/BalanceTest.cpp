//===-- tests/BalanceTest.cpp - BalancedLoop epoch gating -----------------===//
//
// The tripwire of the engine/container contract: BalancedLoop's dist
// epoch must tick exactly when a balance step changed per-rank unit
// counts, and redistributeIfChanged() must fire a container migration
// exactly once per tick — never when the partition is unchanged, never
// twice for the same change.
//
//===----------------------------------------------------------------------===//

#include "engine/Balance.h"

#include "dist/PartitionedVector.h"
#include "equalize/Policy.h"
#include "mpp/Runtime.h"

#include <gtest/gtest.h>

#include <vector>

using namespace fupermod;
using namespace fupermod::engine;

namespace {

/// A partitioner that ignores the models and replays a fixed schedule of
/// unit vectors, one per invocation (the last entry repeats).
Partitioner scriptedPartitioner(
    std::vector<std::vector<std::int64_t>> Script) {
  auto Call = std::make_shared<std::size_t>(0);
  return [Script = std::move(Script), Call](
             std::int64_t Total, std::span<Model *const>, Dist &Out) {
    const std::vector<std::int64_t> &Units =
        Script[std::min(*Call, Script.size() - 1)];
    ++*Call;
    Out = Dist();
    for (std::int64_t U : Units) {
      Part P;
      P.Units = U;
      Out.Parts.push_back(P);
      Out.Total += U;
    }
    EXPECT_EQ(Out.Total, Total);
    return true;
  };
}

/// A replica of the named equalization policy (period 1 for "every").
std::unique_ptr<equalize::Equalizer> policy(const std::string &Name) {
  equalize::EqualizeConfig Cfg;
  Cfg.Policy = Name;
  return std::move(equalize::makeEqualizer(Cfg).value());
}

/// Counts redistribute() calls — the duck-typed container stand-in.
struct MockContainer {
  std::uint64_t Synced = 0;
  int Calls = 0;
  std::vector<std::int64_t> LastUnits;

  std::uint64_t syncedEpoch() const { return Synced; }
  void setSyncedEpoch(std::uint64_t E) { Synced = E; }
  void redistribute(const Dist &D) {
    ++Calls;
    LastUnits.clear();
    for (const Part &P : D.Parts)
      LastUnits.push_back(P.Units);
  }
};

} // namespace

TEST(BalancedLoop, EpochTicksOnlyWhenUnitsChange) {
  // Schedule: unchanged, change, repeat, change, repeat, change.
  std::vector<std::vector<std::int64_t>> Script = {
      {5, 5}, {7, 3}, {7, 3}, {2, 8}, {2, 8}, {5, 5}};
  std::vector<std::uint64_t> Epochs;
  SpmdResult R = runSpmd(2, [&](Comm &C) {
    BalancedLoop Loop(scriptedPartitioner(Script), "cpm", 10, 2);
    EXPECT_EQ(Loop.distEpoch(), 0u);
    auto Every = policy("every"); // The balancer solves every call.
    for (std::size_t It = 0; It < Script.size(); ++It) {
      double Start = C.time();
      C.compute(0.01 * (C.rank() + 1));
      EXPECT_TRUE(Loop.balanceEqualized(C, Start, *Every));
      if (C.rank() == 0)
        Epochs.push_back(Loop.distEpoch());
    }
  });
  ASSERT_TRUE(R.allOk());
  // {5,5} matches the initial even split -> no tick; each genuine change
  // ticks once; repeats never tick.
  EXPECT_EQ(Epochs, (std::vector<std::uint64_t>{0, 1, 1, 2, 2, 3}));
}

TEST(BalancedLoop, RedistributeIfChangedFiresExactlyOncePerTick) {
  std::vector<std::vector<std::int64_t>> Script = {
      {5, 5}, {7, 3}, {7, 3}, {2, 8}};
  int Calls = -1;
  std::vector<std::int64_t> FinalUnits;
  SpmdResult R = runSpmd(2, [&](Comm &C) {
    BalancedLoop Loop(scriptedPartitioner(Script), "cpm", 10, 2);
    auto Every = policy("every");
    MockContainer V;
    for (std::size_t It = 0; It < Script.size(); ++It) {
      double Start = C.time();
      C.compute(0.01 * (C.rank() + 1));
      Loop.balanceEqualized(C, Start, *Every);
      bool Fired = Loop.redistributeIfChanged(V);
      // A second call in the same iteration must be a no-op: the
      // container is already synced to the current epoch.
      EXPECT_FALSE(Loop.redistributeIfChanged(V));
      EXPECT_EQ(Fired, It == 1 || It == 3) << "iteration " << It;
      EXPECT_EQ(V.Synced, Loop.distEpoch());
    }
    if (C.rank() == 0) {
      Calls = V.Calls;
      FinalUnits = V.LastUnits;
    }
  });
  ASSERT_TRUE(R.allOk());
  // Two genuine changes -> exactly two migrations, ending on {2,8}.
  EXPECT_EQ(Calls, 2);
  EXPECT_EQ(FinalUnits, (std::vector<std::int64_t>{2, 8}));
}

TEST(BalancedLoop, DisabledPolicyNeverRedistributes) {
  std::vector<std::vector<std::int64_t>> Script = {{7, 3}, {2, 8}};
  SpmdResult R = runSpmd(2, [&](Comm &C) {
    BalancedLoop Loop(scriptedPartitioner(Script), "cpm", 10, 2);
    auto Off = policy("off");
    MockContainer V;
    for (int It = 0; It < 4; ++It) {
      double Start = C.time();
      C.compute(0.01);
      EXPECT_FALSE(Loop.balanceEqualized(C, Start, *Off));
      EXPECT_FALSE(Loop.redistributeIfChanged(V));
    }
    EXPECT_EQ(V.Calls, 0);
    EXPECT_EQ(Loop.distEpoch(), 0u);
  });
  ASSERT_TRUE(R.allOk());
}

TEST(BalancedLoop, DrivesPartitionedVectorMigration) {
  // End-to-end with the real container: the scripted repartition must
  // move real data exactly once per change and preserve contents.
  std::vector<std::vector<std::int64_t>> Script = {{9, 3}, {9, 3}, {1, 11}};
  SpmdResult R = runSpmd(2, [&](Comm &C) {
    BalancedLoop Loop(scriptedPartitioner(Script), "cpm", 12, 2);
    dist::PartitionedVector<double> V(C, Loop.dist(), 2);
    V.generate([](std::int64_t Unit, std::span<double> Out) {
      Out[0] = static_cast<double>(Unit);
      Out[1] = 0.5 * static_cast<double>(Unit);
    });
    auto Every = policy("every");
    for (std::size_t It = 0; It < Script.size(); ++It) {
      double Start = C.time();
      C.compute(0.01 * (C.rank() + 1));
      Loop.balanceEqualized(C, Start, *Every);
      Loop.redistributeIfChanged(V);
      for (std::int64_t U = V.start(); U < V.end(); ++U) {
        EXPECT_EQ(V.unit(U)[0], static_cast<double>(U));
        EXPECT_EQ(V.unit(U)[1], 0.5 * static_cast<double>(U));
      }
    }
    // Two unit changes (even {6,6} -> {9,3}, then -> {1,11}).
    EXPECT_EQ(V.redistributeCount(), 2u);
    EXPECT_EQ(V.units(), C.rank() == 0 ? 1 : 11);
  });
  ASSERT_TRUE(R.allOk());
}
