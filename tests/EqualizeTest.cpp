//===-- tests/EqualizeTest.cpp - dynamic equalization subsystem -----------===//
//
// Unit tests of the ImbalanceMonitor trigger automaton and the
// CostArbiter pricing, a 200-case randomized property net over the
// monitor (cooldown/hysteresis can never double-fire, and an offline
// replay of any recorded series reproduces the trigger sequence
// exactly), end-to-end policy properties on small drifting SPMD runs
// (every policy computes the bit-identical result; the gated policies
// never move more redistribute bytes than every-round balancing), and a
// repartition-churn stress that doubles as the equalize-layer
// ThreadSanitizer workload (ctest -L tsan).
//
//===----------------------------------------------------------------------===//

#include "core/Partitioners.h"
#include "dist/PartitionedVector.h"
#include "engine/Balance.h"
#include "equalize/CostArbiter.h"
#include "equalize/Monitor.h"
#include "equalize/Policy.h"
#include "mpp/Runtime.h"
#include "sim/Cluster.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

using namespace fupermod;
using namespace fupermod::equalize;

namespace {

std::vector<std::uint8_t> allActive(std::size_t P) {
  return std::vector<std::uint8_t>(P, 1);
}

} // namespace

//===----------------------------------------------------------------------===//
// ImbalanceMonitor unit tests
//===----------------------------------------------------------------------===//

TEST(Monitor, TriggersAboveBaselineStaysQuietBelow) {
  MonitorConfig Cfg;
  Cfg.TriggerThreshold = 0.3;
  ImbalanceMonitor M(Cfg);
  std::vector<std::uint8_t> Act = allActive(4);

  std::vector<double> Balanced = {1.0, 1.0, 1.0, 1.0};
  EXPECT_FALSE(M.observe(Balanced, Act));
  EXPECT_DOUBLE_EQ(M.imbalance(), 0.0);

  std::vector<double> Skewed = {1.0, 1.0, 1.0, 2.0}; // (2-1)/2 = 0.5.
  EXPECT_TRUE(M.observe(Skewed, Act));
  EXPECT_DOUBLE_EQ(M.imbalance(), 0.5);
  EXPECT_EQ(M.counters().Triggers, 1u);
  EXPECT_EQ(M.counters().Breaches, 1u);
}

TEST(Monitor, CooldownSuppressesRepeatTriggers) {
  MonitorConfig Cfg;
  Cfg.TriggerThreshold = 0.3;
  Cfg.Cooldown = 3;
  ImbalanceMonitor M(Cfg);
  std::vector<std::uint8_t> Act = allActive(2);
  std::vector<double> Skewed = {1.0, 2.0};

  EXPECT_TRUE(M.observe(Skewed, Act));
  // A vetoed adoption leaves the monitor armed, but the cooldown clock
  // restarted: the next three breaches are swallowed, the fourth fires.
  for (int I = 0; I < 3; ++I)
    EXPECT_FALSE(M.observe(Skewed, Act)) << "round " << I;
  EXPECT_TRUE(M.observe(Skewed, Act));
  EXPECT_EQ(M.counters().Triggers, 2u);
  EXPECT_EQ(M.counters().CooldownSuppressed, 3u);
}

TEST(Monitor, MinBreachesRequiresConsecutiveRounds) {
  MonitorConfig Cfg;
  Cfg.TriggerThreshold = 0.3;
  Cfg.MinBreaches = 2;
  ImbalanceMonitor M(Cfg);
  std::vector<std::uint8_t> Act = allActive(2);
  std::vector<double> Skewed = {1.0, 2.0};
  std::vector<double> Balanced = {1.0, 1.0};

  // A lone spike does not fire, and a balanced round resets the streak.
  EXPECT_FALSE(M.observe(Skewed, Act));
  EXPECT_FALSE(M.observe(Balanced, Act));
  EXPECT_FALSE(M.observe(Skewed, Act));
  EXPECT_TRUE(M.observe(Skewed, Act));
  EXPECT_EQ(M.counters().Triggers, 1u);
}

TEST(Monitor, EwmaSmoothsTheWindow) {
  MonitorConfig Cfg;
  Cfg.EwmaAlpha = 0.5;
  ImbalanceMonitor M(Cfg);
  std::vector<std::uint8_t> Act = allActive(2);

  std::vector<double> First = {1.0, 1.0}; // Seeds the window.
  M.observe(First, Act);
  std::vector<double> Spike = {1.0, 3.0}; // EWMA: {1.0, 2.0}.
  M.observe(Spike, Act);
  EXPECT_DOUBLE_EQ(M.imbalance(), 0.5);
}

TEST(Monitor, HysteresisDisarmsUntilClearedThenBaselineAdapts) {
  MonitorConfig Cfg;
  Cfg.TriggerThreshold = 0.3;
  Cfg.ClearThreshold = 0.1;
  ImbalanceMonitor M(Cfg);
  std::vector<std::uint8_t> Act = allActive(2);
  std::vector<double> Skewed = {1.0, 2.0}; // Imbalance 0.5.

  EXPECT_TRUE(M.observe(Skewed, Act));
  M.notifyRebalanced(); // Adopted: the episode opens, monitor disarms.
  EXPECT_FALSE(M.armed());

  // The platform's granularity floor keeps the imbalance at 0.5 no
  // matter what the episode does: the first round is hysteresis-
  // suppressed, the second closes the episode via the stall rule and
  // adopts 0.5 as the new baseline instead of firing forever.
  EXPECT_FALSE(M.observe(Skewed, Act));
  EXPECT_EQ(M.counters().HysteresisSuppressed, 1u);
  EXPECT_FALSE(M.observe(Skewed, Act));
  EXPECT_TRUE(M.armed());
  EXPECT_DOUBLE_EQ(M.baseline(), 0.5);
  EXPECT_EQ(M.counters().Triggers, 1u);

  // Holding at the floor never re-fires ...
  EXPECT_FALSE(M.observe(Skewed, Act));
  // ... but a genuine new drift above the adapted baseline does.
  std::vector<double> Worse = {1.0, 10.0}; // Imbalance 0.9 > 0.5 + 0.3.
  EXPECT_TRUE(M.observe(Worse, Act));
  EXPECT_EQ(M.counters().Triggers, 2u);
}

TEST(Monitor, ClearedEpisodeRearmsAndKeepsZeroBaseline) {
  MonitorConfig Cfg;
  Cfg.TriggerThreshold = 0.3;
  Cfg.ClearThreshold = 0.1;
  ImbalanceMonitor M(Cfg);
  std::vector<std::uint8_t> Act = allActive(2);
  std::vector<double> Skewed = {1.0, 2.0};
  std::vector<double> Balanced = {1.0, 1.0};

  EXPECT_TRUE(M.observe(Skewed, Act));
  M.notifyRebalanced();
  // The rebalance worked: the imbalance clears, the episode closes, and
  // the baseline stays at the achieved (near-zero) level.
  EXPECT_FALSE(M.observe(Balanced, Act));
  EXPECT_TRUE(M.armed());
  EXPECT_DOUBLE_EQ(M.baseline(), 0.0);
}

TEST(Monitor, SpontaneousImprovementLowersBaseline) {
  MonitorConfig Cfg;
  Cfg.TriggerThreshold = 0.3;
  ImbalanceMonitor M(Cfg);
  std::vector<std::uint8_t> Act = allActive(2);
  std::vector<double> Skewed = {1.0, 2.0};
  std::vector<double> Recovered = {1.0, 1.25};

  // Reach a 0.5 baseline through a stalled episode.
  EXPECT_TRUE(M.observe(Skewed, Act));
  M.notifyRebalanced();
  M.observe(Skewed, Act);
  M.observe(Skewed, Act);
  ASSERT_DOUBLE_EQ(M.baseline(), 0.5);

  // The workload later balances itself out (drift recovered): the
  // baseline follows down, so the next drift is judged from the better
  // level.
  M.observe(Recovered, Act); // Imbalance 0.2.
  EXPECT_DOUBLE_EQ(M.baseline(), 0.2);
}

TEST(Monitor, InactiveRanksStayOutOfTheWindow) {
  MonitorConfig Cfg;
  Cfg.TriggerThreshold = 0.3;
  ImbalanceMonitor M(Cfg);

  // A failed rank's near-zero time must not read as imbalance.
  std::vector<double> T = {1.0, 1.0, 0.0};
  std::vector<std::uint8_t> Act = {1, 1, 0};
  EXPECT_FALSE(M.observe(T, Act));
  EXPECT_DOUBLE_EQ(M.imbalance(), 0.0);

  // The rank joins the window when it becomes active again.
  T = {1.0, 1.0, 2.0};
  Act = {1, 1, 1};
  EXPECT_TRUE(M.observe(T, Act));
  EXPECT_DOUBLE_EQ(M.imbalance(), 0.5);
}

//===----------------------------------------------------------------------===//
// Monitor property net: 200 random drift scenarios
//===----------------------------------------------------------------------===//

namespace {

/// One recorded monitor scenario: per-round times/masks plus the
/// adoption coin consumed at each trigger, so a replay can reproduce the
/// exact shouldSolve/noteOutcome conversation.
struct MonitorScenario {
  MonitorConfig Cfg;
  std::vector<std::vector<double>> Times;
  std::vector<std::vector<std::uint8_t>> Active;
  std::vector<std::uint8_t> AdoptCoin; // One pre-drawn coin per round.
};

std::vector<int> driveMonitor(ImbalanceMonitor &M,
                              const MonitorScenario &S) {
  std::vector<int> TriggerRounds;
  for (std::size_t R = 0; R < S.Times.size(); ++R) {
    bool Triggered = M.observe(S.Times[R], S.Active[R]);
    if (Triggered) {
      TriggerRounds.push_back(static_cast<int>(R));
      // A trigger can only fire while armed (hysteresis property).
      EXPECT_TRUE(M.armed()) << "disarmed trigger at round " << R;
      if (S.AdoptCoin[R])
        M.notifyRebalanced();
    }
  }
  return TriggerRounds;
}

} // namespace

TEST(MonitorProperty, NeverDoubleFiresAndReplaysExactly) {
  std::mt19937 Rng(20260807u);
  std::uniform_real_distribution<double> U01(0.0, 1.0);

  for (int Case = 0; Case < 200; ++Case) {
    MonitorScenario S;
    S.Cfg.TriggerThreshold = 0.05 + 0.4 * U01(Rng);
    S.Cfg.ClearThreshold = S.Cfg.TriggerThreshold * U01(Rng);
    S.Cfg.Cooldown = static_cast<int>(Rng() % 5);
    S.Cfg.MinBreaches = 1 + static_cast<int>(Rng() % 3);
    S.Cfg.EwmaAlpha = 0.3 + 0.7 * U01(Rng);

    const int P = 2 + static_cast<int>(Rng() % 6);
    const int Rounds = 40 + static_cast<int>(Rng() % 40);

    // Random heterogeneous base times, multiplicative noise, and one or
    // two drift events (a rank slows down by 1.5-4x, maybe recovers).
    std::vector<double> Base(P);
    for (double &B : Base)
      B = 0.5 + 1.5 * U01(Rng);
    struct Drift {
      int Round, Rank;
      double Factor;
    };
    std::vector<Drift> Drifts;
    int NumDrifts = 1 + static_cast<int>(Rng() % 2);
    for (int D = 0; D < NumDrifts; ++D) {
      Drift E;
      E.Round = static_cast<int>(Rng() % static_cast<unsigned>(Rounds));
      E.Rank = static_cast<int>(Rng() % static_cast<unsigned>(P));
      E.Factor = 1.5 + 2.5 * U01(Rng);
      Drifts.push_back(E);
    }
    // Roughly a third of the cases mask one rank out for a window.
    int MaskedRank = -1, MaskLo = 0, MaskHi = 0;
    if (Rng() % 3 == 0) {
      MaskedRank = static_cast<int>(Rng() % static_cast<unsigned>(P));
      MaskLo = static_cast<int>(Rng() % static_cast<unsigned>(Rounds));
      MaskHi = MaskLo + 1 + static_cast<int>(Rng() % 10);
    }

    for (int R = 0; R < Rounds; ++R) {
      std::vector<double> T(Base);
      for (const Drift &E : Drifts)
        if (R >= E.Round)
          T[static_cast<std::size_t>(E.Rank)] *= E.Factor;
      for (double &V : T)
        V *= 1.0 + 0.05 * (U01(Rng) - 0.5);
      std::vector<std::uint8_t> Act(static_cast<std::size_t>(P), 1);
      if (MaskedRank >= 0 && R >= MaskLo && R < MaskHi)
        Act[static_cast<std::size_t>(MaskedRank)] = 0;
      S.Times.push_back(std::move(T));
      S.Active.push_back(std::move(Act));
      S.AdoptCoin.push_back(static_cast<std::uint8_t>(Rng() % 2));
    }

    ImbalanceMonitor M(S.Cfg);
    std::vector<int> Triggers = driveMonitor(M, S);

    // No two triggers within the cooldown window, ever.
    for (std::size_t I = 1; I < Triggers.size(); ++I)
      EXPECT_GT(Triggers[I] - Triggers[I - 1], S.Cfg.Cooldown)
          << "case " << Case << ": triggers at rounds " << Triggers[I - 1]
          << " and " << Triggers[I] << " inside a cooldown of "
          << S.Cfg.Cooldown;

    // Counter consistency.
    EXPECT_EQ(M.counters().Rounds, static_cast<std::uint64_t>(Rounds));
    EXPECT_EQ(M.counters().Triggers, Triggers.size());
    EXPECT_GE(M.counters().Breaches,
              M.counters().Triggers + M.counters().CooldownSuppressed +
                  M.counters().HysteresisSuppressed);

    // The automaton is pure: replaying the recorded series through a
    // fresh instance reproduces the trigger rounds exactly.
    ImbalanceMonitor Replay(S.Cfg);
    EXPECT_EQ(driveMonitor(Replay, S), Triggers) << "case " << Case;
  }
}

//===----------------------------------------------------------------------===//
// CostArbiter pricing
//===----------------------------------------------------------------------===//

TEST(Arbiter, PricesMinimalMigrationAndApprovesAmortizingMoves) {
  ArbiterConfig Cfg;
  Cfg.BytesPerUnit = 8.0;
  Cfg.HorizonRounds = 10;
  CostArbiter A(Cfg);

  Dist Cur = Dist::even(100, 2); // 50 / 50.
  Dist Cand = Cur;
  Cand.Parts[0].Units = 70;
  Cand.Parts[1].Units = 30;
  std::vector<double> T = {1.0, 3.0}; // Rank 1 is the bottleneck.
  std::vector<std::uint8_t> Act = allActive(2);

  RebalanceQuote Q = A.quote(Cur, Cand, T, Act);
  EXPECT_EQ(Q.MovedUnits, 20);
  EXPECT_EQ(Q.MigrationBytes, 160ull);
  EXPECT_DOUBLE_EQ(Q.CurrentRoundSeconds, 3.0);
  // Rates 1/50 and 3/50 scaled to 70 and 30 units: max(1.4, 1.8).
  EXPECT_NEAR(Q.CandidateRoundSeconds, 1.8, 1e-12);
  EXPECT_NEAR(Q.SavingsPerRound, 1.2, 1e-12);
  EXPECT_TRUE(Q.Approved);
  EXPECT_EQ(A.counters().Approvals, 1u);
  EXPECT_EQ(A.counters().ApprovedBytes, 160ull);
}

TEST(Arbiter, VetoesWhenMigrationDwarfsTheSaving) {
  ArbiterConfig Cfg;
  Cfg.BytesPerUnit = 8.0;
  Cfg.HorizonRounds = 10;
  // A dreadful link: one second per message and per byte.
  Cfg.Link = LinkCost{/*Latency=*/1.0, /*BytePeriod=*/1.0};
  CostArbiter A(Cfg);

  Dist Cur = Dist::even(100, 2);
  Dist Cand = Cur;
  Cand.Parts[0].Units = 70;
  Cand.Parts[1].Units = 30;
  std::vector<double> T = {1.0, 3.0};
  std::vector<std::uint8_t> Act = allActive(2);

  RebalanceQuote Q = A.quote(Cur, Cand, T, Act);
  EXPECT_GT(Q.SavingsPerRound, 0.0);
  EXPECT_LT(Q.NetBenefit, 0.0);
  EXPECT_FALSE(Q.Approved);
  EXPECT_EQ(A.counters().Vetoes, 1u);
}

TEST(Arbiter, RelativeSavingFloorVetoesNoiseChurn) {
  // On a fast network any positive saving amortizes, so the relative
  // floor is what stops the arbiter from degenerating into every-round
  // balancing. An 8% projected saving clears net benefit but not a 30%
  // floor; the identical quote passes once the floor is dropped.
  ArbiterConfig Strict;
  Strict.BytesPerUnit = 8.0;
  Strict.HorizonRounds = 10;
  Strict.MinRelativeSaving = 0.3;
  ArbiterConfig Lax = Strict;
  Lax.MinRelativeSaving = 0.0;

  Dist Cur = Dist::even(100, 2);
  Dist Cand = Cur;
  Cand.Parts[0].Units = 54;
  Cand.Parts[1].Units = 46;
  std::vector<double> T = {1.0, 1.2};
  std::vector<std::uint8_t> Act = allActive(2);

  RebalanceQuote QStrict = CostArbiter(Strict).quote(Cur, Cand, T, Act);
  EXPECT_GT(QStrict.NetBenefit, 0.0);
  EXPECT_FALSE(QStrict.Approved);

  RebalanceQuote QLax = CostArbiter(Lax).quote(Cur, Cand, T, Act);
  EXPECT_TRUE(QLax.Approved);
}

TEST(Arbiter, InactiveRanksContributeNeitherRateNorRoundTime) {
  ArbiterConfig Cfg;
  CostArbiter A(Cfg);

  Dist Cur = Dist::even(90, 3);
  Dist Cand = Cur;
  std::vector<double> T = {1.0, 3.0, 100.0}; // Rank 2 excluded.
  std::vector<std::uint8_t> Act = {1, 1, 0};

  RebalanceQuote Q = A.quote(Cur, Cand, T, Act);
  EXPECT_DOUBLE_EQ(Q.CurrentRoundSeconds, 3.0);
}

TEST(Arbiter, IdleRankProjectsTheMeanRateNotAFreeShare) {
  ArbiterConfig Cfg;
  CostArbiter A(Cfg);

  // Rank 1 holds no units, so it has no measured rate; giving it half
  // the domain must be priced at the mean active rate, not at zero.
  Dist Cur;
  Cur.Total = 100;
  Cur.Parts.resize(2);
  Cur.Parts[0].Units = 100;
  Cur.Parts[1].Units = 0;
  Dist Cand = Cur;
  Cand.Parts[0].Units = 50;
  Cand.Parts[1].Units = 50;
  std::vector<double> T = {2.0, 0.0};
  std::vector<std::uint8_t> Act = allActive(2);

  RebalanceQuote Q = A.quote(Cur, Cand, T, Act);
  EXPECT_NEAR(Q.CandidateRoundSeconds, 1.0, 1e-12);
}

//===----------------------------------------------------------------------===//
// Config validation and policy construction
//===----------------------------------------------------------------------===//

TEST(EqualizeConfigTest, ValidationNamesTheOffendingKnob) {
  EqualizeConfig Good;
  Good.Policy = "threshold";
  ASSERT_TRUE(validateConfig(Good).ok());

  struct BadKnob {
    const char *Expect;
    void (*Mutate)(EqualizeConfig &);
  };
  const BadKnob Bad[] = {
      {"period", [](EqualizeConfig &C) { C.Period = 0; }},
      {"imbalance threshold",
       [](EqualizeConfig &C) { C.Monitor.TriggerThreshold = -0.1; }},
      {"clear threshold",
       [](EqualizeConfig &C) { C.Monitor.ClearThreshold = -0.5; }},
      {"cooldown", [](EqualizeConfig &C) { C.Monitor.Cooldown = -1; }},
      {"breach", [](EqualizeConfig &C) { C.Monitor.MinBreaches = 0; }},
      {"EWMA", [](EqualizeConfig &C) { C.Monitor.EwmaAlpha = 0.0; }},
      {"EWMA", [](EqualizeConfig &C) { C.Monitor.EwmaAlpha = 1.5; }},
      {"bytes per unit",
       [](EqualizeConfig &C) { C.Arbiter.BytesPerUnit = -1.0; }},
      {"horizon", [](EqualizeConfig &C) { C.Arbiter.HorizonRounds = -1; }},
      {"relative saving",
       [](EqualizeConfig &C) { C.Arbiter.MinRelativeSaving = -0.1; }},
      {"relative saving",
       [](EqualizeConfig &C) { C.Arbiter.MinRelativeSaving = 1.0; }},
  };
  for (const BadKnob &B : Bad) {
    EqualizeConfig C = Good;
    B.Mutate(C);
    Status S = validateConfig(C);
    ASSERT_FALSE(S.ok()) << B.Expect;
    EXPECT_NE(S.error().find(B.Expect), std::string::npos)
        << "'" << S.error() << "' does not name '" << B.Expect << "'";
  }
}

TEST(EqualizeConfigTest, MakeEqualizerResolvesTheRegistry) {
  EqualizeConfig Cfg;
  ASSERT_FALSE(makeEqualizer(Cfg).ok()) << "empty policy must fail";

  Cfg.Policy = "warp";
  auto Unknown = makeEqualizer(Cfg);
  ASSERT_FALSE(Unknown.ok());
  EXPECT_NE(Unknown.error().find("warp"), std::string::npos);
  EXPECT_NE(Unknown.error().find("threshold"), std::string::npos)
      << "diagnostic should list the registered policies: "
      << Unknown.error();

  // All four registered policies construct; introspection matches.
  for (const char *Name : {"off", "every", "threshold", "arbitrated"}) {
    Cfg.Policy = Name;
    auto R = makeEqualizer(Cfg);
    ASSERT_TRUE(R.ok()) << Name << ": " << R.error();
    const Equalizer &E = *R.value();
    EXPECT_EQ(E.monitor() != nullptr, std::string(Name) == "threshold");
    EXPECT_EQ(E.arbiter() != nullptr, std::string(Name) == "arbitrated");
  }
}

TEST(EqualizeConfigTest, SpecRoundTripCarriesEveryKnob) {
  EqualizeSpec Spec;
  Spec.Policy = "threshold";
  Spec.TriggerThreshold = 0.35;
  Spec.ClearThreshold = 0.12;
  Spec.Cooldown = 4;
  Spec.MinBreaches = 3;
  Spec.EwmaAlpha = 0.7;
  Spec.Period = 5;
  Spec.HorizonRounds = 17;

  auto Cfg = configFromSpec(Spec);
  ASSERT_TRUE(Cfg.ok()) << Cfg.error();
  EXPECT_EQ(Cfg.value().Policy, "threshold");
  EXPECT_DOUBLE_EQ(Cfg.value().Monitor.TriggerThreshold, 0.35);
  EXPECT_DOUBLE_EQ(Cfg.value().Monitor.ClearThreshold, 0.12);
  EXPECT_EQ(Cfg.value().Monitor.Cooldown, 4);
  EXPECT_EQ(Cfg.value().Monitor.MinBreaches, 3);
  EXPECT_DOUBLE_EQ(Cfg.value().Monitor.EwmaAlpha, 0.7);
  EXPECT_EQ(Cfg.value().Period, 5);
  EXPECT_EQ(Cfg.value().Arbiter.HorizonRounds, 17);
}

//===----------------------------------------------------------------------===//
// End-to-end policy properties over small drifting SPMD runs
//===----------------------------------------------------------------------===//

namespace {

struct PolicyOutcome {
  std::uint64_t Hash = 0;
  unsigned long long RedistBytes = 0;
  EqualizeStats Stats;
};

/// One synthetic iterative loop under \p Cl with policy \p Cfg: the
/// equalize-bench workload shrunk to test size.
PolicyOutcome runPolicy(const Cluster &Cl, const EqualizeConfig &Cfg,
                     std::int64_t Total, int Width, int Rounds) {
  int P = Cl.size();
  PolicyOutcome Out;

  SpmdResult R = runSpmd(
      P,
      [&](Comm &C) {
        int Me = C.rank();
        SimDevice Dev = Cl.makeDevice(Me);
        engine::BalancedLoop Loop(findPartitioner("geometric"), "piecewise",
                                  Total, P, /*StalenessDecay=*/0.5);
        auto EqR = makeEqualizer(Cfg);
        std::unique_ptr<Equalizer> Eq = std::move(EqR.value());

        dist::PartitionedVector<double> V(C, Loop.dist(), Width);
        V.generate([&](std::int64_t U, std::span<double> Row) {
          for (int W = 0; W < Width; ++W)
            Row[static_cast<std::size_t>(W)] =
                static_cast<double>(U * Width + W);
        });

        for (int Round = 0; Round < Rounds; ++Round) {
          double IterStart = C.time();
          std::int64_t MyUnits = V.units();
          bool DevFailed = false;
          if (MyUnits > 0) {
            Measurement M = Dev.measure(static_cast<double>(MyUnits));
            if (M.Status == MeasureStatus::Failed)
              DevFailed = true;
            else
              C.compute(M.Seconds);
          }
          Loop.balanceEqualized(C, IterStart, *Eq, DevFailed);
          Loop.redistributeIfChanged(V);
        }

        std::vector<double> Final =
            C.gatherv(std::span<const double>(V.local()), 0);
        if (Me == 0) {
          Out.Hash = fnv1a(std::as_bytes(std::span<const double>(Final)));
          Out.Stats = Eq->stats();
        }
      },
      Cl.makeCostModel());

  EXPECT_TRUE(R.allOk());
  Out.RedistBytes = R.Comm.RedistributeBytes;
  return Out;
}

EqualizeConfig testConfigFor(const std::string &Policy, int Width,
                             const LinkCost &Link) {
  EqualizeConfig Cfg;
  Cfg.Policy = Policy;
  Cfg.Period = 1;
  Cfg.Monitor.TriggerThreshold = 0.25;
  Cfg.Monitor.ClearThreshold = 0.2;
  Cfg.Monitor.Cooldown = 2;
  Cfg.Monitor.EwmaAlpha = 0.6;
  Cfg.Arbiter.BytesPerUnit = static_cast<double>(Width) * sizeof(double);
  Cfg.Arbiter.Link = Link;
  Cfg.Arbiter.HorizonRounds = 10;
  Cfg.Arbiter.MinRelativeSaving = 0.15;
  return Cfg;
}

} // namespace

TEST(EqualizeEndToEnd, PoliciesAgreeBitwiseAndGatingNeverMovesMoreBytes) {
  // Random drifting platforms (seeded, deterministic): on each, every
  // policy must compute the bit-identical final array, and the gated
  // policies (threshold, arbitrated) must not move more redistribute
  // bytes than balancing on every round — gating can only consolidate
  // moves, never add traffic.
  std::mt19937 Rng(7u);
  std::uniform_real_distribution<double> U01(0.0, 1.0);
  const std::int64_t Total = 256;
  const int Width = 8;
  const int Rounds = 24;

  for (int Case = 0; Case < 5; ++Case) {
    const int P = 4 + 2 * (Case % 2);
    Cluster Cl = makeHeterogeneousCluster(P, /*Variant=*/1 + Case % 2);
    Cl.Seed = 100 + static_cast<std::uint64_t>(Case);
    Cl.NoiseSigma = 0.04;
    int NumEvents = 1 + static_cast<int>(Rng() % 2);
    for (int E = 0; E < NumEvents; ++E) {
      int Rank = static_cast<int>(Rng() % static_cast<unsigned>(P));
      double Busy = 0.05 + 0.15 * U01(Rng);
      double Factor = 1.5 + 2.5 * U01(Rng);
      Cl.addFault(Rank, FaultPlan::slowdown(Busy, Factor));
    }

    PolicyOutcome Off = runPolicy(Cl, testConfigFor("off", Width, Cl.Inter),
                               Total, Width, Rounds);
    PolicyOutcome Every = runPolicy(Cl, testConfigFor("every", Width, Cl.Inter),
                                 Total, Width, Rounds);
    PolicyOutcome Thresh = runPolicy(
        Cl, testConfigFor("threshold", Width, Cl.Inter), Total, Width,
        Rounds);
    PolicyOutcome Arb = runPolicy(
        Cl, testConfigFor("arbitrated", Width, Cl.Inter), Total, Width,
        Rounds);

    EXPECT_EQ(Off.Hash, Every.Hash) << "case " << Case;
    EXPECT_EQ(Off.Hash, Thresh.Hash) << "case " << Case;
    EXPECT_EQ(Off.Hash, Arb.Hash) << "case " << Case;

    EXPECT_EQ(Off.RedistBytes, 0ull) << "case " << Case;
    EXPECT_LE(Thresh.RedistBytes, Every.RedistBytes) << "case " << Case;
    EXPECT_LE(Arb.RedistBytes, Every.RedistBytes) << "case " << Case;

    // The stats the loop publishes stay consistent with the policy kind.
    EXPECT_EQ(Off.Stats.Rebalances, 0ull) << "case " << Case;
    EXPECT_EQ(Every.Stats.Rounds, static_cast<std::uint64_t>(Rounds));
    EXPECT_EQ(Thresh.Stats.Vetoes, 0ull) << "case " << Case;
  }
}

//===----------------------------------------------------------------------===//
// Repartition churn stress (the equalize-layer TSan workload)
//===----------------------------------------------------------------------===//

TEST(EqualizeStress, EveryRoundChurnKeepsDataIntact) {
  // Every-round balancing under drift repartitions nearly every round:
  // concurrent redistribute sends/receives plus the allgather of the
  // equalize step on all ranks at once. Under -DFUPERMOD_SANITIZE=thread
  // (ctest -L tsan) this is the subsystem's race detector workload; in
  // normal runs it checks that heavy churn never corrupts the array.
  const int P = 8;
  const std::int64_t Total = 384;
  const int Width = 8;
  const int Rounds = 40;

  Cluster Cl = makeHeterogeneousCluster(P, /*Variant=*/3);
  Cl.NoiseSigma = 0.1; // Strong noise maximizes repartition churn.
  Cl.addFault(1, FaultPlan::slowdown(0.05, 3.0));
  Cl.addFault(5, FaultPlan::slowdown(0.1, 2.0));
  Cl.addFault(1, FaultPlan::slowdown(0.2, 1.0 / 3.0));

  EqualizeConfig Cfg = testConfigFor("every", Width, Cl.Inter);
  PolicyOutcome Out = runPolicy(Cl, Cfg, Total, Width, Rounds);
  EXPECT_GT(Out.Stats.Rebalances, static_cast<std::uint64_t>(Rounds) / 2);

  // The gathered array must be exactly the generated sequence: churn
  // moved every value around, none may be lost or duplicated.
  std::vector<double> Expected(static_cast<std::size_t>(Total) * Width);
  for (std::size_t I = 0; I < Expected.size(); ++I)
    Expected[I] = static_cast<double>(I);
  EXPECT_EQ(Out.Hash,
            fnv1a(std::as_bytes(std::span<const double>(Expected))));
}
