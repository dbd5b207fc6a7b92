//===-- tests/ClusterIOTest.cpp - cluster description parsing -------------===//

#include "sim/ClusterIO.h"

#include "equalize/Policy.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace fupermod;

namespace {

const char *SampleText = R"(# sample platform
noise 0.05
seed 99
intra 2e-6 4e9
inter 1e-4 5e8
device 0 constant fast 800
device 0 cpu core 700 20 1500 200 0.5
device 0 contended sib 700 20 1500 200 0.5 3 0.25
device 1 gpu accel 4000 0.05 12000 0.5
)";

} // namespace

TEST(ClusterIO, ParsesSampleDescription) {
  std::istringstream IS(SampleText);
  std::string Error;
  auto Cl = parseCluster(IS, &Error);
  ASSERT_TRUE(Cl.has_value()) << Error;
  EXPECT_EQ(Cl->size(), 4);
  EXPECT_DOUBLE_EQ(Cl->NoiseSigma, 0.05);
  EXPECT_EQ(Cl->Seed, 99u);
  EXPECT_EQ(Cl->NodeOfRank, (std::vector<int>{0, 0, 0, 1}));
  EXPECT_DOUBLE_EQ(Cl->Intra.Latency, 2e-6);
  EXPECT_DOUBLE_EQ(1.0 / Cl->Inter.BytePeriod, 5e8);

  // Device semantics survive parsing.
  EXPECT_DOUBLE_EQ(Cl->Devices[0].speed(123.0), 800.0);
  // Contended sibling is slower than the plain core at the same size.
  EXPECT_LT(Cl->Devices[2].speed(500.0), Cl->Devices[1].speed(500.0));
  // GPU memory limit and out-of-core factor present.
  EXPECT_DOUBLE_EQ(Cl->Devices[3].memoryLimitUnits(), 12000.0);
  EXPECT_TRUE(Cl->Devices[3].canExecute(20000.0));
}

TEST(ClusterIO, CommentsAndBlankLinesIgnored) {
  std::istringstream IS("\n# hi\ndevice 0 constant a 10 # trailing\n\n");
  auto Cl = parseCluster(IS);
  ASSERT_TRUE(Cl.has_value());
  EXPECT_EQ(Cl->size(), 1);
}

TEST(ClusterIO, RejectsMalformedInput) {
  const char *Bad[] = {
      "frobnicate 3\n",                       // Unknown key.
      "device 0 constant a -5\n",             // Negative speed.
      "device 0 warp a 1 2 3\n",              // Unknown device form.
      "device 0 cpu a 700 20 1500 200\n",     // Missing drop factor.
      "noise -1\n device 0 constant a 1\n",   // Negative noise.
      "intra 1e-6 0\n device 0 constant a 1\n", // Zero bandwidth.
      "",                                     // No devices at all.
  };
  for (const char *Text : Bad) {
    std::istringstream IS(Text);
    std::string Error;
    EXPECT_FALSE(parseCluster(IS, &Error).has_value()) << Text;
    EXPECT_FALSE(Error.empty()) << Text;
  }
}

TEST(ClusterIO, RejectsANegativeCpuRamp) {
  // makeCpuProfile requires a ramp of at least 0. Only its assert checked
  // that, so a build without asserts ran such a device with no ramp.
  const char *Bad[] = {
      "device 0 cpu a 1000 -50 1500 200 0.5\n",
      "device 0 contended a 1000 -50 1500 200 0.5 3 0.25\n",
  };
  for (const char *Text : Bad) {
    std::istringstream IS(Text);
    std::string Error;
    EXPECT_FALSE(parseCluster(IS, &Error).has_value()) << Text;
    EXPECT_NE(Error.find("malformed cpu device parameters"),
              std::string::npos)
        << Error;
  }
  // A ramp of 0 (full speed from the first unit) stays valid.
  std::istringstream Zero("device 0 cpu a 1000 0 1500 200 0.5\n");
  EXPECT_TRUE(parseCluster(Zero).has_value());
}

TEST(ClusterIO, ParsesAllFaultForms) {
  std::istringstream IS(R"(
device 0 constant a 10
device 0 constant b 10
fault 0 spike 5 8.0 3
fault 0 slowdown 30 4.0
fault 1 hang 2 7.5
fault 1 fail 9
)");
  std::string Error;
  auto Cl = parseCluster(IS, &Error);
  ASSERT_TRUE(Cl.has_value()) << Error;
  ASSERT_EQ(Cl->Faults.size(), 2u);
  ASSERT_EQ(Cl->Faults[0].Events.size(), 2u);
  ASSERT_EQ(Cl->Faults[1].Events.size(), 2u);

  const FaultEvent &Spike = Cl->Faults[0].Events[0];
  EXPECT_EQ(Spike.Kind, FaultKind::LatencySpike);
  EXPECT_EQ(Spike.AfterCalls, 5);
  EXPECT_DOUBLE_EQ(Spike.Factor, 8.0);
  EXPECT_EQ(Spike.Period, 3);

  const FaultEvent &Slow = Cl->Faults[0].Events[1];
  EXPECT_EQ(Slow.Kind, FaultKind::Slowdown);
  EXPECT_DOUBLE_EQ(Slow.AfterBusyTime, 30.0);
  EXPECT_DOUBLE_EQ(Slow.Factor, 4.0);

  const FaultEvent &Hang = Cl->Faults[1].Events[0];
  EXPECT_EQ(Hang.Kind, FaultKind::Hang);
  EXPECT_EQ(Hang.AfterCalls, 2);
  EXPECT_DOUBLE_EQ(Hang.HangSeconds, 7.5);

  const FaultEvent &Fail = Cl->Faults[1].Events[1];
  EXPECT_EQ(Fail.Kind, FaultKind::Fail);
  EXPECT_EQ(Fail.AfterCalls, 9);
}

TEST(ClusterIO, ParsedFaultPlanReachesTheDevice) {
  std::istringstream IS("device 0 constant a 10\nfault 0 fail 0\n");
  auto Cl = parseCluster(IS);
  ASSERT_TRUE(Cl.has_value());
  SimDevice Dev = Cl->makeDevice(0);
  EXPECT_EQ(Dev.measure(10.0).Status, MeasureStatus::Failed);
  EXPECT_TRUE(Dev.hardFailed());
}

TEST(ClusterIO, SpikePeriodIsOptional) {
  std::istringstream IS("device 0 constant a 10\nfault 0 spike 2 8.0\n");
  auto Cl = parseCluster(IS);
  ASSERT_TRUE(Cl.has_value());
  ASSERT_EQ(Cl->Faults.size(), 1u);
  EXPECT_EQ(Cl->Faults[0].Events[0].Period, 0); // One-shot spike.
}

TEST(ClusterIO, RejectsMalformedFaults) {
  const char *Bad[] = {
      "device 0 constant a 10\nfault 1 fail 0\n",     // No such rank.
      "device 0 constant a 10\nfault 0 warp 1 2\n",   // Unknown kind.
      "device 0 constant a 10\nfault 0 spike 3\n",    // Missing factor.
      "device 0 constant a 10\nfault 0 spike 0 2 -1\n", // Bad period.
      "device 0 constant a 10\nfault 0 slowdown 5 0\n", // Zero factor.
      "device 0 constant a 10\nfault 0 hang 0 -5\n",  // Negative hang.
      "device 0 constant a 10\nfault -1 fail 0\n",    // Negative rank.
      // A rank far past the devices, rejected before any table is sized.
      "device 0 cpu core0 800 25 2000 300 0.55\nfault 2000000000 fail 0\n",
  };
  for (const char *Text : Bad) {
    std::istringstream IS(Text);
    std::string Error;
    EXPECT_FALSE(parseCluster(IS, &Error).has_value()) << Text;
    EXPECT_FALSE(Error.empty()) << Text;
  }
}

TEST(ClusterIO, ResolvePresets) {
  EXPECT_EQ(resolveCluster("two-device")->size(), 2);
  EXPECT_EQ(resolveCluster("hcl")->size(), 7);
  EXPECT_EQ(resolveCluster("hcl-nogpu")->size(), 6);
  EXPECT_EQ(resolveCluster("uniform5")->size(), 5);
}

TEST(ClusterIO, ResolveMissingFileFails) {
  std::string Error;
  EXPECT_FALSE(resolveCluster("/no/such/file.cluster", &Error).has_value());
  EXPECT_FALSE(Error.empty());
}

TEST(ClusterIO, ShippedSampleFileParses) {
  // The sample description shipped in examples/ must stay valid.
  std::string Error;
  auto Cl = loadCluster(std::string(FUPERMOD_SOURCE_DIR) +
                            "/examples/sample.cluster",
                        &Error);
  ASSERT_TRUE(Cl.has_value()) << Error;
  EXPECT_EQ(Cl->size(), 5);
  EXPECT_EQ(Cl->NodeOfRank.back(), 1);
  // The documented fault-plan example stays in sync with the parser.
  ASSERT_EQ(Cl->Faults.size(), 5u);
  ASSERT_EQ(Cl->Faults[4].Events.size(), 1u);
  EXPECT_EQ(Cl->Faults[4].Events[0].Kind, FaultKind::Slowdown);
  EXPECT_DOUBLE_EQ(Cl->Faults[4].Events[0].AfterBusyTime, 3600.0);
}

TEST(ClusterIO, NodeLinesOverrideIntraLinks) {
  std::istringstream IS(R"(
intra 2e-6 4e9
inter 1e-4 5e8
device 0 constant a 10
device 0 constant b 10
device 1 constant c 10
device 1 constant d 10
node 1 5e-7 2e10
)");
  std::string Error;
  auto Cl = parseCluster(IS, &Error);
  ASSERT_TRUE(Cl.has_value()) << Error;
  ASSERT_EQ(Cl->NodeIntra.size(), 1u);
  EXPECT_DOUBLE_EQ(Cl->NodeIntra.at(1).Latency, 5e-7);

  auto Model = Cl->makeCostModel();
  ASSERT_NE(Model, nullptr);
  // Node 0 keeps the platform-wide intra parameters ...
  EXPECT_DOUBLE_EQ(Model->link(0, 1).Latency, 2e-6);
  // ... node 1 uses its override ...
  EXPECT_DOUBLE_EQ(Model->link(2, 3).Latency, 5e-7);
  EXPECT_DOUBLE_EQ(1.0 / Model->link(2, 3).BytePeriod, 2e10);
  // ... and cross-node traffic stays on the network link.
  EXPECT_DOUBLE_EQ(Model->link(1, 2).Latency, 1e-4);

  // The placement also surfaces as a topology for the runtime.
  const NodeTopology *Topo = Model->topology();
  ASSERT_NE(Topo, nullptr);
  EXPECT_EQ(Topo->numNodes(), 2);
  EXPECT_EQ(Topo->nodeOf(3), 1);
}

TEST(ClusterIO, RejectsMalformedNodeLines) {
  const char *Bad[] = {
      "device 0 constant a 1\nnode 0 1e-6\n",        // Missing bandwidth.
      "device 0 constant a 1\nnode -1 1e-6 1e9\n",   // Negative node id.
      "device 0 constant a 1\nnode 0 -1e-6 1e9\n",   // Negative latency.
      "device 0 constant a 1\nnode 0 1e-6 0\n",      // Zero bandwidth.
      "device 0 constant a 1\nnode 0 1e-6 1e9\nnode 0 2e-6 1e9\n", // Dup.
      "device 0 constant a 1\nnode 3 1e-6 1e9\n",    // No such node.
  };
  for (const char *Text : Bad) {
    std::istringstream IS(Text);
    std::string Error;
    EXPECT_FALSE(parseCluster(IS, &Error).has_value()) << Text;
    EXPECT_FALSE(Error.empty()) << Text;
  }
}

TEST(ClusterIO, ParsesEqualizeLine) {
  std::istringstream IS(R"(
device 0 constant a 10
device 0 constant b 10
equalize arbitrated threshold 0.3 clear 0.15 cooldown 5 breaches 2 alpha 0.6 period 4 horizon 12
)");
  std::string Error;
  auto Cl = parseCluster(IS, &Error);
  ASSERT_TRUE(Cl.has_value()) << Error;
  EXPECT_EQ(Cl->Equalize.Policy, "arbitrated");
  EXPECT_DOUBLE_EQ(Cl->Equalize.TriggerThreshold, 0.3);
  EXPECT_DOUBLE_EQ(Cl->Equalize.ClearThreshold, 0.15);
  EXPECT_EQ(Cl->Equalize.Cooldown, 5);
  EXPECT_EQ(Cl->Equalize.MinBreaches, 2);
  EXPECT_DOUBLE_EQ(Cl->Equalize.EwmaAlpha, 0.6);
  EXPECT_EQ(Cl->Equalize.Period, 4);
  EXPECT_EQ(Cl->Equalize.HorizonRounds, 12);
}

TEST(ClusterIO, EqualizeLineAbsentLeavesPolicyEmpty) {
  std::istringstream IS("device 0 constant a 10\n");
  auto Cl = parseCluster(IS);
  ASSERT_TRUE(Cl.has_value());
  EXPECT_TRUE(Cl->Equalize.Policy.empty());
  // Knob defaults survive for sessions that set a policy themselves.
  EXPECT_DOUBLE_EQ(Cl->Equalize.TriggerThreshold, 0.25);
  EXPECT_EQ(Cl->Equalize.Period, 1);
}

TEST(ClusterIO, RejectsMalformedEqualizeLines) {
  // Every rejection names the offending knob (strict validation: a typo
  // must not silently fall back to a default).
  const std::pair<const char *, const char *> Bad[] = {
      {"device 0 constant a 1\nequalize\n", "policy name"},
      {"device 0 constant a 1\nequalize off\nequalize off\n", "duplicate"},
      {"device 0 constant a 1\nequalize every period\n", "period"},
      {"device 0 constant a 1\nequalize threshold threshold -0.1\n",
       "threshold"},
      {"device 0 constant a 1\nequalize threshold clear -1\n", "clear"},
      {"device 0 constant a 1\nequalize threshold cooldown -1\n",
       "cooldown"},
      {"device 0 constant a 1\nequalize threshold cooldown 1.5\n",
       "cooldown"},
      {"device 0 constant a 1\nequalize threshold cooldown 3000000000\n",
       "cooldown"},
      {"device 0 constant a 1\nequalize threshold breaches 0\n",
       "breaches"},
      {"device 0 constant a 1\nequalize threshold alpha 0\n", "alpha"},
      {"device 0 constant a 1\nequalize threshold alpha 1.5\n", "alpha"},
      {"device 0 constant a 1\nequalize every period 0\n", "period"},
      {"device 0 constant a 1\nequalize every period 4294967297\n",
       "period"},
      {"device 0 constant a 1\nequalize arbitrated horizon -1\n",
       "horizon"},
      {"device 0 constant a 1\nequalize arbitrated frobnicate 3\n",
       "frobnicate"},
  };
  for (const auto &[Text, Expect] : Bad) {
    std::istringstream IS(Text);
    std::string Error;
    EXPECT_FALSE(parseCluster(IS, &Error).has_value()) << Text;
    EXPECT_NE(Error.find(Expect), std::string::npos)
        << "'" << Error << "' does not name '" << Expect << "'";
  }
}

TEST(ClusterIO, EqualizePolicyNameResolvesAtSessionCreation) {
  // The parser accepts any policy name — the registry lookup happens in
  // equalize::configFromSpec, so tools report unknown policies with the
  // registered alternatives instead of a generic parse error.
  std::istringstream IS("device 0 constant a 10\nequalize warp\n");
  auto Cl = parseCluster(IS);
  ASSERT_TRUE(Cl.has_value());
  EXPECT_EQ(Cl->Equalize.Policy, "warp");

  auto Cfg = equalize::configFromSpec(Cl->Equalize);
  ASSERT_FALSE(Cfg);
  EXPECT_NE(Cfg.error().find("warp"), std::string::npos);
  EXPECT_NE(Cfg.error().find("arbitrated"), std::string::npos)
      << "unknown-policy diagnostic should list the registered policies: "
      << Cfg.error();
}
