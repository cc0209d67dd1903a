//===- test_slack.cpp - Slack (lifetime-sensitive) scheduler tests --------===//

#include "swp/core/Driver.h"
#include "swp/core/Registers.h"
#include "swp/core/Verifier.h"
#include "swp/heuristics/SlackModulo.h"
#include "swp/machine/Catalog.h"
#include "swp/workload/Corpus.h"
#include "swp/workload/Kernels.h"

#include <gtest/gtest.h>

using namespace swp;

TEST(Slack, SchedulesMotivatingLoop) {
  Ddg G = motivatingLoop();
  MachineModel M = exampleNonPipelinedMachine();
  SchedulerResult R = slackModuloSchedule(G, M);
  ASSERT_TRUE(R.found());
  EXPECT_GE(R.Schedule.T, R.TLowerBound);
  VerifyResult V = verifySchedule(G, M, R.Schedule);
  EXPECT_TRUE(V.Ok) << V.Error;
}

TEST(Slack, SchedulesAllClassicKernels) {
  MachineModel M = ppc604Like();
  for (const Ddg &G : classicKernels()) {
    SchedulerResult R = slackModuloSchedule(G, M);
    ASSERT_TRUE(R.found()) << G.name();
    VerifyResult V = verifySchedule(G, M, R.Schedule);
    EXPECT_TRUE(V.Ok) << G.name() << ": " << V.Error;
  }
}

TEST(Slack, NeverBeatsIlp) {
  MachineModel M = ppc604Like();
  for (const Ddg &G : classicKernels()) {
    SchedulerResult H = slackModuloSchedule(G, M);
    SchedulerResult I = scheduleLoop(G, M);
    if (!H.found() || !I.found() || !I.ProvenRateOptimal)
      continue;
    EXPECT_GE(H.Schedule.T, I.Schedule.T) << G.name();
  }
}

TEST(Slack, HandlesHazardAndMultiFunctionMachines) {
  Ddg G = motivatingLoop();
  SchedulerResult R1 = slackModuloSchedule(G, exampleHazardMachine());
  ASSERT_TRUE(R1.found());
  EXPECT_TRUE(verifySchedule(G, exampleHazardMachine(), R1.Schedule).Ok);

  MachineModel MF = ppc604MultiFunction();
  Ddg G2("mixed");
  int Ld = G2.addNode("ld", 3, 2);
  int Dv = G2.addNodeVariant("div", 2, ppc604FpuDivVariant(), 8);
  int Mu = G2.addNode("mul", 2, 4);
  G2.addEdge(Ld, Dv, 0);
  G2.addEdge(Dv, Mu, 0);
  SchedulerResult R2 = slackModuloSchedule(G2, MF);
  ASSERT_TRUE(R2.found());
  EXPECT_TRUE(verifySchedule(G2, MF, R2.Schedule).Ok)
      << verifySchedule(G2, MF, R2.Schedule).Error;
}

TEST(Slack, EmptyLoopNormalizesNothing) {
  // A loop without nodes passes the sweep's validation; the start-time
  // normalization must not read the smallest of no start times (the
  // sanitizer builds stop on that read).
  Ddg G("empty");
  MachineModel M = ppc604Like();
  SchedulerResult R = slackModuloSchedule(G, M);
  ASSERT_TRUE(R.found());
  EXPECT_EQ(R.Schedule.T, 1);
  EXPECT_TRUE(R.Schedule.StartTime.empty());
}

TEST(Slack, TendsToShorterLifetimesThanWorstCase) {
  // On a wide fan (one producer, many consumers), late placement of
  // consumers is irrelevant, but the producer-side value count stays
  // bounded by the single value: MaxLive of slack schedule stays modest.
  MachineModel M = exampleCleanMachine();
  Ddg G("fan");
  int P = G.addNode("p", 0, 2);
  for (int I = 0; I < 4; ++I) {
    int C = G.addNode("c" + std::to_string(I), 1, 1);
    G.addEdge(P, C, 0);
  }
  SchedulerResult R = slackModuloSchedule(G, M);
  ASSERT_TRUE(R.found());
  EXPECT_TRUE(verifySchedule(G, M, R.Schedule).Ok);
  EXPECT_LE(maxLive(G, R.Schedule), 3);
}

class SlackPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SlackPropertyTest, VerifiesOnRandomLoops) {
  MachineModel M = ppc604Like();
  CorpusOptions Opts;
  Opts.MaxNodes = 10;
  Ddg G = generateRandomLoop(
      M, static_cast<std::uint64_t>(GetParam()) * 179424673ULL + 41, Opts);
  SchedulerResult R = slackModuloSchedule(G, M);
  ASSERT_TRUE(R.found()) << G.name();
  VerifyResult V = verifySchedule(G, M, R.Schedule);
  EXPECT_TRUE(V.Ok) << V.Error;
  EXPECT_GE(R.Schedule.T, R.TLowerBound);
}

INSTANTIATE_TEST_SUITE_P(RandomLoops, SlackPropertyTest,
                         ::testing::Range(0, 20));
