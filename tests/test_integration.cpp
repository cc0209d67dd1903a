//===- test_integration.cpp - Cross-module end-to-end tests ---------------===//
//
// End-to-end properties tying every layer together: the ILP scheduler, the
// enumerative scheduler and the IMS heuristic agree with each other exactly
// as theory demands, and all of their schedules pass the independent
// verifier on random loops.
//
//===----------------------------------------------------------------------===//

#include "swp/core/Driver.h"
#include "swp/core/Verifier.h"
#include "swp/ddg/Analysis.h"
#include "swp/heuristics/Enumerative.h"
#include "swp/heuristics/IterativeModulo.h"
#include "swp/machine/Catalog.h"
#include "swp/workload/Corpus.h"
#include "swp/workload/Kernels.h"

#include <gtest/gtest.h>

using namespace swp;

TEST(Integration, IlpSchedulesAllClassicKernels) {
  MachineModel M = ppc604Like();
  for (const Ddg &G : classicKernels()) {
    SchedulerResult R = scheduleLoop(G, M);
    ASSERT_TRUE(R.found()) << G.name();
    VerifyResult V = verifySchedule(G, M, R.Schedule);
    EXPECT_TRUE(V.Ok) << G.name() << ": " << V.Error;
    EXPECT_GE(R.Schedule.T, R.TLowerBound) << G.name();
    EXPECT_FALSE(R.VerifyFailed);
  }
}

TEST(Integration, MostKernelsScheduleAtLowerBound) {
  // The paper's Table 4 shape: the large majority of loops achieve T_lb.
  MachineModel M = ppc604Like();
  int AtLb = 0, Total = 0;
  for (const Ddg &G : classicKernels()) {
    SchedulerResult R = scheduleLoop(G, M);
    ASSERT_TRUE(R.found()) << G.name();
    ++Total;
    if (R.Schedule.T == R.TLowerBound)
      ++AtLb;
  }
  EXPECT_GE(AtLb * 10, Total * 7) << "expect >= 70% at T_lb";
}

TEST(Integration, CleanMachineNeverBeatsHazardMachineII) {
  // Removing structural hazards can only help: II(clean) <= II(hazard).
  MachineModel Hazard = ppc604Like();
  MachineModel Clean = cleanVliw();
  for (const Ddg &G : classicKernels()) {
    SchedulerResult RH = scheduleLoop(G, Hazard);
    SchedulerResult RC = scheduleLoop(G, Clean);
    ASSERT_TRUE(RH.found()) << G.name();
    ASSERT_TRUE(RC.found()) << G.name();
    EXPECT_LE(RC.Schedule.T, RH.Schedule.T) << G.name();
  }
}

class IntegrationPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IntegrationPropertyTest, IlpVerifiesAndIsRateOptimalOnRandomLoops) {
  MachineModel M = ppc604Like();
  CorpusOptions Opts;
  Opts.MaxNodes = 8;
  Ddg G = generateRandomLoop(
      M, static_cast<std::uint64_t>(GetParam()) * 2654435761ULL + 17, Opts);
  SchedulerOptions SOpts;
  SOpts.TimeLimitPerT = 20.0;
  SchedulerResult R = scheduleLoop(G, M, SOpts);
  ASSERT_TRUE(R.found()) << G.name();
  VerifyResult V = verifySchedule(G, M, R.Schedule);
  ASSERT_TRUE(V.Ok) << V.Error;
  EXPECT_TRUE(R.ProvenRateOptimal);

  // Cross-check rate optimality against exhaustive search.
  SchedulerResult E = enumerativeSchedule(G, M);
  ASSERT_TRUE(E.found()) << G.name();
  EXPECT_EQ(R.Schedule.T, E.Schedule.T) << G.name();

  // And the heuristic may only be worse.
  SchedulerResult H = iterativeModuloSchedule(G, M);
  ASSERT_TRUE(H.found()) << G.name();
  EXPECT_GE(H.Schedule.T, R.Schedule.T) << G.name();
}

TEST_P(IntegrationPropertyTest, RunTimeMappingNeverWorseThanFixed) {
  MachineModel M = ppc604Like();
  CorpusOptions Opts;
  Opts.MaxNodes = 7;
  Ddg G = generateRandomLoop(
      M, static_cast<std::uint64_t>(GetParam()) * 7368787ULL + 29, Opts);
  SchedulerOptions RT;
  RT.Mapping = MappingKind::RunTime;
  RT.TimeLimitPerT = 20.0;
  SchedulerOptions FX;
  FX.TimeLimitPerT = 20.0;
  SchedulerResult A = scheduleLoop(G, M, RT);
  SchedulerResult B = scheduleLoop(G, M, FX);
  ASSERT_TRUE(A.found()) << G.name();
  ASSERT_TRUE(B.found()) << G.name();
  EXPECT_LE(A.Schedule.T, B.Schedule.T)
      << G.name() << ": dropping the mapping constraint relaxes the problem";
}

INSTANTIATE_TEST_SUITE_P(RandomLoops, IntegrationPropertyTest,
                         ::testing::Range(0, 15));
