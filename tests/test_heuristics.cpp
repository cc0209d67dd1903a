//===- test_heuristics.cpp - IMS, slack and enumerative scheduler tests ---===//

#include "swp/core/Verifier.h"
#include "swp/core/Driver.h"
#include "swp/heuristics/Enumerative.h"
#include "swp/heuristics/IterativeModulo.h"
#include "swp/heuristics/SlackModulo.h"
#include "swp/machine/Catalog.h"
#include "swp/workload/Corpus.h"
#include "swp/workload/Kernels.h"

#include <cstdint>
#include <gtest/gtest.h>
#include <utility>
#include <vector>

using namespace swp;

TEST(Ims, SchedulesMotivatingLoop) {
  Ddg G = motivatingLoop();
  MachineModel M = exampleNonPipelinedMachine();
  SchedulerResult R = iterativeModuloSchedule(G, M);
  ASSERT_TRUE(R.found());
  EXPECT_GE(R.Schedule.T, R.TLowerBound);
  VerifyResult V = verifySchedule(G, M, R.Schedule);
  EXPECT_TRUE(V.Ok) << V.Error;
}

TEST(Ims, ProducesFixedMapping) {
  Ddg G = motivatingLoop();
  MachineModel M = exampleNonPipelinedMachine();
  SchedulerResult R = iterativeModuloSchedule(G, M);
  ASSERT_TRUE(R.found());
  EXPECT_TRUE(R.Schedule.hasMapping());
}

TEST(Ims, HandlesHazardMachine) {
  Ddg G = motivatingLoop();
  MachineModel M = exampleHazardMachine();
  SchedulerResult R = iterativeModuloSchedule(G, M);
  ASSERT_TRUE(R.found());
  EXPECT_TRUE(verifySchedule(G, M, R.Schedule).Ok);
  EXPECT_GE(R.Schedule.T, 6) << "hazard T_res is 6 here";
}

TEST(Ims, SchedulesAllClassicKernels) {
  MachineModel M = ppc604Like();
  for (const Ddg &G : classicKernels()) {
    SchedulerResult R = iterativeModuloSchedule(G, M);
    ASSERT_TRUE(R.found()) << G.name();
    VerifyResult V = verifySchedule(G, M, R.Schedule);
    EXPECT_TRUE(V.Ok) << G.name() << ": " << V.Error;
    EXPECT_GE(R.Schedule.T, R.TLowerBound) << G.name();
  }
}

TEST(Enumerative, SchedulesMotivatingLoop) {
  Ddg G = motivatingLoop();
  MachineModel M = exampleNonPipelinedMachine();
  SchedulerResult R = enumerativeSchedule(G, M);
  ASSERT_TRUE(R.found());
  EXPECT_TRUE(R.ProvenRateOptimal);
  EXPECT_TRUE(verifySchedule(G, M, R.Schedule).Ok);
}

TEST(Enumerative, ProvesScheduleAInfeasibilityAtT3) {
  Ddg G = scheduleALoop();
  MachineModel M = exampleTwoFpMachine();
  SchedulerResult R = enumerativeSchedule(G, M);
  ASSERT_TRUE(R.found());
  EXPECT_EQ(R.Schedule.T, 4) << "fixed mapping costs one cycle of II";
  EXPECT_TRUE(R.ProvenRateOptimal);
}

TEST(Enumerative, MatchesIlpOnKernels) {
  // Enumerative (exhaustive) and ILP must agree on the rate-optimal II.
  MachineModel M = ppc604Like();
  int Checked = 0;
  for (const Ddg &G : classicKernels()) {
    if (G.numNodes() > 9)
      continue; // Keep the exhaustive runs fast.
    SchedulerResult E = enumerativeSchedule(G, M);
    SchedulerResult I = scheduleLoop(G, M);
    ASSERT_TRUE(E.found()) << G.name();
    ASSERT_TRUE(I.found()) << G.name();
    EXPECT_EQ(E.Schedule.T, I.Schedule.T) << G.name();
    ++Checked;
  }
  EXPECT_GE(Checked, 8);
}

TEST(Heuristics, ImsNeverBeatsExhaustive) {
  MachineModel M = ppc604Like();
  for (const Ddg &G : classicKernels()) {
    if (G.numNodes() > 9)
      continue;
    SchedulerResult H = iterativeModuloSchedule(G, M);
    SchedulerResult E = enumerativeSchedule(G, M);
    ASSERT_TRUE(H.found()) << G.name();
    ASSERT_TRUE(E.found()) << G.name();
    EXPECT_GE(H.Schedule.T, E.Schedule.T)
        << G.name() << ": a heuristic cannot beat the optimum";
  }
}

//===----------------------------------------------------------------------===//
// Property tests on random loops.
//===----------------------------------------------------------------------===//

class HeuristicPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HeuristicPropertyTest, ImsSchedulesVerifyOnRandomLoops) {
  MachineModel M = ppc604Like();
  CorpusOptions Opts;
  Opts.MaxNodes = 10;
  Ddg G = generateRandomLoop(
      M, static_cast<std::uint64_t>(GetParam()) * 48271 + 11, Opts);
  SchedulerResult R = iterativeModuloSchedule(G, M);
  ASSERT_TRUE(R.found()) << G.name();
  VerifyResult V = verifySchedule(G, M, R.Schedule);
  EXPECT_TRUE(V.Ok) << V.Error;
  EXPECT_GE(R.Schedule.T, R.TLowerBound);
}

TEST_P(HeuristicPropertyTest, EnumerativeSchedulesVerifyOnRandomLoops) {
  MachineModel M = ppc604Like();
  CorpusOptions Opts;
  Opts.MaxNodes = 8;
  Ddg G = generateRandomLoop(
      M, static_cast<std::uint64_t>(GetParam()) * 16807 + 23, Opts);
  SchedulerResult R = enumerativeSchedule(G, M);
  ASSERT_TRUE(R.found()) << G.name();
  VerifyResult V = verifySchedule(G, M, R.Schedule);
  EXPECT_TRUE(V.Ok) << V.Error;
}

INSTANTIATE_TEST_SUITE_P(RandomLoops, HeuristicPropertyTest,
                         ::testing::Range(0, 25));

//===----------------------------------------------------------------------===//
// Bit-for-bit pins of the heuristic outputs.
//
// Each pin is an FNV-1a hash over every loop's T, T_lb, start times,
// mapping and proof flag.  The expected values were generated with the
// per-scheduler T loops that predate the shared sweep, so these tests hold
// the sweep steps to the exact schedules the old loops produced.  Only the
// API both versions share is used: the old IMS and slack results carried
// no proof flag, and the one the sweep gives them is "every smaller T in
// the window was modulo-skipped", which proofFlag computes for them.
//===----------------------------------------------------------------------===//

namespace {

struct PinHash {
  std::uint64_t H = 1469598103934665603ULL;

  void add(std::int64_t V) {
    for (int Byte = 0; Byte < 8; ++Byte) {
      H ^= static_cast<std::uint64_t>(V >> (8 * Byte)) & 0xff;
      H *= 1099511628211ULL;
    }
  }
};

template <typename Result>
bool proofFlag(const Result &R, const Ddg &G, const MachineModel &M) {
  if constexpr (requires { R.ProvenRateOptimal; }) {
    return R.ProvenRateOptimal;
  } else {
    for (int T = R.TLowerBound; T < R.Schedule.T; ++T)
      if (M.moduloFeasible(G, T))
        return false;
    return R.found();
  }
}

template <typename Result>
void pin(PinHash &P, const Result &R, const Ddg &G, const MachineModel &M) {
  P.add(R.Schedule.T);
  P.add(R.TLowerBound);
  P.add(static_cast<std::int64_t>(R.Schedule.StartTime.size()));
  for (int V : R.Schedule.StartTime)
    P.add(V);
  P.add(static_cast<std::int64_t>(R.Schedule.Mapping.size()));
  for (int V : R.Schedule.Mapping)
    P.add(V);
  P.add(proofFlag(R, G, M) ? 1 : 0);
}

/// Hashes of IMS and slack scheduling over \p Loops on \p M.
std::pair<std::uint64_t, std::uint64_t>
pinHeuristics(const std::vector<Ddg> &Loops, const MachineModel &M) {
  PinHash Ims, Slack;
  for (const Ddg &G : Loops) {
    pin(Ims, iterativeModuloSchedule(G, M), G, M);
    pin(Slack, slackModuloSchedule(G, M), G, M);
  }
  return {Ims.H, Slack.H};
}

} // namespace

TEST(HeuristicPins, ImsAndSlackOnThePpc604Corpus) {
  MachineModel M = ppc604Like();
  CorpusOptions Opts;
  Opts.NumLoops = 400;
  auto [Ims, Slack] = pinHeuristics(generateCorpus(M, Opts), M);
  EXPECT_EQ(Ims, 0x2a4c686449a09f51ULL);
  EXPECT_EQ(Slack, 0xc32c17a9146b52dbULL);
}

TEST(HeuristicPins, ImsAndSlackOnClassicKernels) {
  MachineModel M = ppc604Like();
  auto [Ims, Slack] = pinHeuristics(classicKernels(), M);
  EXPECT_EQ(Ims, 0x0862f690c6ab1d16ULL);
  EXPECT_EQ(Slack, 0xe1f3fe940d30336dULL);
}

TEST(HeuristicPins, ImsAndSlackOnACgraTorus) {
  MachineModel M = cgraGrid(3, 3, /*Torus=*/true);
  CgraCorpusOptions Opts;
  Opts.NumLoops = 10;
  auto [Ims, Slack] = pinHeuristics(generateCgraCorpus(M, Opts), M);
  EXPECT_EQ(Ims, 0x71d6936e44c5d3cdULL);
  EXPECT_EQ(Slack, 0xcd51ddb6fd2c5066ULL);
}

TEST(HeuristicPins, EnumerativeOnACorpusSlice) {
  // Deterministic limits only: a state limit, and a time limit no run
  // reaches, so censored T are the same on every machine.  The slice has
  // exhausted (infeasible) T, state-limited T and one loop left unfound.
  MachineModel M = ppc604Like();
  CorpusOptions COpts;
  COpts.NumLoops = 200;
  COpts.MaxNodes = 8;
  EnumOptions Opts;
  Opts.MaxStatesPerT = 2000;
  Opts.TimeLimitPerT = 1e9;
  Opts.MaxTSlack = 6;
  PinHash P;
  int Proven = 0;
  for (const Ddg &G : generateCorpus(M, COpts)) {
    auto R = enumerativeSchedule(G, M, Opts);
    pin(P, R, G, M);
    Proven += R.ProvenRateOptimal ? 1 : 0;
  }
  EXPECT_EQ(P.H, 0xb22ba9edd6bade46ULL);
  EXPECT_GT(Proven, 0);
}
