//===- test_simulator.cpp - Dynamic-issue simulator tests -----------------===//

#include "swp/core/Driver.h"
#include "swp/heuristics/IterativeModulo.h"
#include "swp/machine/Catalog.h"
#include "swp/sim/DynamicSimulator.h"
#include "swp/workload/Corpus.h"
#include "swp/workload/Kernels.h"

#include <gtest/gtest.h>

using namespace swp;

TEST(DynamicSim, SerialChainRunsAtLatencySum) {
  // In-order, a strict chain issues one op per producer latency; with no
  // cross-iteration overlap beyond readiness, the rate approaches the sum
  // of latencies on the critical chain.
  MachineModel M = exampleCleanMachine();
  Ddg G("chain");
  int A = G.addNode("a", 0, 2);
  int B = G.addNode("b", 0, 2);
  G.addEdge(A, B, 0);
  SimOptions Opts;
  Opts.InOrder = true;
  SimResult R = simulateDynamicIssue(G, M, Opts);
  // In-order with a 1-deep window: iteration j+1's a can issue right after
  // b of iteration j issues -> ~2 cycles per iteration minimum, but b
  // waits 2 cycles on a: rate ~ 2 + something; just bound it sanely.
  EXPECT_GE(R.CyclesPerIteration, 2.0);
  EXPECT_LE(R.CyclesPerIteration, 4.0);
}

TEST(DynamicSim, OutOfOrderNotSlowerThanInOrder) {
  MachineModel M = ppc604Like();
  for (const Ddg &G : classicKernels()) {
    SimOptions InOrder;
    InOrder.InOrder = true;
    SimOptions Ooo;
    Ooo.InOrder = false;
    double RateIn = simulateDynamicIssue(G, M, InOrder).CyclesPerIteration;
    double RateOoo = simulateDynamicIssue(G, M, Ooo).CyclesPerIteration;
    EXPECT_LE(RateOoo, RateIn + 1e-9) << G.name();
  }
}

TEST(DynamicSim, SwpIiNeverWorseThanDataflowLimit) {
  // The rate-optimal II lower-bounds any issue discipline's *steady-state*
  // rate (the ILP proof is machine-wide).  A finite horizon can borrow up
  // to one period of boundary slack, hence the II/Iterations tolerance.
  MachineModel M = ppc604Like();
  for (const Ddg &G : classicKernels()) {
    SchedulerResult R = scheduleLoop(G, M);
    if (!R.found() || !R.ProvenRateOptimal)
      continue;
    SimOptions Ooo;
    Ooo.InOrder = false;
    Ooo.IssueWidth = 0; // Unlimited.
    double Rate = simulateDynamicIssue(G, M, Ooo).CyclesPerIteration;
    double Tolerance =
        2.0 * R.Schedule.T / Ooo.Iterations + 1e-6; // Half-window measure.
    EXPECT_GE(Rate + Tolerance, R.Schedule.T) << G.name();
  }
}

TEST(DynamicSim, IssueWidthOneSerializes) {
  MachineModel M = exampleCleanMachine();
  Ddg G("par");
  G.addNode("a", 0, 2);
  G.addNode("b", 1, 1);
  SimOptions Wide;
  Wide.IssueWidth = 0;
  Wide.InOrder = false;
  SimOptions Narrow = Wide;
  Narrow.IssueWidth = 1;
  double RateWide = simulateDynamicIssue(G, M, Wide).CyclesPerIteration;
  double RateNarrow = simulateDynamicIssue(G, M, Narrow).CyclesPerIteration;
  EXPECT_LE(RateWide, RateNarrow + 1e-9);
  EXPECT_GE(RateNarrow, 2.0 - 1e-9) << "two ops through a 1-wide front end";
}

TEST(Replay, AcceptsIlpSchedules) {
  MachineModel M = ppc604Like();
  for (const Ddg &G : classicKernels()) {
    SchedulerResult R = scheduleLoop(G, M);
    ASSERT_TRUE(R.found()) << G.name();
    std::string Err;
    EXPECT_TRUE(replaySchedule(G, M, R.Schedule, 8, &Err))
        << G.name() << ": " << Err;
  }
}

TEST(Replay, AcceptsImsSchedules) {
  MachineModel M = ppc604Like();
  for (const Ddg &G : classicKernels()) {
    SchedulerResult R = iterativeModuloSchedule(G, M);
    ASSERT_TRUE(R.found()) << G.name();
    std::string Err;
    EXPECT_TRUE(replaySchedule(G, M, R.Schedule, 8, &Err))
        << G.name() << ": " << Err;
  }
}

TEST(Replay, RejectsOperandHazard) {
  MachineModel M = exampleCleanMachine();
  Ddg G("chain");
  int A = G.addNode("a", 0, 2);
  int B = G.addNode("b", 0, 2);
  G.addEdge(A, B, 0);
  ModuloSchedule S;
  S.T = 2;
  S.StartTime = {0, 1}; // b needs a + 2.
  S.Mapping = {0, 0};
  std::string Err;
  EXPECT_FALSE(replaySchedule(G, M, S, 4, &Err));
  EXPECT_NE(Err.find("operand"), std::string::npos) << Err;
}

TEST(Replay, RejectsUnitConflict) {
  MachineModel M("m");
  M.addFuType("FP", 1, ReservationTable::nonPipelined(2));
  Ddg G("two");
  G.addNode("a", 0, 2);
  G.addNode("b", 0, 2);
  ModuloSchedule S;
  S.T = 4;
  S.StartTime = {0, 1}; // Overlapping occupancy on the single unit.
  S.Mapping = {0, 0};
  std::string Err;
  EXPECT_FALSE(replaySchedule(G, M, S, 4, &Err));
  EXPECT_NE(Err.find("busy"), std::string::npos) << Err;
}

class SimPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SimPropertyTest, ReplayAgreesWithStaticVerifierOnRandomLoops) {
  MachineModel M = ppc604Like();
  CorpusOptions Opts;
  Opts.MaxNodes = 8;
  Ddg G = generateRandomLoop(
      M, static_cast<std::uint64_t>(GetParam()) * 15485863ULL + 53, Opts);
  SchedulerResult R = scheduleLoop(G, M);
  ASSERT_TRUE(R.found()) << G.name();
  std::string Err;
  EXPECT_TRUE(replaySchedule(G, M, R.Schedule, 10, &Err)) << Err;
}

INSTANTIATE_TEST_SUITE_P(RandomLoops, SimPropertyTest,
                         ::testing::Range(0, 15));
