//===- test_multifunction.cpp - Multi-function pipeline extension ---------===//
//
// The paper's Section 7 extension: operations of different kinds (distinct
// reservation tables) sharing one physical unit.  Tests cover the
// cross-table conflict relation, bounds, the unified ILP, both baseline
// schedulers, and the verifier.
//
//===----------------------------------------------------------------------===//

#include "swp/core/Driver.h"
#include "swp/core/Verifier.h"
#include "swp/heuristics/Enumerative.h"
#include "swp/heuristics/IterativeModulo.h"
#include "swp/machine/Catalog.h"
#include "swp/workload/Corpus.h"

#include <gtest/gtest.h>

using namespace swp;

namespace {

constexpr int Fpu = 2;
constexpr int Lsu = 3;

/// ld -> fdiv -> fmul -> st : divide and multiply share the single FPU.
Ddg divMulLoop() {
  Ddg G("div-mul");
  int Ld = G.addNode("ld", Lsu, 2);
  int Dv = G.addNodeVariant("fdiv", Fpu, ppc604FpuDivVariant(), 8);
  int Mu = G.addNode("fmul", Fpu, 4);
  int St = G.addNode("st", Lsu, 2);
  G.addEdge(Ld, Dv, 0);
  G.addEdge(Dv, Mu, 0);
  G.addEdge(Mu, St, 0);
  return G;
}

} // namespace

TEST(MultiFunction, TablesConflictAtOffsetBasics) {
  MachineModel M = ppc604MultiFunction();
  const ReservationTable &Mul = M.type(Fpu).variant(0);
  const ReservationTable &Div = M.type(Fpu).variant(1);
  // A divide holds stage 1 during cycles 0..5: any multiply issued within
  // that window on the same unit collides on stage 1.
  int T = 12;
  for (int Delta = 0; Delta <= 5; ++Delta)
    EXPECT_TRUE(tablesConflictAtOffset(Div, Mul, Delta, T)) << Delta;
  // A multiply 8 cycles later is clear of every divide stage.
  EXPECT_FALSE(tablesConflictAtOffset(Div, Mul, 9, T));
}

TEST(MultiFunction, ConflictOrientationIsConsistent) {
  MachineModel M = ppc604MultiFunction();
  const ReservationTable &Mul = M.type(Fpu).variant(0);
  const ReservationTable &Div = M.type(Fpu).variant(1);
  // Div at offset p, Mul at offset p+Delta collide iff Mul at offset q,
  // Div at q+(T-Delta) collide.
  int T = 10;
  for (int Delta = 0; Delta < T; ++Delta)
    EXPECT_EQ(tablesConflictAtOffset(Div, Mul, Delta, T),
              tablesConflictAtOffset(Mul, Div, (T - Delta) % T, T))
        << Delta;
}

TEST(MultiFunction, SameTableReducesToSingleFunctionConflicts) {
  ReservationTable Table = ReservationTable::nonPipelined(3);
  for (int T = 4; T <= 8; ++T)
    for (int Delta = 0; Delta < T; ++Delta)
      EXPECT_EQ(tablesConflictAtOffset(Table, Table, Delta, T),
                Table.conflictsAtOffset(Delta, T));
}

TEST(MultiFunction, AcceptsDdgChecksVariants) {
  MachineModel M = ppc604MultiFunction();
  Ddg Good = divMulLoop();
  EXPECT_TRUE(M.acceptsDdg(Good));
  Ddg Bad("bad");
  Bad.addNodeVariant("x", Fpu, 7, 1);
  EXPECT_FALSE(M.acceptsDdg(Bad));
  Ddg BadLsu("bad-lsu");
  BadLsu.addNodeVariant("y", Lsu, 1, 1); // LSU has no extra variants.
  EXPECT_FALSE(M.acceptsDdg(BadLsu));
}

TEST(MultiFunction, ResourceMiiCountsVariantUsage) {
  MachineModel M = ppc604MultiFunction();
  Ddg G("divs");
  G.addNodeVariant("d0", Fpu, 1, 8);
  G.addNodeVariant("d1", Fpu, 1, 8);
  // Each divide holds FPU stage 1 for 6 cycles: T_res = 12 on one unit.
  EXPECT_EQ(M.resourceMii(G), 12);
  // Mixing in a multiply adds its stage-1 cycle.
  G.addNode("m", Fpu, 4);
  EXPECT_EQ(M.resourceMii(G), 13);
}

TEST(MultiFunction, IlpSchedulesDivMulLoop) {
  MachineModel M = ppc604MultiFunction();
  Ddg G = divMulLoop();
  SchedulerResult R = scheduleLoop(G, M);
  ASSERT_TRUE(R.found());
  VerifyResult V = verifySchedule(G, M, R.Schedule);
  EXPECT_TRUE(V.Ok) << V.Error;
  // One divide (6 stage-1 cycles) + one multiply (1) on one FPU: T >= 7.
  EXPECT_GE(R.Schedule.T, 7);
  EXPECT_TRUE(R.ProvenRateOptimal);
}

TEST(MultiFunction, VerifierRejectsCrossVariantCollision) {
  MachineModel M = ppc604MultiFunction();
  Ddg G("pair");
  G.addNodeVariant("div", Fpu, 1, 8);
  G.addNode("mul", Fpu, 4);
  ModuloSchedule S;
  S.T = 8;
  S.StartTime = {0, 2}; // Multiply lands inside the divider's stage-1 hold.
  S.Mapping = {0, 0};
  VerifyResult V = verifySchedule(G, M, S);
  EXPECT_FALSE(V.Ok);
  EXPECT_NE(V.Error.find("collide"), std::string::npos) << V.Error;
  // 7 cycles later stage 1 is free but the writeback stages now align:
  // div uses stage 2 at cycle 6; mul at offset 7 uses stage 2 at 8 — ok;
  // offset 6 would clash on stage 3 (div @ 7, mul offset 6 + stage3 ... ).
  S.StartTime = {0, 12};
  ModuloSchedule S2 = S;
  S2.T = 16;
  EXPECT_TRUE(verifySchedule(G, M, S2).Ok)
      << verifySchedule(G, M, S2).Error;
}

TEST(MultiFunction, EnumerativeAgreesWithIlp) {
  MachineModel M = ppc604MultiFunction();
  Ddg G = divMulLoop();
  SchedulerResult I = scheduleLoop(G, M);
  SchedulerResult E = enumerativeSchedule(G, M);
  ASSERT_TRUE(I.found());
  ASSERT_TRUE(E.found());
  EXPECT_EQ(I.Schedule.T, E.Schedule.T);
  EXPECT_TRUE(E.ProvenRateOptimal);
}

TEST(MultiFunction, ImsHandlesSharedUnit) {
  MachineModel M = ppc604MultiFunction();
  Ddg G = divMulLoop();
  SchedulerResult R = iterativeModuloSchedule(G, M);
  ASSERT_TRUE(R.found());
  VerifyResult V = verifySchedule(G, M, R.Schedule);
  EXPECT_TRUE(V.Ok) << V.Error;
  SchedulerResult I = scheduleLoop(G, M);
  ASSERT_TRUE(I.found());
  EXPECT_GE(R.Schedule.T, I.Schedule.T);
}

TEST(MultiFunction, SharedUnitCostsIIVersusSeparateUnits) {
  // The same loop on the separate-FDIV machine can overlap divide and
  // multiply; the shared FPU serializes their stage-1 usage.
  Ddg Shared = divMulLoop();
  MachineModel MShared = ppc604MultiFunction();
  SchedulerResult RShared = scheduleLoop(Shared, MShared);

  Ddg Separate("div-mul-separate");
  int Ld = Separate.addNode("ld", 3, 2);
  int Dv = Separate.addNode("fdiv", 4, 8); // Own FDIV type on ppc604Like.
  int Mu = Separate.addNode("fmul", 2, 4);
  int St = Separate.addNode("st", 3, 2);
  Separate.addEdge(Ld, Dv, 0);
  Separate.addEdge(Dv, Mu, 0);
  Separate.addEdge(Mu, St, 0);
  SchedulerResult RSep = scheduleLoop(Separate, ppc604Like());

  ASSERT_TRUE(RShared.found());
  ASSERT_TRUE(RSep.found());
  EXPECT_GT(RShared.Schedule.T, RSep.Schedule.T)
      << "sharing one FPU must cost initiation interval here";
}

class MultiFunctionPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MultiFunctionPropertyTest, RandomMixedLoopsScheduleAndVerify) {
  MachineModel M = ppc604MultiFunction();
  CorpusOptions Opts;
  Opts.MaxNodes = 7;
  Ddg Base = generateRandomLoop(
      M, static_cast<std::uint64_t>(GetParam()) * 6700417ULL + 3, Opts);
  // Remap: the corpus generator targets ppc604Like's 5 classes; fold class
  // 4 (FDIV) into FPU divide variants.
  Ddg G(Base.name());
  for (const DdgNode &N : Base.nodes()) {
    if (N.OpClass == 4)
      G.addNodeVariant(N.Name, Fpu, ppc604FpuDivVariant(), 8);
    else
      G.addNodeVariant(N.Name, N.OpClass, 0, N.Latency);
  }
  for (const DdgEdge &E : Base.edges())
    G.addEdgeWithLatency(E.Src, E.Dst, E.Distance,
                         G.node(E.Src).Latency);
  SchedulerOptions SOpts;
  SOpts.TimeLimitPerT = 10.0;
  SchedulerResult R = scheduleLoop(G, M, SOpts);
  ASSERT_TRUE(R.found()) << G.name();
  VerifyResult V = verifySchedule(G, M, R.Schedule);
  EXPECT_TRUE(V.Ok) << V.Error;

  SchedulerResult E = enumerativeSchedule(G, M);
  if (E.found() && E.ProvenRateOptimal && R.ProvenRateOptimal) {
    EXPECT_EQ(E.Schedule.T, R.Schedule.T) << G.name();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLoops, MultiFunctionPropertyTest,
                         ::testing::Range(0, 12));
