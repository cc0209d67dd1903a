//===- test_formulation.cpp - ILP formulation and driver tests ------------===//

#include "swp/core/Driver.h"
#include "swp/core/Formulation.h"
#include "swp/core/Verifier.h"
#include "swp/ddg/Analysis.h"
#include "swp/machine/Catalog.h"
#include "swp/solver/BranchAndBound.h"
#include "swp/workload/Kernels.h"

#include <gtest/gtest.h>

using namespace swp;

namespace {

/// Solves one fixed-T model and returns (status, schedule).
MilpStatus solveAt(const Ddg &G, const MachineModel &M, int T,
                   MappingKind Mapping, ModuloSchedule &Out) {
  SchedulerOptions Opts;
  Opts.Mapping = Mapping;
  Opts.TimeLimitPerT = 30.0;
  TStepResult R = ilpStepAtT(G, M, T, Opts);
  Out = std::move(R.Schedule);
  return R.Attempt.Status;
}

} // namespace

TEST(Formulation, TrivialSingleOp) {
  MachineModel M = exampleCleanMachine();
  Ddg G("one");
  G.addNode("f", 0, 2);
  ModuloSchedule S;
  ASSERT_EQ(solveAt(G, M, 1, MappingKind::Fixed, S), MilpStatus::Optimal);
  EXPECT_EQ(S.T, 1);
  VerifyResult V = verifySchedule(G, M, S);
  EXPECT_TRUE(V.Ok) << V.Error;
}

TEST(Formulation, DependenceChainRespected) {
  MachineModel M = exampleCleanMachine();
  Ddg G("chain");
  int A = G.addNode("a", 0, 2);
  int B = G.addNode("b", 0, 2);
  G.addEdge(A, B, 0);
  ModuloSchedule S;
  ASSERT_EQ(solveAt(G, M, 2, MappingKind::Fixed, S), MilpStatus::Optimal);
  EXPECT_GE(S.StartTime[1] - S.StartTime[0], 2);
  EXPECT_TRUE(verifySchedule(G, M, S).Ok);
}

TEST(Formulation, SelfRecurrenceInfeasibleBelowTDep) {
  MachineModel M = exampleCleanMachine();
  Ddg G("self");
  int A = G.addNode("a", 0, 2);
  G.addEdge(A, A, 1);
  ModuloSchedule S;
  EXPECT_EQ(solveAt(G, M, 1, MappingKind::Fixed, S), MilpStatus::Infeasible);
  EXPECT_EQ(solveAt(G, M, 2, MappingKind::Fixed, S), MilpStatus::Optimal);
}

TEST(Formulation, CapacityForcesInterleaving) {
  // 2 independent FP ops on 1 clean unit at T = 2: distinct offsets.
  MachineModel M = exampleCleanMachine();
  Ddg G("two");
  G.addNode("f0", 0, 2);
  G.addNode("f1", 0, 2);
  ModuloSchedule S;
  ASSERT_EQ(solveAt(G, M, 2, MappingKind::Fixed, S), MilpStatus::Optimal);
  EXPECT_NE(S.offset(0), S.offset(1));
  // And T = 1 is infeasible: both would share the issue slot.
  EXPECT_EQ(solveAt(G, M, 1, MappingKind::Fixed, S), MilpStatus::Infeasible);
}

TEST(Formulation, NonPipelinedOccupancy) {
  // 2 independent FP ops, exec 2, one unit: T = 4 needs offsets 2 apart.
  MachineModel M("m");
  M.addFuType("FP", 1, ReservationTable::nonPipelined(2));
  Ddg G("two");
  G.addNode("f0", 0, 2);
  G.addNode("f1", 0, 2);
  ModuloSchedule S;
  EXPECT_EQ(solveAt(G, M, 3, MappingKind::Fixed, S), MilpStatus::Infeasible)
      << "exec-2 ops cannot pack into T=3 on one unit";
  ASSERT_EQ(solveAt(G, M, 4, MappingKind::Fixed, S), MilpStatus::Optimal);
  int Delta = ((S.offset(1) - S.offset(0)) % 4 + 4) % 4;
  EXPECT_EQ(Delta, 2);
  EXPECT_TRUE(verifySchedule(G, M, S).Ok);
}

TEST(Formulation, ScheduleAPhenomenon) {
  // The paper's Schedule A story: at T = 3 on two non-pipelined FP units,
  // run-time mapping admits a schedule but fixed mapping does not.
  MachineModel M = exampleTwoFpMachine();
  Ddg G = scheduleALoop();
  ModuloSchedule RunTime;
  ASSERT_EQ(solveAt(G, M, 3, MappingKind::RunTime, RunTime),
            MilpStatus::Optimal);
  EXPECT_TRUE(verifySchedule(G, M, RunTime).Ok);
  std::string Err;
  EXPECT_TRUE(simulateRunTimeMapping(G, M, RunTime, 8, &Err)) << Err;

  ModuloSchedule Fixed;
  EXPECT_EQ(solveAt(G, M, 3, MappingKind::Fixed, Fixed),
            MilpStatus::Infeasible)
      << "the circular-arc 3-clique needs 3 colors on 2 units";
  ASSERT_EQ(solveAt(G, M, 4, MappingKind::Fixed, Fixed), MilpStatus::Optimal);
  EXPECT_TRUE(verifySchedule(G, M, Fixed).Ok);
}

TEST(Formulation, SingleUnitExclusionMatchesColoring) {
  // A 1-unit type uses direct exclusion rows; result must match what the
  // verifier accepts.
  MachineModel M = exampleHazardMachine();
  Ddg G("fp2");
  G.addNode("f0", 0, 2);
  G.addNode("f1", 0, 2);
  ModuloSchedule S;
  // Stage 3 is busy 2 cycles per op: 2 ops need T >= 4 on one unit.
  EXPECT_EQ(solveAt(G, M, 3, MappingKind::Fixed, S), MilpStatus::Infeasible);
  ASSERT_EQ(solveAt(G, M, 4, MappingKind::Fixed, S), MilpStatus::Optimal);
  EXPECT_TRUE(verifySchedule(G, M, S).Ok) << verifySchedule(G, M, S).Error;
}

TEST(Formulation, ExtractionRoundTrip) {
  MachineModel M = exampleNonPipelinedMachine();
  Ddg G = motivatingLoop();
  FormulationOptions FOpts;
  FormulationVars Vars;
  MilpModel Model = buildScheduleModel(G, M, 4, FOpts, Vars);
  MilpResult R = solveMilp(Model);
  ASSERT_TRUE(R.hasSolution());
  ModuloSchedule S = extractSchedule(G, M, 4, FOpts, Vars, R.X);
  EXPECT_EQ(S.T, 4);
  ASSERT_EQ(S.StartTime.size(), 6u);
  ASSERT_TRUE(S.hasMapping());
  VerifyResult V = verifySchedule(G, M, S);
  EXPECT_TRUE(V.Ok) << V.Error;
}

TEST(Formulation, RunTimeMappingHasNoMappingVector) {
  MachineModel M = exampleNonPipelinedMachine();
  Ddg G = motivatingLoop();
  FormulationOptions FOpts;
  FOpts.Mapping = MappingKind::RunTime;
  FormulationVars Vars;
  MilpModel Model = buildScheduleModel(G, M, 4, FOpts, Vars);
  MilpResult R = solveMilp(Model);
  ASSERT_TRUE(R.hasSolution());
  ModuloSchedule S = extractSchedule(G, M, 4, FOpts, Vars, R.X);
  EXPECT_FALSE(S.hasMapping());
  EXPECT_TRUE(verifySchedule(G, M, S).Ok);
}

TEST(Driver, MotivatingLoopBounds) {
  MachineModel M = exampleNonPipelinedMachine();
  Ddg G = motivatingLoop();
  SchedulerResult R = scheduleLoop(G, M);
  EXPECT_EQ(R.TDep, 2);
  EXPECT_EQ(R.TRes, 3);
  EXPECT_EQ(R.TLowerBound, 3);
  ASSERT_TRUE(R.found());
  EXPECT_TRUE(R.ProvenRateOptimal);
  EXPECT_TRUE(verifySchedule(G, M, R.Schedule).Ok);
}

TEST(Driver, HazardMachineRaisesII) {
  Ddg G = motivatingLoop();
  SchedulerResult Clean = scheduleLoop(G, exampleCleanMachine());
  SchedulerResult Hazard = scheduleLoop(G, exampleHazardMachine());
  ASSERT_TRUE(Clean.found());
  ASSERT_TRUE(Hazard.found());
  EXPECT_GT(Hazard.Schedule.T, Clean.Schedule.T)
      << "structural hazards must cost initiation interval here";
}

TEST(Driver, SkipsModuloViolatingT) {
  MachineModel M("m");
  M.addFuType("BAD", 1, moduloViolationTable());
  Ddg G("g");
  int A = G.addNode("a", 0, 2);
  G.addEdge(A, A, 1); // T_dep = 2, but T = 2 violates the modulo constraint.
  SchedulerResult R = scheduleLoop(G, M);
  ASSERT_TRUE(R.found());
  EXPECT_GE(R.Schedule.T, 3);
  ASSERT_FALSE(R.Attempts.empty());
  EXPECT_TRUE(R.Attempts[0].ModuloSkipped);
  EXPECT_TRUE(R.ProvenRateOptimal) << "a modulo skip still counts as proof";
}

TEST(Driver, AttemptRecordsInfeasibleThenFeasible) {
  MachineModel M = exampleTwoFpMachine();
  Ddg G = scheduleALoop();
  SchedulerOptions Opts;
  SchedulerResult R = scheduleLoop(G, M, Opts);
  ASSERT_TRUE(R.found());
  EXPECT_EQ(R.Schedule.T, 4);
  ASSERT_GE(R.Attempts.size(), 2u);
  EXPECT_EQ(R.Attempts[0].T, 3);
  EXPECT_EQ(R.Attempts[0].Status, MilpStatus::Infeasible);
  EXPECT_TRUE(R.ProvenRateOptimal);
}

TEST(Driver, RunTimeMappingCanBeatFixed) {
  MachineModel M = exampleTwoFpMachine();
  Ddg G = scheduleALoop();
  SchedulerOptions RT;
  RT.Mapping = MappingKind::RunTime;
  SchedulerResult RunTime = scheduleLoop(G, M, RT);
  SchedulerResult Fixed = scheduleLoop(G, M);
  ASSERT_TRUE(RunTime.found());
  ASSERT_TRUE(Fixed.found());
  EXPECT_EQ(RunTime.Schedule.T, 3);
  EXPECT_EQ(Fixed.Schedule.T, 4);
}

TEST(Driver, CleanMachineFixedEqualsRunTime) {
  // On clean pipelines mapping is free: conflicts happen only at equal
  // offsets, which capacity already bounds by the unit count.
  MachineModel M = exampleCleanMachine();
  for (const char *Which : {"motivating", "schedule-a"}) {
    Ddg G = std::string(Which) == "motivating" ? motivatingLoop()
                                               : scheduleALoop();
    SchedulerOptions RT;
    RT.Mapping = MappingKind::RunTime;
    SchedulerResult A = scheduleLoop(G, M, RT);
    SchedulerResult B = scheduleLoop(G, M);
    ASSERT_TRUE(A.found());
    ASSERT_TRUE(B.found());
    EXPECT_EQ(A.Schedule.T, B.Schedule.T) << Which;
  }
}

TEST(Driver, ColoringObjectiveStillRateOptimal) {
  MachineModel M = exampleNonPipelinedMachine();
  Ddg G = motivatingLoop();
  SchedulerOptions Opts;
  Opts.ColoringObjective = true;
  SchedulerResult R = scheduleLoop(G, M, Opts);
  SchedulerResult Plain = scheduleLoop(G, M);
  ASSERT_TRUE(R.found());
  ASSERT_TRUE(Plain.found());
  EXPECT_EQ(R.Schedule.T, Plain.Schedule.T);
  EXPECT_TRUE(verifySchedule(G, M, R.Schedule).Ok);
}

TEST(Driver, TimeLimitCensorsProof) {
  // A zero time limit makes every attempt unknown: nothing found, nothing
  // proven.
  MachineModel M = exampleNonPipelinedMachine();
  Ddg G = motivatingLoop();
  SchedulerOptions Opts;
  Opts.TimeLimitPerT = 0.0;
  Opts.MaxTSlack = 2;
  Opts.LpRoundingProbe = false; // The probe ignores the B&B time limit.
  SchedulerResult R = scheduleLoop(G, M, Opts);
  EXPECT_FALSE(R.found());
  for (const TAttempt &A : R.Attempts)
    EXPECT_EQ(A.Status, MilpStatus::Unknown);
}

TEST(Driver, ProbeAndPureMilpAgree) {
  // The LP-rounding probe is an accelerator only: with and without it the
  // driver must find the same rate-optimal II.
  MachineModel M = exampleNonPipelinedMachine();
  for (const char *Which : {"motivating", "schedule-a"}) {
    Ddg G = std::string(Which) == "motivating" ? motivatingLoop()
                                               : scheduleALoop();
    SchedulerOptions NoProbe;
    NoProbe.LpRoundingProbe = false;
    SchedulerResult A = scheduleLoop(G, M, NoProbe);
    SchedulerResult B = scheduleLoop(G, M);
    ASSERT_TRUE(A.found());
    ASSERT_TRUE(B.found());
    EXPECT_EQ(A.Schedule.T, B.Schedule.T) << Which;
  }
}

TEST(Formulation, ModelSizeScalesWithTAndN) {
  MachineModel M = exampleNonPipelinedMachine();
  Ddg G = motivatingLoop();
  FormulationOptions Opts;
  FormulationVars V4, V8;
  MilpModel M4 = buildScheduleModel(G, M, 4, Opts, V4);
  MilpModel M8 = buildScheduleModel(G, M, 8, Opts, V8);
  EXPECT_GT(M8.numVars(), M4.numVars());
  EXPECT_GT(M8.numConstraints(), M4.numConstraints());
  // a-vars: T x N; k-vars: N.
  EXPECT_EQ(static_cast<int>(V4.A.size()), 4);
  EXPECT_EQ(static_cast<int>(V4.A[0].size()), G.numNodes());
  EXPECT_EQ(static_cast<int>(V4.K.size()), G.numNodes());
}

TEST(Formulation, ColorVariablesOnlyForCrowdedMultiUnitTypes) {
  // 3 FP ops on 2 units -> coloring block; 3 LS ops on 1 unit -> direct
  // exclusions, no color vars.
  MachineModel M = exampleNonPipelinedMachine();
  Ddg G = motivatingLoop();
  FormulationOptions Opts;
  FormulationVars Vars;
  buildScheduleModel(G, M, 4, Opts, Vars);
  for (int Op : G.nodesOfClass(0))
    EXPECT_GE(Vars.Color[static_cast<size_t>(Op)], 0);
  for (int Op : G.nodesOfClass(1))
    EXPECT_EQ(Vars.Color[static_cast<size_t>(Op)], -1);
  EXPECT_EQ(Vars.Pairs.size(), 3u) << "3 FP pairs";
}

TEST(Formulation, RunTimeMappingHasNoColoringBlock) {
  MachineModel M = exampleNonPipelinedMachine();
  Ddg G = motivatingLoop();
  FormulationOptions Opts;
  Opts.Mapping = MappingKind::RunTime;
  FormulationVars Vars;
  buildScheduleModel(G, M, 4, Opts, Vars);
  EXPECT_TRUE(Vars.Pairs.empty());
  for (int I = 0; I < G.numNodes(); ++I)
    EXPECT_EQ(Vars.Color[static_cast<size_t>(I)], -1);
}

TEST(Formulation, ScheduleToAssignmentIsModelFeasible) {
  MachineModel M = exampleNonPipelinedMachine();
  Ddg G = motivatingLoop();
  FormulationOptions Opts;
  FormulationVars Vars;
  MilpModel Model = buildScheduleModel(G, M, 4, Opts, Vars);
  ModuloSchedule S;
  S.T = 4;
  S.StartTime = {0, 1, 3, 5, 7, 11};
  S.Mapping = {0, 0, 1, 1, 0, 0}; // Valid but non-canonical colors.
  ASSERT_TRUE(verifySchedule(G, M, S).Ok);
  std::vector<double> X =
      scheduleToAssignment(G, M, 4, Opts, Vars, S, Model.numVars());
  EXPECT_TRUE(Model.isFeasible(X, 1e-6))
      << "lifting must canonicalize colors into the symmetry-broken bounds";
}

TEST(Formulation, KMaxOverrideRestrictsSchedules) {
  // KMax = 0 forces every instruction into iteration-stage 0; the chain
  // cannot fit and the model becomes infeasible at small T.
  MachineModel M = exampleCleanMachine();
  Ddg G = motivatingLoop();
  FormulationOptions Opts;
  Opts.KMax = 0;
  FormulationVars Vars;
  MilpModel Model = buildScheduleModel(G, M, 3, Opts, Vars);
  MilpResult R = solveMilp(Model);
  EXPECT_EQ(R.Status, MilpStatus::Infeasible)
      << "t <= T-1 = 2 cannot hold the 11-cycle chain";
}

TEST(Driver, MaxTSlackZeroOnlyTriesLowerBound) {
  MachineModel M = exampleTwoFpMachine();
  Ddg G = scheduleALoop();
  SchedulerOptions Opts;
  Opts.MaxTSlack = 0; // Fixed mapping needs T = 4 > T_lb = 3.
  SchedulerResult R = scheduleLoop(G, M, Opts);
  EXPECT_FALSE(R.found());
  ASSERT_EQ(R.Attempts.size(), 1u);
  EXPECT_EQ(R.Attempts[0].Status, MilpStatus::Infeasible);
}

TEST(Driver, MinimizeBuffersKeepsRateOptimality) {
  MachineModel M = exampleNonPipelinedMachine();
  Ddg G = motivatingLoop();
  SchedulerOptions Plain;
  SchedulerOptions MinBuf;
  MinBuf.MinimizeBuffers = true;
  SchedulerResult A = scheduleLoop(G, M, Plain);
  SchedulerResult B = scheduleLoop(G, M, MinBuf);
  ASSERT_TRUE(A.found());
  ASSERT_TRUE(B.found());
  EXPECT_EQ(A.Schedule.T, B.Schedule.T);
}
