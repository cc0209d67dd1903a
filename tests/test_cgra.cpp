//===- test_cgra.cpp - CGRA grid machines, corpus, and engine parity ------===//

#include "swp/core/Driver.h"
#include "swp/core/Verifier.h"
#include "swp/heuristics/Enumerative.h"
#include "swp/heuristics/IterativeModulo.h"
#include "swp/heuristics/SlackModulo.h"
#include "swp/machine/Catalog.h"
#include "swp/sat/SatScheduler.h"
#include "swp/service/Fingerprint.h"
#include "swp/sim/DynamicSimulator.h"
#include "swp/support/Rng.h"
#include "swp/workload/Corpus.h"

#include <cstdint>
#include <gtest/gtest.h>

using namespace swp;

TEST(CgraCatalog, GridShapes) {
  MachineModel Mesh = cgraGrid(3, 3);
  EXPECT_EQ(Mesh.name(), "cgra-mesh-3x3");
  EXPECT_EQ(Mesh.numTypes(), 1);
  EXPECT_EQ(Mesh.totalUnits(), 9);
  EXPECT_EQ(Mesh.type(0).numVariants(), 2) << "ALU + multiplier variant";
  ASSERT_NE(Mesh.topology(), nullptr);
  // 3x3 mesh: 12 undirected 4-neighbor links, both directions.
  EXPECT_EQ(Mesh.topology()->edges().size(), 24u);
  EXPECT_TRUE(Mesh.topologyConstrains());

  MachineModel Torus = cgraGrid(3, 3, /*Torus=*/true);
  EXPECT_EQ(Torus.name(), "cgra-torus-3x3");
  EXPECT_EQ(Torus.topology()->edges().size(), 36u) << "out-degree 4 per PE";
  // Interchange classes admit only transposition automorphisms; on a 3x3
  // torus swapping any two PEs while fixing the rest perturbs the hop
  // matrix (vertex-transitivity needs a full rotation), so every PE is a
  // singleton — the symmetry breaker must not merge them.
  EXPECT_EQ(Torus.topology()->interchangeClasses(0, 9).size(), 9u);
}

TEST(CgraCatalog, LookupByName) {
  MachineModel M("x");
  EXPECT_TRUE(buildCatalogMachine("cgra-mesh-2x2", M));
  EXPECT_EQ(M.totalUnits(), 4);
  EXPECT_TRUE(buildCatalogMachine("cgra-torus-6x6", M));
  EXPECT_EQ(M.totalUnits(), 36);
  EXPECT_FALSE(buildCatalogMachine("cgra-mesh-7x7", M));
  EXPECT_FALSE(buildCatalogMachine("nope", M));
  // The catalog covers the legacy machines and both grid families.
  bool SawLegacy = false, SawMesh = false, SawTorus = false;
  for (const CatalogEntry &E : machineCatalog()) {
    SawLegacy |= E.Name == "ppc604-like";
    SawMesh |= E.Name == "cgra-mesh-4x4";
    SawTorus |= E.Name == "cgra-torus-2x2";
  }
  EXPECT_TRUE(SawLegacy && SawMesh && SawTorus);
}

TEST(CgraCorpus, DeterministicAndWellFormed) {
  MachineModel M = cgraGrid(3, 3);
  CgraCorpusOptions Opts;
  Opts.NumLoops = 12;
  std::vector<Ddg> A = generateCgraCorpus(M, Opts);
  std::vector<Ddg> B = generateCgraCorpus(M, Opts);
  ASSERT_EQ(A.size(), 12u);
  bool SawMulVariant = false;
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(fingerprintDdg(A[I]), fingerprintDdg(B[I])) << I;
    EXPECT_TRUE(M.acceptsDdg(A[I])) << A[I].name();
    EXPECT_TRUE(A[I].isWellFormed(M.numTypes())) << A[I].name();
    for (const DdgNode &N : A[I].nodes())
      SawMulVariant |= N.Variant == cgraMulVariant();
  }
  EXPECT_TRUE(SawMulVariant) << "corpus exercises the multiplier variant";
}

TEST(CgraEngines, IlpSatParityOnTinyGrid) {
  MachineModel M = cgraGrid(2, 2);
  CgraCorpusOptions COpts;
  COpts.NumLoops = 8;
  COpts.MaxNodes = 8;
  SchedulerOptions Opts;
  Opts.TimeLimitPerT = 1e9;
  Opts.NodeLimitPerT = 5000;
  Opts.MaxTSlack = 6;
  for (const Ddg &G : generateCgraCorpus(M, COpts)) {
    SchedulerResult Ilp = scheduleLoop(G, M, Opts);
    SchedulerResult Sat = satScheduleLoop(G, M, Opts);
    ASSERT_TRUE(Ilp.found()) << G.name();
    ASSERT_TRUE(Sat.found()) << G.name();
    EXPECT_TRUE(Ilp.ProvenRateOptimal) << G.name();
    EXPECT_TRUE(Sat.ProvenRateOptimal) << G.name();
    EXPECT_EQ(Ilp.Schedule.T, Sat.Schedule.T) << G.name();
    VerifyResult VI = verifySchedule(G, M, Ilp.Schedule);
    EXPECT_TRUE(VI.Ok) << G.name() << ": " << VI.Error;
    VerifyResult VS = verifySchedule(G, M, Sat.Schedule);
    EXPECT_TRUE(VS.Ok) << G.name() << ": " << VS.Error;
    std::string SimErr;
    EXPECT_TRUE(replaySchedule(G, M, Ilp.Schedule, 4, &SimErr))
        << G.name() << ": " << SimErr;
  }
}

TEST(CgraEngines, HeuristicsProduceVerifiedMappings) {
  MachineModel M = cgraGrid(3, 3, /*Torus=*/true);
  CgraCorpusOptions COpts;
  COpts.NumLoops = 10;
  for (const Ddg &G : generateCgraCorpus(M, COpts)) {
    SchedulerResult Ims = iterativeModuloSchedule(G, M);
    ASSERT_TRUE(Ims.found()) << G.name();
    VerifyResult VI = verifySchedule(G, M, Ims.Schedule);
    EXPECT_TRUE(VI.Ok) << G.name() << ": " << VI.Error;
    SchedulerResult Sl = slackModuloSchedule(G, M);
    ASSERT_TRUE(Sl.found()) << G.name();
    VerifyResult VS = verifySchedule(G, M, Sl.Schedule);
    EXPECT_TRUE(VS.Ok) << G.name() << ": " << VS.Error;
  }
}

TEST(CgraEngines, HeuristicsNeverBeatProvenOptimum) {
  MachineModel M = cgraGrid(2, 2);
  CgraCorpusOptions COpts;
  COpts.NumLoops = 8;
  COpts.MaxNodes = 8;
  SchedulerOptions Opts;
  Opts.TimeLimitPerT = 1e9;
  Opts.NodeLimitPerT = 5000;
  Opts.MaxTSlack = 6;
  for (const Ddg &G : generateCgraCorpus(M, COpts)) {
    SchedulerResult Ilp = scheduleLoop(G, M, Opts);
    if (!Ilp.ProvenRateOptimal || !Ilp.found())
      continue;
    SchedulerResult Ims = iterativeModuloSchedule(G, M);
    if (Ims.found()) {
      EXPECT_GE(Ims.Schedule.T, Ilp.Schedule.T) << G.name();
    }
    SchedulerResult Sl = slackModuloSchedule(G, M);
    if (Sl.found()) {
      EXPECT_GE(Sl.Schedule.T, Ilp.Schedule.T) << G.name();
    }
  }
}

TEST(CgraEngines, EnumerativeDeclinesTopologyMachines) {
  // The enumerative search tree has no routing-hazard pruning; on a
  // constraining topology it must decline rather than claim false proofs.
  MachineModel M = cgraGrid(2, 2);
  Ddg G("g");
  G.addNode("a", 0, 1);
  G.addNode("b", 0, 1);
  G.addEdge(0, 1, 0);
  SchedulerResult R = enumerativeSchedule(G, M);
  EXPECT_FALSE(R.found());
  EXPECT_FALSE(R.ProvenRateOptimal);
  EXPECT_EQ(R.Error.code(), StatusCode::InvalidInput);
}

TEST(CgraEngines, SlackForcedPlacementRejectsSelfCollidingRoute) {
  // Regression from differential fuzzing (swp_fuzz --mode cgra, instance
  // seed 10451216379200817325, reconstructed below exactly as the harness
  // derives it): an edge whose endpoints end up 3 hops apart has ROUTE
  // columns {1, 2}, which fold onto one pattern step at T=1 — a capacity
  // violation intrinsic to the placement.  The candidate scan rejects it,
  // but the forced-placement path used to commit it anyway.
  const std::uint64_t Seed = 10451216379200817325ULL;
  Rng R(Seed);
  int Rows = R.intIn(1, 2);
  int Cols = R.intIn(2, 3);
  bool Torus = R.chance(0.5);
  int MaxHops = R.chance(0.25) ? -1 : R.intIn(1, 2);
  MachineModel M = cgraGrid(Rows, Cols, Torus, MaxHops);
  // splitmix64 finalizer, as used by the fuzzer to decorrelate streams.
  std::uint64_t X = Seed ^ 0xc62a;
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  X ^= X >> 31;
  CgraCorpusOptions LoopOpts;
  LoopOpts.MaxNodes = 8;
  Ddg G = generateRandomCgraLoop(M, X, LoopOpts);
  SlackOptions SlackOpts;
  SlackOpts.MaxTSlack = 4;
  SchedulerResult Sl = slackModuloSchedule(G, M, SlackOpts);
  if (Sl.found()) {
    VerifyResult V = verifySchedule(G, M, Sl.Schedule);
    EXPECT_TRUE(V.Ok) << "T=" << Sl.Schedule.T << ": " << V.Error;
  }
}

TEST(CgraEngines, RunTimeMappingIgnoresTopology) {
  // Run-time mapping has no static placement, so topology must not change
  // its answer: the same II as on the topology-free twin machine.
  MachineModel Grid = cgraGrid(2, 2);
  MachineModel Flat("flat");
  Flat.addFuType("PE", 4, ReservationTable::cleanPipelined(1));
  Flat.addVariant(0, ReservationTable::nonPipelined(2));
  CgraCorpusOptions COpts;
  COpts.NumLoops = 6;
  COpts.MaxNodes = 8;
  SchedulerOptions Opts;
  Opts.Mapping = MappingKind::RunTime;
  Opts.TimeLimitPerT = 1e9;
  Opts.NodeLimitPerT = 5000;
  Opts.MaxTSlack = 6;
  for (const Ddg &G : generateCgraCorpus(Grid, COpts)) {
    SchedulerResult OnGrid = scheduleLoop(G, Grid, Opts);
    SchedulerResult OnFlat = scheduleLoop(G, Flat, Opts);
    ASSERT_EQ(OnGrid.found(), OnFlat.found()) << G.name();
    if (OnGrid.found()) {
      EXPECT_EQ(OnGrid.Schedule.T, OnFlat.Schedule.T) << G.name();
    }
  }
}
