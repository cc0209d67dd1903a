//===- test_encoding_pins.cpp - Exact encodings, pinned bit for bit -------===//
//
// Pins the exact shape of both exact encodings on fixed slices: an FNV-1a
// digest of every variable (bounds, kind, branch priority) and row (terms,
// comparison, right-hand side) buildScheduleModel emits, of the handles it
// returns and of the warm start scheduleToAssignment lifts; and per CNF
// slice the variable and clause counts after each selector(T) and the
// search counters of the SAT sweep.  The repository benchmark's guard
// checks the ppc604 ILP and SAT counters and CGRA SAT requests; these pins
// add the topology ILP, scheduleToAssignment and run-time mapping, which no
// benchmark workload runs.
//
// A change meant to alter an encoding re-pins these values and says why;
// any other change must leave them untouched.
//
//===----------------------------------------------------------------------===//

#include "swp/core/Driver.h"
#include "swp/core/Formulation.h"
#include "swp/ddg/Analysis.h"
#include "swp/heuristics/IterativeModulo.h"
#include "swp/machine/Catalog.h"
#include "swp/sat/SatScheduler.h"
#include "swp/workload/Corpus.h"

#include "PinDigest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

using namespace swp;

namespace {

/// The machines and loops every pin runs on.
struct Slice {
  const char *Machine;
  int Loops;
};
/// Each test's expected values follow this order.
constexpr Slice AllSlices[] = {{"ppc604-like", 40},
                               {"cgra-mesh-2x2", 20},
                               {"cgra-mesh-3x3", 20},
                               {"cgra-torus-3x3", 20}};

MachineModel machine(const Slice &S) {
  MachineModel M;
  EXPECT_TRUE(buildCatalogMachine(S.Machine, M)) << S.Machine;
  return M;
}

std::vector<Ddg> loops(const MachineModel &M, const Slice &S) {
  if (M.topology()) {
    CgraCorpusOptions CO;
    CO.NumLoops = S.Loops;
    return generateCgraCorpus(M, CO);
  }
  CorpusOptions CO;
  CO.NumLoops = S.Loops;
  return generateCorpus(M, CO);
}

/// The modulo-feasible T in T_lb..T_lb+2.
std::vector<int> candidatePeriods(const Ddg &G, const MachineModel &M) {
  const int TLb = std::max({1, recurrenceMii(G), M.resourceMii(G)});
  std::vector<int> Ts;
  for (int T = TLb; T <= TLb + 2; ++T)
    if (M.moduloFeasible(G, T))
      Ts.push_back(T);
  return Ts;
}

/// The option sets the ILP is built with: the defaults, ilpStepAtT's
/// feasibility model, the buffer objective and run-time mapping.
std::vector<FormulationOptions> formulationVariants() {
  FormulationOptions Default;
  FormulationOptions Feasibility;
  Feasibility.ColoringObjective = false;
  Feasibility.BreakRotation = true;
  FormulationOptions Buffers;
  Buffers.BufferObjective = true;
  FormulationOptions RunTime;
  RunTime.Mapping = MappingKind::RunTime;
  return {Default, Feasibility, Buffers, RunTime};
}

void digestModel(Fnv1a &H, const MilpModel &M) {
  H.num(M.numVars());
  for (const ModelVar &V : M.vars()) {
    H.real(V.Lb);
    H.real(V.Ub);
    H.num(static_cast<int>(V.Kind));
    H.num(V.BranchPriority);
    H.num(V.UbRowRedundant ? 1 : 0);
  }
  H.num(M.numConstraints());
  for (const ModelConstraint &C : M.constraints()) {
    H.num(static_cast<std::int64_t>(C.Expr.terms().size()));
    for (const LinTerm &T : C.Expr.terms()) {
      H.num(T.Var);
      H.real(T.Coef);
    }
    H.num(static_cast<int>(C.Cmp));
    H.real(C.Rhs);
  }
  for (const LinTerm &T : M.objective().terms()) {
    H.num(T.Var);
    H.real(T.Coef);
  }
}

void digestVars(Fnv1a &H, const FormulationVars &V) {
  for (const std::vector<VarId> &Row : V.A)
    for (VarId X : Row)
      H.num(X);
  for (const std::vector<VarId> *Ids : {&V.K, &V.Color, &V.Buffers, &V.CMax})
    for (VarId X : *Ids)
      H.num(X);
  for (const FormulationVars::PairVarIds &P : V.Pairs)
    for (int X : {P.OpI, P.OpJ, P.Overlap, P.Sign})
      H.num(X);
  for (const std::vector<VarId> &Row : V.Inst)
    for (VarId X : Row)
      H.num(X);
  for (const FormulationVars::RouteVarIds &R : V.Route)
    for (int X : {R.Edge, R.Unit, R.Hops, R.Y})
      H.num(X);
}

/// Digest of every model of \p S: each loop, each candidate T, each option
/// set.  \p Models counts the models built.
std::uint64_t ilpModelDigest(const Slice &S, int &Models) {
  const MachineModel M = machine(S);
  Fnv1a H;
  Models = 0;
  for (const Ddg &G : loops(M, S))
    for (int T : candidatePeriods(G, M))
      for (const FormulationOptions &Opts : formulationVariants()) {
        FormulationVars Vars;
        const MilpModel Model = buildScheduleModel(G, M, T, Opts, Vars);
        digestModel(H, Model);
        digestVars(H, Vars);
        ++Models;
      }
  return H.H;
}

/// Digest of the assignments scheduleToAssignment lifts from each loop's
/// iterative-modulo schedule, under every option set.  \p Lifted counts
/// them.
std::uint64_t warmStartDigest(const Slice &S, int &Lifted) {
  const MachineModel M = machine(S);
  Fnv1a H;
  Lifted = 0;
  for (const Ddg &G : loops(M, S)) {
    const SchedulerResult R = iterativeModuloSchedule(G, M);
    if (!R.found())
      continue;
    for (const FormulationOptions &Opts : formulationVariants()) {
      FormulationVars Vars;
      const MilpModel Model =
          buildScheduleModel(G, M, R.Schedule.T, Opts, Vars);
      for (double X : scheduleToAssignment(G, M, R.Schedule.T, Opts, Vars,
                                           R.Schedule, Model.numVars()))
        H.real(X);
      ++Lifted;
    }
  }
  return H.H;
}

/// CNF sizes and SAT search counters of one slice.
struct SatPin {
  std::uint64_t SizeDigest = 0;
  std::int64_t Vars = 0, Clauses = 0;
  std::int64_t Conflicts = 0, Decisions = 0, Propagations = 0;
  std::int64_t CycleBlocks = 0;
  int Found = 0, Proven = 0;
};

SatPin satPin(const Slice &S) {
  const MachineModel M = machine(S);
  SatPin P;
  Fnv1a H;
  for (const Ddg &G : loops(M, S)) {
    // The encoding alone: every candidate slice under both mappings.
    for (MappingKind Kind : {MappingKind::Fixed, MappingKind::RunTime}) {
      CdclSolver Solver;
      CnfEncoder Enc(G, M, Kind, Solver);
      for (int T : candidatePeriods(G, M)) {
        if (Enc.triviallyInfeasible(T))
          continue;
        (void)Enc.selector(T);
        H.num(Solver.numVars());
        H.num(Solver.numClauses());
      }
      P.Vars += Solver.numVars();
      P.Clauses += Solver.numClauses();
    }

    // satScheduleLoop's sweep, with the cycle blocks counted per attempt.
    SchedulerOptions Opts;
    Opts.NodeLimitPerT = 100;
    Opts.TimeLimitPerT = 1e9;
    Opts.MaxTSlack = 3;
    std::optional<SatScheduler> Engine;
    const TStep Step = [&](int T) {
      if (!Engine)
        Engine.emplace(G, M, Opts.Mapping);
      SatAttempt A = Engine->solveAtT(T, Opts.TimeLimitPerT,
                                      Opts.NodeLimitPerT, Opts.Cancel);
      P.CycleBlocks += A.CycleBlocks;
      return satStepResult(std::move(A));
    };
    const SchedulerResult R = searchRateOptimal(G, M, Opts, Step);
    P.Found += R.found() ? 1 : 0;
    P.Proven += R.ProvenRateOptimal ? 1 : 0;
    H.num(R.found() ? R.Schedule.T : -1);
    if (Engine) {
      P.Conflicts += Engine->stats().Conflicts;
      P.Decisions += Engine->stats().Decisions;
      P.Propagations += Engine->stats().Propagations;
    }
  }
  P.SizeDigest = H.H;
  return P;
}

} // namespace

TEST(EncodingPins, IlpModels) {
  struct Expected {
    int Models;
    const char *Digest;
  };
  constexpr Expected Pins[] = {{480, "dbebb9db3f6d1c9d"},
                               {236, "92315cc29e581fa5"},
                               {212, "54f3b1a6f1763b74"},
                               {212, "05981fc694d762e4"}};
  for (std::size_t I = 0; I < std::size(AllSlices); ++I) {
    SCOPED_TRACE(AllSlices[I].Machine);
    int Models = 0;
    const std::string D = hex(ilpModelDigest(AllSlices[I], Models));
    EXPECT_EQ(Models, Pins[I].Models);
    EXPECT_EQ(D, Pins[I].Digest);
  }
}

TEST(EncodingPins, WarmStartAssignments) {
  struct Expected {
    int Lifted;
    const char *Digest;
  };
  constexpr Expected Pins[] = {{160, "b12e973934dbec55"},
                               {80, "9c33d742f70ee6c5"},
                               {80, "6feaa599ca3f2390"},
                               {80, "3fd28854fb22edbd"}};
  for (std::size_t I = 0; I < std::size(AllSlices); ++I) {
    SCOPED_TRACE(AllSlices[I].Machine);
    int Lifted = 0;
    const std::string D = hex(warmStartDigest(AllSlices[I], Lifted));
    EXPECT_EQ(Lifted, Pins[I].Lifted);
    EXPECT_EQ(D, Pins[I].Digest);
  }
}

TEST(EncodingPins, SatEncodingAndSearch) {
  struct Expected {
    const char *SizeDigest;
    std::int64_t Vars, Clauses, Conflicts, Decisions, Propagations,
        CycleBlocks;
    int Found, Proven;
  };
  constexpr Expected Pins[] = {
      {"594a6262a155f2e8", 19915, 71950, 1037, 2930323, 6156297, 4652, 38, 38},
      {"d4b953cd373eabbf", 13485, 67639, 256, 1829, 14558, 0, 20, 20},
      {"30bf8232f94de098", 12509, 76177, 225, 2890, 10342, 0, 20, 20},
      {"0146e27e4c4f77ea", 12509, 74857, 132, 2896, 8919, 0, 20, 20}};
  for (std::size_t I = 0; I < std::size(AllSlices); ++I) {
    SCOPED_TRACE(AllSlices[I].Machine);
    const SatPin P = satPin(AllSlices[I]);
    EXPECT_EQ(hex(P.SizeDigest), Pins[I].SizeDigest);
    EXPECT_EQ(P.Vars, Pins[I].Vars);
    EXPECT_EQ(P.Clauses, Pins[I].Clauses);
    EXPECT_EQ(P.Conflicts, Pins[I].Conflicts);
    EXPECT_EQ(P.Decisions, Pins[I].Decisions);
    EXPECT_EQ(P.Propagations, Pins[I].Propagations);
    EXPECT_EQ(P.CycleBlocks, Pins[I].CycleBlocks);
    EXPECT_EQ(P.Found, Pins[I].Found);
    EXPECT_EQ(P.Proven, Pins[I].Proven);
  }
}
