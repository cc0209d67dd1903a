//===- test_pivot_pins.cpp - Simplex pivots and search nodes, pinned ------===//
//
// Pins the LP and the branch-and-bound search bit for bit on a ppc604
// corpus slice.  Each model is built as ilpStepAtT builds it (the
// feasibility model, and the buffer or coloring objective of its
// optimizing path) at T_lb and above.  Per slice the pins hold:
//
//   - for the LP, solved cold and then warm after one bound tightening: the
//     status of each solve, the workspace's pivot, dual-pivot, bound-flip
//     and refactorization counts, and an FNV-1a digest of the bit patterns
//     of each solution and structural basis;
//   - for solveMilp under a node limit: each status, node count and pivot
//     count, and a digest of each incumbent;
//   - for solveMilp over the two objective models at T_lb .. T_lb + 2, the
//     searches that reach the primal simplex: the statuses, the nodes,
//     every LpStats counter, and a digest of each objective and incumbent.
//
// Hand-built LPs pin the primal simplex's exits the corpus never takes: a
// phase-1 infeasibility proof, a phase-2 unbounded ray, and a bound flip in
// each phase.
//
// A change to the simplex or the search that is meant to keep every pivot
// and node must leave these values untouched; a change meant to alter them
// re-pins them and says why.
//
//===----------------------------------------------------------------------===//

#include "swp/core/Formulation.h"
#include "swp/ddg/Analysis.h"
#include "swp/machine/Catalog.h"
#include "swp/solver/BranchAndBound.h"
#include "swp/solver/Simplex.h"
#include "swp/workload/Corpus.h"

#include "PinDigest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

using namespace swp;

namespace {

/// ilpStepAtT's model forms: the feasibility model (rotation anchored,
/// empty objective) and the buffer- or coloring-objective model of its
/// optimizing path.
enum class Objective { None, Buffers, Coloring };

FormulationOptions stepOptions(Objective Obj) {
  FormulationOptions FOpts;
  FOpts.ColoringObjective = Obj == Objective::Coloring;
  FOpts.BufferObjective = Obj == Objective::Buffers;
  FOpts.BreakRotation = Obj == Objective::None;
  return FOpts;
}

/// Calls \p Fn(Model) for each model of the first \p NumLoops ppc604 corpus
/// loops at T_lb .. T_lb + \p TSpan - 1.
template <typename Fn>
void forEachModel(int NumLoops, Objective Obj, int TSpan, Fn &&F) {
  const MachineModel M = ppc604Like();
  CorpusOptions CO;
  CO.NumLoops = NumLoops;
  for (const Ddg &G : generateCorpus(M, CO)) {
    const int TLb = std::max({1, recurrenceMii(G), M.resourceMii(G)});
    for (int T = TLb; T < TLb + TSpan; ++T) {
      FormulationVars Vars;
      const MilpModel Model = buildScheduleModel(G, M, T, stepOptions(Obj),
                                                 Vars);
      F(Model);
    }
  }
}

void digestSolve(Fnv1a &H, const LpResult &R, const SparseLp &Lp) {
  H.num(static_cast<int>(R.Status));
  H.num(static_cast<std::int64_t>(R.X.size()));
  for (double X : R.X)
    H.real(X);
  for (LpBasisStatus S : Lp.structuralBasis())
    H.num(static_cast<int>(S));
}

/// The bound tightening of the warm solve: the first integer variable
/// fractional in \p X gets its floor as upper bound; with none fractional,
/// the first integer variable above 0.5 gets upper bound 0.  \returns false
/// when neither exists.
bool tightenOne(const MilpModel &M, const std::vector<double> &X,
                std::vector<double> &Ub) {
  for (int Pick = 0; Pick < 2; ++Pick)
    for (int V = 0; V < M.numVars(); ++V) {
      if (M.var(V).Kind == VarKind::Continuous)
        continue;
      const double Val = X[static_cast<size_t>(V)];
      const bool Fractional = std::abs(Val - std::round(Val)) > 1e-6;
      if (Pick == 0 && Fractional) {
        Ub[static_cast<size_t>(V)] = std::floor(Val);
        return true;
      }
      if (Pick == 1 && Val > 0.5) {
        Ub[static_cast<size_t>(V)] = 0.0;
        return true;
      }
    }
  return false;
}

struct LpPin {
  int Solves = 0, Optimal = 0, Infeasible = 0;
  std::int64_t Pivots = 0, DualPivots = 0, BoundFlips = 0, Refactorizations = 0;
  std::uint64_t Digest = 0;
};

/// \p RefactorInterval 0 keeps the workspace's default.
LpPin lpPin(int NumLoops, Objective Obj, int RefactorInterval) {
  LpPin P;
  Fnv1a H;
  forEachModel(NumLoops, Obj, 2, [&](const MilpModel &Model) {
    SparseLp Lp(Model);
    if (RefactorInterval > 0)
      Lp.setRefactorInterval(RefactorInterval);
    std::vector<double> Lb, Ub;
    for (const ModelVar &V : Model.vars()) {
      Lb.push_back(V.Lb);
      Ub.push_back(V.Ub);
    }
    auto Count = [&](const LpResult &R) {
      digestSolve(H, R, Lp);
      ++P.Solves;
      P.Optimal += R.Status == LpStatus::Optimal ? 1 : 0;
      P.Infeasible += R.Status == LpStatus::Infeasible ? 1 : 0;
    };
    const LpResult Cold = Lp.solve(Lb, Ub);
    Count(Cold);
    if (Cold.Status == LpStatus::Optimal && tightenOne(Model, Cold.X, Ub))
      Count(Lp.solve(Lb, Ub));
    const LpStats &S = Lp.stats();
    P.Pivots += S.Pivots;
    P.DualPivots += S.DualPivots;
    P.BoundFlips += S.BoundFlips;
    P.Refactorizations += S.Refactorizations;
  });
  P.Digest = H.H;
  return P;
}

struct MilpPin {
  int Searches = 0, Optimal = 0, Infeasible = 0, Censored = 0;
  std::int64_t Nodes = 0, Pivots = 0;
  std::uint64_t Digest = 0;
};

/// solveMilp as ilpStepAtT runs it after its probe: first incumbent for the
/// feasibility model, full optimization for the buffer model.
MilpPin milpPin(int NumLoops, Objective Obj, std::int64_t NodeLimit) {
  MilpPin P;
  Fnv1a H;
  forEachModel(NumLoops, Obj, 2, [&](const MilpModel &Model) {
    SparseLp Lp(Model);
    MilpOptions Opts;
    Opts.NodeLimit = NodeLimit;
    Opts.StopAtFirstIncumbent = Obj == Objective::None;
    const MilpResult R = solveMilp(Lp, Model, Opts);
    ++P.Searches;
    P.Optimal += R.Status == MilpStatus::Optimal ? 1 : 0;
    P.Infeasible += R.Status == MilpStatus::Infeasible ? 1 : 0;
    P.Censored += R.isProven() ? 0 : 1;
    P.Nodes += R.Nodes;
    P.Pivots += Lp.stats().totalPivots();
    H.num(static_cast<int>(R.Status));
    H.num(R.Nodes);
    H.num(Lp.stats().totalPivots());
    H.real(R.Objective);
    for (double X : R.X)
      H.real(X);
  });
  P.Digest = H.H;
  return P;
}

struct ObjectivePin {
  int Searches = 0, Optimal = 0, Feasible = 0, Infeasible = 0, Unknown = 0;
  std::int64_t Nodes = 0;
  LpStats Lp;
  std::uint64_t Digest = 0;
};

/// solveMilp to optimality over the objective models of the first
/// \p NumLoops loops at T_lb .. T_lb + 2, each search in its own workspace.
ObjectivePin objectivePin(int NumLoops, Objective Obj,
                          std::int64_t NodeLimit) {
  ObjectivePin P;
  Fnv1a H;
  forEachModel(NumLoops, Obj, 3, [&](const MilpModel &Model) {
    SparseLp Lp(Model);
    MilpOptions Opts;
    Opts.NodeLimit = NodeLimit;
    const MilpResult R = solveMilp(Lp, Model, Opts);
    ++P.Searches;
    P.Optimal += R.Status == MilpStatus::Optimal ? 1 : 0;
    P.Feasible += R.Status == MilpStatus::Feasible ? 1 : 0;
    P.Infeasible += R.Status == MilpStatus::Infeasible ? 1 : 0;
    P.Unknown += R.Status == MilpStatus::Unknown ? 1 : 0;
    P.Nodes += R.Nodes;
    const LpStats &S = Lp.stats();
    P.Lp.Pivots += S.Pivots;
    P.Lp.DualPivots += S.DualPivots;
    P.Lp.BoundFlips += S.BoundFlips;
    P.Lp.Refactorizations += S.Refactorizations;
    P.Lp.Solves += S.Solves;
    P.Lp.WarmSolves += S.WarmSolves;
    H.num(static_cast<int>(R.Status));
    H.num(R.Nodes);
    H.real(R.Objective);
    for (double X : R.X)
      H.real(X);
  });
  P.Digest = H.H;
  return P;
}

/// One hand-built LP solved cold: its status, X and workspace counters.
struct HandLp {
  LpStatus Status = LpStatus::IterLimit;
  std::vector<double> X;
  LpStats Stats;
};

HandLp solveHand(const MilpModel &M) {
  SparseLp Lp(M);
  LpResult R = Lp.solve();
  return {R.Status, std::move(R.X), Lp.stats()};
}

void expectStats(const LpStats &S, std::int64_t Pivots,
                 std::int64_t BoundFlips) {
  EXPECT_EQ(S.Pivots, Pivots);
  EXPECT_EQ(S.DualPivots, 0);
  EXPECT_EQ(S.BoundFlips, BoundFlips);
  EXPECT_EQ(S.Refactorizations, 0);
  EXPECT_EQ(S.Solves, 1);
  EXPECT_EQ(S.WarmSolves, 0);
}

} // namespace

TEST(PivotPins, LpSolvesColdAndWarm) {
  struct Expected {
    int Solves, Optimal, Infeasible;
    std::int64_t Pivots, DualPivots, BoundFlips, Refactorizations;
    const char *Digest;
  };
  struct Variant {
    const char *Name;
    Objective Obj;
    int RefactorInterval;
  };
  // 200 loops each; the last variant refactorizes every third update, so
  // refactorizations land between most pivots.
  constexpr Variant Variants[] = {
      {"feasibility", Objective::None, 0},
      {"buffer objective", Objective::Buffers, 0},
      {"feasibility, refactor every 3", Objective::None, 3}};
  constexpr Expected Pins[] = {
      {800, 673, 127, 0, 8428, 0, 33, "05432b7caf1c2aaa"},
      {800, 780, 20, 0, 9112, 0, 31, "a23aba5d4e432041"},
      {800, 670, 130, 0, 8703, 0, 2755, "13a85bfa053a8733"}};
  for (std::size_t I = 0; I < std::size(Variants); ++I) {
    SCOPED_TRACE(Variants[I].Name);
    const LpPin P = lpPin(200, Variants[I].Obj, Variants[I].RefactorInterval);
    const Expected &E = Pins[I];
    EXPECT_EQ(P.Solves, E.Solves);
    EXPECT_EQ(P.Optimal, E.Optimal);
    EXPECT_EQ(P.Infeasible, E.Infeasible);
    EXPECT_EQ(P.Pivots, E.Pivots);
    EXPECT_EQ(P.DualPivots, E.DualPivots);
    EXPECT_EQ(P.BoundFlips, E.BoundFlips);
    EXPECT_EQ(P.Refactorizations, E.Refactorizations);
    EXPECT_EQ(hex(P.Digest), E.Digest);
  }
}

TEST(PivotPins, MilpSearchesUnderANodeLimit) {
  struct Expected {
    int Searches, Optimal, Infeasible, Censored;
    std::int64_t Nodes, Pivots;
    const char *Digest;
  };
  struct Variant {
    const char *Name;
    Objective Obj;
    std::int64_t NodeLimit;
  };
  // 100 loops each: feasibility models to the first incumbent, then
  // buffer-objective models to optimality.
  constexpr Variant Variants[] = {{"feasibility", Objective::None, 100},
                                  {"buffer objective", Objective::Buffers, 50}};
  constexpr Expected Pins[] = {
      {200, 194, 0, 6, 2399, 13125, "c03ad940fd6c4fd7"},
      {200, 111, 0, 89, 5765, 35320, "86e12ceb3f122408"}};
  for (std::size_t I = 0; I < std::size(Variants); ++I) {
    SCOPED_TRACE(Variants[I].Name);
    const MilpPin P = milpPin(100, Variants[I].Obj, Variants[I].NodeLimit);
    const Expected &E = Pins[I];
    EXPECT_EQ(P.Searches, E.Searches);
    EXPECT_EQ(P.Optimal, E.Optimal);
    EXPECT_EQ(P.Infeasible, E.Infeasible);
    EXPECT_EQ(P.Censored, E.Censored);
    EXPECT_EQ(P.Nodes, E.Nodes);
    EXPECT_EQ(P.Pivots, E.Pivots);
    EXPECT_EQ(hex(P.Digest), E.Digest);
  }
}

TEST(PivotPins, ObjectiveSearchesUnderANodeLimit) {
  struct Expected {
    int Searches, Optimal, Feasible, Infeasible, Unknown;
    std::int64_t Nodes, Pivots, DualPivots, BoundFlips, Refactorizations,
        Solves, WarmSolves;
    const char *Digest;
  };
  struct Variant {
    const char *Name;
    Objective Obj;
    std::int64_t NodeLimit;
  };
  // 100 loops each at T_lb .. T_lb + 2, searched to optimality.  The
  // buffer variant reaches the primal simplex; the coloring variant prices
  // the dual ratio test with a nonzero objective.
  constexpr Variant Variants[] = {
      {"buffer objective", Objective::Buffers, 30},
      {"coloring objective", Objective::Coloring, 30}};
  constexpr Expected Pins[] = {
      {300, 176, 79, 0, 45, 5468, 2768, 29895, 5, 1836, 5257, 4957,
       "f2236fff808a59e0"},
      {300, 237, 33, 0, 30, 4249, 0, 28006, 0, 1521, 4089, 3789,
       "2c786f404f7a2ed8"}};
  for (std::size_t I = 0; I < std::size(Variants); ++I) {
    SCOPED_TRACE(Variants[I].Name);
    const ObjectivePin P =
        objectivePin(100, Variants[I].Obj, Variants[I].NodeLimit);
    const Expected &E = Pins[I];
    EXPECT_EQ(P.Searches, E.Searches);
    EXPECT_EQ(P.Optimal, E.Optimal);
    EXPECT_EQ(P.Feasible, E.Feasible);
    EXPECT_EQ(P.Infeasible, E.Infeasible);
    EXPECT_EQ(P.Unknown, E.Unknown);
    EXPECT_EQ(P.Nodes, E.Nodes);
    EXPECT_EQ(P.Lp.Pivots, E.Pivots);
    EXPECT_EQ(P.Lp.DualPivots, E.DualPivots);
    EXPECT_EQ(P.Lp.BoundFlips, E.BoundFlips);
    EXPECT_EQ(P.Lp.Refactorizations, E.Refactorizations);
    EXPECT_EQ(P.Lp.Solves, E.Solves);
    EXPECT_EQ(P.Lp.WarmSolves, E.WarmSolves);
    EXPECT_EQ(hex(P.Digest), E.Digest);
  }
}

// min -x - y with x, y in [0, 1] and x + z >= 2, x + y <= 3.  The cold
// basis prices x and y negative at their lower bounds, so it is not dual
// feasible and phase 1 answers the violated first row: x flips to its
// upper bound, z pivots in.  Phase 2 then flips y.
TEST(PivotPins, PrimalBoundFlipInEachPhase) {
  MilpModel M;
  const VarId X = M.addVar(0, 1, VarKind::Continuous);
  const VarId Y = M.addVar(0, 1, VarKind::Continuous);
  const VarId Z = M.addVar(0, MilpModel::Inf, VarKind::Continuous);
  M.setObjective(LinExpr().add(X, -1).add(Y, -1));
  M.addConstraint(LinExpr().add(X, 1).add(Z, 1), CmpKind::GE, 2);
  M.addConstraint(LinExpr().add(X, 1).add(Y, 1), CmpKind::LE, 3);
  const HandLp R = solveHand(M);
  EXPECT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_EQ(R.X, (std::vector<double>{1, 1, 1}));
  expectStats(R.Stats, 1, 2);
}

// min -x with x, y in [0, 1] and x + y >= 3: phase 1 flips both columns to
// their upper bounds and bottoms out one unit short, an infeasibility
// proof.  The negative reduced cost of x keeps the dual simplex out.
TEST(PivotPins, PrimalPhase1ProvesInfeasibility) {
  MilpModel M;
  const VarId X = M.addVar(0, 1, VarKind::Continuous);
  const VarId Y = M.addVar(0, 1, VarKind::Continuous);
  M.setObjective(LinExpr().add(X, -1));
  M.addConstraint(LinExpr().add(X, 1).add(Y, 1), CmpKind::GE, 3);
  const HandLp R = solveHand(M);
  EXPECT_EQ(R.Status, LpStatus::Infeasible);
  EXPECT_TRUE(R.X.empty());
  expectStats(R.Stats, 0, 2);
}

// min -y with x, y >= 0 and y - x <= 2: phase 2 pivots y in at 2, then x
// prices in along a ray no basic blocks.
TEST(PivotPins, PrimalPhase2FindsAnUnboundedRay) {
  MilpModel M;
  const VarId X = M.addVar(0, MilpModel::Inf, VarKind::Continuous);
  const VarId Y = M.addVar(0, MilpModel::Inf, VarKind::Continuous);
  M.setObjective(LinExpr().add(Y, -1));
  M.addConstraint(LinExpr().add(Y, 1).add(X, -1), CmpKind::LE, 2);
  const HandLp R = solveHand(M);
  EXPECT_EQ(R.Status, LpStatus::Unbounded);
  EXPECT_TRUE(R.X.empty());
  expectStats(R.Stats, 1, 0);
}
