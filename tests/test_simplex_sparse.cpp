//===- test_simplex_sparse.cpp - Sparse revised simplex tests -------------===//
//
// Targeted tests for the SparseLp workspace machinery the generic MILP
// property tests do not reach deterministically: Bland's rule on
// degenerate/cycling instances, presolve short-circuits on empty and
// trivially-infeasible models, basis refactorization after accumulated eta
// updates, warm-start resumption after a cancelled solve, convexity-group
// branching/propagation in the search, and the rotation symmetry breaking
// of the scheduling formulation.
//
//===----------------------------------------------------------------------===//

#include "swp/core/Formulation.h"
#include "swp/core/Verifier.h"
#include "swp/ddg/Analysis.h"
#include "swp/machine/Catalog.h"
#include "swp/solver/BranchAndBound.h"
#include "swp/solver/Model.h"
#include "swp/solver/Simplex.h"
#include "swp/support/Cancellation.h"
#include "swp/workload/Corpus.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

using namespace swp;

namespace {

constexpr double Inf = MilpModel::Inf;

} // namespace

//===----------------------------------------------------------------------===//
// Degenerate pivoting / Bland's rule
//===----------------------------------------------------------------------===//

// Beale's classic cycling example: under steepest-decrease pivoting the
// tableau simplex cycles forever through degenerate bases.  The workspace
// must terminate (Bland's rule kicks in once progress stalls) at the known
// optimum.
TEST(SparseSimplex, BealeCyclingExampleTerminatesAtOptimum) {
  MilpModel M;
  VarId X1 = M.addVar(0, Inf, VarKind::Continuous);
  VarId X2 = M.addVar(0, Inf, VarKind::Continuous);
  VarId X3 = M.addVar(0, Inf, VarKind::Continuous);
  VarId X4 = M.addVar(0, Inf, VarKind::Continuous);
  M.setObjective(
      LinExpr().add(X1, -0.75).add(X2, 150).add(X3, -0.02).add(X4, 6));
  M.addConstraint(
      LinExpr().add(X1, 0.25).add(X2, -60).add(X3, -0.04).add(X4, 9),
      CmpKind::LE, 0);
  M.addConstraint(
      LinExpr().add(X1, 0.5).add(X2, -90).add(X3, -0.02).add(X4, 3),
      CmpKind::LE, 0);
  M.addConstraint(LinExpr().add(X3, 1), CmpKind::LE, 1);

  SparseLp Lp(M);
  LpResult R = Lp.solve();
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Objective, -0.05, 1e-9);
  EXPECT_NEAR(R.X[static_cast<size_t>(X3)], 1.0, 1e-9);
}

// A fully degenerate vertex: n identical rows pinning the same point.  Every
// basis at the optimum is degenerate and most ratio tests tie at zero; the
// solve must still terminate and the repeated warm re-solves under jittered
// bounds must stay exact.
TEST(SparseSimplex, MassivelyDegenerateVertexStaysExact) {
  MilpModel M;
  VarId X = M.addVar(0, 10, VarKind::Continuous);
  VarId Y = M.addVar(0, 10, VarKind::Continuous);
  M.setObjective(LinExpr().add(X, -1).add(Y, -1));
  // Eight constraints all active at (4, 4).
  for (int I = 0; I < 8; ++I)
    M.addConstraint(LinExpr().add(X, 1.0 + 0.0 * I).add(Y, 1.0), CmpKind::LE,
                    8.0);
  M.addConstraint(LinExpr().add(X, 1).add(Y, -1), CmpKind::LE, 0);
  M.addConstraint(LinExpr().add(Y, 1).add(X, -1), CmpKind::LE, 0);

  SparseLp Lp(M);
  LpResult R = Lp.solve();
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Objective, -8.0, 1e-9);

  // Warm re-solves under perturbed bounds hit the same degenerate facets.
  std::vector<double> Lb(2, 0.0), Ub(2, 10.0);
  for (int I = 0; I < 5; ++I) {
    Ub[0] = 4.0 - 0.5 * I;
    LpResult W = Lp.solve(Lb, Ub);
    ASSERT_EQ(W.Status, LpStatus::Optimal) << "round " << I;
    EXPECT_NEAR(W.Objective, -2 * (4.0 - 0.5 * I), 1e-9) << "round " << I;
  }
}

//===----------------------------------------------------------------------===//
// Presolve short-circuits
//===----------------------------------------------------------------------===//

TEST(SparseSimplex, EmptyModelSolvesWithoutPivoting) {
  MilpModel M;
  SparseLp Lp(M);
  LpResult R = Lp.solve();
  EXPECT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_EQ(R.X.size(), 0u);
  EXPECT_EQ(Lp.stats().totalPivots(), 0);
}

TEST(SparseSimplex, UnconstrainedVarsSolveAtBounds) {
  MilpModel M;
  VarId X = M.addVar(2, 7, VarKind::Continuous);
  M.addVar(-3, 5, VarKind::Continuous);
  M.setObjective(LinExpr().add(X, 1));
  SparseLp Lp(M);
  LpResult R = Lp.solve();
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.X[static_cast<size_t>(X)], 2.0, 1e-12);
  EXPECT_EQ(Lp.numRows(), 0) << "no rows should survive presolve";
}

TEST(SparseSimplex, TriviallyInfeasibleModelAnswersFromPresolve) {
  // x <= 1 (singleton row) against lb(x) = 2: presolve converts the row
  // into a bound, sees the empty interval, and the solve answers without
  // touching the basis.  structuralBasis() on a never-solved workspace
  // must stay well-defined (empty), not read from a null basis.
  MilpModel M;
  VarId X = M.addVar(2, 5, VarKind::Continuous);
  M.addConstraint(LinExpr().add(X, 1), CmpKind::LE, 1);
  SparseLp Lp(M);
  EXPECT_TRUE(Lp.presolveInfeasible());
  EXPECT_FALSE(Lp.presolve().Reason.empty());
  EXPECT_TRUE(Lp.structuralBasis().empty());
  LpResult R = Lp.solve();
  EXPECT_EQ(R.Status, LpStatus::Infeasible);
  EXPECT_EQ(Lp.stats().totalPivots(), 0);
  EXPECT_TRUE(Lp.structuralBasis().empty());
}

TEST(SparseSimplex, EmptyViolatedRowAnswersFromPresolve) {
  // Fixing both variables empties the row; the leftover "0 <= -1" check is
  // the paper-model shape presolve must catch (dependence rows whose
  // window emptied out).
  MilpModel M;
  VarId X = M.addVar(1, 1, VarKind::Continuous);
  VarId Y = M.addVar(2, 2, VarKind::Continuous);
  M.addConstraint(LinExpr().add(X, 1).add(Y, 1), CmpKind::LE, 2);
  SparseLp Lp(M);
  EXPECT_TRUE(Lp.presolveInfeasible());
  EXPECT_EQ(Lp.solve().Status, LpStatus::Infeasible);
}

//===----------------------------------------------------------------------===//
// Eta accumulation and refactorization
//===----------------------------------------------------------------------===//

// With the refactorization interval forced to 1, every pivot triggers a
// rebuild of the eta file; answers must match the default-interval
// workspace exactly across a sequence of warm bound changes.
TEST(SparseSimplex, RefactorizationPreservesAnswers) {
  MilpModel M;
  const int N = 6;
  std::vector<VarId> X;
  LinExpr Obj;
  for (int I = 0; I < N; ++I) {
    X.push_back(M.addVar(0, 4, VarKind::Continuous));
    Obj.add(X.back(), -(1.0 + 0.3 * I));
  }
  M.setObjective(std::move(Obj));
  for (int I = 0; I < N; ++I)
    M.addConstraint(
        LinExpr().add(X[static_cast<size_t>(I)], 2).add(
            X[static_cast<size_t>((I + 1) % N)], 1),
        CmpKind::LE, 5.0 + I);
  LinExpr Sum;
  for (VarId V : X)
    Sum.add(V, 1);
  M.addConstraint(std::move(Sum), CmpKind::LE, 9);

  SparseLp Eager(M); // Refactorizes after every update.
  Eager.setRefactorInterval(1);
  SparseLp Lazy(M); // Default interval: long eta chains accumulate.

  std::vector<double> Lb(static_cast<size_t>(N), 0.0);
  std::vector<double> Ub(static_cast<size_t>(N), 4.0);
  for (int Round = 0; Round < 12; ++Round) {
    Ub[static_cast<size_t>(Round % N)] = (Round % 3) * 1.5;
    LpResult A = Eager.solve(Lb, Ub);
    LpResult B = Lazy.solve(Lb, Ub);
    ASSERT_EQ(A.Status, B.Status) << "round " << Round;
    if (A.Status == LpStatus::Optimal)
      EXPECT_NEAR(A.Objective, B.Objective, 1e-7) << "round " << Round;
  }
  EXPECT_GT(Eager.stats().Refactorizations, Lazy.stats().Refactorizations)
      << "interval 1 must rebuild more often than the default";
  EXPECT_GT(Lazy.stats().WarmSolves, 0);
}

//===----------------------------------------------------------------------===//
// Dual ratio test tie-breaks
//===----------------------------------------------------------------------===//

// Two rows, x0 pivots in first at row 0; the second dual pivot, along row 1,
// finds rho = (-0.5, 1), so x1 (from row 1) and x2 (from row 0) both reach
// |alpha| = 1.  With an empty objective the largest |alpha| enters and a
// tie goes to the lower column: x1, giving (2, 1, 0); x2 would give
// (3, 0, 1).  Row 0's terms are met first when alpha is built row by row,
// so the tie must not fall to the first column touched.
TEST(SparseSimplex, DualRatioTieEntersTheLowerColumn) {
  MilpModel M;
  VarId X0 = M.addVar(0, 10, VarKind::Continuous);
  VarId X1 = M.addVar(0, 10, VarKind::Continuous);
  VarId X2 = M.addVar(0, 10, VarKind::Continuous);
  M.addConstraint(LinExpr().add(X0, 2).add(X2, -2), CmpKind::GE, 4);
  M.addConstraint(LinExpr().add(X0, 1).add(X1, 1), CmpKind::GE, 3);

  SparseLp Lp(M);
  LpResult R = Lp.solve();
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_EQ(R.X, (std::vector<double>{2.0, 1.0, 0.0}));
  EXPECT_EQ(Lp.stats().DualPivots, 2);
  EXPECT_EQ(Lp.stats().Pivots, 0);
}

// The same two pivots under an objective: row 0 is an equality, so its
// fixed logical cannot enter, and x1's ratio |d|/|alpha| = 1 + 5e-13 lies
// within the tie window of x2's 1.  The sequential rule keeps the
// ascending column order: x1 is met first and x2, with an equal |alpha|,
// does not displace it, although its ratio is smaller.  Both vertices cost
// 1, so the choice shows only in X.
TEST(SparseSimplex, DualRatioTieWithObjectiveKeepsTheWindowOrder) {
  MilpModel M;
  VarId X0 = M.addVar(0, 10, VarKind::Continuous);
  VarId X1 = M.addVar(0, 10, VarKind::Continuous);
  VarId X2 = M.addVar(0, 10, VarKind::Continuous);
  M.setObjective(LinExpr().add(X1, 1.0 + 5e-13).add(X2, 1.0));
  M.addConstraint(LinExpr().add(X0, 2).add(X2, -2), CmpKind::EQ, 4);
  M.addConstraint(LinExpr().add(X0, 1).add(X1, 1), CmpKind::GE, 3);

  SparseLp Lp(M);
  LpResult R = Lp.solve();
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_EQ(R.X, (std::vector<double>{2.0, 1.0, 0.0}));
  EXPECT_EQ(Lp.stats().DualPivots, 2);
  EXPECT_EQ(Lp.stats().Pivots, 0);
}

//===----------------------------------------------------------------------===//
// Cancellation and warm-start resumption
//===----------------------------------------------------------------------===//

TEST(SparseSimplex, WarmStartResumesAfterCancellation) {
  MilpModel M;
  VarId X = M.addVar(0, Inf, VarKind::Continuous);
  VarId Y = M.addVar(0, Inf, VarKind::Continuous);
  M.setObjective(LinExpr().add(X, -1).add(Y, -2));
  M.addConstraint(LinExpr().add(X, 1).add(Y, 1), CmpKind::LE, 10);
  M.addConstraint(LinExpr().add(X, 3).add(Y, 1), CmpKind::LE, 15);

  SparseLp Lp(M);
  CancellationSource Src;
  Src.cancel(); // Fires at the solve's entry poll.
  LpResult Cut = Lp.solve(Src.token());
  EXPECT_EQ(Cut.Status, LpStatus::Cancelled);

  // The workspace must shrug the cancellation off: the next solve (fresh
  // token) runs to optimality and matches a cold one-shot solve.
  LpResult Resumed = Lp.solve();
  ASSERT_EQ(Resumed.Status, LpStatus::Optimal);
  LpResult Cold = solveLp(M);
  ASSERT_EQ(Cold.Status, LpStatus::Optimal);
  EXPECT_NEAR(Resumed.Objective, Cold.Objective, 1e-9);
}

TEST(BranchAndBound, SearchResumesAfterCancelledRun) {
  // A cancelled branch-and-bound over a shared workspace must leave the
  // workspace usable: re-running the same search afterwards (same
  // workspace, fresh options) produces the normal proven answer.
  MilpModel M;
  std::vector<VarId> X;
  LinExpr Obj, Sum;
  for (int I = 0; I < 6; ++I) {
    X.push_back(M.addVar(0, 1, VarKind::Binary));
    Obj.add(X.back(), -(1.0 + 0.1 * I));
    Sum.add(X.back(), 2.0 + (I % 3));
  }
  M.setObjective(std::move(Obj));
  M.addConstraint(std::move(Sum), CmpKind::LE, 7);

  SparseLp Lp(M);
  MilpOptions Cancelled;
  CancellationSource Src;
  Src.cancel();
  Cancelled.Cancel = Src.token();
  MilpResult Cut = solveMilp(Lp, M, Cancelled);
  EXPECT_EQ(Cut.StopReason, SearchStop::Cancelled);
  EXPECT_FALSE(Cut.isProven());

  MilpResult Full = solveMilp(Lp, M);
  ASSERT_EQ(Full.Status, MilpStatus::Optimal);
  MilpResult Fresh = solveMilp(M);
  ASSERT_EQ(Fresh.Status, MilpStatus::Optimal);
  EXPECT_NEAR(Full.Objective, Fresh.Objective, 1e-6);
}

//===----------------------------------------------------------------------===//
// Convexity groups in the search
//===----------------------------------------------------------------------===//

// An "exactly one" group feeding an integer through a covering row.  The
// LP relaxation mixes group members fractionally; the search must land on
// the exact integer optimum (group branching + GUB-aware propagation are
// both exercised on this shape).
TEST(BranchAndBound, ConvexityGroupWithCoupledInteger) {
  MilpModel M;
  const double C[] = {1, 2, 3, 5};
  std::vector<VarId> B;
  LinExpr One, Cover;
  for (int I = 0; I < 4; ++I) {
    B.push_back(M.addVar(0, 1, VarKind::Binary));
    One.add(B.back(), 1);
    Cover.add(B.back(), -C[I]);
  }
  VarId Y = M.addVar(0, 5, VarKind::Integer);
  Cover.add(Y, 1);
  M.addConstraint(std::move(One), CmpKind::EQ, 1);
  M.addConstraint(std::move(Cover), CmpKind::GE, 0); // y >= chosen cost.
  M.addConstraint(LinExpr().add(Y, 1), CmpKind::LE, 2);
  // Reward the expensive members; the cap y <= 2 forbids them.
  M.setObjective(LinExpr()
                     .add(B[0], -1)
                     .add(B[1], -2)
                     .add(B[2], -3)
                     .add(B[3], -4)
                     .add(Y, 0.001));

  MilpResult R = solveMilp(M);
  ASSERT_EQ(R.Status, MilpStatus::Optimal);
  // Best integral choice is member 1 (cost 2 fits under the cap).
  EXPECT_NEAR(R.X[static_cast<size_t>(B[1])], 1.0, 1e-6);
  EXPECT_NEAR(R.Objective, -2.0 + 0.002, 1e-6);

  // Tightening the cap below every member's cost must prove infeasibility
  // (the group's minimum activity exceeds the row slack for every member).
  MilpModel M2;
  std::vector<VarId> B2;
  LinExpr One2, Cover2;
  for (int I = 0; I < 4; ++I) {
    B2.push_back(M2.addVar(0, 1, VarKind::Binary));
    One2.add(B2.back(), 1);
    Cover2.add(B2.back(), -C[I]);
  }
  VarId Y2 = M2.addVar(0, 0, VarKind::Integer);
  Cover2.add(Y2, 1);
  M2.addConstraint(std::move(One2), CmpKind::EQ, 1);
  M2.addConstraint(std::move(Cover2), CmpKind::GE, 0);
  MilpResult R2 = solveMilp(M2);
  EXPECT_EQ(R2.Status, MilpStatus::Infeasible);
}

//===----------------------------------------------------------------------===//
// Rotation symmetry breaking
//===----------------------------------------------------------------------===//

// Anchoring one instruction at pattern step 0 must never change the
// feasibility answer at any T (every schedule rotates into an anchored
// one), and every anchored schedule must place some op at offset 0.
TEST(Formulation, RotationAnchoringPreservesFeasibility) {
  MachineModel Machine = ppc604Like();
  for (std::uint64_t Seed : {3u, 11u, 29u}) {
    Ddg G = generateRandomLoop(Machine, Seed, {});
    int TLb = std::max({1, recurrenceMii(G), Machine.resourceMii(G)});
    for (int T = TLb; T < TLb + 3; ++T) {
      if (!Machine.moduloFeasible(G, T))
        continue;
      FormulationOptions Plain;
      Plain.Mapping = MappingKind::Fixed;
      FormulationOptions Anchored = Plain;
      Anchored.BreakRotation = true;

      MilpOptions SOpts;
      SOpts.StopAtFirstIncumbent = true;
      SOpts.NodeLimit = 20000;

      FormulationVars PV, AV;
      MilpModel PM = buildScheduleModel(G, Machine, T, Plain, PV);
      MilpModel AM = buildScheduleModel(G, Machine, T, Anchored, AV);
      MilpResult PR = solveMilp(PM, SOpts);
      MilpResult AR = solveMilp(AM, SOpts);
      ASSERT_TRUE(PR.isProven()) << "seed " << Seed << " T=" << T;
      ASSERT_TRUE(AR.isProven()) << "seed " << Seed << " T=" << T;
      EXPECT_EQ(PR.Status == MilpStatus::Infeasible,
                AR.Status == MilpStatus::Infeasible)
          << "anchoring changed feasibility at seed " << Seed << " T=" << T;

      if (AR.Status == MilpStatus::Optimal) {
        ModuloSchedule S = extractSchedule(G, Machine, T, Anchored, AV, AR.X);
        EXPECT_TRUE(verifySchedule(G, Machine, S).Ok)
            << "seed " << Seed << " T=" << T;
        bool AnyAtZero = false;
        for (int St : S.StartTime)
          AnyAtZero = AnyAtZero || (St % T == 0);
        EXPECT_TRUE(AnyAtZero)
            << "anchored schedule has no op at pattern step 0";
      }
    }
  }
}
