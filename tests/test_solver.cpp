//===- test_solver.cpp - LP / MILP solver tests ---------------------------===//
//
// Unit tests for the simplex and branch-and-bound substrate, including
// property tests cross-checking random small MILPs against brute-force
// enumeration.
//
//===----------------------------------------------------------------------===//

#include "swp/solver/BranchAndBound.h"
#include "swp/solver/Model.h"
#include "swp/solver/Simplex.h"
#include "swp/support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>

using namespace swp;

namespace {

constexpr double Inf = MilpModel::Inf;

} // namespace

TEST(LinExpr, NormalizeMergesDuplicates) {
  LinExpr E;
  E.add(0, 1.0).add(1, 2.0).add(0, 3.0).add(2, 0.0);
  E.normalize();
  ASSERT_EQ(E.terms().size(), 2u);
  EXPECT_EQ(E.terms()[0].Var, 0);
  EXPECT_DOUBLE_EQ(E.terms()[0].Coef, 4.0);
  EXPECT_EQ(E.terms()[1].Var, 1);
}

TEST(LinExpr, NormalizeDropsCancellations) {
  LinExpr E;
  E.add(3, 1.0).add(3, -1.0).add(1, 2.0);
  E.normalize();
  ASSERT_EQ(E.terms().size(), 1u);
  EXPECT_EQ(E.terms()[0].Var, 1);
}

TEST(LinExpr, AddScaled) {
  LinExpr A;
  A.add(0, 1.0).addConstant(2.0);
  LinExpr B;
  B.add(0, 2.0).add(1, 1.0).addConstant(1.0);
  A.addScaled(B, -2.0);
  A.normalize();
  ASSERT_EQ(A.terms().size(), 2u);
  EXPECT_DOUBLE_EQ(A.terms()[0].Coef, -3.0);
  EXPECT_DOUBLE_EQ(A.constant(), 0.0);
}

TEST(Model, ConstantFoldsIntoRhs) {
  MilpModel M;
  VarId X = M.addVar(0, 10, VarKind::Continuous);
  LinExpr E;
  E.add(X, 1.0).addConstant(5.0);
  M.addConstraint(std::move(E), CmpKind::LE, 8.0);
  EXPECT_DOUBLE_EQ(M.constraints()[0].Rhs, 3.0);
}

TEST(Model, IsFeasibleChecksEverything) {
  MilpModel M;
  VarId X = M.addVar(0, 4, VarKind::Integer);
  VarId Y = M.addVar(0, 4, VarKind::Continuous);
  LinExpr E;
  E.add(X, 1.0).add(Y, 1.0);
  M.addConstraint(std::move(E), CmpKind::LE, 5.0);
  EXPECT_TRUE(M.isFeasible({2.0, 2.5}));
  EXPECT_FALSE(M.isFeasible({2.5, 2.0}));  // X not integral.
  EXPECT_FALSE(M.isFeasible({4.0, 4.0}));  // Constraint violated.
  EXPECT_FALSE(M.isFeasible({-1.0, 0.0})); // Bound violated.
  EXPECT_FALSE(M.isFeasible({1.0}));       // Wrong arity.
}

TEST(Model, BuildErrorNamesTheVariableByIndex) {
  MilpModel M;
  (void)M.addBinary();
  (void)M.addVar(3, 2, VarKind::Integer);
  (void)M.addVar(-Inf, 0, VarKind::Continuous); // Only the first is kept.
  ASSERT_FALSE(M.valid());
  EXPECT_EQ(M.buildError(), "variable 1 has empty domain");
  MilpResult R = solveMilp(M);
  EXPECT_EQ(R.Status, MilpStatus::Error);
  EXPECT_EQ(R.Error.code(), StatusCode::InvalidInput);

  MilpModel Unbounded;
  (void)Unbounded.addVar(-Inf, 0, VarKind::Continuous);
  EXPECT_EQ(Unbounded.buildError(), "variable 0 has a non-finite bound");
}

TEST(Simplex, SolvesBasicLp) {
  // max x + y s.t. x + 2y <= 4, 3x + y <= 6  ==  min -x - y.
  MilpModel M;
  VarId X = M.addVar(0, Inf, VarKind::Continuous);
  VarId Y = M.addVar(0, Inf, VarKind::Continuous);
  M.addConstraint(LinExpr().add(X, 1).add(Y, 2), CmpKind::LE, 4);
  M.addConstraint(LinExpr().add(X, 3).add(Y, 1), CmpKind::LE, 6);
  M.setObjective(LinExpr().add(X, -1).add(Y, -1));
  LpResult R = solveLp(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  // Optimum at intersection: x = 8/5, y = 6/5, objective -14/5.
  EXPECT_NEAR(R.Objective, -2.8, 1e-6);
  EXPECT_NEAR(R.X[static_cast<size_t>(X)], 1.6, 1e-6);
  EXPECT_NEAR(R.X[static_cast<size_t>(Y)], 1.2, 1e-6);
}

TEST(Simplex, HonorsLowerBoundShift) {
  // min x s.t. x >= 3 via variable bound.
  MilpModel M;
  VarId X = M.addVar(3, 10, VarKind::Continuous);
  M.setObjective(LinExpr().add(X, 1));
  LpResult R = solveLp(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.X[static_cast<size_t>(X)], 3.0, 1e-9);
}

TEST(Simplex, HonorsUpperBound) {
  MilpModel M;
  VarId X = M.addVar(0, 7, VarKind::Continuous);
  M.setObjective(LinExpr().add(X, -1)); // max x.
  LpResult R = solveLp(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.X[static_cast<size_t>(X)], 7.0, 1e-9);
}

TEST(Simplex, DetectsInfeasible) {
  MilpModel M;
  VarId X = M.addVar(0, Inf, VarKind::Continuous);
  M.addConstraint(LinExpr().add(X, 1), CmpKind::GE, 5);
  M.addConstraint(LinExpr().add(X, 1), CmpKind::LE, 3);
  EXPECT_EQ(solveLp(M).Status, LpStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  MilpModel M;
  VarId X = M.addVar(0, Inf, VarKind::Continuous);
  M.setObjective(LinExpr().add(X, -1)); // max x, no bound.
  EXPECT_EQ(solveLp(M).Status, LpStatus::Unbounded);
}

TEST(Simplex, EqualityConstraints) {
  // min x + y s.t. x + y = 4, x - y = 2 -> x = 3, y = 1.
  MilpModel M;
  VarId X = M.addVar(0, Inf, VarKind::Continuous);
  VarId Y = M.addVar(0, Inf, VarKind::Continuous);
  M.addConstraint(LinExpr().add(X, 1).add(Y, 1), CmpKind::EQ, 4);
  M.addConstraint(LinExpr().add(X, 1).add(Y, -1), CmpKind::EQ, 2);
  M.setObjective(LinExpr().add(X, 1).add(Y, 1));
  LpResult R = solveLp(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.X[static_cast<size_t>(X)], 3.0, 1e-6);
  EXPECT_NEAR(R.X[static_cast<size_t>(Y)], 1.0, 1e-6);
}

TEST(Simplex, RedundantEqualityRows) {
  // x + y = 2 twice: redundant artificial row must be deactivated cleanly.
  MilpModel M;
  VarId X = M.addVar(0, Inf, VarKind::Continuous);
  VarId Y = M.addVar(0, Inf, VarKind::Continuous);
  M.addConstraint(LinExpr().add(X, 1).add(Y, 1), CmpKind::EQ, 2);
  M.addConstraint(LinExpr().add(X, 1).add(Y, 1), CmpKind::EQ, 2);
  M.setObjective(LinExpr().add(X, 1));
  LpResult R = solveLp(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.X[static_cast<size_t>(X)], 0.0, 1e-6);
  EXPECT_NEAR(R.X[static_cast<size_t>(Y)], 2.0, 1e-6);
}

TEST(Simplex, FixedVariablesFoldIntoRhs) {
  MilpModel M;
  VarId X = M.addVar(0, 10, VarKind::Continuous);
  VarId Y = M.addVar(0, 10, VarKind::Continuous);
  M.addConstraint(LinExpr().add(X, 1).add(Y, 1), CmpKind::LE, 6);
  M.setObjective(LinExpr().add(Y, -1)); // max y.
  std::vector<double> Lb = {4.0, 0.0}, Ub = {4.0, 10.0}; // Fix x = 4.
  LpResult R = solveLp(M, Lb, Ub);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.X[static_cast<size_t>(X)], 4.0, 1e-9);
  EXPECT_NEAR(R.X[static_cast<size_t>(Y)], 2.0, 1e-6);
}

TEST(Simplex, ContradictoryBoundsInfeasible) {
  MilpModel M;
  (void)M.addVar(0, 10, VarKind::Continuous);
  std::vector<double> Lb = {5.0}, Ub = {4.0};
  EXPECT_EQ(solveLp(M, Lb, Ub).Status, LpStatus::Infeasible);
}

TEST(Simplex, ObjectiveConstantTracked) {
  MilpModel M;
  VarId X = M.addVar(2, 5, VarKind::Continuous);
  LinExpr Obj;
  Obj.add(X, 1.0).addConstant(10.0);
  M.setObjective(std::move(Obj));
  LpResult R = solveLp(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Objective, 12.0, 1e-9);
}

TEST(BranchAndBound, SolvesIntegerKnapsack) {
  // max 5a + 4b + 3c s.t. 2a + 3b + c <= 5, binaries -> a=1, b=1, obj 9.
  MilpModel M;
  VarId A = M.addBinary();
  VarId B = M.addBinary();
  VarId C = M.addBinary();
  M.addConstraint(LinExpr().add(A, 2).add(B, 3).add(C, 1), CmpKind::LE, 5);
  M.setObjective(LinExpr().add(A, -5).add(B, -4).add(C, -3));
  MilpResult R = solveMilp(M);
  ASSERT_EQ(R.Status, MilpStatus::Optimal);
  EXPECT_NEAR(R.Objective, -9.0, 1e-6);
  EXPECT_NEAR(R.X[static_cast<size_t>(A)], 1.0, 1e-6);
  EXPECT_NEAR(R.X[static_cast<size_t>(B)], 1.0, 1e-6);
  EXPECT_NEAR(R.X[static_cast<size_t>(C)], 0.0, 1e-6);
}

TEST(BranchAndBound, FractionalLpRequiresBranching) {
  // min -x s.t. 2x <= 3, x integer in [0, 5]: LP gives 1.5, MILP 1.
  MilpModel M;
  VarId X = M.addVar(0, 5, VarKind::Integer);
  M.addConstraint(LinExpr().add(X, 2), CmpKind::LE, 3);
  M.setObjective(LinExpr().add(X, -1));
  MilpResult R = solveMilp(M);
  ASSERT_EQ(R.Status, MilpStatus::Optimal);
  EXPECT_NEAR(R.X[static_cast<size_t>(X)], 1.0, 1e-6);
}

TEST(BranchAndBound, ProvesIntegerInfeasibility) {
  // 2x = 1 with x integer: LP feasible, MILP infeasible.
  MilpModel M;
  VarId X = M.addVar(0, 5, VarKind::Integer);
  M.addConstraint(LinExpr().add(X, 2), CmpKind::EQ, 1);
  MilpResult R = solveMilp(M);
  EXPECT_EQ(R.Status, MilpStatus::Infeasible);
  EXPECT_TRUE(R.isProven());
}

TEST(BranchAndBound, StopAtFirstIncumbent) {
  MilpModel M;
  VarId X = M.addVar(0, 10, VarKind::Integer);
  M.addConstraint(LinExpr().add(X, 1), CmpKind::GE, 2);
  M.setObjective(LinExpr().add(X, 1));
  MilpOptions Opts;
  Opts.StopAtFirstIncumbent = true;
  MilpResult R = solveMilp(M, Opts);
  EXPECT_TRUE(R.hasSolution());
  EXPECT_GE(R.X[static_cast<size_t>(X)], 2.0 - 1e-9);
}

TEST(BranchAndBound, NodeLimitReportsUnknownOrFeasible) {
  // max x1 + x2 s.t. 2x1 + 2x2 <= 3: the root LP is fractional (1.5), so
  // one node cannot finish the search.
  MilpModel M;
  VarId X1 = M.addBinary();
  VarId X2 = M.addBinary();
  M.addConstraint(LinExpr().add(X1, 2).add(X2, 2), CmpKind::LE, 3);
  M.setObjective(LinExpr().add(X1, -1).add(X2, -1));
  MilpOptions Opts;
  Opts.NodeLimit = 1;
  MilpResult R = solveMilp(M, Opts);
  EXPECT_FALSE(R.isProven());
}

namespace {

/// A MILP whose root LP is fractional, so any limit fires before a proof.
MilpModel fractionalRootModel() {
  MilpModel M;
  VarId X1 = M.addBinary();
  VarId X2 = M.addBinary();
  M.addConstraint(LinExpr().add(X1, 2).add(X2, 2), CmpKind::LE, 3);
  M.setObjective(LinExpr().add(X1, -1).add(X2, -1));
  return M;
}

} // namespace

TEST(BranchAndBound, StopReasonDistinguishesNodeLimit) {
  MilpOptions Opts;
  Opts.NodeLimit = 1;
  MilpResult R = solveMilp(fractionalRootModel(), Opts);
  EXPECT_FALSE(R.isProven());
  EXPECT_EQ(R.StopReason, SearchStop::NodeLimit);
}

TEST(BranchAndBound, StopReasonDistinguishesTimeLimit) {
  MilpOptions Opts;
  Opts.TimeLimitSec = 0.0;
  MilpResult R = solveMilp(fractionalRootModel(), Opts);
  EXPECT_EQ(R.Status, MilpStatus::Unknown);
  EXPECT_EQ(R.StopReason, SearchStop::TimeLimit);
}

TEST(BranchAndBound, StopReasonDistinguishesCancellation) {
  CancellationSource Src;
  Src.cancel();
  MilpOptions Opts;
  Opts.Cancel = Src.token();
  // Cancellation must win over the also-expired limits: it is checked
  // first, so a cancelled solve is reported as cancelled, not censored.
  Opts.TimeLimitSec = 0.0;
  Opts.NodeLimit = 0;
  MilpResult R = solveMilp(fractionalRootModel(), Opts);
  EXPECT_EQ(R.Status, MilpStatus::Unknown);
  EXPECT_EQ(R.StopReason, SearchStop::Cancelled);
  EXPECT_EQ(R.Nodes, 0);
}

TEST(BranchAndBound, StopReasonNoneOnCompletedProofs) {
  MilpResult Solved = solveMilp(fractionalRootModel());
  EXPECT_EQ(Solved.Status, MilpStatus::Optimal);
  EXPECT_EQ(Solved.StopReason, SearchStop::None);

  MilpModel Infeasible;
  VarId X = Infeasible.addVar(0, 5, VarKind::Integer);
  Infeasible.addConstraint(LinExpr().add(X, 2), CmpKind::EQ, 1);
  MilpResult R = solveMilp(Infeasible);
  EXPECT_EQ(R.Status, MilpStatus::Infeasible);
  EXPECT_EQ(R.StopReason, SearchStop::None);
}

TEST(BranchAndBound, SearchStopNames) {
  EXPECT_STREQ(searchStopName(SearchStop::None), "none");
  EXPECT_STREQ(searchStopName(SearchStop::TimeLimit), "time-limit");
  EXPECT_STREQ(searchStopName(SearchStop::NodeLimit), "node-limit");
  EXPECT_STREQ(searchStopName(SearchStop::Cancelled), "cancelled");
  EXPECT_STREQ(searchStopName(SearchStop::LpStall), "lp-stall");
}

TEST(BranchAndBound, EmptyObjectiveFeasibility) {
  MilpModel M;
  VarId X = M.addVar(0, 3, VarKind::Integer);
  VarId Y = M.addVar(0, 3, VarKind::Integer);
  M.addConstraint(LinExpr().add(X, 3).add(Y, 5), CmpKind::EQ, 11);
  MilpResult R = solveMilp(M);
  ASSERT_EQ(R.Status, MilpStatus::Optimal);
  EXPECT_NEAR(R.X[static_cast<size_t>(X)] * 3 + R.X[static_cast<size_t>(Y)] * 5,
              11.0, 1e-6);
}

//===----------------------------------------------------------------------===//
// Property tests: random small MILPs vs brute force.
//===----------------------------------------------------------------------===//

namespace {

/// Brute-force optimum of an all-integer model with small bounds.
/// \returns true when feasible; BestObj receives the optimum.
bool bruteForce(const MilpModel &M, double &BestObj) {
  const int N = M.numVars();
  std::vector<double> X(static_cast<size_t>(N), 0.0);
  bool Found = false;
  BestObj = 0.0;
  std::function<void(int)> Rec = [&](int I) {
    if (I == N) {
      if (!M.isFeasible(X, 1e-9))
        return;
      double Obj = MilpModel::evaluate(M.objective(), X);
      if (!Found || Obj < BestObj) {
        Found = true;
        BestObj = Obj;
      }
      return;
    }
    const ModelVar &V = M.var(I);
    for (int K = static_cast<int>(V.Lb); K <= static_cast<int>(V.Ub); ++K) {
      X[static_cast<size_t>(I)] = K;
      Rec(I + 1);
    }
  };
  Rec(0);
  return Found;
}

MilpModel randomMilp(std::uint64_t Seed) {
  Rng R(Seed);
  MilpModel M;
  int NumVars = R.intIn(2, 5);
  for (int I = 0; I < NumVars; ++I)
    M.addVar(0, R.intIn(1, 3), VarKind::Integer);
  int NumCons = R.intIn(1, 5);
  for (int C = 0; C < NumCons; ++C) {
    LinExpr E;
    for (int I = 0; I < NumVars; ++I)
      if (R.chance(0.7))
        E.add(I, R.intIn(-3, 3));
    CmpKind Cmp = static_cast<CmpKind>(R.intIn(0, 2));
    M.addConstraint(std::move(E), Cmp, R.intIn(-4, 8));
  }
  LinExpr Obj;
  for (int I = 0; I < NumVars; ++I)
    Obj.add(I, R.intIn(-4, 4));
  M.setObjective(std::move(Obj));
  return M;
}

} // namespace

class MilpPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MilpPropertyTest, MatchesBruteForce) {
  MilpModel M = randomMilp(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  double Expected = 0.0;
  bool Feasible = bruteForce(M, Expected);
  MilpResult R = solveMilp(M);
  if (!Feasible) {
    EXPECT_EQ(R.Status, MilpStatus::Infeasible)
        << "solver found a solution to an infeasible model";
    return;
  }
  ASSERT_EQ(R.Status, MilpStatus::Optimal) << "solver failed to find optimum";
  EXPECT_NEAR(R.Objective, Expected, 1e-6);
  EXPECT_TRUE(M.isFeasible(R.X, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(RandomModels, MilpPropertyTest,
                         ::testing::Range(0, 60));

class LpPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LpPropertyTest, LpRelaxationBoundsMilp) {
  MilpModel M = randomMilp(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
  LpResult Lp = solveLp(M);
  double Expected = 0.0;
  bool Feasible = bruteForce(M, Expected);
  if (Lp.Status == LpStatus::Infeasible) {
    // LP infeasible implies MILP infeasible.
    EXPECT_FALSE(Feasible);
    return;
  }
  ASSERT_EQ(Lp.Status, LpStatus::Optimal);
  if (Feasible)
    EXPECT_LE(Lp.Objective, Expected + 1e-6)
        << "LP relaxation must lower-bound the integer optimum";
}

INSTANTIATE_TEST_SUITE_P(RandomModels, LpPropertyTest,
                         ::testing::Range(0, 40));

//===----------------------------------------------------------------------===//
// Additional edge cases.
//===----------------------------------------------------------------------===//

TEST(Simplex, DegenerateVerticesTerminate) {
  // Many redundant constraints through the origin: classic degeneracy.
  MilpModel M;
  VarId X = M.addVar(0, Inf, VarKind::Continuous);
  VarId Y = M.addVar(0, Inf, VarKind::Continuous);
  for (int K = 1; K <= 6; ++K)
    M.addConstraint(LinExpr().add(X, K).add(Y, 1), CmpKind::GE, 0);
  M.addConstraint(LinExpr().add(X, 1).add(Y, 1), CmpKind::LE, 10);
  M.setObjective(LinExpr().add(X, -1).add(Y, -1));
  LpResult R = solveLp(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Objective, -10.0, 1e-6);
}

TEST(Simplex, EmptyModelIsTriviallyOptimal) {
  MilpModel M;
  (void)M.addVar(0, 5, VarKind::Continuous);
  LpResult R = solveLp(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.X[0], 0.0, 1e-9);
}

TEST(Simplex, NegativeRhsRowsNormalize) {
  // -x <= -3  ==  x >= 3.
  MilpModel M;
  VarId X = M.addVar(0, 10, VarKind::Continuous);
  M.addConstraint(LinExpr().add(X, -1), CmpKind::LE, -3);
  M.setObjective(LinExpr().add(X, 1));
  LpResult R = solveLp(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.X[static_cast<size_t>(X)], 3.0, 1e-6);
}

TEST(Simplex, AllVariablesFixed) {
  MilpModel M;
  VarId X = M.addVar(2, 2, VarKind::Continuous);
  VarId Y = M.addVar(3, 3, VarKind::Continuous);
  M.addConstraint(LinExpr().add(X, 1).add(Y, 1), CmpKind::EQ, 5);
  LpResult R = solveLp(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.X[static_cast<size_t>(X)], 2.0, 1e-9);
  // And an inconsistent fixed system is infeasible.
  MilpModel M2;
  VarId Z = M2.addVar(2, 2, VarKind::Continuous);
  M2.addConstraint(LinExpr().add(Z, 1), CmpKind::EQ, 7);
  EXPECT_EQ(solveLp(M2).Status, LpStatus::Infeasible);
}

TEST(BranchAndBound, WarmStartBecomesIncumbent) {
  // max x + y s.t. 2x + 2y <= 3 over binaries: optimum 1.
  MilpModel M;
  VarId X = M.addBinary();
  VarId Y = M.addBinary();
  M.addConstraint(LinExpr().add(X, 2).add(Y, 2), CmpKind::LE, 3);
  M.setObjective(LinExpr().add(X, -1).add(Y, -1));
  MilpOptions Opts;
  Opts.WarmStart = {1.0, 0.0};
  Opts.NodeLimit = 0; // No search at all: the warm start must survive.
  MilpResult R = solveMilp(M, Opts);
  ASSERT_TRUE(R.hasSolution());
  EXPECT_NEAR(R.Objective, -1.0, 1e-9);
}

TEST(BranchAndBound, InfeasibleWarmStartIgnored) {
  MilpModel M;
  VarId X = M.addBinary();
  M.addConstraint(LinExpr().add(X, 1), CmpKind::EQ, 1);
  MilpOptions Opts;
  Opts.WarmStart = {0.0}; // Violates the constraint.
  MilpResult R = solveMilp(M, Opts);
  ASSERT_EQ(R.Status, MilpStatus::Optimal);
  EXPECT_NEAR(R.X[static_cast<size_t>(X)], 1.0, 1e-9);
}

TEST(BranchAndBound, BranchPriorityRespected) {
  // Two fractional binaries; the priority-0 one must be branched first,
  // which we can only observe indirectly: the solve still reaches the
  // optimum regardless of priorities.
  MilpModel M;
  VarId X = M.addBinary();
  VarId Y = M.addBinary();
  M.setBranchPriority(X, 5);
  M.setBranchPriority(Y, 0);
  M.addConstraint(LinExpr().add(X, 2).add(Y, 2), CmpKind::LE, 3);
  M.setObjective(LinExpr().add(X, -2).add(Y, -1));
  MilpResult R = solveMilp(M);
  ASSERT_EQ(R.Status, MilpStatus::Optimal);
  EXPECT_NEAR(R.Objective, -2.0, 1e-6);
}

TEST(BranchAndBound, GeneralIntegerBranching) {
  // min 3x + 4y s.t. 2x + 3y >= 11, ints in [0, 8]: optimum (x=4, y=1)
  // cost 16 or (1,3) cost 15: check 2*1+3*3=11 -> 15.
  MilpModel M;
  VarId X = M.addVar(0, 8, VarKind::Integer);
  VarId Y = M.addVar(0, 8, VarKind::Integer);
  M.addConstraint(LinExpr().add(X, 2).add(Y, 3), CmpKind::GE, 11);
  M.setObjective(LinExpr().add(X, 3).add(Y, 4));
  MilpResult R = solveMilp(M);
  ASSERT_EQ(R.Status, MilpStatus::Optimal);
  EXPECT_NEAR(R.Objective, 15.0, 1e-6);
}

TEST(BranchAndBound, MixedIntegerContinuous) {
  // y continuous rides along with integer x.
  MilpModel M;
  VarId X = M.addVar(0, 10, VarKind::Integer);
  VarId Y = M.addVar(0, 10, VarKind::Continuous);
  M.addConstraint(LinExpr().add(X, 1).add(Y, 1), CmpKind::GE, 3.5);
  M.setObjective(LinExpr().add(X, 2).add(Y, 1));
  MilpResult R = solveMilp(M);
  ASSERT_EQ(R.Status, MilpStatus::Optimal);
  // All-continuous-y solution: x = 0, y = 3.5, cost 3.5.
  EXPECT_NEAR(R.Objective, 3.5, 1e-6);
  EXPECT_NEAR(R.X[static_cast<size_t>(X)], 0.0, 1e-6);
}
