//===- test_pivot_pins.cpp - Simplex pivots and search nodes, pinned ------===//
//
// Pins the LP and the branch-and-bound search bit for bit on a ppc604
// corpus slice.  Each model is built as ilpStepAtT builds it (the
// feasibility model, and the buffer objective of its optimizing path) at
// T_lb and T_lb + 1.  Per slice the pins hold:
//
//   - for the LP, solved cold and then warm after one bound tightening: the
//     status of each solve, the workspace's pivot, dual-pivot, bound-flip
//     and refactorization counts, and an FNV-1a digest of the bit patterns
//     of each solution and structural basis;
//   - for solveMilp under a node limit: each status, node count and pivot
//     count, and a digest of each incumbent.
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

/// ilpStepAtT's two model forms: the feasibility model (rotation anchored,
/// empty objective) and the buffer-minimizing model of its optimizing path.
FormulationOptions stepOptions(bool Buffers) {
  FormulationOptions FOpts;
  FOpts.ColoringObjective = false;
  FOpts.BufferObjective = Buffers;
  FOpts.BreakRotation = !Buffers;
  return FOpts;
}

/// Calls \p Fn(Model) for each model of the first \p NumLoops ppc604 corpus
/// loops at T_lb and T_lb + 1.
template <typename Fn> void forEachModel(int NumLoops, bool Buffers, Fn &&F) {
  const MachineModel M = ppc604Like();
  CorpusOptions CO;
  CO.NumLoops = NumLoops;
  for (const Ddg &G : generateCorpus(M, CO)) {
    const int TLb = std::max({1, recurrenceMii(G), M.resourceMii(G)});
    for (int T = TLb; T <= TLb + 1; ++T) {
      FormulationVars Vars;
      const MilpModel Model =
          buildScheduleModel(G, M, T, stepOptions(Buffers), Vars);
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
LpPin lpPin(int NumLoops, bool Buffers, int RefactorInterval) {
  LpPin P;
  Fnv1a H;
  forEachModel(NumLoops, Buffers, [&](const MilpModel &Model) {
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
MilpPin milpPin(int NumLoops, bool Buffers, std::int64_t NodeLimit) {
  MilpPin P;
  Fnv1a H;
  forEachModel(NumLoops, Buffers, [&](const MilpModel &Model) {
    SparseLp Lp(Model);
    MilpOptions Opts;
    Opts.NodeLimit = NodeLimit;
    Opts.StopAtFirstIncumbent = !Buffers;
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

} // namespace

TEST(PivotPins, LpSolvesColdAndWarm) {
  struct Expected {
    int Solves, Optimal, Infeasible;
    std::int64_t Pivots, DualPivots, BoundFlips, Refactorizations;
    const char *Digest;
  };
  struct Variant {
    const char *Name;
    bool Buffers;
    int RefactorInterval;
  };
  // 200 loops each; the last variant refactorizes every third update, so
  // refactorizations land between most pivots.
  constexpr Variant Variants[] = {{"feasibility", false, 0},
                                  {"buffer objective", true, 0},
                                  {"feasibility, refactor every 3", false, 3}};
  constexpr Expected Pins[] = {
      {800, 673, 127, 0, 8428, 0, 33, "05432b7caf1c2aaa"},
      {800, 780, 20, 0, 9112, 0, 31, "a23aba5d4e432041"},
      {800, 670, 130, 0, 8703, 0, 2755, "13a85bfa053a8733"}};
  for (std::size_t I = 0; I < std::size(Variants); ++I) {
    SCOPED_TRACE(Variants[I].Name);
    const LpPin P =
        lpPin(200, Variants[I].Buffers, Variants[I].RefactorInterval);
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
    bool Buffers;
    std::int64_t NodeLimit;
  };
  // 100 loops each: feasibility models to the first incumbent, then
  // buffer-objective models to optimality.
  constexpr Variant Variants[] = {{"feasibility", false, 100},
                                  {"buffer objective", true, 50}};
  constexpr Expected Pins[] = {
      {200, 194, 0, 6, 2399, 13125, "c03ad940fd6c4fd7"},
      {200, 111, 0, 89, 5765, 35320, "86e12ceb3f122408"}};
  for (std::size_t I = 0; I < std::size(Variants); ++I) {
    SCOPED_TRACE(Variants[I].Name);
    const MilpPin P =
        milpPin(100, Variants[I].Buffers, Variants[I].NodeLimit);
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
