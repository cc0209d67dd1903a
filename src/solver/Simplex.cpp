//===- Simplex.cpp - Sparse revised simplex -------------------------------===//
//
// Bounded-variable revised simplex with a product-form (eta file) basis
// inverse.  See the header for the architecture; the invariants that keep
// every answer sound regardless of numerical luck:
//
//   - Optimal is only reported by the composite primal loop, in phase 2,
//     finding no eligible entering column;
//   - Infeasible is only reported by an exact presolve proof, contradictory
//     bounds, a dual-simplex row with no admissible entering column (a
//     Farkas certificate), or phase 1 bottoming out above tolerance;
//   - every numerically doubtful situation (tiny pivots after a fresh
//     refactorization, a factorization that cannot complete, the injected
//     lp-refactor/lp-stall faults) degrades to IterLimit, which proves
//     nothing and censors only the consumer's current subtree.
//
//===----------------------------------------------------------------------===//

#include "swp/solver/Simplex.h"

#include "swp/support/FaultInjector.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace swp;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();
constexpr double PivotEps = 1e-9;
constexpr double CostEps = 1e-7;
constexpr double FixEps = 1e-9;
/// A basic variable this far beyond a bound counts as primal-infeasible.
constexpr double PrimTol = 1e-9;
/// Residual phase-1 infeasibility below this is float dust, not a proof.
constexpr double InfeasProofTol = 1e-6;
/// Ratio-test tie window.
constexpr double TieEps = 1e-12;

inline size_t sz(int I) { return static_cast<size_t>(I); }

} // namespace

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

void SparseLpStore::reset() {
  Pre.Infeasible = false;
  Pre.Reason.clear();
  Pre.Lb.clear();
  Pre.Ub.clear();
  Pre.DropRow.clear();
  Pre.NewlyFixed = Pre.DroppedRows = Pre.Sweeps = 0;
  for (std::vector<double> *V : {&Rhs, &Cost, &XB, &EffLb, &EffUb, &WorkY,
                                 &WorkPi, &WorkD, &WorkPrice, &RowAlpha,
                                 &ModelLb, &ModelUb})
    V->clear();
  for (std::vector<int> *V : {&ColStart, &RowOf, &Basis, &Fill, &NewBasis,
                              &Cands, &RowCount, &ColCount, &RowCandStart,
                              &RowCandList, &RowStack, &ColStack, &AlphaCols})
    V->clear();
  ColEntries.clear();
  EtaPool.clear();
  RowCmp.clear();
  St.clear();
  Etas.clear();
  RowDone.clear();
  Used.clear();
  AlphaMark.clear();
  Back.clear();
}

std::size_t SparseLpStore::capacityBytes() const {
  std::size_t Sum = heapBytes(Pre.Lb) + heapBytes(Pre.Ub) +
                    heapBytes(Pre.DropRow) + Pre.Reason.capacity() +
                    heapBytes(ColEntries) + heapBytes(EtaPool) +
                    heapBytes(RowCmp) + heapBytes(St) + heapBytes(Etas) +
                    heapBytes(RowDone) + heapBytes(Used) +
                    heapBytes(AlphaMark) + heapBytes(Back);
  for (const std::vector<double> *V :
       {&Rhs, &Cost, &XB, &EffLb, &EffUb, &WorkY, &WorkPi, &WorkD, &WorkPrice,
        &RowAlpha, &ModelLb, &ModelUb})
    Sum += heapBytes(*V);
  for (const std::vector<int> *V :
       {&ColStart, &RowOf, &Basis, &Fill, &NewBasis, &Cands, &RowCount,
        &ColCount, &RowCandStart, &RowCandList, &RowStack, &ColStack,
        &AlphaCols})
    Sum += heapBytes(*V);
  return Sum;
}

SparseLp::SparseLp(const MilpModel &M) : Model(&M) {
  presolveModel(M, Pre);
  NumStruct = M.numVars();
  if (Pre.Infeasible)
    return; // solve() answers Infeasible without touching the matrix.

  // Compact kept rows and scatter their terms into CSC columns: count per
  // column, then fill in a row-major sweep.  Terms are normalized (sorted,
  // merged) at addConstraint time, so the sweep appends each column's
  // entries already sorted by row.
  ColStart.assign(sz(NumStruct) + 1, 0);
  for (int R = 0; R < M.numConstraints(); ++R) {
    if (Pre.DropRow[sz(R)])
      continue;
    ++NumRows;
    for (const LinTerm &T : M.row(R).Expr.terms())
      ++ColStart[sz(T.Var) + 1];
  }
  // Each logical column holds one entry: the unit coefficient of its row.
  ColStart.resize(sz(numCols()) + 1, 1);
  for (int C = 0; C < numCols(); ++C)
    ColStart[sz(C) + 1] += ColStart[sz(C)];
  ColEntries.resize(sz(ColStart.back()));
  Fill.assign(ColStart.begin(), ColStart.end() - 1);
  Rhs.assign(sz(NumRows), 0.0);
  RowCmp.assign(sz(NumRows), CmpKind::LE);
  RowOf.resize(sz(NumRows));
  int K = 0;
  for (int R = 0; R < M.numConstraints(); ++R) {
    if (Pre.DropRow[sz(R)])
      continue;
    const ModelConstraint C = M.row(R);
    RowOf[sz(K)] = R;
    Rhs[sz(K)] = C.Rhs;
    RowCmp[sz(K)] = C.Cmp;
    for (const LinTerm &T : C.Expr.terms())
      ColEntries[sz(Fill[sz(T.Var)]++)] = {K, T.Coef};
    ColEntries[sz(Fill[sz(NumStruct + K)]++)] = {K, 1.0};
    ++K;
  }

  Cost.assign(sz(numCols()), 0.0);
  for (const LinTerm &T : M.objective().terms())
    Cost[sz(T.Var)] = T.Coef;
  CostEmpty = M.objective().terms().empty();

  St.assign(sz(numCols()), LpBasisStatus::AtLower);
  XB.assign(sz(NumRows), 0.0);
  WorkY.assign(sz(NumRows), 0.0);
  WorkPi.assign(sz(NumRows), 0.0);
  RowAlpha.assign(sz(numCols()), 0.0);
  AlphaMark.assign(sz(numCols()), 0);
}

//===----------------------------------------------------------------------===//
// Basis linear algebra
//===----------------------------------------------------------------------===//

// Entry order is part of the numerics: ftran applies the etas first to
// last, btran last to first, each eta's entries are visited in the order
// they were appended, and a column's in ascending row order.  Any other
// order forms the floating-point sums differently and can change pivots.

void SparseLp::ftran(std::vector<double> &V) const {
  for (const Eta &E : Etas) {
    double T = V[sz(E.Row)] / E.Pivot;
    V[sz(E.Row)] = T;
    if (T == 0.0)
      continue;
    for (const auto &[R, A] : etaEntries(E))
      V[sz(R)] -= A * T;
  }
}

void SparseLp::btran(std::vector<double> &V) const {
  for (auto It = Etas.rbegin(); It != Etas.rend(); ++It) {
    double S = V[sz(It->Row)];
    for (const auto &[R, A] : etaEntries(*It))
      S -= A * V[sz(R)];
    V[sz(It->Row)] = S / It->Pivot;
  }
}

void SparseLp::loadColumn(int C, std::vector<double> &Dense) const {
  std::fill(Dense.begin(), Dense.end(), 0.0);
  for (const auto &[R, A] : column(C))
    Dense[sz(R)] = A;
}

double SparseLp::colDot(int C, const std::vector<double> &RowVec) const {
  double S = 0.0;
  for (const auto &[R, A] : column(C))
    S += A * RowVec[sz(R)];
  return S;
}

/// Builds the pivot row alpha = rho A of rho = WorkPi into RowAlpha, row by
/// row: each row where rho is nonzero, in ascending order, adds its model
/// terms and its logical's unit entry to the columns it touches, which
/// AlphaCols lists.  Each column's alpha is then the sum colDot forms, with
/// the same products added in the same (ascending row) order: the terms
/// colDot adds beyond these multiply a zero of rho, and adding a zero
/// leaves its sum, which never is -0.0, unchanged.
void SparseLp::pivotRow() {
  AlphaCols.clear();
  auto Add = [this](int C, double V) {
    if (!AlphaMark[sz(C)]) {
      AlphaMark[sz(C)] = 1;
      AlphaCols.push_back(C);
    }
    RowAlpha[sz(C)] += V;
  };
  for (int K = 0; K < NumRows; ++K) {
    const double Rho = WorkPi[sz(K)];
    if (Rho == 0.0)
      continue;
    for (const LinTerm &T : Model->row(RowOf[sz(K)]).Expr.terms())
      Add(T.Var, T.Coef * Rho);
    Add(NumStruct + K, Rho); // The logical's unit entry.
  }
}

void SparseLp::clearEtas() {
  Etas.clear();
  EtaPool.clear();
}

/// Appends the eta pivoting at \p Row on \p Dense (an ftran'd column); its
/// off-pivot entries are Dense's entries above 1e-12 in magnitude.
void SparseLp::pushDenseEta(int Row, const std::vector<double> &Dense) {
  const int Begin = static_cast<int>(EtaPool.size());
  for (int R = 0; R < NumRows; ++R)
    if (R != Row && std::abs(Dense[sz(R)]) > 1e-12)
      EtaPool.push_back({R, Dense[sz(R)]});
  Etas.push_back({Row, Dense[sz(Row)], Begin,
                  static_cast<int>(EtaPool.size())});
}

LpBasisStatus SparseLp::boundStatus(int C) const {
  if (EffLb[sz(C)] == -Inf)
    return LpBasisStatus::AtUpper;
  return LpBasisStatus::AtLower;
}

double SparseLp::nonbasicValue(int C) const {
  return St[sz(C)] == LpBasisStatus::AtUpper ? EffUb[sz(C)] : EffLb[sz(C)];
}

void SparseLp::coldBasis() {
  for (int C = 0; C < NumStruct; ++C)
    St[sz(C)] = boundStatus(C);
  for (int K = 0; K < NumRows; ++K)
    St[sz(NumStruct + K)] = LpBasisStatus::Basic;
  Basis.resize(sz(NumRows));
  for (int K = 0; K < NumRows; ++K)
    Basis[sz(K)] = NumStruct + K;
  clearEtas();
  BaseEtas = 0;
  HaveBasis = true;
  NeedRefactor = false;
}

bool SparseLp::factorize() {
  // Fault injection: the factorization "fails" (a real code would hit a
  // singular or overflowing LU here).  State is untouched; the solve
  // degrades to IterLimit, which proves nothing.
  if (FaultInjector::instance().shouldFire(FaultSite::LpRefactor))
    return false;
  ++Stats.Refactorizations;
  clearEtas();

  RowDone.assign(sz(NumRows), 0);
  NewBasis.assign(sz(NumRows), -1);
  int Assigned = 0;

  // Gauss-Jordan over the hinted-basic columns: ftran each through the
  // etas built so far, pivot on the largest entry in a still-free row.
  auto Place = [&](int C) -> bool {
    loadColumn(C, WorkY);
    ftran(WorkY);
    int BestRow = -1;
    double BestAbs = 1e-7;
    for (int R = 0; R < NumRows; ++R) {
      if (RowDone[sz(R)])
        continue;
      double A = std::abs(WorkY[sz(R)]);
      if (A > BestAbs) {
        BestAbs = A;
        BestRow = R;
      }
    }
    if (BestRow < 0)
      return false;
    pushDenseEta(BestRow, WorkY);
    RowDone[sz(BestRow)] = 1;
    NewBasis[sz(BestRow)] = C;
    ++Assigned;
    return true;
  };

  Cands.clear();
  for (int C = 0; C < numCols(); ++C)
    if (St[sz(C)] == LpBasisStatus::Basic)
      Cands.push_back(C);

  // Two-sided triangular ordering, fill-free on both wings.
  //
  // Front wing (row singletons): repeatedly retire a row touched by exactly
  // one remaining candidate.  When row r is retired at count one, every
  // other then-remaining candidate has a zero there, so each column placed
  // later has zeros in all earlier front pivot rows: its ftran is the
  // identity and the eta is the original sparse column verbatim.
  //
  // Back wing (column singletons): after the front wing is exhausted,
  // repeatedly retire a candidate with exactly one entry in remaining rows.
  // Its off-pivot entries lie only in rows retired before it, so placing
  // the back wing LAST in REVERSE discovery order again puts every
  // column's off-pivot entries in later pivot rows — identity ftran, eta
  // verbatim.  (The phases must not interleave: a row singleton exposed by
  // a column retirement could pivot a row the back column still touches.)
  //
  // Only the irreducible bump between the wings goes through the general
  // Gauss-Jordan placement and can fill in — without this ordering every
  // eta could reach NumRows entries, making each ftran/btran O(NumRows^2)
  // and the whole solver quadratic in the model size.
  {
    RowCount.assign(sz(NumRows), 0);
    ColCount.assign(sz(numCols()), 0);
    Used.assign(sz(numCols()), 0);
    for (int C : Cands)
      for (const auto &[R, A] : column(C))
        if (std::abs(A) > 1e-12) {
          ++RowCount[sz(R)];
          ++ColCount[sz(C)];
        }
    // Each row's candidates, in Cands order: RowCandList[RowCandStart[R],
    // RowCandStart[R + 1]).
    RowCandStart.assign(sz(NumRows) + 1, 0);
    for (int R = 0; R < NumRows; ++R)
      RowCandStart[sz(R) + 1] = RowCandStart[sz(R)] + RowCount[sz(R)];
    RowCandList.resize(sz(RowCandStart.back()));
    Fill.assign(RowCandStart.begin(), RowCandStart.end() - 1);
    for (int C : Cands)
      for (const auto &[R, A] : column(C))
        if (std::abs(A) > 1e-12)
          RowCandList[sz(Fill[sz(R)]++)] = C;
    auto RowCands = [this](int R) {
      return std::span<const int>(RowCandList.data() + RowCandStart[sz(R)],
                                  RowCandList.data() + RowCandStart[sz(R) + 1]);
    };

    auto EntryAt = [this](int C, int R) {
      for (const auto &[Row, A] : column(C))
        if (Row == R)
          return A;
      return 0.0;
    };
    // Retire column C pivoted at row R: maintain the singleton counts of
    // everything sharing its row or column.
    RowStack.clear();
    ColStack.clear();
    auto Retire = [&](int C, int R) {
      Used[sz(C)] = 1;
      RowDone[sz(R)] = 1;
      NewBasis[sz(R)] = C;
      ++Assigned;
      for (int C2 : RowCands(R))
        if (!Used[sz(C2)] && --ColCount[sz(C2)] == 1)
          ColStack.push_back(C2);
      for (const auto &[R2, A2] : column(C))
        if (std::abs(A2) > 1e-12 && !RowDone[sz(R2)] &&
            --RowCount[sz(R2)] == 1)
          RowStack.push_back(R2);
    };
    auto ColumnEta = [&](int C, int R) {
      const double Pivot = EntryAt(C, R);
      const int Begin = static_cast<int>(EtaPool.size());
      for (const auto &[Row, A] : column(C))
        if (Row != R && std::abs(A) > 1e-12)
          EtaPool.push_back({Row, A});
      const int End = static_cast<int>(EtaPool.size());
      // An identity eta (unit pivot, no off-pivot entries — every basic
      // logical in an untouched row) is a no-op in ftran/btran; skip it.
      if (Pivot != 1.0 || End > Begin)
        Etas.push_back({R, Pivot, Begin, End});
    };

    for (int R = 0; R < NumRows; ++R)
      if (RowCount[sz(R)] == 1)
        RowStack.push_back(R);
    while (!RowStack.empty()) {
      int R = RowStack.back();
      RowStack.pop_back();
      if (RowDone[sz(R)] || RowCount[sz(R)] != 1)
        continue;
      int C = -1;
      for (int Cand : RowCands(R))
        if (!Used[sz(Cand)]) {
          C = Cand;
          break;
        }
      if (C < 0 || std::abs(EntryAt(C, R)) <= 1e-7)
        continue; // Unusable pivot; leave the pair to the bump.
      ColumnEta(C, R);
      Retire(C, R);
    }

    // Back wing: rows are reserved (RowDone) now so the bump cannot pivot
    // there; the etas themselves are appended after the bump, in reverse.
    Back.clear();
    RowStack.clear();
    for (int C : Cands)
      if (!Used[sz(C)] && ColCount[sz(C)] == 1)
        ColStack.push_back(C);
    while (!ColStack.empty()) {
      int C = ColStack.back();
      ColStack.pop_back();
      if (Used[sz(C)] || ColCount[sz(C)] != 1)
        continue;
      int R = -1;
      for (const auto &[Row, A] : column(C))
        if (!RowDone[sz(Row)] && std::abs(A) > 1e-12) {
          R = Row;
          break;
        }
      if (R < 0 || std::abs(EntryAt(C, R)) <= 1e-7)
        continue;
      Back.push_back({C, R});
      Retire(C, R);
    }

    // The irreducible bump: general ftran-based placement with fill.
    for (int C : Cands) {
      if (Used[sz(C)])
        continue;
      if (!Place(C))
        St[sz(C)] = boundStatus(C); // Dependent or redundant: demote.
    }

    for (auto It = Back.rbegin(); It != Back.rend(); ++It)
      ColumnEta(It->first, It->second);
  }

  // Basis repair: cover the remaining rows with logicals.  A row's own
  // logical almost always pivots there; the fallback scan handles the rare
  // case where earlier etas moved its weight elsewhere.
  int Guard = 0;
  while (Assigned < NumRows) {
    bool Progress = false;
    for (int R = 0; R < NumRows; ++R) {
      if (RowDone[sz(R)])
        continue;
      int L = NumStruct + R;
      if (St[sz(L)] == LpBasisStatus::Basic)
        continue;
      if (Place(L)) {
        St[sz(L)] = LpBasisStatus::Basic;
        Progress = true;
      }
    }
    if (!Progress) {
      for (int R = 0; R < NumRows && !Progress; ++R) {
        int L = NumStruct + R;
        if (St[sz(L)] == LpBasisStatus::Basic)
          continue;
        if (Place(L)) {
          St[sz(L)] = LpBasisStatus::Basic;
          Progress = true;
        }
      }
    }
    if (!Progress || ++Guard > NumRows + 1)
      return false; // Numerically dead basis; caller reports IterLimit.
  }

  Basis.swap(NewBasis);
  BaseEtas = static_cast<int>(Etas.size());
  NeedRefactor = false;
  return true;
}

void SparseLp::computeXB() {
  XB = Rhs;
  for (int C = 0; C < numCols(); ++C) {
    if (St[sz(C)] == LpBasisStatus::Basic)
      continue;
    double X = nonbasicValue(C);
    if (X == 0.0)
      continue;
    for (const auto &[R, A] : column(C))
      XB[sz(R)] -= A * X;
  }
  ftran(XB);
}

void SparseLp::sanitizeStatuses() {
  for (int C = 0; C < numCols(); ++C) {
    if (St[sz(C)] == LpBasisStatus::Basic)
      continue;
    if (St[sz(C)] == LpBasisStatus::AtLower && EffLb[sz(C)] == -Inf)
      St[sz(C)] = LpBasisStatus::AtUpper;
    else if (St[sz(C)] == LpBasisStatus::AtUpper && EffUb[sz(C)] == Inf)
      St[sz(C)] = LpBasisStatus::AtLower;
  }
}

//===----------------------------------------------------------------------===//
// Pricing and feasibility measures
//===----------------------------------------------------------------------===//

/// Computes reduced costs for every column into \p D and reports whether
/// the current basis is dual feasible (movable nonbasics priced the right
/// way for minimization).  \p Phase1 prices the sum of the basics' bound
/// violations (cost -1 on a basic below its lower bound, +1 above its
/// upper, 0 elsewhere) instead of the model's objective, which prices
/// nothing when empty.
bool SparseLp::priceReducedCosts(bool Phase1, std::vector<double> &D) {
  D.assign(sz(numCols()), 0.0);
  if (!Phase1 && CostEmpty)
    return true; // All reduced costs zero: every basis is dual feasible.
  std::vector<double> &Pi = WorkPrice;
  Pi.assign(sz(NumRows), 0.0);
  for (int R = 0; R < NumRows; ++R) {
    const int B = Basis[sz(R)];
    if (!Phase1)
      Pi[sz(R)] = Cost[sz(B)];
    else if (XB[sz(R)] < EffLb[sz(B)] - PrimTol)
      Pi[sz(R)] = -1.0;
    else if (XB[sz(R)] > EffUb[sz(B)] + PrimTol)
      Pi[sz(R)] = 1.0;
  }
  // Pi currently holds c_B; btran turns it into c_B * B^-1.
  btran(Pi);
  bool DualFeasible = true;
  for (int C = 0; C < numCols(); ++C) {
    D[sz(C)] = (Phase1 ? 0.0 : Cost[sz(C)]) - colDot(C, Pi);
    if (St[sz(C)] == LpBasisStatus::Basic)
      continue;
    if (EffUb[sz(C)] - EffLb[sz(C)] <= FixEps)
      continue; // Fixed columns cannot move; their sign is irrelevant.
    if (St[sz(C)] == LpBasisStatus::AtLower && D[sz(C)] < -CostEps)
      DualFeasible = false;
    else if (St[sz(C)] == LpBasisStatus::AtUpper && D[sz(C)] > CostEps)
      DualFeasible = false;
  }
  return DualFeasible;
}

double SparseLp::infeasibilityOf(int Row) const {
  int B = Basis[sz(Row)];
  double X = XB[sz(Row)];
  if (X < EffLb[sz(B)] - PrimTol)
    return EffLb[sz(B)] - X;
  if (X > EffUb[sz(B)] + PrimTol)
    return X - EffUb[sz(B)];
  return 0.0;
}

SparseLp::InfeasScan SparseLp::scanInfeasibility() const {
  InfeasScan S;
  double WorstViol = PrimTol;
  for (int R = 0; R < NumRows; ++R) {
    const double V = infeasibilityOf(R);
    S.Sum += V;
    if (V <= PrimTol)
      continue;
    if (V > WorstViol) {
      WorstViol = V;
      S.Worst = R;
    }
    if (S.Bland < 0 || Basis[sz(R)] < Basis[sz(S.Bland)])
      S.Bland = R;
  }
  return S;
}

bool SparseLp::iterBookkeeping() {
  ++Iterations;
  if (Iterations > MaxIterations) {
    AbortWhy = LpStatus::IterLimit;
    return false;
  }
  // Cancellation poll every 16 iterations: each poll may read the steady
  // clock (deadline tokens), so keep it off the per-pivot path.
  if ((Iterations & 15) == 0 && Cancel.cancelled()) {
    AbortWhy = LpStatus::Cancelled;
    return false;
  }
  // Fault injection: a forced stall reports IterLimit exactly as a real
  // degenerate-cycling basis would.
  if (FaultInjector::instance().shouldFire(FaultSite::LpStall)) {
    AbortWhy = LpStatus::IterLimit;
    return false;
  }
  return true;
}

/// Applies one pivot: the entering column moves by \p T from \p EnterBase,
/// the basic column of \p Row leaves to \p LeaveStatus.  Pushes the eta and
/// refactorizes when the file is long.  \returns false when a needed
/// refactorization failed (caller aborts with IterLimit).
bool SparseLp::applyPivot(int Row, int EnterCol, double T, double EnterBase,
                         LpBasisStatus LeaveStatus,
                         const std::vector<double> &Y) {
  // One pass moves the basics and collects the eta's off-pivot entries
  // (those pushDenseEta would take).
  const int Begin = static_cast<int>(EtaPool.size());
  for (int R = 0; R < NumRows; ++R) {
    const double V = Y[sz(R)];
    if (V == 0.0)
      continue;
    XB[sz(R)] -= V * T;
    if (R != Row && std::abs(V) > 1e-12)
      EtaPool.push_back({R, V});
  }
  Etas.push_back({Row, Y[sz(Row)], Begin, static_cast<int>(EtaPool.size())});
  int Leaving = Basis[sz(Row)];
  St[sz(Leaving)] = LeaveStatus;
  St[sz(EnterCol)] = LpBasisStatus::Basic;
  Basis[sz(Row)] = EnterCol;
  XB[sz(Row)] = EnterBase + T;

  if (static_cast<int>(Etas.size()) - BaseEtas >= RefactorInterval) {
    if (!factorize()) {
      AbortWhy = LpStatus::IterLimit;
      return false;
    }
    computeXB(); // Fresh values kill accumulated drift.
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Dual-simplex reoptimization
//===----------------------------------------------------------------------===//

/// Restores primal feasibility from a dual-feasible basis — the warm-start
/// reoptimizer: a branch-and-bound child differs from its parent only in
/// one tightened bound, and the parent's optimal basis is dual feasible.
/// With an empty objective (the driver's feasibility models) every basis
/// qualifies, so this is also the cold main loop there.
SparseLp::LoopExit SparseLp::dualReoptimize() {
  // Each scan of the basics serves the stall test and the next leaving
  // choice; only a refactorization, which rewrites XB, forces another.
  InfeasScan Scan = scanInfeasibility();
  double FPrev = Scan.Sum;
  while (true) {
    if (FPrev <= PrimTol * static_cast<double>(NumRows + 1))
      return LoopExit::Done;
    if (!iterBookkeeping())
      return LoopExit::Abort;
    bool Bland = Stalled > BlandThreshold;
    if (Stalled > 2 * BlandThreshold)
      return LoopExit::Trouble; // Cycling despite Bland: let phase 1 try.

    // Leaving: the most violated basic variable (Bland: smallest column).
    const int Row = Bland ? Scan.Bland : Scan.Worst;
    if (Row < 0)
      return LoopExit::Done;
    int Leaving = Basis[sz(Row)];
    bool Below = XB[sz(Row)] < EffLb[sz(Leaving)] - PrimTol;

    // Reduced costs constrain the entering choice (they are all zero for
    // empty objectives, where any admissible column keeps dual
    // feasibility).
    bool NeedD = !CostEmpty;
    if (NeedD)
      priceReducedCosts(false, WorkD);

    // Dual ratio test along row Row: alpha_j = (B^-1 a_j)[Row] = rho.a_j,
    // nonzero only on the columns pivotRow touches.  The rule is sequential
    // in ascending column order.  With an empty objective every ratio is
    // zero and it reduces to the largest |alpha|, ties to the lower column,
    // which any visiting order finds; otherwise, and under Bland, the
    // touched columns are sorted first.
    std::fill(WorkPi.begin(), WorkPi.end(), 0.0);
    WorkPi[sz(Row)] = 1.0;
    btran(WorkPi);
    pivotRow();
    if (NeedD || Bland)
      std::sort(AlphaCols.begin(), AlphaCols.end());
    int Enter = -1;
    double EnterAlpha = 0.0;
    double BestRatio = Inf;
    for (int C : AlphaCols) {
      if (St[sz(C)] == LpBasisStatus::Basic)
        continue;
      if (EffUb[sz(C)] - EffLb[sz(C)] <= FixEps)
        continue;
      double Alpha = RowAlpha[sz(C)];
      if (std::abs(Alpha) <= PivotEps)
        continue;
      bool AtLower = St[sz(C)] == LpBasisStatus::AtLower;
      bool Admissible = Below ? (AtLower ? Alpha < 0 : Alpha > 0)
                              : (AtLower ? Alpha > 0 : Alpha < 0);
      if (!Admissible)
        continue;
      if (Bland) {
        Enter = C;
        EnterAlpha = Alpha;
        break;
      }
      if (!NeedD) {
        if (std::abs(Alpha) > std::abs(EnterAlpha) ||
            (std::abs(Alpha) == std::abs(EnterAlpha) && C < Enter)) {
          Enter = C;
          EnterAlpha = Alpha;
        }
        continue;
      }
      double Ratio = std::abs(WorkD[sz(C)]) / std::abs(Alpha);
      if (Ratio < BestRatio - TieEps ||
          (Ratio < BestRatio + TieEps &&
           std::abs(Alpha) > std::abs(EnterAlpha))) {
        BestRatio = Ratio;
        Enter = C;
        EnterAlpha = Alpha;
      }
    }
    for (int C : AlphaCols) {
      RowAlpha[sz(C)] = 0.0;
      AlphaMark[sz(C)] = 0;
    }
    if (Enter < 0) {
      // No movable nonbasic can push the violated basic toward its bound:
      // the row is a Farkas certificate of infeasibility.
      return LoopExit::Infeasible;
    }

    loadColumn(Enter, WorkY);
    ftran(WorkY);
    if (std::abs(WorkY[sz(Row)]) <= PivotEps) {
      // The eta file disagrees with the fresh row: refactorize and retry.
      if (NeedRefactor)
        return LoopExit::Trouble;
      if (!factorize()) {
        AbortWhy = LpStatus::IterLimit;
        return LoopExit::Abort;
      }
      computeXB();
      Scan = scanInfeasibility(); // The stall test keeps FPrev.
      continue;
    }
    double Bound = Below ? EffLb[sz(Leaving)] : EffUb[sz(Leaving)];
    double T = (XB[sz(Row)] - Bound) / WorkY[sz(Row)];
    LpBasisStatus LeaveTo =
        Below ? LpBasisStatus::AtLower : LpBasisStatus::AtUpper;
    if (!applyPivot(Row, Enter, T, nonbasicValue(Enter), LeaveTo, WorkY))
      return LoopExit::Abort;
    ++Stats.DualPivots;

    Scan = scanInfeasibility();
    if (Scan.Sum < FPrev - 1e-9)
      Stalled = 0;
    else
      ++Stalled;
    FPrev = Scan.Sum;
  }
}

//===----------------------------------------------------------------------===//
// Composite primal simplex
//===----------------------------------------------------------------------===//

/// The primal simplex over both costs: while the basics' bound violations
/// sum above tolerance it minimizes that sum (phase 1), from then on the
/// model's objective (phase 2).  One entering scan, ratio test and pivot
/// serve both; the phase decides only the cost priced, what an empty scan
/// and an unblocked ray mean, and the stall test that arms Bland's rule.
SparseLp::LoopExit SparseLp::primal() {
  const double FeasTol = PrimTol * static_cast<double>(NumRows + 1);
  double FPrev = scanInfeasibility().Sum;
  bool Phase1 = FPrev > FeasTol;
  while (true) {
    if (Phase1 && FPrev <= FeasTol) {
      Phase1 = false;
      Stalled = 0;
    }
    if (!iterBookkeeping())
      return LoopExit::Abort;
    if (!Phase1 && CostEmpty)
      return LoopExit::Done; // Nothing to price: every basis is optimal.
    bool Bland = Stalled > BlandThreshold;

    priceReducedCosts(Phase1, WorkD);
    int Enter = -1;
    double BestD = 0.0;
    for (int C = 0; C < numCols(); ++C) {
      if (St[sz(C)] == LpBasisStatus::Basic)
        continue;
      if (EffUb[sz(C)] - EffLb[sz(C)] <= FixEps)
        continue;
      double D = WorkD[sz(C)];
      bool Eligible = St[sz(C)] == LpBasisStatus::AtLower ? D < -CostEps
                                                          : D > CostEps;
      if (!Eligible)
        continue;
      if (Bland) {
        Enter = C;
        break;
      }
      if (std::abs(D) > std::abs(BestD)) {
        BestD = D;
        Enter = C;
      }
    }
    if (Enter < 0) {
      if (!Phase1)
        return LoopExit::Done; // Optimal.
      if (FPrev > InfeasProofTol)
        return LoopExit::Infeasible;
      Phase1 = false; // Float dust, not a proof: price the objective.
      Stalled = 0;
      continue;
    }

    loadColumn(Enter, WorkY);
    ftran(WorkY);
    double Sigma = St[sz(Enter)] == LpBasisStatus::AtLower ? 1.0 : -1.0;

    // Ratio test: feasible basics block at their bounds as usual; an
    // infeasible basic blocks where it *reaches* its violated bound (the
    // phase-1 gradient changes there — stop and pivot it out).
    double BestT = EffUb[sz(Enter)] - EffLb[sz(Enter)]; // Bound flip.
    int BlockRow = -1;
    double BlockAbsY = 0.0;
    LpBasisStatus BlockTo = LpBasisStatus::AtLower;
    for (int R = 0; R < NumRows; ++R) {
      double Rate = -Sigma * WorkY[sz(R)]; // dx_basic/dt.
      if (std::abs(Rate) <= PivotEps)
        continue;
      int B = Basis[sz(R)];
      double X = XB[sz(R)], L = EffLb[sz(B)], U = EffUb[sz(B)];
      double T = Inf;
      LpBasisStatus To = LpBasisStatus::AtLower;
      if (X < L - PrimTol) {
        if (Rate > 0) {
          T = (L - X) / Rate;
          To = LpBasisStatus::AtLower;
        }
      } else if (X > U + PrimTol) {
        if (Rate < 0) {
          T = (X - U) / -Rate;
          To = LpBasisStatus::AtUpper;
        }
      } else if (Rate > 0) {
        if (U < Inf) {
          T = (U - X) / Rate;
          To = LpBasisStatus::AtUpper;
        }
      } else if (L > -Inf) {
        T = (X - L) / -Rate;
        To = LpBasisStatus::AtLower;
      }
      if (T == Inf)
        continue;
      T = std::max(T, 0.0);
      bool Better;
      if (Bland)
        Better = T < BestT - TieEps ||
                 (T < BestT + TieEps &&
                  (BlockRow < 0 || B < Basis[sz(BlockRow)]));
      else
        Better = T < BestT - TieEps ||
                 (T < BestT + TieEps && std::abs(WorkY[sz(R)]) > BlockAbsY);
      if (Better) {
        BestT = T;
        BlockRow = R;
        BlockAbsY = std::abs(WorkY[sz(R)]);
        BlockTo = To;
      }
    }
    if (BlockRow < 0 && BestT == Inf) // Phase 1's sum is bounded below.
      return Phase1 ? LoopExit::Trouble : LoopExit::Unbounded;

    if (BlockRow < 0) {
      // Bound flip: the entering column crosses to its other bound.
      for (int R = 0; R < NumRows; ++R)
        XB[sz(R)] -= Sigma * BestT * WorkY[sz(R)];
      St[sz(Enter)] = St[sz(Enter)] == LpBasisStatus::AtLower
                          ? LpBasisStatus::AtUpper
                          : LpBasisStatus::AtLower;
      ++Stats.BoundFlips;
    } else {
      if (!applyPivot(BlockRow, Enter, Sigma * BestT, nonbasicValue(Enter),
                      BlockTo, WorkY))
        return LoopExit::Abort;
      ++Stats.Pivots;
    }

    // Stalling: no decrease of the sum (phase 1), a degenerate step
    // (phase 2).
    if (Phase1) {
      double F = scanInfeasibility().Sum;
      Stalled = F < FPrev - 1e-9 ? 0 : Stalled + 1;
      FPrev = F;
    } else {
      Stalled = BestT > TieEps ? 0 : Stalled + 1;
    }
  }
}

//===----------------------------------------------------------------------===//
// solve()
//===----------------------------------------------------------------------===//

std::span<const LpBasisStatus> SparseLp::structuralBasis() const {
  if (St.empty())
    return {}; // Never solved (e.g. presolve-infeasible model).
  return {St.data(), sz(NumStruct)};
}

void SparseLp::seedBasis(std::span<const LpBasisStatus> StructuralHints) {
  if (Pre.Infeasible)
    return;
  const int N = std::min<int>(NumStruct,
                              static_cast<int>(StructuralHints.size()));
  for (int C = 0; C < N; ++C)
    St[sz(C)] = StructuralHints[sz(C)];
  for (int C = N; C < NumStruct; ++C)
    St[sz(C)] = LpBasisStatus::AtLower;
  for (int K = 0; K < NumRows; ++K)
    St[sz(NumStruct + K)] = RowCmp[sz(K)] == CmpKind::GE
                                ? LpBasisStatus::AtUpper
                                : LpBasisStatus::AtLower;
  clearEtas();
  BaseEtas = 0;
  Basis.assign(sz(NumRows), -1);
  HaveBasis = true;
  NeedRefactor = true;
}

LpResult SparseLp::solve(const std::vector<double> &Lb,
                         const std::vector<double> &Ub,
                         const CancellationToken &CancelTok) {
  LpResult Res;
  ++Stats.Solves;

  // Mismatched bound arrays are a caller bug; degrade to IterLimit (which
  // proves nothing) instead of aborting the process in release builds.
  if (static_cast<int>(Lb.size()) != NumStruct ||
      static_cast<int>(Ub.size()) != NumStruct) {
    assert(false && "bound arrays must match the model");
    return Res;
  }
  // Entry poll: the pivot loop only checks every few iterations, which a
  // small LP never reaches — a pre-cancelled token must still stop it.
  if (CancelTok.cancelled()) {
    Res.Status = LpStatus::Cancelled;
    return Res;
  }
  // Fault injection: spurious infeasibility, the most dangerous LP lie —
  // downstream layers must never turn it into a false optimality proof.
  if (FaultInjector::instance().shouldFire(FaultSite::LpInfeasible)) {
    Res.Status = LpStatus::Infeasible;
    return Res;
  }
  if (Pre.Infeasible) {
    Res.Status = LpStatus::Infeasible;
    return Res;
  }

  // Effective bounds: caller bounds intersected with the presolve
  // strengthenings (both only ever tighten the model).
  EffLb.assign(sz(numCols()), 0.0);
  EffUb.assign(sz(numCols()), 0.0);
  for (int C = 0; C < NumStruct; ++C) {
    EffLb[sz(C)] = std::max(Lb[sz(C)], Pre.Lb[sz(C)]);
    EffUb[sz(C)] = std::min(Ub[sz(C)], Pre.Ub[sz(C)]);
    if (EffLb[sz(C)] > EffUb[sz(C)] + 1e-9) {
      Res.Status = LpStatus::Infeasible;
      return Res;
    }
  }
  for (int K = 0; K < NumRows; ++K) {
    int L = NumStruct + K;
    switch (RowCmp[sz(K)]) {
    case CmpKind::LE:
      EffLb[sz(L)] = 0.0;
      EffUb[sz(L)] = Inf;
      break;
    case CmpKind::GE:
      EffLb[sz(L)] = -Inf;
      EffUb[sz(L)] = 0.0;
      break;
    case CmpKind::EQ:
      EffLb[sz(L)] = 0.0;
      EffUb[sz(L)] = 0.0;
      break;
    }
  }

  Cancel = CancelTok;
  Iterations = 0;
  MaxIterations = 200 * (NumRows + numCols()) + 2000;
  Stalled = 0;
  BlandThreshold = NumRows + numCols();
  AbortWhy = LpStatus::IterLimit;

  if (HaveBasis)
    ++Stats.WarmSolves;
  else
    coldBasis();
  sanitizeStatuses();
  if (NeedRefactor ||
      static_cast<int>(Etas.size()) - BaseEtas > RefactorInterval) {
    if (!factorize()) {
      Res.Status = LpStatus::IterLimit;
      NeedRefactor = true;
      return Res;
    }
  }
  computeXB();

  auto Abort = [&](LpStatus Why) {
    Res.Status = Why;
    return Res;
  };

  // Dual reoptimization whenever the basis is dual feasible (always, for
  // the empty objectives of feasibility scheduling); the composite primal
  // loop restores feasibility where the dual gave up and is the final
  // arbiter either way.
  LoopExit Exit = LoopExit::Done;
  if (scanInfeasibility().Sum > PrimTol * static_cast<double>(NumRows + 1) &&
      priceReducedCosts(false, WorkD)) {
    Exit = dualReoptimize();
    Stalled = 0;
  }
  if (Exit != LoopExit::Infeasible && Exit != LoopExit::Abort)
    Exit = primal();
  switch (Exit) {
  case LoopExit::Done:
    break;
  case LoopExit::Infeasible:
    return Abort(LpStatus::Infeasible);
  case LoopExit::Unbounded:
    return Abort(LpStatus::Unbounded);
  case LoopExit::Trouble:
    return Abort(LpStatus::IterLimit);
  case LoopExit::Abort:
    return Abort(AbortWhy);
  }

  Res.X.assign(sz(NumStruct), 0.0);
  for (int C = 0; C < NumStruct; ++C)
    Res.X[sz(C)] = St[sz(C)] == LpBasisStatus::Basic ? 0.0 : nonbasicValue(C);
  for (int R = 0; R < NumRows; ++R)
    if (Basis[sz(R)] < NumStruct)
      Res.X[sz(Basis[sz(R)])] = XB[sz(R)];
  Res.Objective = MilpModel::evaluate(Model->objective(), Res.X);
  Res.Status = LpStatus::Optimal;
  return Res;
}

LpResult SparseLp::solve(const CancellationToken &CancelTok) {
  ModelLb.resize(sz(NumStruct));
  ModelUb.resize(sz(NumStruct));
  for (int C = 0; C < NumStruct; ++C) {
    ModelLb[sz(C)] = Model->var(C).Lb;
    ModelUb[sz(C)] = Model->var(C).Ub;
  }
  return solve(ModelLb, ModelUb, CancelTok);
}

//===----------------------------------------------------------------------===//
// One-shot free functions
//===----------------------------------------------------------------------===//

LpResult swp::solveLp(const MilpModel &M, const std::vector<double> &Lb,
                      const std::vector<double> &Ub,
                      const CancellationToken &Cancel) {
  SparseLp Lp(M);
  return Lp.solve(Lb, Ub, Cancel);
}

LpResult swp::solveLp(const MilpModel &M, const CancellationToken &Cancel) {
  SparseLp Lp(M);
  return Lp.solve(Cancel);
}
