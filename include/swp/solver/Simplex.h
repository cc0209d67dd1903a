//===- swp/solver/Simplex.h - Sparse revised simplex ------------*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sparse revised simplex over bounded variables, built for the reuse
/// patterns of the branch-and-bound MILP search and the driver's
/// candidate-T sweep:
///
///   - constraints are stored once, column-major and sparse; every row gets
///     one logical (slack/surplus) variable, so variable bounds are handled
///     natively and no explicit upper-bound rows exist;
///   - the basis inverse is kept as an eta file (product form) updated per
///     pivot and periodically refactorized by Gauss-Jordan elimination with
///     basis repair;
///   - a SparseLp workspace persists the basis across solve() calls under
///     changed bounds: a branch-and-bound child re-solves from its parent's
///     optimal basis by dual-simplex reoptimization (any basis is dual
///     feasible for the feasibility models the driver mostly builds);
///   - one composite primal loop follows the dual and is the final
///     arbiter: phase 1 minimizes the basics' sum of bound violations
///     while it exceeds tolerance, phase 2 the objective from then on.
///     Both phases share one entering scan, ratio test and pivot, and one
///     pricing routine (btran of the basics' costs, then c - colDot) that
///     also prices the dual's ratio test.  The ratio test is phase 1's (a
///     basic outside a bound blocks only where it reaches it), which is
///     phase 2's own rule whenever no basic lies outside its bounds, as
///     on every pinned solve (DESIGN.md section 12).  Bland's rule guards
///     both loops against cycling;
///   - an LP-exact presolve (swp/solver/Presolve.h) runs at construction:
///     fixed columns fold away and singleton rows become bounds before the
///     solver ever prices them.
///
/// The solveLp free functions keep the historical one-shot contract (each
/// call builds a throwaway workspace); warm-start users hold a SparseLp.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SOLVER_SIMPLEX_H
#define SWP_SOLVER_SIMPLEX_H

#include "swp/solver/Model.h"
#include "swp/solver/Presolve.h"
#include "swp/support/Cancellation.h"
#include "swp/support/ThreadSpare.h"

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace swp {

/// Outcome of an LP solve.  Cancelled means the caller's token fired
/// mid-pivot; like IterLimit it proves nothing about feasibility.
enum class LpStatus { Optimal, Infeasible, Unbounded, IterLimit, Cancelled };

/// LP solution: status, objective value, and a full variable assignment.
struct LpResult {
  LpStatus Status = LpStatus::IterLimit;
  double Objective = 0.0;
  std::vector<double> X;
};

/// Basis membership of one column.  Nonbasic columns sit at the named
/// (finite) bound; the workspace normalizes statuses that point at an
/// infinite bound.
enum class LpBasisStatus : unsigned char { AtLower, AtUpper, Basic };

/// Cumulative effort counters of a SparseLp workspace (never reset by
/// solve(); callers diff snapshots).
struct LpStats {
  /// Primal pivots (phase 1 + phase 2).
  std::int64_t Pivots = 0;
  /// Dual-simplex reoptimization pivots.
  std::int64_t DualPivots = 0;
  /// Nonbasic bound-to-bound flips (no basis change).
  std::int64_t BoundFlips = 0;
  /// Basis refactorizations (eta file rebuilt from scratch).
  std::int64_t Refactorizations = 0;
  /// solve() calls answered by this workspace ...
  std::int64_t Solves = 0;
  /// ... of which started from a carried or seeded basis.
  std::int64_t WarmSolves = 0;

  std::int64_t totalPivots() const { return Pivots + DualPivots; }
};

/// SparseLp's vectors, recycled across workspaces on a thread
/// (swp/support/ThreadSpare.h).
struct SparseLpStore {
  /// One nonzero of a matrix column or of an eta.
  struct Entry {
    int Row;
    double Val;
  };
  /// One product-form eta: the identity with column Row replaced by Pivot
  /// at Row and the off-pivot entries EtaPool[Begin, End).
  struct Eta {
    int Row;
    double Pivot;
    int Begin;
    int End;
  };

  PresolveInfo Pre;
  /// Column-major (CSC) sparse matrix over kept rows: column C's entries
  /// are ColEntries[ColStart[C], ColStart[C + 1]), ascending by row;
  /// logicals are unit columns.
  std::vector<int> ColStart;
  std::vector<Entry> ColEntries;
  std::vector<double> Rhs;
  std::vector<CmpKind> RowCmp;
  std::vector<double> Cost; // Objective coefficient per column.
  /// The model row of each kept row, for reading a row's terms.
  std::vector<int> RowOf;

  // Basis state, persisted across solve() calls.
  std::vector<LpBasisStatus> St; // Per column.
  std::vector<int> Basis;        // Basic column per row.
  /// The eta file: headers in application order over one entry pool,
  /// cleared (capacity kept) at every refactorization.
  std::vector<Eta> Etas;
  std::vector<Entry> EtaPool;
  std::vector<double> XB; // Basic variable value per row.

  // Per-solve state and scratch.
  std::vector<double> EffLb, EffUb; // Per column.
  std::vector<double> WorkY, WorkPi, WorkD, WorkPrice;
  /// The dual ratio test's pivot row alpha = rho A, per column: zero, and
  /// AlphaMark clear, everywhere but the columns AlphaCols lists while one
  /// row is being priced.
  std::vector<double> RowAlpha;
  std::vector<char> AlphaMark;
  std::vector<int> AlphaCols;
  /// The model's own bounds, for solve() without bound arguments.
  std::vector<double> ModelLb, ModelUb;
  /// Next free slot per CSC column (construction) or per row candidate
  /// list (factorize()).
  std::vector<int> Fill;
  /// factorize(): placed rows, the new basis, candidate columns, singleton
  /// counts, per-row candidate lists (RowCandList[RowCandStart[R],
  /// RowCandStart[R + 1])), retired columns, singleton stacks and the
  /// back wing's (column, row) pairs.
  std::vector<char> RowDone, Used;
  std::vector<int> NewBasis, Cands, RowCount, ColCount, RowCandStart,
      RowCandList, RowStack, ColStack;
  std::vector<std::pair<int, int>> Back;

  void reset();
  std::size_t capacityBytes() const;
};

/// A reusable LP workspace bound to one MilpModel.  The model must outlive
/// the workspace and must not change while it is in use.  Not thread-safe;
/// one workspace per search.  Its vectors come from, and return to, the
/// thread's spare SparseLpStore.
class SparseLp : private SpareBacked<SparseLpStore> {
public:
  explicit SparseLp(const MilpModel &M);

  /// Solves the LP relaxation under variable bounds \p Lb / \p Ub (same
  /// length as the model's variable count; entries may tighten or fix the
  /// model's bounds; lower bounds must be finite).  The final basis is
  /// retained, so the next solve() under nearby bounds starts warm.
  /// \p Cancel is polled at entry and inside the pivot loops.
  LpResult solve(const std::vector<double> &Lb, const std::vector<double> &Ub,
                 const CancellationToken &Cancel = {});

  /// Convenience overload using the model's own bounds.
  LpResult solve(const CancellationToken &Cancel = {});

  /// Per-structural-variable basis statuses after the last solve — the
  /// carryable part of the basis (logical statuses are re-derived).  Empty
  /// before the first solve; valid until the next solve() or seedBasis().
  std::span<const LpBasisStatus> structuralBasis() const;

  /// Seeds the next solve()'s starting basis from per-structural hints (as
  /// produced by structuralBasis(), possibly on a *different* model and
  /// mapped by the caller).  Hinted-basic columns are crashed into the
  /// basis where they pivot cleanly; rows left uncovered keep their
  /// logicals.  A short span seeds a prefix; out-of-range hints are
  /// ignored.
  void seedBasis(std::span<const LpBasisStatus> StructuralHints);

  /// True when presolve already proved the model (under its own bounds)
  /// infeasible; solve() then answers without pivoting.
  bool presolveInfeasible() const { return Pre.Infeasible; }

  /// Presolve reductions (see swp/solver/Presolve.h).
  const PresolveInfo &presolve() const { return Pre; }

  /// Rows surviving presolve (each owns one logical variable).
  int numRows() const { return NumRows; }

  const LpStats &stats() const { return Stats; }

  /// Refactorize after this many eta updates (testing/tuning knob).
  void setRefactorInterval(int K) { RefactorInterval = K < 1 ? 1 : K; }

private:
  int numCols() const { return NumStruct + NumRows; }
  std::span<const Entry> column(int C) const {
    return {ColEntries.data() + ColStart[static_cast<size_t>(C)],
            ColEntries.data() + ColStart[static_cast<size_t>(C) + 1]};
  }
  std::span<const Entry> etaEntries(const Eta &E) const {
    return {EtaPool.data() + E.Begin, EtaPool.data() + E.End};
  }
  void clearEtas();
  void pushDenseEta(int Row, const std::vector<double> &Dense);
  bool isLogical(int C) const { return C >= NumStruct; }
  double nonbasicValue(int C) const;
  LpBasisStatus boundStatus(int C) const;

  void ftran(std::vector<double> &V) const;
  void btran(std::vector<double> &V) const;
  void loadColumn(int C, std::vector<double> &Dense) const;
  double colDot(int C, const std::vector<double> &RowVec) const;

  void coldBasis();
  bool factorize();
  void computeXB();
  void sanitizeStatuses();
  bool priceReducedCosts(bool Phase1, std::vector<double> &D);
  double infeasibilityOf(int Row) const;
  /// One pass over the basics: the infeasibility sum and the dual
  /// simplex's two leaving choices.
  struct InfeasScan {
    double Sum = 0.0;
    /// The most violated row (the first of equals), or -1.
    int Worst = -1;
    /// Bland's choice: the violated row with the smallest basic column.
    int Bland = -1;
  };
  InfeasScan scanInfeasibility() const;
  void pivotRow();

  enum class LoopExit { Done, Infeasible, Unbounded, Trouble, Abort };
  LoopExit dualReoptimize();
  LoopExit primal();
  bool iterBookkeeping();
  bool applyPivot(int Row, int EnterCol, double T, double EnterBase,
                  LpBasisStatus LeaveStatus, const std::vector<double> &Y);

  const MilpModel *Model;
  int NumStruct = 0;
  int NumRows = 0;
  bool CostEmpty = true;

  /// Etas [0, BaseEtas) are the factorization itself; only updates appended
  /// beyond it count against RefactorInterval.
  int BaseEtas = 0;
  bool HaveBasis = false;
  bool NeedRefactor = false;
  int RefactorInterval = 64;

  // Per-solve state.
  CancellationToken Cancel;
  int Iterations = 0;
  int MaxIterations = 0;
  int Stalled = 0;
  int BlandThreshold = 0;
  LpStatus AbortWhy = LpStatus::IterLimit;

  LpStats Stats;
};

/// Solves the LP relaxation of \p M with variable bounds \p Lb / \p Ub
/// (same length as M.numVars(); entries may tighten or fix the model's
/// bounds).  Lower bounds must be finite; upper bounds may be +infinity.
/// \p Cancel is polled inside the pivot loop; a fired token returns
/// LpStatus::Cancelled (a default token never fires).
LpResult solveLp(const MilpModel &M, const std::vector<double> &Lb,
                 const std::vector<double> &Ub,
                 const CancellationToken &Cancel = {});

/// Convenience overload using the model's own bounds.
LpResult solveLp(const MilpModel &M, const CancellationToken &Cancel = {});

} // namespace swp

#endif // SWP_SOLVER_SIMPLEX_H
