//===- swp/solver/Presolve.h - LP/MILP presolve -----------------*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bound-strengthening presolve run before the sparse simplex ever sees a
/// model.  Every reduction is an *exact* reformulation of the LP relaxation
/// (the feasible set and objective are unchanged), so presolved and raw
/// solves are interchangeable everywhere — in particular the differential
/// fuzzer can compare them byte for byte:
///
///   - fixed variables (lb == ub) fold out of every row they appear in;
///   - singleton rows (one free variable left) become variable bounds and
///     the row is dropped;
///   - rows with no free variables left become pure consistency checks
///     (dropped when satisfied, a trivial-infeasibility proof otherwise);
///
/// iterated to a fixed point: a singleton row can fix its variable, which
/// can empty another row, and so on.  On the paper's formulations this
/// eliminates the dependence-window-empty a[t][i] slots and the
/// symmetry-fixed first color of every FU type.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SOLVER_PRESOLVE_H
#define SWP_SOLVER_PRESOLVE_H

#include "swp/solver/Model.h"

#include <vector>

namespace swp {

/// Outcome of a presolve pass over (model, bounds).
struct PresolveInfo {
  /// True when a row or bound pair was proven contradictory; the model has
  /// no feasible point and the solver can answer without pivoting.
  bool Infeasible = false;
  /// Human-readable reason when Infeasible ("row 3 empty and violated").
  std::string Reason;
  /// Strengthened bounds, same length as the model's variable count.
  /// Always at least as tight as the input bounds.
  std::vector<double> Lb, Ub;
  /// Per-constraint drop flag: true when the row became a (satisfied)
  /// tautology or was converted into a bound.
  std::vector<char> DropRow;
  /// Variables fixed (lb == ub) after presolve that were not fixed before.
  int NewlyFixed = 0;
  /// Rows dropped (singleton conversions + satisfied empty rows).
  int DroppedRows = 0;
  /// Fixed-point sweeps performed.
  int Sweeps = 0;
};

/// Runs the presolve fixed point for \p M under variable bounds
/// \p Lb / \p Ub (same length as M.numVars()).  The returned bounds and
/// drop flags describe an LP with the identical feasible set and objective.
PresolveInfo presolveModel(const MilpModel &M, const std::vector<double> &Lb,
                           const std::vector<double> &Ub);

/// Convenience overload using the model's own bounds.
PresolveInfo presolveModel(const MilpModel &M);

/// The same, written into \p Out, whose vectors keep their capacity.
void presolveModel(const MilpModel &M, PresolveInfo &Out);

} // namespace swp

#endif // SWP_SOLVER_PRESOLVE_H
