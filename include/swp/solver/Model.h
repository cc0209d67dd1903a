//===- swp/solver/Model.h - MILP model builder ------------------*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A mixed-integer linear program: variables with bounds and integrality,
/// linear constraints, and a linear objective (always minimized).
///
/// The scheduling formulations of the paper (Sections 3-5) are built as
/// MilpModel instances and handed to BranchAndBound.  The model is solver-
/// independent; the paper used a commercial ILP code, we ship our own
/// simplex + branch-and-bound (see DESIGN.md for the substitution argument).
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SOLVER_MODEL_H
#define SWP_SOLVER_MODEL_H

#include "swp/support/ThreadSpare.h"

#include <cassert>
#include <cstddef>
#include <limits>
#include <ranges>
#include <span>
#include <string>
#include <vector>

namespace swp {

/// Index of a variable within a MilpModel.
using VarId = int;

/// One coefficient*variable term of a linear expression.
struct LinTerm {
  VarId Var;
  double Coef;
};

/// A linear expression sum(Coef_k * Var_k) + Constant.
///
/// Duplicate variables are allowed when building; normalize() merges them.
class LinExpr {
public:
  LinExpr() = default;

  /// Appends \p Coef * \p Var (no merging until normalize()).
  LinExpr &add(VarId Var, double Coef) {
    if (Coef != 0.0)
      Terms.push_back({Var, Coef});
    return *this;
  }

  /// Adds a constant offset.
  LinExpr &addConstant(double C) {
    Constant += C;
    return *this;
  }

  /// Appends every term of \p Other scaled by \p Scale.
  LinExpr &addScaled(const LinExpr &Other, double Scale);

  /// Merges duplicate variables and drops zero coefficients.
  void normalize();

  /// Removes every term and the constant, keeping the capacity.
  void clear() {
    Terms.clear();
    Constant = 0.0;
  }

  const std::vector<LinTerm> &terms() const { return Terms; }
  double constant() const { return Constant; }
  bool empty() const { return Terms.empty(); }

private:
  std::vector<LinTerm> Terms;
  double Constant = 0.0;
};

/// Comparison sense of a constraint.
enum class CmpKind { LE, GE, EQ };

/// Integrality class of a variable.
enum class VarKind { Continuous, Integer, Binary };

/// A model variable: bounds and integrality.  Variables are named by their
/// VarId alone.
struct ModelVar {
  double Lb;
  double Ub;
  VarKind Kind;
  /// True when some constraint already implies Var <= Ub in the LP
  /// relaxation (e.g. a[t][i] <= 1 follows from sum_t a[t][i] = 1), letting
  /// the simplex skip the explicit upper-bound row.
  bool UbRowRedundant = false;
  /// Branch-and-bound branching priority; lower classes branch first.
  /// Structural decisions (the A matrix) should outrank derived variables
  /// (colors, overlap indicators).
  int BranchPriority = 0;
};

/// A read-only view of one model row's terms: normalized (sorted by
/// variable, merged, no zero coefficients) and constant-free.
class RowExpr {
public:
  explicit RowExpr(std::span<const LinTerm> Terms) : Terms(Terms) {}

  std::span<const LinTerm> terms() const { return Terms; }

private:
  std::span<const LinTerm> Terms;
};

/// A view of the linear constraint Expr (<=,>=,=) Rhs; valid while its
/// model lives and gains no rows.
struct ModelConstraint {
  RowExpr Expr;
  CmpKind Cmp;
  double Rhs;
};

/// A mixed-integer linear program; the objective is minimized.
///
/// Rows are stored flat: one term array, and per row its term range, its
/// comparison and its right-hand side.  The storage is recycled through
/// the thread's spare (swp/support/ThreadSpare.h): a destroyed model parks
/// it, and the next model built on the thread starts with its capacity.
class MilpModel {
public:
  static constexpr double Inf = std::numeric_limits<double>::infinity();

  /// Adds a variable and returns its id.
  VarId addVar(double Lb, double Ub, VarKind Kind);

  /// Adds a binary {0,1} variable.
  VarId addBinary() { return addVar(0.0, 1.0, VarKind::Binary); }

  /// Marks \p Var's upper bound row as implied by other constraints.
  void setUbRowRedundant(VarId Var) {
    assert(Var >= 0 && Var < numVars() && "bad var id");
    S->Vars[static_cast<std::size_t>(Var)].UbRowRedundant = true;
  }

  /// Fixes \p Var to \p Value (Lb = Ub = Value).  Used for symmetry
  /// anchoring at model-build time, where presolve can fold the fixed
  /// column away before the solver ever prices it.
  void fixVar(VarId Var, double Value) {
    assert(Var >= 0 && Var < numVars() && "bad var id");
    S->Vars[static_cast<std::size_t>(Var)].Lb = Value;
    S->Vars[static_cast<std::size_t>(Var)].Ub = Value;
  }

  /// Sets \p Var's branching priority class (lower branches first).
  void setBranchPriority(VarId Var, int Priority) {
    assert(Var >= 0 && Var < numVars() && "bad var id");
    S->Vars[static_cast<std::size_t>(Var)].BranchPriority = Priority;
  }

  /// Adds the constraint \p Expr \p Cmp \p Rhs.  \p Expr is normalized in
  /// place and its terms are copied into the model, so one expression can
  /// be cleared and refilled for every row; its constant is folded into
  /// the right-hand side.
  void addConstraint(LinExpr &Expr, CmpKind Cmp, double Rhs);
  void addConstraint(LinExpr &&Expr, CmpKind Cmp, double Rhs) {
    addConstraint(Expr, Cmp, Rhs);
  }

  /// A cleared expression held in the model's storage, for building rows
  /// without allocating: fill it and pass it to addConstraint.
  LinExpr &scratchRow() {
    S->Scratch.clear();
    return S->Scratch;
  }

  /// Sets the (minimized) objective.  An empty objective makes every
  /// feasible point optimal — used for pure feasibility checks.
  void setObjective(LinExpr Expr);

  /// Adds \p Coef * \p Var to the objective (normalized again).
  void addObjectiveTerm(VarId Var, double Coef);

  int numVars() const { return static_cast<int>(S->Vars.size()); }
  int numConstraints() const { return static_cast<int>(S->Rows.size()); }

  const ModelVar &var(VarId Id) const {
    return S->Vars[static_cast<std::size_t>(Id)];
  }
  const std::vector<ModelVar> &vars() const { return S->Vars; }

  /// Row \p R as a view.
  ModelConstraint row(int R) const {
    const Row &Rw = S->Rows[static_cast<std::size_t>(R)];
    return {RowExpr({S->Terms.data() + Rw.Begin, S->Terms.data() + Rw.End}),
            Rw.Cmp, Rw.Rhs};
  }
  /// Every row as a view, for range-for and indexing.
  auto constraints() const {
    return std::views::iota(0, numConstraints()) |
           std::views::transform([this](int R) { return row(R); });
  }
  const LinExpr &objective() const { return S->Objective; }

  /// \returns the value of \p Expr under assignment \p X.
  static double evaluate(const LinExpr &Expr, const std::vector<double> &X);

  /// \returns true if \p X satisfies all constraints and bounds within
  /// \p Tol (integrality of integer variables included).
  bool isFeasible(const std::vector<double> &X, double Tol = 1e-6) const;

  /// False when construction recorded a structural error (empty variable
  /// domain, non-finite bound or coefficient); the solver refuses invalid
  /// models with a typed error instead of computing on garbage.
  bool valid() const { return S->BuildError.empty(); }
  /// First construction error ("" when valid()).
  const std::string &buildError() const { return S->BuildError; }

private:
  /// Row R's terms are Terms[Begin, End).
  struct Row {
    int Begin;
    int End;
    CmpKind Cmp;
    double Rhs;
  };
  struct Store {
    std::vector<ModelVar> Vars;
    std::vector<LinTerm> Terms;
    std::vector<Row> Rows;
    LinExpr Objective;
    /// The expression scratchRow() hands out.
    LinExpr Scratch;
    std::string BuildError;

    void reset();
    std::size_t capacityBytes() const;
  };
  Recycled<Store> S;
};

} // namespace swp

#endif // SWP_SOLVER_MODEL_H
