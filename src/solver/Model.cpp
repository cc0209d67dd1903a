//===- Model.cpp - MILP model builder -------------------------------------===//

#include "swp/solver/Model.h"

#include "swp/support/Format.h"

#include <algorithm>
#include <cmath>

using namespace swp;

LinExpr &LinExpr::addScaled(const LinExpr &Other, double Scale) {
  for (const LinTerm &T : Other.Terms)
    add(T.Var, T.Coef * Scale);
  Constant += Other.Constant * Scale;
  return *this;
}

void LinExpr::normalize() {
  std::sort(Terms.begin(), Terms.end(),
            [](const LinTerm &A, const LinTerm &B) { return A.Var < B.Var; });
  // Merge runs of one variable in place, then drop zero coefficients.
  size_t Out = 0;
  for (size_t I = 0; I < Terms.size(); ++I) {
    if (Out > 0 && Terms[Out - 1].Var == Terms[I].Var)
      Terms[Out - 1].Coef += Terms[I].Coef;
    else
      Terms[Out++] = Terms[I];
  }
  Terms.resize(Out);
  Terms.erase(std::remove_if(Terms.begin(), Terms.end(),
                             [](const LinTerm &T) { return T.Coef == 0.0; }),
              Terms.end());
}

VarId MilpModel::addVar(double Lb, double Ub, VarKind Kind) {
  const VarId Id = static_cast<VarId>(Vars.size());
  // Record structural errors instead of aborting: the solver checks
  // valid() and reports a typed error, keeping malformed inputs inside
  // the failure domain.
  if (!(Lb <= Ub) && BuildError.empty())
    BuildError = strFormat("variable %d has empty domain", Id);
  else if ((std::isnan(Lb) || std::isnan(Ub) || std::isinf(Lb)) &&
           BuildError.empty())
    BuildError = strFormat("variable %d has a non-finite bound", Id);
  Vars.push_back({Lb, Ub, Kind, false, 0});
  return Id;
}

void MilpModel::addConstraint(LinExpr Expr, CmpKind Cmp, double Rhs) {
  Expr.normalize();
  double FoldedRhs = Rhs - Expr.constant();
  ModelConstraint C;
  C.Expr = std::move(Expr);
  C.Cmp = Cmp;
  C.Rhs = FoldedRhs;
  Constraints.push_back(std::move(C));
}

void MilpModel::setObjective(LinExpr Expr) {
  Expr.normalize();
  Objective = std::move(Expr);
}

double MilpModel::evaluate(const LinExpr &Expr, const std::vector<double> &X) {
  double V = Expr.constant();
  for (const LinTerm &T : Expr.terms())
    V += T.Coef * X[static_cast<size_t>(T.Var)];
  return V;
}

bool MilpModel::isFeasible(const std::vector<double> &X, double Tol) const {
  if (X.size() != Vars.size())
    return false;
  for (int I = 0; I < numVars(); ++I) {
    double V = X[static_cast<size_t>(I)];
    const ModelVar &MV = Vars[static_cast<size_t>(I)];
    if (V < MV.Lb - Tol || V > MV.Ub + Tol)
      return false;
    if (MV.Kind != VarKind::Continuous &&
        std::abs(V - std::round(V)) > Tol)
      return false;
  }
  for (const ModelConstraint &C : Constraints) {
    double V = evaluate(C.Expr, X);
    switch (C.Cmp) {
    case CmpKind::LE:
      if (V > C.Rhs + Tol)
        return false;
      break;
    case CmpKind::GE:
      if (V < C.Rhs - Tol)
        return false;
      break;
    case CmpKind::EQ:
      if (std::abs(V - C.Rhs) > Tol)
        return false;
      break;
    }
  }
  return true;
}
