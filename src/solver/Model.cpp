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
  const VarId Id = static_cast<VarId>(S->Vars.size());
  // Record structural errors instead of aborting: the solver checks
  // valid() and reports a typed error, keeping malformed inputs inside
  // the failure domain.
  std::string &BuildError = S->BuildError;
  if (!(Lb <= Ub) && BuildError.empty())
    BuildError = strFormat("variable %d has empty domain", Id);
  else if ((std::isnan(Lb) || std::isnan(Ub) || std::isinf(Lb)) &&
           BuildError.empty())
    BuildError = strFormat("variable %d has a non-finite bound", Id);
  S->Vars.push_back({Lb, Ub, Kind, false, 0});
  return Id;
}

void MilpModel::addConstraint(LinExpr &Expr, CmpKind Cmp, double Rhs) {
  Expr.normalize();
  const int Begin = static_cast<int>(S->Terms.size());
  S->Terms.insert(S->Terms.end(), Expr.terms().begin(), Expr.terms().end());
  S->Rows.push_back({Begin, static_cast<int>(S->Terms.size()), Cmp,
                     Rhs - Expr.constant()});
}

void MilpModel::setObjective(LinExpr Expr) {
  Expr.normalize();
  S->Objective = std::move(Expr);
}

void MilpModel::addObjectiveTerm(VarId Var, double Coef) {
  S->Objective.add(Var, Coef);
  S->Objective.normalize();
}

void MilpModel::Store::reset() {
  Vars.clear();
  Terms.clear();
  Rows.clear();
  Objective.clear();
  Scratch.clear();
  BuildError.clear();
}

std::size_t MilpModel::Store::capacityBytes() const {
  return heapBytes(Vars) + heapBytes(Terms) + heapBytes(Rows) +
         heapBytes(Objective.terms()) + heapBytes(Scratch.terms()) +
         BuildError.capacity();
}

double MilpModel::evaluate(const LinExpr &Expr, const std::vector<double> &X) {
  double V = Expr.constant();
  for (const LinTerm &T : Expr.terms())
    V += T.Coef * X[static_cast<size_t>(T.Var)];
  return V;
}

bool MilpModel::isFeasible(const std::vector<double> &X, double Tol) const {
  if (X.size() != S->Vars.size())
    return false;
  for (int I = 0; I < numVars(); ++I) {
    double V = X[static_cast<size_t>(I)];
    const ModelVar &MV = S->Vars[static_cast<size_t>(I)];
    if (V < MV.Lb - Tol || V > MV.Ub + Tol)
      return false;
    if (MV.Kind != VarKind::Continuous &&
        std::abs(V - std::round(V)) > Tol)
      return false;
  }
  for (const ModelConstraint &C : constraints()) {
    double V = 0.0;
    for (const LinTerm &T : C.Expr.terms())
      V += T.Coef * X[static_cast<size_t>(T.Var)];
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
