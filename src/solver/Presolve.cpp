//===- Presolve.cpp - LP/MILP presolve ------------------------------------===//

#include "swp/solver/Presolve.h"

#include "swp/support/Format.h"

#include <cmath>

using namespace swp;

namespace {

constexpr double FixEps = 1e-9;
constexpr double RowTol = 1e-7;
constexpr double BoundTol = 1e-9;

bool isFixed(double Lb, double Ub) { return Ub - Lb <= FixEps; }

} // namespace

namespace {

/// The presolve fixed point for \p M over the bounds already in Info.Lb /
/// Info.Ub; fills every other field of \p Info.
void presolveBounds(const MilpModel &M, PresolveInfo &Info) {
  Info.Infeasible = false;
  Info.Reason.clear();
  Info.DropRow.assign(static_cast<size_t>(M.numConstraints()), 0);
  Info.NewlyFixed = 0;
  Info.DroppedRows = 0;
  Info.Sweeps = 0;

  // Bounds only ever tighten, so a fixed variable stays fixed: the
  // newly fixed count is the fixed count's growth.
  auto CountFixed = [&Info] {
    int Fixed = 0;
    for (size_t I = 0; I < Info.Lb.size(); ++I)
      Fixed += isFixed(Info.Lb[I], Info.Ub[I]) ? 1 : 0;
    return Fixed;
  };
  const int FixedBefore = CountFixed();
  auto Fail = [&](std::string Reason) {
    Info.Infeasible = true;
    Info.Reason = std::move(Reason);
    Info.NewlyFixed = CountFixed() - FixedBefore;
  };

  const int N = M.numVars();
  for (int I = 0; I < N; ++I)
    if (Info.Lb[static_cast<size_t>(I)] >
        Info.Ub[static_cast<size_t>(I)] + BoundTol)
      return Fail(strFormat("variable %d has contradictory bounds", I));

  // Fixed point: fixing a variable can turn another row into a singleton
  // or a tautology, so sweep until nothing moves (bounded for safety).
  const int MaxSweeps = M.numVars() + M.numConstraints() + 2;
  bool Changed = true;
  while (Changed && Info.Sweeps < MaxSweeps) {
    Changed = false;
    ++Info.Sweeps;
    for (int R = 0; R < M.numConstraints(); ++R) {
      if (Info.DropRow[static_cast<size_t>(R)])
        continue;
      const ModelConstraint C = M.row(R);
      double FixedSum = 0.0;
      int FreeCount = 0;
      int FreeVar = -1;
      double FreeCoef = 0.0;
      for (const LinTerm &T : C.Expr.terms()) {
        double L = Info.Lb[static_cast<size_t>(T.Var)];
        double U = Info.Ub[static_cast<size_t>(T.Var)];
        if (isFixed(L, U)) {
          FixedSum += T.Coef * L;
          continue;
        }
        ++FreeCount;
        FreeVar = T.Var;
        FreeCoef = T.Coef;
      }
      double Rhs = C.Rhs - FixedSum;

      if (FreeCount == 0) {
        // Pure consistency check: drop when satisfied, proof otherwise.
        bool Ok = true;
        switch (C.Cmp) {
        case CmpKind::LE:
          Ok = Rhs >= -RowTol;
          break;
        case CmpKind::GE:
          Ok = Rhs <= RowTol;
          break;
        case CmpKind::EQ:
          Ok = std::abs(Rhs) <= RowTol;
          break;
        }
        if (!Ok)
          return Fail(strFormat("row %d is empty and violated", R));
        Info.DropRow[static_cast<size_t>(R)] = 1;
        ++Info.DroppedRows;
        Changed = true;
        continue;
      }

      if (FreeCount != 1)
        continue;

      // Singleton row: an exact bound on its one free variable.
      double Val = Rhs / FreeCoef;
      double &VL = Info.Lb[static_cast<size_t>(FreeVar)];
      double &VU = Info.Ub[static_cast<size_t>(FreeVar)];
      bool TightenLb = false, TightenUb = false;
      switch (C.Cmp) {
      case CmpKind::EQ:
        TightenLb = TightenUb = true;
        break;
      case CmpKind::LE:
        (FreeCoef > 0 ? TightenUb : TightenLb) = true;
        break;
      case CmpKind::GE:
        (FreeCoef > 0 ? TightenLb : TightenUb) = true;
        break;
      }
      if (TightenLb && Val > VL + FixEps) {
        if (Val > VU + RowTol)
          return Fail(strFormat(
              "singleton row %d forces variable %d above its upper bound", R,
              FreeVar));
        VL = std::min(Val, VU); // Clamp away float dust past the bound.
        Changed = true;
      }
      if (TightenUb && Val < VU - FixEps) {
        if (Val < VL - RowTol)
          return Fail(strFormat(
              "singleton row %d forces variable %d below its lower bound", R,
              FreeVar));
        VU = std::max(Val, VL);
        Changed = true;
      }
      Info.DropRow[static_cast<size_t>(R)] = 1;
      ++Info.DroppedRows;
      Changed = true;
    }
  }
  Info.NewlyFixed = CountFixed() - FixedBefore;
}

} // namespace

PresolveInfo swp::presolveModel(const MilpModel &M,
                                const std::vector<double> &Lb,
                                const std::vector<double> &Ub) {
  PresolveInfo Info;
  Info.Lb = Lb;
  Info.Ub = Ub;
  presolveBounds(M, Info);
  return Info;
}

void swp::presolveModel(const MilpModel &M, PresolveInfo &Out) {
  Out.Lb.resize(static_cast<size_t>(M.numVars()));
  Out.Ub.resize(static_cast<size_t>(M.numVars()));
  for (int I = 0; I < M.numVars(); ++I) {
    Out.Lb[static_cast<size_t>(I)] = M.var(I).Lb;
    Out.Ub[static_cast<size_t>(I)] = M.var(I).Ub;
  }
  presolveBounds(M, Out);
}

PresolveInfo swp::presolveModel(const MilpModel &M) {
  PresolveInfo Info;
  presolveModel(M, Info);
  return Info;
}
