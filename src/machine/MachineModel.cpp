//===- MachineModel.cpp - Target machine descriptions ---------------------===//

#include "swp/machine/MachineModel.h"

#include <algorithm>

using namespace swp;

int MachineModel::findType(const std::string &Name) const {
  for (int R = 0; R < numTypes(); ++R)
    if (Types[static_cast<size_t>(R)].Name == Name)
      return R;
  return -1;
}

int MachineModel::totalUnits() const {
  int Total = 0;
  for (const FuType &T : Types)
    Total += T.Count;
  return Total;
}

int MachineModel::globalUnitIndex(int R, int Unit) const {
  assert(R >= 0 && R < numTypes() && "bad type index");
  assert(Unit >= 0 && Unit < Types[static_cast<size_t>(R)].Count &&
         "bad unit index");
  int Base = 0;
  for (int I = 0; I < R; ++I)
    Base += Types[static_cast<size_t>(I)].Count;
  return Base + Unit;
}

bool MachineModel::acceptsDdg(const Ddg &G) const {
  if (!G.isWellFormed(numTypes())) // Also range-checks every OpClass.
    return false;
  for (const DdgNode &N : G.nodes())
    if (N.Variant < 0 ||
        N.Variant >= Types[static_cast<size_t>(N.OpClass)].numVariants())
      return false;
  return true;
}

int MachineModel::resourceMii(const Ddg &G) const {
  assert(acceptsDdg(G) && "DDG does not fit this machine");
  int Best = 0;
  for (int R = 0; R < numTypes(); ++R) {
    const FuType &Ty = Types[static_cast<size_t>(R)];
    int MaxStages = 0; // Zero when no node uses the type.
    for (const DdgNode &N : G.nodes())
      if (N.OpClass == R)
        MaxStages = std::max(MaxStages, tableFor(N).numStages());
    for (int S = 0; S < MaxStages; ++S) {
      int Demand = 0; // Stage-cycles per iteration.
      for (const DdgNode &N : G.nodes()) {
        if (N.OpClass != R)
          continue;
        const ReservationTable &Table = tableFor(N);
        if (S < Table.numStages())
          Demand += static_cast<int>(Table.busyColumns(S).size());
      }
      int Supply = Ty.Count; // Stage-cycles per cycle.
      Best = std::max(Best, (Demand + Supply - 1) / Supply);
    }
  }
  return Best;
}

bool MachineModel::moduloFeasible(const Ddg &G, int T) const {
  for (const DdgNode &N : G.nodes())
    if (!tableFor(N).satisfiesModuloConstraint(T))
      return false;
  return true;
}
