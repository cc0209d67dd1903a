//===- PlacementRules.cpp - Placement rules of the exact encodings --------===//

#include "swp/core/PlacementRules.h"

#include "swp/support/ThreadSpare.h"

#include <algorithm>

using namespace swp;

void PlacementRules::derive(const Ddg &Graph, const MachineModel &M,
                            MappingKind Kind) {
  reset();
  G = &Graph;
  Machine = &M;
  Mapping = Kind;

  int Base = 0;
  for (int R = 0; R < M.numTypes(); ++R) {
    TypeBegin.push_back(static_cast<int>(TypeOps.size()));
    int Stages = 0;
    for (int I = 0; I < Graph.numNodes(); ++I)
      if (Graph.node(I).OpClass == R) {
        TypeOps.push_back(I);
        Stages = std::max(Stages, M.tableFor(Graph.node(I)).numStages());
      }
    MaxStages.push_back(Stages);
    UnitBase.push_back(Base);
    Base += M.type(R).Count;
  }
  TypeBegin.push_back(static_cast<int>(TypeOps.size()));

  if (Kind != MappingKind::Fixed || !M.topologyConstrains())
    return;
  Topo = M.topology();

  // Route indicators: per edge and producer unit, one per hop count c >= 2
  // at which some consumer unit may be fed, up to the farthest one.
  const std::vector<DdgEdge> &Edges = Graph.edges();
  for (std::size_t EIx = 0; EIx < Edges.size(); ++EIx) {
    const DdgEdge &E = Edges[EIx];
    if (E.Src == E.Dst)
      continue;
    const int Ri = Graph.node(E.Src).OpClass, Rj = Graph.node(E.Dst).OpClass;
    for (int U = 0; U < M.type(Ri).Count; ++U) {
      const int GU = globalUnit(Ri, U);
      for (int C = 2;; ++C) {
        const int Begin = static_cast<int>(RouteConsumers.size());
        bool AnyBeyond = false;
        for (int V = 0; V < M.type(Rj).Count; ++V) {
          const int GV = globalUnit(Rj, V);
          if (!Topo->feedAllowed(GU, GV))
            continue;
          const int H = Topo->hops(GU, GV);
          if (H == C)
            RouteConsumers.push_back(V);
          else if (H > C)
            AnyBeyond = true;
        }
        const int End = static_cast<int>(RouteConsumers.size());
        if (Begin == End) {
          if (!AnyBeyond)
            break;
          continue;
        }
        const std::vector<int> Cols =
            Topology::routeColumns(E.Latency, C, Topo->hopLatency());
        Routes.push_back({static_cast<int>(EIx), E.Src, U, GU, C, Begin, End,
                          static_cast<int>(RouteCols.size()),
                          static_cast<int>(RouteCols.size() + Cols.size())});
        RouteCols.insert(RouteCols.end(), Cols.begin(), Cols.end());
      }
    }
  }

  for (int R = 0; R < M.numTypes(); ++R) {
    if (ops(R).empty())
      continue;
    for (const std::vector<int> &Class : Topo->interchangeClasses(
             globalUnit(R, 0), globalUnit(R, M.type(R).Count))) {
      Classes.push_back({R, static_cast<int>(ClassUnits.size()),
                         static_cast<int>(ClassUnits.size() + Class.size())});
      for (int GU : Class)
        ClassUnits.push_back(GU - globalUnit(R, 0));
    }
  }
}

bool PlacementRules::separatesUnits(int R) const {
  const int NumOps = static_cast<int>(ops(R).size());
  return Mapping == MappingKind::Fixed &&
         (Topo ? NumOps >= 2 : NumOps > Machine->type(R).Count);
}

bool PlacementRules::collisionOffsets(int OpI, int OpJ, int T) {
  const ReservationTable &TI = Machine->tableFor(G->node(OpI));
  const ReservationTable &TJ = Machine->tableFor(G->node(OpJ));
  Collide.resize(static_cast<std::size_t>(T));
  bool Any = false;
  for (int Delta = 0; Delta < T; ++Delta) {
    Collide[static_cast<std::size_t>(Delta)] =
        tablesConflictAtOffset(TI, TJ, Delta, T);
    Any = Any || Collide[static_cast<std::size_t>(Delta)];
  }
  return Any;
}

bool PlacementRules::routeSelfCollides(const Route &Rt, int T) const {
  const std::span<const int> Cols = columns(Rt);
  for (std::size_t A = 0; A < Cols.size(); ++A)
    for (std::size_t B = A + 1; B < Cols.size(); ++B)
      if ((Cols[A] - Cols[B]) % T == 0)
        return true;
  return false;
}

void PlacementRules::reset() {
  Topo = nullptr;
  for (std::vector<int> *V : {&TypeOps, &TypeBegin, &MaxStages, &UnitBase,
                              &RouteConsumers, &RouteCols, &ClassUnits, &Steps})
    V->clear();
  Routes.clear();
  Classes.clear();
  Collide.clear();
}

std::size_t PlacementRules::capacityBytes() const {
  std::size_t Sum = heapBytes(Routes) + heapBytes(Classes) + heapBytes(Collide);
  for (const std::vector<int> *V : {&TypeOps, &TypeBegin, &MaxStages,
                                    &UnitBase, &RouteConsumers, &RouteCols,
                                    &ClassUnits, &Steps})
    Sum += heapBytes(*V);
  return Sum;
}
