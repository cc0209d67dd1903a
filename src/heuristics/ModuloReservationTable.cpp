//===- ModuloReservationTable.cpp - Shared MRT ----------------------------===//

#include "swp/heuristics/ModuloReservationTable.h"

#include "swp/support/Stopwatch.h"

#include <algorithm>
#include <cassert>

using namespace swp;

ModuloReservationTable::ModuloReservationTable(const MachineModel &Machine,
                                               int T)
    : Machine(Machine), T(T) {
  for (int R = 0; R < Machine.numTypes(); ++R) {
    const FuType &Ty = Machine.type(R);
    int Stages = Ty.Table.numStages();
    for (int V = 1; V < Ty.numVariants(); ++V)
      Stages = std::max(Stages, Ty.variant(V).numStages());
    Slots.emplace_back(static_cast<size_t>(Ty.Count),
                       std::vector<std::vector<int>>(
                           static_cast<size_t>(Stages),
                           std::vector<int>(static_cast<size_t>(T), -1)));
  }
  if (Machine.topologyConstrains()) {
    Topo = Machine.topology();
    RouteOcc.assign(static_cast<size_t>(Machine.totalUnits()),
                    std::vector<int>(static_cast<size_t>(T), -1));
  }
}

bool ModuloReservationTable::fits(const Ddg &G, int Node, int Time,
                                  int U) const {
  int R = G.node(Node).OpClass;
  const ReservationTable &Table = Machine.tableFor(G.node(Node));
  for (int S = 0; S < Table.numStages(); ++S)
    for (int L : Table.busyColumns(S)) {
      int Occ = Slots[static_cast<size_t>(R)][static_cast<size_t>(U)]
                     [static_cast<size_t>(S)]
                     [static_cast<size_t>((Time + L) % T)];
      if (Occ >= 0 && Occ != Node)
        return false;
    }
  return true;
}

template <typename Fn>
void ModuloReservationTable::forEachSlot(const Ddg &G, int Node, int Time,
                                         int U, Fn Apply) {
  int R = G.node(Node).OpClass;
  const ReservationTable &Table = Machine.tableFor(G.node(Node));
  for (int S = 0; S < Table.numStages(); ++S)
    for (int L : Table.busyColumns(S))
      Apply(Slots[static_cast<size_t>(R)][static_cast<size_t>(U)]
                 [static_cast<size_t>(S)]
                 [static_cast<size_t>((Time + L) % T)]);
}

void ModuloReservationTable::place(const Ddg &G, int Node, int Time, int U) {
  forEachSlot(G, Node, Time, U, [Node](int &Cell) { Cell = Node; });
}

void ModuloReservationTable::remove(const Ddg &G, int Node, int Time, int U) {
  forEachSlot(G, Node, Time, U, [](int &Cell) { Cell = -1; });
}

std::vector<int> ModuloReservationTable::conflicts(const Ddg &G, int Node,
                                                   int Time, int U) const {
  std::vector<int> Out;
  int R = G.node(Node).OpClass;
  const ReservationTable &Table = Machine.tableFor(G.node(Node));
  for (int S = 0; S < Table.numStages(); ++S)
    for (int L : Table.busyColumns(S)) {
      int Occ = Slots[static_cast<size_t>(R)][static_cast<size_t>(U)]
                     [static_cast<size_t>(S)]
                     [static_cast<size_t>((Time + L) % T)];
      if (Occ >= 0 && Occ != Node &&
          std::find(Out.begin(), Out.end(), Occ) == Out.end())
        Out.push_back(Occ);
    }
  return Out;
}

int ModuloReservationTable::maxRoutePenalty() const {
  return Topo ? Topo->maxRoutePenalty() : 0;
}

std::vector<ModuloReservationTable::RouteCell>
ModuloReservationTable::routeCellsOf(const DdgEdge &E, int SrcGU, int DstGU,
                                     int SrcTime) const {
  std::vector<RouteCell> Cells;
  int Hops = Topo->hops(SrcGU, DstGU);
  for (int Col : Topology::routeColumns(E.Latency, Hops, Topo->hopLatency()))
    Cells.push_back({SrcGU, ((SrcTime + Col) % T + T) % T});
  return Cells;
}

bool ModuloReservationTable::topoAdmits(const Ddg &G, int Node, int Time,
                                        int U,
                                        const std::vector<int> &Times,
                                        const std::vector<int> &Units) const {
  if (!Topo)
    return true;
  int GN = Machine.globalUnitIndex(G.node(Node).OpClass, U);
  std::vector<RouteCell> NewCells;
  for (const DdgEdge &E : G.edges()) {
    if (E.Src == E.Dst)
      continue; // Self-dependences stay on one unit: hops 0, no routing.
    int Other = E.Src == Node ? E.Dst : E.Dst == Node ? E.Src : -1;
    if (Other < 0 || Times[static_cast<size_t>(Other)] < 0)
      continue;
    int GO = Machine.globalUnitIndex(
        G.node(Other).OpClass, Units[static_cast<size_t>(Other)]);
    int GU = E.Src == Node ? GN : GO; // Producer's unit.
    int GV = E.Src == Node ? GO : GN;
    int TS = E.Src == Node ? Time : Times[static_cast<size_t>(Other)];
    int TD = E.Src == Node ? Times[static_cast<size_t>(Other)] : Time;
    if (!Topo->feedAllowed(GU, GV))
      return false;
    if (TD - TS < E.Latency + Topo->routePenalty(GU, GV) - T * E.Distance)
      return false;
    for (const RouteCell &C : routeCellsOf(E, GU, GV, TS)) {
      if (RouteOcc[static_cast<size_t>(C.Unit)]
                  [static_cast<size_t>(C.Slot)] >= 0)
        return false;
      for (const RouteCell &Prev : NewCells)
        if (Prev.Unit == C.Unit && Prev.Slot == C.Slot)
          return false;
      NewCells.push_back(C);
    }
  }
  return true;
}

std::vector<int> ModuloReservationTable::topoConflicts(
    const Ddg &G, int Node, int Time, int U, const std::vector<int> &Times,
    const std::vector<int> &Units) const {
  std::vector<int> Out;
  if (!Topo)
    return Out;
  auto AddVictim = [&Out](int V) {
    if (std::find(Out.begin(), Out.end(), V) == Out.end())
      Out.push_back(V);
  };
  int GN = Machine.globalUnitIndex(G.node(Node).OpClass, U);
  // (Cell, owning neighbor) pairs accepted so far this simulation; a later
  // edge colliding with one evicts its own neighbor instead.
  std::vector<std::pair<RouteCell, int>> NewCells;
  const auto &Edges = G.edges();
  for (size_t EIx = 0; EIx < Edges.size(); ++EIx) {
    const DdgEdge &E = Edges[EIx];
    if (E.Src == E.Dst)
      continue;
    int Other = E.Src == Node ? E.Dst : E.Dst == Node ? E.Src : -1;
    if (Other < 0 || Times[static_cast<size_t>(Other)] < 0)
      continue;
    if (std::find(Out.begin(), Out.end(), Other) != Out.end())
      continue; // Already evicted; its edges go away with it.
    int GO = Machine.globalUnitIndex(
        G.node(Other).OpClass, Units[static_cast<size_t>(Other)]);
    int GU = E.Src == Node ? GN : GO;
    int GV = E.Src == Node ? GO : GN;
    int TS = E.Src == Node ? Time : Times[static_cast<size_t>(Other)];
    int TD = E.Src == Node ? Times[static_cast<size_t>(Other)] : Time;
    if (!Topo->feedAllowed(GU, GV) ||
        TD - TS < E.Latency + Topo->routePenalty(GU, GV) - T * E.Distance) {
      AddVictim(Other);
      continue;
    }
    bool Evicted = false;
    std::vector<RouteCell> Cells = routeCellsOf(E, GU, GV, TS);
    for (size_t CIx = 0; CIx < Cells.size(); ++CIx) {
      const RouteCell &C = Cells[CIx];
      int Owner = RouteOcc[static_cast<size_t>(C.Unit)]
                          [static_cast<size_t>(C.Slot)];
      if (Owner >= 0) {
        // Evicting the committed edge's producer releases its cells.
        AddVictim(Edges[static_cast<size_t>(Owner)].Src);
        // The producer may be this very neighbor; either way this edge's
        // remaining cells stay needed, so keep scanning.
      }
      // An edge whose own columns fold onto one pattern step is infeasible
      // at this (T, placement distance) no matter what else is evicted;
      // dropping the other endpoint forces a different placement for it.
      for (size_t PIx = 0; PIx < CIx && !Evicted; ++PIx)
        if (Cells[PIx].Unit == C.Unit && Cells[PIx].Slot == C.Slot) {
          AddVictim(Other);
          Evicted = true;
        }
      for (const auto &Prev : NewCells)
        if (!Evicted && Prev.first.Unit == C.Unit &&
            Prev.first.Slot == C.Slot) {
          AddVictim(Other); // Intra-placement collision: drop this edge.
          Evicted = true;
        }
    }
    if (!Evicted)
      for (const RouteCell &C : Cells)
        NewCells.push_back({C, Other});
  }
  return Out;
}

void ModuloReservationTable::commitRoutes(const Ddg &G, int Node,
                                          const std::vector<int> &Times,
                                          const std::vector<int> &Units) {
  if (!Topo)
    return;
  const auto &Edges = G.edges();
  if (RouteCells.size() < Edges.size())
    RouteCells.resize(Edges.size());
  for (size_t EIx = 0; EIx < Edges.size(); ++EIx) {
    const DdgEdge &E = Edges[EIx];
    if (E.Src == E.Dst || (E.Src != Node && E.Dst != Node))
      continue;
    int Other = E.Src == Node ? E.Dst : E.Src;
    if (Times[static_cast<size_t>(Other)] < 0 ||
        !RouteCells[EIx].empty())
      continue;
    int GU = Machine.globalUnitIndex(G.node(E.Src).OpClass,
                                     Units[static_cast<size_t>(E.Src)]);
    int GV = Machine.globalUnitIndex(G.node(E.Dst).OpClass,
                                     Units[static_cast<size_t>(E.Dst)]);
    std::vector<RouteCell> Cells =
        routeCellsOf(E, GU, GV, Times[static_cast<size_t>(E.Src)]);
    for (const RouteCell &C : Cells) {
      assert(RouteOcc[static_cast<size_t>(C.Unit)]
                     [static_cast<size_t>(C.Slot)] < 0 &&
             "route cell already owned; placement was not admitted");
      RouteOcc[static_cast<size_t>(C.Unit)][static_cast<size_t>(C.Slot)] =
          static_cast<int>(EIx);
    }
    RouteCells[EIx] = std::move(Cells);
  }
}

void ModuloReservationTable::releaseRoutes(const Ddg &G, int Node) {
  if (!Topo || RouteCells.empty())
    return;
  const auto &Edges = G.edges();
  for (size_t EIx = 0; EIx < Edges.size() && EIx < RouteCells.size();
       ++EIx) {
    const DdgEdge &E = Edges[EIx];
    if (E.Src != Node && E.Dst != Node)
      continue;
    for (const RouteCell &C : RouteCells[EIx])
      if (RouteOcc[static_cast<size_t>(C.Unit)]
                  [static_cast<size_t>(C.Slot)] == static_cast<int>(EIx))
        RouteOcc[static_cast<size_t>(C.Unit)]
                [static_cast<size_t>(C.Slot)] = -1;
    RouteCells[EIx].clear();
  }
}

ModuloPlacer::ModuloPlacer(const Ddg &G, const MachineModel &Machine, int T)
    : G(G), Machine(Machine), T(T), Tables(Machine, T),
      Time(static_cast<size_t>(G.numNodes()), -1),
      Unit(static_cast<size_t>(G.numNodes()), -1),
      PrevTime(static_cast<size_t>(G.numNodes()), -1),
      Remaining(G.numNodes()), Budget(6 * G.numNodes()),
      TimeCap((G.numNodes() + 4) * std::max(T, 1) + 64) {}

void ModuloPlacer::place(int Node, int At, int U) {
  Tables.place(G, Node, At, U);
  Time[static_cast<size_t>(Node)] = At;
  Unit[static_cast<size_t>(Node)] = U;
  PrevTime[static_cast<size_t>(Node)] = At;
  Tables.commitRoutes(G, Node, Time, Unit);
  --Remaining;
}

void ModuloPlacer::unschedule(int Node) {
  Tables.releaseRoutes(G, Node);
  Tables.remove(G, Node, Time[static_cast<size_t>(Node)],
                Unit[static_cast<size_t>(Node)]);
  Time[static_cast<size_t>(Node)] = -1;
  Unit[static_cast<size_t>(Node)] = -1;
  ++Remaining;
}

bool ModuloPlacer::placeInWindow(int Node, int Lo, int Hi, bool Late) {
  const int Units = Machine.type(G.node(Node).OpClass).Count;
  for (int Step = 0; Step <= Hi - Lo; ++Step) {
    const int At = Late ? Hi - Step : Lo + Step;
    for (int U = 0; U < Units; ++U)
      if (Tables.fits(G, Node, At, U) &&
          Tables.topoAdmits(G, Node, At, U, Time, Unit)) {
        place(Node, At, U);
        return true;
      }
  }
  return false;
}

bool ModuloPlacer::forcePlace(int Node, int EStart) {
  int At = EStart;
  if (PrevTime[static_cast<size_t>(Node)] >= 0)
    At = std::max(At, PrevTime[static_cast<size_t>(Node)] + 1);
  if (At > TimeCap)
    return false;
  auto VictimsAt = [&](int U) {
    std::vector<int> V = Tables.conflicts(G, Node, At, U);
    for (int W : Tables.topoConflicts(G, Node, At, U, Time, Unit))
      if (std::find(V.begin(), V.end(), W) == V.end())
        V.push_back(W);
    return V;
  };
  int Best = 0;
  size_t BestConflicts = SIZE_MAX;
  for (int U = 0; U < Machine.type(G.node(Node).OpClass).Count; ++U) {
    size_t C = VictimsAt(U).size();
    if (C < BestConflicts) {
      BestConflicts = C;
      Best = U;
    }
  }
  for (int Victim : VictimsAt(Best))
    unschedule(Victim);
  place(Node, At, Best);
  return true;
}

bool ModuloPlacer::evictViolated(int Node, bool AlsoPreds) {
  const int At = Time[static_cast<size_t>(Node)];
  for (const DdgEdge &E : G.edges()) {
    if (E.Src == E.Dst)
      continue;
    if (E.Src == Node) {
      int TDst = Time[static_cast<size_t>(E.Dst)];
      if (TDst >= 0 && TDst < At + E.Latency - T * E.Distance)
        unschedule(E.Dst);
    } else if (AlsoPreds && E.Dst == Node) {
      int TSrc = Time[static_cast<size_t>(E.Src)];
      if (TSrc >= 0 && At < TSrc + E.Latency - T * E.Distance)
        unschedule(E.Src);
    }
  }
  for (const DdgEdge &E : G.edges())
    if (E.Src == Node && E.Dst == Node && 0 < E.Latency - T * E.Distance)
      return false;
  return true;
}

ModuloSchedule ModuloPlacer::take() {
  ModuloSchedule S;
  S.T = T;
  S.StartTime = std::move(Time);
  S.Mapping = std::move(Unit);
  return S;
}

std::vector<int> swp::longestPathsAtT(const Ddg &G, int T,
                                      PathDirection Dir) {
  std::vector<int> P;
  longestPaths(
      G, [T](const DdgEdge &E) { return E.Latency - T * E.Distance; }, P,
      Dir);
  return P;
}

SchedulerResult swp::heuristicSweep(const Ddg &G, const MachineModel &Machine,
                                    int MaxTSlack,
                                    std::initializer_list<HeuristicAtT> Chain) {
  SchedulerOptions Sweep;
  Sweep.MaxTSlack = MaxTSlack;
  std::vector<TStep> Steps;
  Steps.reserve(Chain.size());
  for (HeuristicAtT AtT : Chain)
    Steps.emplace_back([&G, &Machine, AtT](int T) {
      Stopwatch Watch;
      TStepResult R;
      if (AtT(G, Machine, T, R.Schedule))
        R.Attempt.Status = MilpStatus::Optimal;
      R.Attempt.Seconds = Watch.seconds();
      return R;
    });
  return searchRateOptimal(G, Machine, Sweep, Steps);
}
