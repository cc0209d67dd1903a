//===- Verifier.cpp - Schedule legality checking --------------------------===//

#include "swp/core/Verifier.h"

#include "swp/support/Format.h"

#include <algorithm>
#include <map>
#include <tuple>

using namespace swp;

namespace {

VerifyResult fail(std::string Msg) {
  VerifyResult R;
  R.Ok = false;
  R.Error = std::move(Msg);
  return R;
}

} // namespace

VerifyResult swp::verifySchedule(const Ddg &G, const MachineModel &Machine,
                                 const ModuloSchedule &S) {
  const int N = G.numNodes();
  if (S.T < 1)
    return fail("period T must be >= 1");
  if (static_cast<int>(S.StartTime.size()) != N)
    return fail("start-time vector size mismatch");
  if (S.hasMapping() && static_cast<int>(S.Mapping.size()) != N)
    return fail("mapping vector size mismatch");
  if (!Machine.acceptsDdg(G))
    return fail("malformed DDG for this machine");

  for (int I = 0; I < N; ++I)
    if (S.StartTime[static_cast<size_t>(I)] < 0)
      return fail(strFormat("negative start time for %s",
                            G.node(I).Name.c_str()));

  // Dependences: t_j - t_i >= latency - T*m_ij (paper Eq. 4/8).
  for (const DdgEdge &E : G.edges()) {
    int Ti = S.StartTime[static_cast<size_t>(E.Src)];
    int Tj = S.StartTime[static_cast<size_t>(E.Dst)];
    if (Tj - Ti < E.Latency - S.T * E.Distance)
      return fail(strFormat(
          "dependence %s -> %s violated: %d - %d < %d - %d*%d",
          G.node(E.Src).Name.c_str(), G.node(E.Dst).Name.c_str(), Tj, Ti,
          E.Latency, S.T, E.Distance));
  }

  // Modulo-scheduling precondition per used table (variant-aware).
  for (int I = 0; I < N; ++I)
    if (!Machine.tableFor(G.node(I)).satisfiesModuloConstraint(S.T))
      return fail(strFormat("%s violates the modulo constraint at T=%d",
                            G.node(I).Name.c_str(), S.T));

  if (S.hasMapping()) {
    // Exact per-unit conflict check via reservation-table offset deltas.
    for (int R = 0; R < Machine.numTypes(); ++R) {
      const FuType &Ty = Machine.type(R);
      for (int A = 0; A < N; ++A) {
        if (G.node(A).OpClass != R)
          continue;
        int U = S.Mapping[static_cast<size_t>(A)];
        if (U < 0 || U >= Ty.Count)
          return fail(strFormat("instruction %s mapped to bad unit %d",
                                G.node(A).Name.c_str(), U));
        for (int B = A + 1; B < N; ++B) {
          if (G.node(B).OpClass != R || S.Mapping[static_cast<size_t>(B)] != U)
            continue;
          int Delta = ((S.offset(B) - S.offset(A)) % S.T + S.T) % S.T;
          if (tablesConflictAtOffset(Machine.tableFor(G.node(A)),
                                     Machine.tableFor(G.node(B)), Delta, S.T))
            return fail(strFormat("%s and %s collide on unit %s#%d",
                                  G.node(A).Name.c_str(),
                                  G.node(B).Name.c_str(), Ty.Name.c_str(), U));
        }
      }
    }

    if (Machine.topologyConstrains()) {
      const Topology &Topo = *Machine.topology();
      // Per-edge placement legality: reachability, hop bound, and the
      // route-penalty-tightened dependence window.
      for (const DdgEdge &E : G.edges()) {
        int U = Machine.globalUnitIndex(G.node(E.Src).OpClass,
                                        S.Mapping[static_cast<size_t>(E.Src)]);
        int V = Machine.globalUnitIndex(G.node(E.Dst).OpClass,
                                        S.Mapping[static_cast<size_t>(E.Dst)]);
        if (!Topo.feedAllowed(U, V))
          return fail(strFormat(
              "topology forbids %s (%s) feeding %s (%s)",
              G.node(E.Src).Name.c_str(), Topo.unitName(U).c_str(),
              G.node(E.Dst).Name.c_str(), Topo.unitName(V).c_str()));
        int Rho = Topo.routePenalty(U, V);
        int Ti = S.StartTime[static_cast<size_t>(E.Src)];
        int Tj = S.StartTime[static_cast<size_t>(E.Dst)];
        if (Tj - Ti < E.Latency + Rho - S.T * E.Distance)
          return fail(strFormat(
              "routed dependence %s -> %s violated: %d - %d < %d + %d - %d*%d",
              G.node(E.Src).Name.c_str(), G.node(E.Dst).Name.c_str(), Tj, Ti,
              E.Latency, Rho, S.T, E.Distance));
      }
      // ROUTE-stage capacity: each multi-hop value occupies its producer's
      // unit at the in-flight cycles; capacity 1 per (unit, cycle mod T).
      std::map<std::pair<int, int>, int> RouteOwner; // (unit, slot) -> edge#
      for (size_t EI = 0; EI < G.edges().size(); ++EI) {
        const DdgEdge &E = G.edges()[EI];
        int U = Machine.globalUnitIndex(G.node(E.Src).OpClass,
                                        S.Mapping[static_cast<size_t>(E.Src)]);
        int V = Machine.globalUnitIndex(G.node(E.Dst).OpClass,
                                        S.Mapping[static_cast<size_t>(E.Dst)]);
        int Ti = S.StartTime[static_cast<size_t>(E.Src)];
        for (int Col : Topology::routeColumns(E.Latency, Topo.hops(U, V),
                                              Topo.hopLatency())) {
          int Slot = (Ti + Col) % S.T;
          auto Ins = RouteOwner.emplace(std::make_pair(U, Slot),
                                        static_cast<int>(EI));
          if (!Ins.second)
            return fail(strFormat(
                "route cells collide on %s at pattern step %d "
                "(edges %s->%s and %s->%s)",
                Topo.unitName(U).c_str(), Slot,
                G.node(G.edges()[static_cast<size_t>(Ins.first->second)].Src)
                    .Name.c_str(),
                G.node(G.edges()[static_cast<size_t>(Ins.first->second)].Dst)
                    .Name.c_str(),
                G.node(E.Src).Name.c_str(), G.node(E.Dst).Name.c_str()));
        }
      }
    }
    return {true, ""};
  }

  // Run-time mapping: aggregate per-(stage, slot) usage within capacity.
  std::vector<int> Usage(static_cast<size_t>(S.T));
  for (int R = 0; R < Machine.numTypes(); ++R) {
    const FuType &Ty = Machine.type(R);
    int MaxStages = 0; // Zero when no node uses the type.
    for (int Op = 0; Op < N; ++Op)
      if (G.node(Op).OpClass == R)
        MaxStages = std::max(MaxStages,
                             Machine.tableFor(G.node(Op)).numStages());
    for (int Stage = 0; Stage < MaxStages; ++Stage) {
      std::fill(Usage.begin(), Usage.end(), 0);
      for (int Op = 0; Op < N; ++Op) {
        if (G.node(Op).OpClass != R)
          continue;
        const ReservationTable &Table = Machine.tableFor(G.node(Op));
        if (Stage >= Table.numStages())
          continue;
        for (int L : Table.busyColumns(Stage))
          ++Usage[static_cast<size_t>((S.offset(Op) + L) % S.T)];
      }
      for (int Slot = 0; Slot < S.T; ++Slot)
        if (Usage[static_cast<size_t>(Slot)] > Ty.Count)
          return fail(strFormat(
              "type %s stage %d oversubscribed at pattern step %d (%d > %d)",
              Ty.Name.c_str(), Stage + 1, Slot,
              Usage[static_cast<size_t>(Slot)], Ty.Count));
    }
  }
  return {true, ""};
}

bool swp::simulateRunTimeMapping(const Ddg &G, const MachineModel &Machine,
                                 const ModuloSchedule &S, int Iterations,
                                 std::string *ErrorOut) {
  // Busy[(Type, Unit)][(Stage, AbsoluteCycle)] occupancy, built greedily in
  // dynamic issue order (the hardware picks the lowest free unit).
  struct Instance {
    int Node;
    int Iter;
    int Start;
  };
  std::vector<Instance> Instances;
  for (int J = 0; J < Iterations; ++J)
    for (int I = 0; I < G.numNodes(); ++I)
      Instances.push_back({I, J, J * S.T + S.StartTime[static_cast<size_t>(I)]});
  std::sort(Instances.begin(), Instances.end(),
            [](const Instance &A, const Instance &B) {
              if (A.Start != B.Start)
                return A.Start < B.Start;
              return A.Node < B.Node;
            });

  // Occupancy map: key = (type, unit, stage, cycle).
  std::map<std::tuple<int, int, int, int>, bool> Busy;
  for (const Instance &Inst : Instances) {
    int R = G.node(Inst.Node).OpClass;
    const FuType &Ty = Machine.type(R);
    const ReservationTable &Table = Machine.tableFor(G.node(Inst.Node));
    bool Placed = false;
    for (int U = 0; U < Ty.Count && !Placed; ++U) {
      bool Free = true;
      for (int Stage = 0; Stage < Table.numStages() && Free; ++Stage)
        for (int L : Table.busyColumns(Stage))
          if (Busy.count({R, U, Stage, Inst.Start + L})) {
            Free = false;
            break;
          }
      if (!Free)
        continue;
      for (int Stage = 0; Stage < Table.numStages(); ++Stage)
        for (int L : Table.busyColumns(Stage))
          Busy[{R, U, Stage, Inst.Start + L}] = true;
      Placed = true;
    }
    if (!Placed) {
      if (ErrorOut)
        *ErrorOut = strFormat("no free %s unit for %s (iteration %d) at t=%d",
                              Ty.Name.c_str(), G.node(Inst.Node).Name.c_str(),
                              Inst.Iter, Inst.Start);
      return false;
    }
  }
  return true;
}
