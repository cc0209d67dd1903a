//===- CnfEncoder.cpp - Scheduling-to-CNF encoder -------------------------===//

#include "swp/sat/CnfEncoder.h"

#include "swp/ddg/Analysis.h"

#include <algorithm>
#include <cassert>
#include <span>

using namespace swp;

namespace {

/// Guarded Sinz sequential-counter encoding of sum(X) <= K.  Aux variables
/// R[i][j] = Base + i*K + j read "at least j+1 of X[0..i] are true"; every
/// clause carries \p Guard so the whole row retracts with its period
/// selector.
void sinzAtMost(CdclSolver &S, std::span<const SatLit> X, int K,
                SatLit Guard) {
  const int N = static_cast<int>(X.size());
  assert(N > K && K >= 1 && "caller skips vacuous rows");
  const int Base = S.newVars((N - 1) * K);
  auto at = [Base, K](int I, int J) { return Base + I * K + J; };
  S.addClause({Guard, litNot(X[0]), mkLit(at(0, 0))});
  for (int J = 1; J < K; ++J)
    S.addClause({Guard, mkLit(at(0, J), true)});
  for (int I = 1; I < N - 1; ++I) {
    S.addClause({Guard, litNot(X[static_cast<std::size_t>(I)]),
                 mkLit(at(I, 0))});
    S.addClause({Guard, mkLit(at(I - 1, 0), true), mkLit(at(I, 0))});
    for (int J = 1; J < K; ++J) {
      S.addClause({Guard, litNot(X[static_cast<std::size_t>(I)]),
                   mkLit(at(I - 1, J - 1), true), mkLit(at(I, J))});
      S.addClause({Guard, mkLit(at(I - 1, J), true), mkLit(at(I, J))});
    }
    S.addClause({Guard, litNot(X[static_cast<std::size_t>(I)]),
                 mkLit(at(I - 1, K - 1), true)});
  }
  S.addClause({Guard, litNot(X[static_cast<std::size_t>(N - 1)]),
               mkLit(at(N - 2, K - 1), true)});
}

} // namespace

CnfEncoder::CnfEncoder(const Ddg &Graph, const MachineModel &M,
                       MappingKind Kind, CdclSolver &Solver)
    : G(Graph), Machine(M), Mapping(Kind), S(Solver) {
  TDep = recurrenceMii(G);
  const int N = G.numNodes();
  ColorVar.resize(static_cast<std::size_t>(N));
  OverlapByPair.assign(static_cast<std::size_t>(N) *
                           static_cast<std::size_t>(N),
                       -1);
  OpsOfType.resize(static_cast<std::size_t>(Machine.numTypes()));
  for (int R = 0; R < Machine.numTypes(); ++R)
    OpsOfType[static_cast<std::size_t>(R)] = G.nodesOfClass(R);
  TopoPath = Kind == MappingKind::Fixed && Machine.topologyConstrains();
  if (TopoPath)
    buildInstanceSkeleton();
  else
    buildColoringSkeleton();
}

bool CnfEncoder::triviallyInfeasible(int T) const {
  if (T < 1 || T < TDep)
    return true;
  for (const DdgEdge &E : G.edges())
    if (E.Src == E.Dst && E.Latency - T * E.Distance > 0)
      return true;
  return !Machine.moduloFeasible(G, T);
}

void CnfEncoder::buildColoringSkeleton() {
  // T-independent coloring block: one-hot colors with lexicographic
  // symmetry breaking (op Ix of its type uses colors 0..min(Ix, R-1)),
  // only for fixed mapping on types with more ops than units — other
  // types always admit a greedy completion (see decode()).
  if (Mapping != MappingKind::Fixed)
    return;
  for (int R = 0; R < Machine.numTypes(); ++R) {
    const std::vector<int> &Ops = OpsOfType[static_cast<std::size_t>(R)];
    const int Count = Machine.type(R).Count;
    if (Count < 2 || static_cast<int>(Ops.size()) <= Count)
      continue;
    for (std::size_t Ix = 0; Ix < Ops.size(); ++Ix) {
      const int Ub = std::min(static_cast<int>(Ix) + 1, Count);
      std::vector<int> &Cv = ColorVar[static_cast<std::size_t>(Ops[Ix])];
      Cv.resize(static_cast<std::size_t>(Ub));
      ClauseBuf.clear();
      for (int U = 0; U < Ub; ++U) {
        Cv[static_cast<std::size_t>(U)] = S.newVar();
        ClauseBuf.push_back(mkLit(Cv[static_cast<std::size_t>(U)]));
      }
      S.addClause(ClauseBuf);
      for (int U = 0; U < Ub; ++U)
        for (int V = U + 1; V < Ub; ++V)
          S.addClause({mkLit(Cv[static_cast<std::size_t>(U)], true),
                       mkLit(Cv[static_cast<std::size_t>(V)], true)});
    }
  }
}

void CnfEncoder::buildInstanceSkeleton() {
  // T-independent instance block: colors cannot express adjacency, so the
  // topology path names units explicitly via x[i][u] one-hots.
  Topo = Machine.topology();
  UnitBase.assign(static_cast<std::size_t>(Machine.numTypes()), 0);
  for (int R = 1; R < Machine.numTypes(); ++R)
    UnitBase[static_cast<std::size_t>(R)] =
        UnitBase[static_cast<std::size_t>(R) - 1] + Machine.type(R - 1).Count;

  const int N = G.numNodes();
  InstVar.resize(static_cast<std::size_t>(N));
  for (int I = 0; I < N; ++I) {
    const int Count = Machine.type(G.node(I).OpClass).Count;
    std::vector<int> &Xv = InstVar[static_cast<std::size_t>(I)];
    Xv.resize(static_cast<std::size_t>(Count));
    ClauseBuf.clear();
    for (int U = 0; U < Count; ++U) {
      Xv[static_cast<std::size_t>(U)] = S.newVar();
      ClauseBuf.push_back(mkLit(Xv[static_cast<std::size_t>(U)]));
    }
    S.addClause(ClauseBuf);
    for (int U = 0; U < Count; ++U)
      for (int V = U + 1; V < Count; ++V)
        S.addClause({mkLit(Xv[static_cast<std::size_t>(U)], true),
                     mkLit(Xv[static_cast<std::size_t>(V)], true)});
  }

  // Interchange-class symmetry breaking (the x-space analogue of the
  // lexicographic color caps): within a class of swap-invariant units,
  // members are used in first-use order — op a may sit on member b only
  // if an earlier op of its type uses member b-1.
  for (int R = 0; R < Machine.numTypes(); ++R) {
    const std::vector<int> &Ops = OpsOfType[static_cast<std::size_t>(R)];
    const int Count = Machine.type(R).Count;
    if (Ops.empty() || Count < 2)
      continue;
    const int Base = UnitBase[static_cast<std::size_t>(R)];
    for (const std::vector<int> &Class :
         Topo->interchangeClasses(Base, Base + Count)) {
      for (std::size_t BIx = 1; BIx < Class.size(); ++BIx) {
        const int Prev = Class[BIx - 1] - Base;
        const int Cur = Class[BIx] - Base;
        for (std::size_t AIx = 0; AIx < Ops.size(); ++AIx) {
          ClauseBuf.clear();
          ClauseBuf.push_back(
              mkLit(InstVar[static_cast<std::size_t>(Ops[AIx])]
                           [static_cast<std::size_t>(Cur)],
                    true));
          for (std::size_t E = 0; E < AIx; ++E)
            ClauseBuf.push_back(
                mkLit(InstVar[static_cast<std::size_t>(Ops[E])]
                             [static_cast<std::size_t>(Prev)]));
          S.addClause(ClauseBuf);
        }
      }
    }
  }

  // Forbidden placements: unreachable / over-MaxHops producer-consumer
  // unit pairs per DDG edge.  Unguarded — adjacency is T-independent.
  for (const DdgEdge &E : G.edges()) {
    if (E.Src == E.Dst)
      continue;
    const int Ri = G.node(E.Src).OpClass, Rj = G.node(E.Dst).OpClass;
    for (int U = 0; U < Machine.type(Ri).Count; ++U) {
      const int GU = UnitBase[static_cast<std::size_t>(Ri)] + U;
      for (int V = 0; V < Machine.type(Rj).Count; ++V) {
        const int GV = UnitBase[static_cast<std::size_t>(Rj)] + V;
        if (!Topo->feedAllowed(GU, GV))
          S.addClause({mkLit(InstVar[static_cast<std::size_t>(E.Src)]
                                    [static_cast<std::size_t>(U)],
                             true),
                       mkLit(InstVar[static_cast<std::size_t>(E.Dst)]
                                    [static_cast<std::size_t>(V)],
                             true)});
      }
    }
  }

  // Route indicators y[e][u][c] (value of edge e leaves unit u across
  // exactly c >= 2 hops): forced to 1 by any (x_iu, x_jv) pair at hop
  // distance c; their ROUTE-cell collisions are forbidden per period in
  // encodePeriod, over the columns computed here once per route.
  for (std::size_t EIx = 0; EIx < G.edges().size(); ++EIx) {
    const DdgEdge &E = G.edges()[EIx];
    if (E.Src == E.Dst)
      continue;
    const int Ri = G.node(E.Src).OpClass, Rj = G.node(E.Dst).OpClass;
    for (int U = 0; U < Machine.type(Ri).Count; ++U) {
      const int GU = UnitBase[static_cast<std::size_t>(Ri)] + U;
      for (int C = 2;; ++C) {
        std::vector<int> Consumers;
        bool AnyBeyond = false;
        for (int V = 0; V < Machine.type(Rj).Count; ++V) {
          const int GV = UnitBase[static_cast<std::size_t>(Rj)] + V;
          if (!Topo->feedAllowed(GU, GV))
            continue;
          const int H = Topo->hops(GU, GV);
          if (H == C)
            Consumers.push_back(V);
          else if (H > C)
            AnyBeyond = true;
        }
        if (Consumers.empty()) {
          if (!AnyBeyond)
            break;
          continue;
        }
        const int Y = S.newVar();
        const std::vector<int> Cols =
            Topology::routeColumns(E.Latency, C, Topo->hopLatency());
        RouteVars.push_back({static_cast<int>(EIx), GU, C, Y,
                             static_cast<int>(RouteCols.size()),
                             static_cast<int>(RouteCols.size() + Cols.size())});
        RouteCols.insert(RouteCols.end(), Cols.begin(), Cols.end());
        for (int V : Consumers)
          S.addClause({mkLit(Y),
                       mkLit(InstVar[static_cast<std::size_t>(E.Src)]
                                    [static_cast<std::size_t>(U)],
                             true),
                       mkLit(InstVar[static_cast<std::size_t>(E.Dst)]
                                    [static_cast<std::size_t>(V)],
                             true)});
      }
    }
  }
}

int CnfEncoder::overlapVar(int NodeI, int NodeJ) {
  const std::size_t Key = static_cast<std::size_t>(NodeI) *
                              static_cast<std::size_t>(G.numNodes()) +
                          static_cast<std::size_t>(NodeJ);
  int &O = OverlapByPair[Key];
  if (O >= 0)
    return O;
  O = S.newVar();
  // Overlapping same-type ops must map to different units: forbid every
  // shared color (or shared instance on the topology path) once the
  // overlap indicator is raised.  Unguarded — the implication is
  // period-independent (o_ij is only *forced* per period).
  const std::vector<int> &Ci =
      TopoPath ? InstVar[static_cast<std::size_t>(NodeI)]
               : ColorVar[static_cast<std::size_t>(NodeI)];
  const std::vector<int> &Cj =
      TopoPath ? InstVar[static_cast<std::size_t>(NodeJ)]
               : ColorVar[static_cast<std::size_t>(NodeJ)];
  const std::size_t Shared = std::min(Ci.size(), Cj.size());
  for (std::size_t U = 0; U < Shared; ++U)
    S.addClause({mkLit(O, true), mkLit(Ci[U], true), mkLit(Cj[U], true)});
  return O;
}

void CnfEncoder::ensureRows(int T) {
  const int N = G.numNodes();
  while (static_cast<int>(ARowBase.size()) < T) {
    const int Base = S.newVars(N);
    const int Prev = static_cast<int>(ARowBase.size());
    // Unguarded at-most-one per column: a[t][i] rows beyond the assumed
    // period are then forced off by the guarded at-least-one below it.
    for (int I = 0; I < N; ++I)
      for (int Pt = 0; Pt < Prev; ++Pt)
        S.addClause({mkLit(Base + I, true), mkLit(aVar(Pt, I), true)});
    ARowBase.push_back(Base);
  }
}

SatLit CnfEncoder::selector(int T) {
  assert(!triviallyInfeasible(T) && "encode only searchable periods");
  if (static_cast<int>(SelVar.size()) <= T)
    SelVar.resize(static_cast<std::size_t>(T) + 1, -1);
  int &Sel = SelVar[static_cast<std::size_t>(T)];
  if (Sel < 0) {
    ensureRows(T);
    Sel = S.newVar();
    encodePeriod(T, Sel);
  }
  return mkLit(Sel);
}

void CnfEncoder::encodePeriod(int T, int Sel) {
  const SatLit NS = mkLit(Sel, true);
  const int N = G.numNodes();

  // At-least-one offset in [0,T) per instruction (Eq. 9/23 at this T).
  for (int I = 0; I < N; ++I) {
    ClauseBuf.clear();
    ClauseBuf.push_back(NS);
    for (int Row = 0; Row < T; ++Row)
      ClauseBuf.push_back(mkLit(aVar(Row, I)));
    S.addClause(ClauseBuf);
  }

  // Eager dependence windows for 2-cycles (Eq. 4/8 around a cycle): the K
  // differences of a cycle i <-> j must cancel, which holds iff the
  // ceil-weights of both edges sum to <= 0 — enumerable over offset pairs.
  // Longer cycles go through the lazy blockCycle() refinement instead.
  const std::vector<DdgEdge> &Edges = G.edges();
  for (std::size_t A = 0; A < Edges.size(); ++A) {
    const DdgEdge &E1 = Edges[A];
    if (E1.Src >= E1.Dst)
      continue;
    for (std::size_t B = 0; B < Edges.size(); ++B) {
      const DdgEdge &E2 = Edges[B];
      if (E2.Src != E1.Dst || E2.Dst != E1.Src)
        continue;
      for (int P = 0; P < T; ++P) {
        for (int Q = 0; Q < T; ++Q) {
          const int CycleK =
              kDifferenceWeight(E1, T, P, Q) + kDifferenceWeight(E2, T, Q, P);
          if (CycleK > 0)
            S.addClause({NS, mkLit(aVar(P, E1.Src), true),
                         mkLit(aVar(Q, E1.Dst), true)});
        }
      }
    }
  }

  for (int R = 0; R < Machine.numTypes(); ++R) {
    const std::vector<int> &Ops = OpsOfType[static_cast<std::size_t>(R)];
    if (Ops.empty())
      continue;
    const int Count = Machine.type(R).Count;

    // Usage rows (Eq. 5/24-25): per stage and pattern step, at most R_r
    // ops of the type occupy the stage.  Implied by the coloring block for
    // fixed mapping but kept as redundant pruning; load-bearing for
    // run-time mapping.
    int MaxStages = 0;
    for (int Op : Ops)
      MaxStages = std::max(MaxStages,
                           Machine.tableFor(G.node(Op)).numStages());
    for (int Stage = 0; Stage < MaxStages; ++Stage) {
      for (int Slot = 0; Slot < T; ++Slot) {
        std::vector<SatLit> &Lits = ClauseBuf;
        Lits.clear();
        int ContributingOps = 0;
        for (int Op : Ops) {
          const ReservationTable &Tab = Machine.tableFor(G.node(Op));
          if (Stage >= Tab.numStages())
            continue;
          bool Contributes = false;
          for (int L : Tab.busyColumns(Stage)) {
            const int Row = ((Slot - L) % T + T) % T;
            Lits.push_back(mkLit(aVar(Row, Op)));
            Contributes = true;
          }
          if (Contributes)
            ++ContributingOps;
        }
        if (ContributingOps <= Count ||
            static_cast<int>(Lits.size()) <= Count)
          continue; // Each op contributes at most 1: the row is vacuous.
        sinzAtMost(S, Lits, Count, NS);
      }
    }

    // Unit collisions (the paper's circular-arc coloring condition): two
    // same-type ops whose reservation tables collide at their offset
    // delta cannot share a unit.  The topology path needs them for every
    // multi-op type: adjacency may force unit sharing even when distinct
    // units would fit.
    if (Mapping != MappingKind::Fixed ||
        (!TopoPath && static_cast<int>(Ops.size()) <= Count))
      continue;
    for (std::size_t IxI = 0; IxI < Ops.size(); ++IxI) {
      for (std::size_t IxJ = IxI + 1; IxJ < Ops.size(); ++IxJ) {
        const int NodeI = Ops[IxI], NodeJ = Ops[IxJ];
        const ReservationTable &Ti = Machine.tableFor(G.node(NodeI));
        const ReservationTable &Tj = Machine.tableFor(G.node(NodeJ));
        ConflictAt.resize(static_cast<std::size_t>(T));
        bool Any = false;
        for (int D = 0; D < T; ++D) {
          ConflictAt[static_cast<std::size_t>(D)] =
              tablesConflictAtOffset(Ti, Tj, D, T) ? 1 : 0;
          Any = Any || ConflictAt[static_cast<std::size_t>(D)];
        }
        if (!Any)
          continue;
        const int Ov = Count == 1 ? -1 : overlapVar(NodeI, NodeJ);
        for (int P = 0; P < T; ++P) {
          for (int Q = 0; Q < T; ++Q) {
            if (!ConflictAt[static_cast<std::size_t>(((Q - P) % T + T) % T)])
              continue;
            const SatLit AtP = mkLit(aVar(P, NodeI), true);
            const SatLit AtQ = mkLit(aVar(Q, NodeJ), true);
            if (Ov >= 0)
              S.addClause({NS, AtP, AtQ, mkLit(Ov)});
            else
              S.addClause({NS, AtP, AtQ});
          }
        }
      }
    }
  }

  if (!TopoPath)
    return;

  // ROUTE-cell constraints at this period.  A route (e, u, c) occupies
  // the producer's unit at pattern steps (p + col) mod T for each column
  // col of routeColumns(L, c, hopLatency), p being the producer's offset.
  auto cols = [this](const RouteVarIds &RV) {
    return std::span<const int>(RouteCols.data() + RV.ColBegin,
                                RouteCols.data() + RV.ColEnd);
  };
  for (const RouteVarIds &RV : RouteVars) {
    const std::span<const int> Cols = cols(RV);
    // Self-collision: the route's own columns fold onto one pattern step,
    // so placements activating it are infeasible at this T.
    for (std::size_t A = 0; A < Cols.size(); ++A)
      for (std::size_t B = A + 1; B < Cols.size(); ++B)
        if ((Cols[A] - Cols[B]) % T == 0) {
          S.addClause({NS, mkLit(RV.Var, true)});
          A = Cols.size();
          break;
        }
  }
  for (std::size_t R1 = 0; R1 < RouteVars.size(); ++R1) {
    for (std::size_t R2 = R1 + 1; R2 < RouteVars.size(); ++R2) {
      const RouteVarIds &A1 = RouteVars[R1];
      const RouteVarIds &A2 = RouteVars[R2];
      if (A1.Unit != A2.Unit || A1.Edge == A2.Edge)
        continue;
      const DdgEdge &E1 = G.edges()[static_cast<std::size_t>(A1.Edge)];
      const DdgEdge &E2 = G.edges()[static_cast<std::size_t>(A2.Edge)];
      for (int Col1 : cols(A1)) {
        for (int Col2 : cols(A2)) {
          for (int P = 0; P < T; ++P) {
            const int Q = ((P + Col1 - Col2) % T + T) % T;
            if (E1.Src == E2.Src && Q != P)
              continue; // One producer, one offset: vacuous.
            const SatLit AtP = mkLit(aVar(P, E1.Src), true);
            const SatLit NotY1 = mkLit(A1.Var, true);
            const SatLit NotY2 = mkLit(A2.Var, true);
            if (E1.Src != E2.Src)
              S.addClause(
                  {NS, AtP, mkLit(aVar(Q, E2.Src), true), NotY1, NotY2});
            else
              S.addClause({NS, AtP, NotY1, NotY2});
          }
        }
      }
    }
  }
}

std::vector<int> CnfEncoder::modelOffsets(int T) const {
  const int N = G.numNodes();
  std::vector<int> Offsets(static_cast<std::size_t>(N), 0);
  for (int I = 0; I < N; ++I)
    for (int Row = 0; Row < T; ++Row)
      if (S.modelValue(aVar(Row, I))) {
        Offsets[static_cast<std::size_t>(I)] = Row;
        break;
      }
  return Offsets;
}

int CnfEncoder::modelUnit(int Node) const {
  const std::vector<int> &Xv = InstVar[static_cast<std::size_t>(Node)];
  for (std::size_t U = 0; U < Xv.size(); ++U)
    if (S.modelValue(Xv[U]))
      return static_cast<int>(U);
  return 0;
}

bool CnfEncoder::decode(int T, ModuloSchedule &Out,
                        std::vector<int> &CycleNodes) const {
  CycleNodes.clear();
  const int N = G.numNodes();
  const std::vector<int> Offsets = modelOffsets(T);

  // On the topology path the mapping is read before the K completion:
  // routing penalties rho(h) enter the dependence-edge weights (and
  // blockCycle must then include the instance literals — see there).
  std::vector<int> Units;
  if (TopoPath) {
    Units.resize(static_cast<std::size_t>(N));
    for (int I = 0; I < N; ++I)
      Units[static_cast<std::size_t>(I)] = modelUnit(I);
  }
  auto EdgeRho = [&](const DdgEdge &E) {
    if (!TopoPath)
      return 0;
    const int GU =
        UnitBase[static_cast<std::size_t>(G.node(E.Src).OpClass)] +
        Units[static_cast<std::size_t>(E.Src)];
    const int GV =
        UnitBase[static_cast<std::size_t>(G.node(E.Dst).OpClass)] +
        Units[static_cast<std::size_t>(E.Dst)];
    return Topo->routePenalty(GU, GV);
  };

  // K vector over k_j - k_i >= ceil((lat + rho - T*m + off_i - off_j) / T).
  auto Weight = [&](const DdgEdge &E) {
    return kDifferenceWeight(E, T, Offsets[static_cast<std::size_t>(E.Src)],
                             Offsets[static_cast<std::size_t>(E.Dst)],
                             EdgeRho(E));
  };
  std::vector<int> K;
  if (longestPaths(G, Weight, K, PathDirection::Forward, &CycleNodes)) {
    // CycleNodes holds the positive-cycle witness's edges; keep their heads.
    // Soundness check: blocking a cycle's offsets is only legal when that
    // cycle really is positive under them.  If the witness does not check
    // out (or the walk hit a dead end), fall back to blocking the complete
    // offset vector — weaker but always sound, since the offsets were just
    // shown to have no K completion.
    int CycleWeight = 0;
    for (int &X : CycleNodes) {
      const DdgEdge &E = G.edges()[static_cast<std::size_t>(X)];
      CycleWeight += Weight(E);
      X = E.Dst;
    }
    if (CycleNodes.empty() || CycleWeight <= 0) {
      CycleNodes.clear();
      for (int I = 0; I < N; ++I)
        CycleNodes.push_back(I);
    }
    return false;
  }

  Out.T = T;
  Out.StartTime.assign(static_cast<std::size_t>(N), 0);
  for (int I = 0; I < N; ++I)
    Out.StartTime[static_cast<std::size_t>(I)] =
        K[static_cast<std::size_t>(I)] * T +
        Offsets[static_cast<std::size_t>(I)];
  Out.Mapping.clear();
  if (Mapping != MappingKind::Fixed)
    return true;

  Out.Mapping.assign(static_cast<std::size_t>(N), 0);
  if (TopoPath) {
    Out.Mapping = std::move(Units);
    return true;
  }
  for (int R = 0; R < Machine.numTypes(); ++R) {
    const std::vector<int> &Ops = OpsOfType[static_cast<std::size_t>(R)];
    const int Count = Machine.type(R).Count;
    if (static_cast<int>(Ops.size()) <= Count) {
      // Fewer ops than units: give each its own unit.
      for (std::size_t Ix = 0; Ix < Ops.size(); ++Ix)
        Out.Mapping[static_cast<std::size_t>(Ops[Ix])] =
            static_cast<int>(Ix);
      continue;
    }
    if (Count == 1)
      continue; // All on unit 0; collision clauses made that legal.
    for (int Op : Ops) {
      const std::vector<int> &Cv = ColorVar[static_cast<std::size_t>(Op)];
      for (std::size_t U = 0; U < Cv.size(); ++U)
        if (S.modelValue(Cv[U])) {
          Out.Mapping[static_cast<std::size_t>(Op)] = static_cast<int>(U);
          break;
        }
    }
  }
  return true;
}

void CnfEncoder::blockCycle(int T, const std::vector<int> &CycleNodes,
                            const std::vector<int> &Offsets) {
  std::vector<SatLit> &C = ClauseBuf;
  C.clear();
  C.push_back(mkLit(SelVar[static_cast<std::size_t>(T)], true));
  for (int Node : CycleNodes) {
    C.push_back(
        mkLit(aVar(Offsets[static_cast<std::size_t>(Node)], Node), true));
    // On the topology path the cycle's positivity depends on the routing
    // penalties, i.e. on where the nodes sit: block only this
    // offsets-and-placement combination (the model is still loaded — the
    // caller invokes this right after a failed decode).
    if (TopoPath)
      C.push_back(mkLit(InstVar[static_cast<std::size_t>(Node)]
                               [static_cast<std::size_t>(modelUnit(Node))],
                        true));
  }
  S.addClause(C);
  ++NumCycleBlocks;
}
