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
  Rules.derive(G, Machine, Kind);
  if (Rules.topoPath())
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
    const std::span<const int> Ops = Rules.ops(R);
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
  auto XVar = [this](int Node, int U) {
    return InstVar[static_cast<std::size_t>(Node)][static_cast<std::size_t>(U)];
  };

  // Interchange-class symmetry breaking (the x-space analogue of the
  // lexicographic color caps): ~x[op][cur] | OR of x[earlier][prev].
  Rules.forEachFirstUse(
      [&](int Op, int Cur, std::span<const int> Earlier, int Prev) {
        ClauseBuf.clear();
        ClauseBuf.push_back(mkLit(XVar(Op, Cur), true));
        for (int E : Earlier)
          ClauseBuf.push_back(mkLit(XVar(E, Prev)));
        S.addClause(ClauseBuf);
      });

  // Forbidden placements: unreachable / over-MaxHops producer-consumer
  // unit pairs per DDG edge.  Unguarded — adjacency is T-independent.
  Rules.forEachFeed([&](const DdgEdge &E, int U, int V, int Rho) {
    if (Rho < 0)
      S.addClause({mkLit(XVar(E.Src, U), true), mkLit(XVar(E.Dst, V), true)});
  });

  // Route indicators, forced to 1 by any (x_iu, x_jv) pair at their hop
  // distance; their ROUTE-cell collisions are forbidden per period in
  // encodePeriod.
  for (const PlacementRules::Route &Rt : Rules.routes()) {
    const DdgEdge &E = G.edges()[static_cast<std::size_t>(Rt.Edge)];
    const int Y = S.newVar();
    RouteVar.push_back(Y);
    for (int V : Rules.consumers(Rt))
      S.addClause({mkLit(Y), mkLit(XVar(E.Src, Rt.ProducerUnit), true),
                   mkLit(XVar(E.Dst, V), true)});
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
      Rules.topoPath() ? InstVar[static_cast<std::size_t>(NodeI)]
                       : ColorVar[static_cast<std::size_t>(NodeI)];
  const std::vector<int> &Cj =
      Rules.topoPath() ? InstVar[static_cast<std::size_t>(NodeJ)]
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
    const std::span<const int> Ops = Rules.ops(R);
    const int Count = Machine.type(R).Count;

    // Usage rows (Eq. 5/24-25): per stage and pattern step, at most R_r
    // ops of the type occupy the stage.  Implied by the coloring block for
    // fixed mapping but kept as redundant pruning; load-bearing for
    // run-time mapping.
    for (int Stage = 0; Stage < Rules.maxStages(R); ++Stage) {
      for (int Slot = 0; Slot < T; ++Slot) {
        ClauseBuf.clear();
        int ContributingOps = 0, LastOp = -1;
        Rules.forEachUsageCell(R, Stage, Slot, T, [&](int Op, int Row) {
          ClauseBuf.push_back(mkLit(aVar(Row, Op)));
          if (Op != LastOp) {
            ++ContributingOps;
            LastOp = Op;
          }
        });
        if (ContributingOps <= Count ||
            static_cast<int>(ClauseBuf.size()) <= Count)
          continue; // Each op contributes at most 1: the row is vacuous.
        sinzAtMost(S, ClauseBuf, Count, NS);
      }
    }

    // Unit collisions (the paper's circular-arc coloring condition): two
    // same-type ops whose reservation tables collide at their offset
    // delta cannot share a unit — directly on a single-unit type, through
    // the overlap indicator otherwise.
    if (!Rules.separatesUnits(R))
      continue;
    for (std::size_t IxI = 0; IxI < Ops.size(); ++IxI) {
      for (std::size_t IxJ = IxI + 1; IxJ < Ops.size(); ++IxJ) {
        const int NodeI = Ops[IxI], NodeJ = Ops[IxJ];
        int Ov = -1;
        Rules.forEachCollision(
            NodeI, NodeJ, T, [&](int P, std::span<const int> Qs) {
              if (Ov < 0 && Count > 1)
                Ov = overlapVar(NodeI, NodeJ);
              const SatLit AtP = mkLit(aVar(P, NodeI), true);
              for (int Q : Qs) {
                const SatLit AtQ = mkLit(aVar(Q, NodeJ), true);
                if (Ov >= 0)
                  S.addClause({NS, AtP, AtQ, mkLit(Ov)});
                else
                  S.addClause({NS, AtP, AtQ});
              }
            });
      }
    }
  }

  if (!Rules.topoPath())
    return;

  // ROUTE-cell constraints at this period.  A route whose own cells fold
  // onto one pattern step is infeasible at this T; two routes on one unit
  // may not both hold a cell on one step.
  const std::vector<PlacementRules::Route> &Routes = Rules.routes();
  for (std::size_t K = 0; K < Routes.size(); ++K)
    if (Rules.routeSelfCollides(Routes[K], T))
      S.addClause({NS, mkLit(RouteVar[K], true)});
  Rules.forEachRouteCollision(
      T, [&](std::size_t A, std::size_t B, int P, int Q) {
        const int IA = Routes[A].Producer, IB = Routes[B].Producer;
        const SatLit AtP = mkLit(aVar(P, IA), true);
        const SatLit NotYA = mkLit(RouteVar[A], true);
        const SatLit NotYB = mkLit(RouteVar[B], true);
        if (IA != IB)
          S.addClause({NS, AtP, mkLit(aVar(Q, IB), true), NotYA, NotYB});
        else
          S.addClause({NS, AtP, NotYA, NotYB});
      });
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
  if (Rules.topoPath()) {
    Units.resize(static_cast<std::size_t>(N));
    for (int I = 0; I < N; ++I)
      Units[static_cast<std::size_t>(I)] = modelUnit(I);
  }
  auto EdgeRho = [&](const DdgEdge &E) {
    if (!Rules.topoPath())
      return 0;
    return Rules.topology().routePenalty(
        Rules.globalUnit(G.node(E.Src).OpClass,
                         Units[static_cast<std::size_t>(E.Src)]),
        Rules.globalUnit(G.node(E.Dst).OpClass,
                         Units[static_cast<std::size_t>(E.Dst)]));
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
  if (Rules.topoPath()) {
    Out.Mapping = std::move(Units);
    return true;
  }
  for (int R = 0; R < Machine.numTypes(); ++R) {
    const std::span<const int> Ops = Rules.ops(R);
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
    if (Rules.topoPath())
      C.push_back(mkLit(InstVar[static_cast<std::size_t>(Node)]
                               [static_cast<std::size_t>(modelUnit(Node))],
                        true));
  }
  S.addClause(C);
}
