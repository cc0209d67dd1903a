//===- Formulation.cpp - The paper's ILP formulations ---------------------===//

#include "swp/core/Formulation.h"

#include "swp/core/CircularArcs.h"
#include "swp/core/Registers.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace swp;

namespace {

/// Appends \p Scale times the start-time expression t_i = T*k_i + sum_t
/// t*a[t][i] (paper Eq. 7) to \p E, term by term in that order.
void addStartTime(LinExpr &E, const FormulationVars &Vars, int T, int I,
                  double Scale) {
  E.add(Vars.K[static_cast<size_t>(I)], static_cast<double>(T) * Scale);
  for (int Slot = 1; Slot < T; ++Slot)
    E.add(Vars.A[static_cast<size_t>(Slot)][static_cast<size_t>(I)],
          static_cast<double>(Slot) * Scale);
}

/// buildScheduleModel's scratch, recycled across models on a thread.
struct BuildScratch {
  /// The ops of one FU type.
  std::vector<int> Ops;
  /// Per offset delta: do two ops on one unit collide there?
  std::vector<char> ConflictDelta;

  void reset() {
    Ops.clear();
    ConflictDelta.clear();
  }
  std::size_t capacityBytes() const {
    return heapBytes(Ops) + heapBytes(ConflictDelta);
  }
};

/// Clears \p V for a new model, keeping the capacity of every container.
void resetVars(FormulationVars &V, int T, int N, int NumTypes, bool Topo) {
  V.A.resize(static_cast<size_t>(T));
  for (std::vector<VarId> &Row : V.A)
    Row.assign(static_cast<size_t>(N), 0);
  V.K.clear();
  V.Color.assign(static_cast<size_t>(N), -1);
  V.Buffers.clear();
  V.Pairs.clear();
  V.CMax.assign(static_cast<size_t>(NumTypes), -1);
  V.Inst.resize(Topo ? static_cast<size_t>(N) : 0);
  for (std::vector<VarId> &Row : V.Inst)
    Row.clear();
  V.Route.clear();
}

int defaultKMax(const Ddg &G, int MaxRho) {
  int Sum = 0;
  for (const DdgEdge &E : G.edges())
    Sum += std::max(E.Latency + MaxRho, 1);
  return Sum + G.numNodes() + 1;
}

} // namespace

MilpModel swp::buildScheduleModel(const Ddg &G, const MachineModel &Machine,
                                  int T, const FormulationOptions &Opts,
                                  FormulationVars &Vars) {
  assert(T >= 1 && "period must be positive");
  assert(G.isWellFormed(Machine.numTypes()) && "malformed DDG");
  assert(Machine.moduloFeasible(G, T) &&
         "caller must skip T violating the modulo constraint");

  const int N = G.numNodes();
  // BufferObjective owns the objective when both are requested.
  const bool UseColoringObjective =
      Opts.ColoringObjective && !Opts.BufferObjective;
  // Instance-level mapping path: only when placement is actually
  // restricted — flat machines and vacuous topologies keep the exact
  // type-level model below, bit for bit.
  const bool TopoPath = Opts.Mapping == MappingKind::Fixed &&
                        Machine.topologyConstrains();
  const Topology *Topo = TopoPath ? Machine.topology() : nullptr;
  MilpModel M;
  resetVars(Vars, T, N, Machine.numTypes(), TopoPath);
  Recycled<BuildScratch> Scratch;
  std::vector<int> &Ops = Scratch->Ops;

  // a[t][i] and k[i].
  // Rotating a schedule so the anchor lands on pattern step 0 can carry
  // each stage index up by one, so an anchored model needs one more stage
  // of headroom to stay feasibility-equivalent.
  int KMax = (Opts.KMax >= 0
                  ? Opts.KMax
                  : defaultKMax(G, Topo ? Topo->maxRoutePenalty() : 0)) +
             (Opts.BreakRotation ? 1 : 0);
  for (int I = 0; I < N; ++I) {
    for (int Slot = 0; Slot < T; ++Slot) {
      VarId V = M.addBinary();
      // a[t][i] <= 1 is implied by the assignment equality below.
      M.setUbRowRedundant(V);
      Vars.A[static_cast<size_t>(Slot)][static_cast<size_t>(I)] = V;
    }
    VarId KVar = M.addVar(0.0, static_cast<double>(KMax), VarKind::Integer);
    // Branch on the a[t][i] assignment windows (priority 0) before the
    // stage counts: once every op's slot is fixed the k[i] are pinned by
    // the dependence rows, so branching on a fractional k[i] first only
    // deepens the tree.
    M.setBranchPriority(KVar, 1);
    Vars.K.push_back(KVar);
  }

  // Instance-assignment binaries x[i][u] (u = unit within i's type).
  // Colors cannot express adjacency — two ops' colors only say whether
  // they share a unit, not *which* one — so the topology path names units
  // explicitly and the coloring block below is skipped.
  if (TopoPath) {
    for (int I = 0; I < N; ++I) {
      const int Count = Machine.type(G.node(I).OpClass).Count;
      LinExpr &Sum = M.scratchRow();
      for (int U = 0; U < Count; ++U) {
        VarId V = M.addBinary();
        M.setBranchPriority(V, 2);
        Vars.Inst[static_cast<size_t>(I)].push_back(V);
        if (Count == 1)
          M.fixVar(V, 1.0);
        else {
          M.setUbRowRedundant(V); // Implied by the one-hot equality.
          Sum.add(V, 1.0);
        }
      }
      if (Count > 1)
        M.addConstraint(Sum, CmpKind::EQ, 1.0);
    }
  }

  // Rotation symmetry breaking: shifting every start time by s maps
  // schedules to schedules (dependence rows see only differences; the
  // resource rows are modulo-T circulant), so every solution class has a
  // representative with the anchor instruction at pattern step 0.  Pin the
  // most resource-hungry instruction there — its reservation table
  // propagates hardest through the usage rows — and let presolve fold the
  // T-1 dead binaries away.
  if (Opts.BreakRotation && N > 0) {
    int Anchor = 0;
    int AnchorBusy = -1;
    for (int I = 0; I < N; ++I) {
      const ReservationTable &RT = Machine.tableFor(G.node(I));
      int Busy = 0;
      for (int Stage = 0; Stage < RT.numStages(); ++Stage)
        for (int Cycle = 0; Cycle < RT.execTime(); ++Cycle)
          Busy += RT.busy(Stage, Cycle) ? 1 : 0;
      if (Busy > AnchorBusy) {
        AnchorBusy = Busy;
        Anchor = I;
      }
    }
    M.fixVar(Vars.A[0][static_cast<size_t>(Anchor)], 1.0);
    for (int Slot = 1; Slot < T; ++Slot)
      M.fixVar(Vars.A[static_cast<size_t>(Slot)][static_cast<size_t>(Anchor)],
               0.0);
  }

  // Each instruction initiates exactly once in the pattern (Eq. 9/23).
  for (int I = 0; I < N; ++I) {
    LinExpr &Sum = M.scratchRow();
    for (int Slot = 0; Slot < T; ++Slot)
      Sum.add(Vars.A[static_cast<size_t>(Slot)][static_cast<size_t>(I)], 1.0);
    M.addConstraint(Sum, CmpKind::EQ, 1.0);
  }

  // Dependences: t_j - t_i >= latency - T*m_ij (Eq. 4/8).
  for (const DdgEdge &E : G.edges()) {
    LinExpr &Expr = M.scratchRow();
    addStartTime(Expr, Vars, T, E.Dst, 1.0);
    addStartTime(Expr, Vars, T, E.Src, -1.0);
    M.addConstraint(Expr, CmpKind::GE,
                    static_cast<double>(E.Latency - T * E.Distance));
  }

  // Buffer-minimization extension ([18]): per edge, T*b_e >= t_j + T*m -
  // t_i with b_e >= 1 integer; minimizing sum b_e makes every b_e the
  // Ning-Gao buffer count.
  if (Opts.BufferObjective) {
    LinExpr Objective;
    int BMax = KMax + 2;
    for (const DdgEdge &E : G.edges()) {
      BMax = std::max(BMax, KMax + E.Distance + 2);
    }
    for (size_t EIx = 0; EIx < G.edges().size(); ++EIx) {
      const DdgEdge &E = G.edges()[EIx];
      VarId B = M.addVar(1.0, static_cast<double>(BMax), VarKind::Integer);
      M.setBranchPriority(B, 4);
      Vars.Buffers.push_back(B);
      LinExpr &Row = M.scratchRow();
      Row.add(B, static_cast<double>(T));
      addStartTime(Row, Vars, T, E.Dst, -1.0);
      addStartTime(Row, Vars, T, E.Src, 1.0);
      M.addConstraint(Row, CmpKind::GE,
                      static_cast<double>(T * E.Distance));
      Objective.add(B, 1.0);
    }
    M.setObjective(std::move(Objective));
  }

  // Per-type blocks: capacity, then mapping.
  for (int R = 0; R < Machine.numTypes(); ++R) {
    const FuType &Ty = Machine.type(R);
    G.nodesOfClass(R, Ops);
    const int NumOps = static_cast<int>(Ops.size());
    if (NumOps == 0)
      continue;

    // Capacity (Eq. 5 generalized per stage): implied when the type has at
    // least as many units as instructions.  Each op occupies the stages of
    // its own reservation-table variant (multi-function pipelines).
    if (NumOps > Ty.Count) {
      int MaxStages = 0;
      for (int Op : Ops)
        MaxStages = std::max(MaxStages,
                             Machine.tableFor(G.node(Op)).numStages());
      for (int Stage = 0; Stage < MaxStages; ++Stage) {
        for (int Slot = 0; Slot < T; ++Slot) {
          LinExpr &Usage = M.scratchRow();
          for (int Op : Ops) {
            const ReservationTable &Table = Machine.tableFor(G.node(Op));
            if (Stage >= Table.numStages())
              continue;
            for (int L : Table.busyColumns(Stage))
              Usage.add(Vars.A[static_cast<size_t>(((Slot - L) % T + T) % T)]
                              [static_cast<size_t>(Op)],
                        1.0);
          }
          M.addConstraint(Usage, CmpKind::LE,
                          static_cast<double>(Ty.Count));
        }
      }
    }

    if (Opts.Mapping == MappingKind::RunTime ||
        (!TopoPath && NumOps <= Ty.Count))
      continue; // No coloring needed: distinct units fit trivially.
    // The topology path still needs per-unit exclusion whenever two ops
    // share a type: adjacency may force unit sharing even when distinct
    // units would fit.
    if (TopoPath && NumOps < 2)
      continue;

    // Offset deltas at which two ops on one unit collide, per variant pair
    // (ops of one variant share a table; multi-function ops differ).
    std::vector<char> &ConflictDelta = Scratch->ConflictDelta;
    auto FillConflictDelta = [&](int OpI, int OpJ) {
      ConflictDelta.resize(static_cast<size_t>(T));
      const ReservationTable &TI = Machine.tableFor(G.node(OpI));
      const ReservationTable &TJ = Machine.tableFor(G.node(OpJ));
      for (int Delta = 0; Delta < T; ++Delta)
        ConflictDelta[static_cast<size_t>(Delta)] =
            tablesConflictAtOffset(TI, TJ, Delta, T);
    };

    if (Ty.Count == 1) {
      // Single unit: conflicting placements are simply forbidden; the
      // coloring machinery would force the same exclusions with o_ij = 0.
      for (int AIx = 0; AIx < NumOps; ++AIx) {
        for (int BIx = AIx + 1; BIx < NumOps; ++BIx) {
          int OpI = Ops[static_cast<size_t>(AIx)];
          int OpJ = Ops[static_cast<size_t>(BIx)];
          FillConflictDelta(OpI, OpJ);
          for (int P = 0; P < T; ++P) {
            LinExpr &Row = M.scratchRow();
            Row.add(Vars.A[static_cast<size_t>(P)][static_cast<size_t>(OpI)],
                    1.0);
            bool Any = false;
            for (int Q = 0; Q < T; ++Q) {
              if (!ConflictDelta[static_cast<size_t>(((Q - P) % T + T) % T)])
                continue;
              Row.add(Vars.A[static_cast<size_t>(Q)][static_cast<size_t>(OpJ)],
                      1.0);
              Any = true;
            }
            if (Any)
              M.addConstraint(Row, CmpKind::LE, 1.0);
          }
        }
      }
      continue;
    }

    if (TopoPath) {
      // Instance path: o_ij is forced to 1 exactly when the two ops'
      // tables collide at their offset delta (same defining rows as the
      // coloring block); sharing any one physical unit is then forbidden:
      //   x_i[u] + x_j[u] + o_ij <= 2   for every unit u.
      for (int AIx = 0; AIx < NumOps; ++AIx) {
        for (int BIx = AIx + 1; BIx < NumOps; ++BIx) {
          int OpI = Ops[static_cast<size_t>(AIx)];
          int OpJ = Ops[static_cast<size_t>(BIx)];
          VarId O = M.addBinary();
          M.setBranchPriority(O, 3);
          Vars.Pairs.push_back({OpI, OpJ, O, -1});
          FillConflictDelta(OpI, OpJ);
          for (int P = 0; P < T; ++P) {
            LinExpr &Row = M.scratchRow();
            Row.add(O, 1.0);
            Row.add(Vars.A[static_cast<size_t>(P)][static_cast<size_t>(OpI)],
                    -1.0);
            bool Any = false;
            for (int Q = 0; Q < T; ++Q) {
              if (!ConflictDelta[static_cast<size_t>(((Q - P) % T + T) % T)])
                continue;
              Row.add(Vars.A[static_cast<size_t>(Q)][static_cast<size_t>(OpJ)],
                      -1.0);
              Any = true;
            }
            if (Any)
              M.addConstraint(Row, CmpKind::GE, -1.0);
          }
          for (int U = 0; U < Ty.Count; ++U) {
            LinExpr &Row = M.scratchRow();
            Row.add(Vars.Inst[static_cast<size_t>(OpI)][static_cast<size_t>(U)],
                    1.0);
            Row.add(Vars.Inst[static_cast<size_t>(OpJ)][static_cast<size_t>(U)],
                    1.0);
            Row.add(O, 1.0);
            M.addConstraint(Row, CmpKind::LE, 2.0);
          }
        }
      }
      continue;
    }

    // Full coloring block (Sections 4.2 / 5): colors, overlap indicators,
    // Hu sign variables, and the per-type color maximum for the objective.
    const double RCount = static_cast<double>(Ty.Count);
    for (int Ix = 0; Ix < NumOps; ++Ix) {
      int Op = Ops[static_cast<size_t>(Ix)];
      // Symmetry breaking: colors are interchangeable, so the Ix-th op of
      // the type can canonically be restricted to colors 1..Ix+1.
      double Ub = std::min(RCount, static_cast<double>(Ix + 1));
      VarId C = M.addVar(1.0, Ub, VarKind::Integer);
      M.setBranchPriority(C, 2);
      Vars.Color[static_cast<size_t>(Op)] = C;
    }
    VarId CMax = -1;
    if (UseColoringObjective) {
      CMax = M.addVar(1.0, RCount, VarKind::Continuous);
      Vars.CMax[static_cast<size_t>(R)] = CMax;
      for (int Op : Ops) {
        LinExpr &E = M.scratchRow();
        E.add(CMax, 1.0).add(Vars.Color[static_cast<size_t>(Op)], -1.0);
        M.addConstraint(E, CmpKind::GE, 0.0);
      }
    }

    for (int AIx = 0; AIx < NumOps; ++AIx) {
      for (int BIx = AIx + 1; BIx < NumOps; ++BIx) {
        int OpI = Ops[static_cast<size_t>(AIx)];
        int OpJ = Ops[static_cast<size_t>(BIx)];
        VarId O = M.addBinary();
        VarId W = M.addBinary();
        M.setBranchPriority(O, 3);
        M.setBranchPriority(W, 3);
        Vars.Pairs.push_back({OpI, OpJ, O, W});
        FillConflictDelta(OpI, OpJ);

        // o_ij >= a[p][i] + sum_{q conflicting with p} a[q][j] - 1.
        for (int P = 0; P < T; ++P) {
          LinExpr &Row = M.scratchRow();
          Row.add(O, 1.0);
          Row.add(Vars.A[static_cast<size_t>(P)][static_cast<size_t>(OpI)],
                  -1.0);
          bool Any = false;
          for (int Q = 0; Q < T; ++Q) {
            if (!ConflictDelta[static_cast<size_t>(((Q - P) % T + T) % T)])
              continue;
            Row.add(Vars.A[static_cast<size_t>(Q)][static_cast<size_t>(OpJ)],
                    -1.0);
            Any = true;
          }
          if (Any)
            M.addConstraint(Row, CmpKind::GE, -1.0);
        }

        // |c_i - c_j| >= 1 when o_ij = 1 (Hu's linearization, Eqs. 12-14):
        //   c_i - c_j + M*w + M*(1-o) >= 1
        //   c_j - c_i + M*(1-w) + M*(1-o) >= 1
        // The generic M = R is loose under the lexicographic color caps:
        // the first row only needs covering when it is slack by at most
        // c_j - 1 <= ub(c_j) - 1, so M = ub(c_j) suffices (and ub(c_i) for
        // the second) — a strictly tighter LP relaxation, and exact for
        // every coloring the caps admit.
        VarId CI = Vars.Color[static_cast<size_t>(OpI)];
        VarId CJ = Vars.Color[static_cast<size_t>(OpJ)];
        const double UbI = std::min(RCount, static_cast<double>(AIx + 1));
        const double UbJ = std::min(RCount, static_cast<double>(BIx + 1));
        LinExpr &E1 = M.scratchRow();
        E1.add(CI, 1.0).add(CJ, -1.0).add(W, UbJ).add(O, -UbJ);
        M.addConstraint(E1, CmpKind::GE, 1.0 - UbJ);
        LinExpr &E2 = M.scratchRow();
        E2.add(CJ, 1.0).add(CI, -1.0).add(W, -UbI).add(O, -UbI);
        M.addConstraint(E2, CmpKind::GE, 1.0 - 2.0 * UbI);
      }
    }

    if (UseColoringObjective && CMax >= 0)
      M.addObjectiveTerm(CMax, 1.0 / RCount);
  }

  if (TopoPath) {
    std::vector<int> Base(static_cast<size_t>(Machine.numTypes()), 0);
    for (int R = 1; R < Machine.numTypes(); ++R)
      Base[static_cast<size_t>(R)] =
          Base[static_cast<size_t>(R) - 1] + Machine.type(R - 1).Count;
    auto XVar = [&](int Op, int U) {
      return Vars.Inst[static_cast<size_t>(Op)][static_cast<size_t>(U)];
    };

    // (a) Per DDG edge: forbid unreachable / over-MaxHops placements and
    // tighten the dependence window by the routing penalty rho when both
    // endpoints land on a multi-hop pair.  BigM = rho is exact: with at
    // most one endpoint placed the row relaxes to (or below) the base
    // dependence row emitted above.
    for (const DdgEdge &E : G.edges()) {
      if (E.Src == E.Dst)
        continue; // Same unit, zero hops.
      const int Ri = G.node(E.Src).OpClass, Rj = G.node(E.Dst).OpClass;
      for (int U = 0; U < Machine.type(Ri).Count; ++U) {
        const int GU = Base[static_cast<size_t>(Ri)] + U;
        for (int V = 0; V < Machine.type(Rj).Count; ++V) {
          const int GV = Base[static_cast<size_t>(Rj)] + V;
          if (!Topo->feedAllowed(GU, GV)) {
            LinExpr &Row = M.scratchRow();
            Row.add(XVar(E.Src, U), 1.0).add(XVar(E.Dst, V), 1.0);
            M.addConstraint(Row, CmpKind::LE, 1.0);
            continue;
          }
          const int Rho = Topo->routePenalty(GU, GV);
          if (Rho == 0)
            continue;
          // t_j - t_i >= L + rho - T*m - rho*(2 - x_iu - x_jv).
          LinExpr &Row = M.scratchRow();
          addStartTime(Row, Vars, T, E.Dst, 1.0);
          addStartTime(Row, Vars, T, E.Src, -1.0);
          Row.add(XVar(E.Src, U), -static_cast<double>(Rho));
          Row.add(XVar(E.Dst, V), -static_cast<double>(Rho));
          M.addConstraint(Row, CmpKind::GE,
                          static_cast<double>(E.Latency - T * E.Distance -
                                              Rho));
        }
      }
    }

    // (b) Route indicators y[e][u][c]: the value of edge e leaves unit u
    // across exactly c >= 2 hops, occupying the producer's ROUTE cells at
    // columns routeColumns(L, c, hopLatency).  Defining rows force y = 1
    // whenever an (x_iu, x_jv) pair at hop distance c is chosen; a y whose
    // own columns collide modulo T is fixed to 0, which correctly forbids
    // those placements at this T.
    for (size_t EIx = 0; EIx < G.edges().size(); ++EIx) {
      const DdgEdge &E = G.edges()[EIx];
      if (E.Src == E.Dst)
        continue;
      const int Ri = G.node(E.Src).OpClass, Rj = G.node(E.Dst).OpClass;
      for (int U = 0; U < Machine.type(Ri).Count; ++U) {
        const int GU = Base[static_cast<size_t>(Ri)] + U;
        for (int C = 2;; ++C) {
          std::vector<int> Consumers;
          bool AnyBeyond = false;
          for (int V = 0; V < Machine.type(Rj).Count; ++V) {
            const int GV = Base[static_cast<size_t>(Rj)] + V;
            if (!Topo->feedAllowed(GU, GV))
              continue;
            int H = Topo->hops(GU, GV);
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
          VarId Y = M.addBinary();
          M.setBranchPriority(Y, 3);
          Vars.Route.push_back({static_cast<int>(EIx), GU, C, Y});
          std::vector<int> Cols =
              Topology::routeColumns(E.Latency, C, Topo->hopLatency());
          bool SelfCollides = false;
          for (size_t A = 0; A < Cols.size() && !SelfCollides; ++A)
            for (size_t B = A + 1; B < Cols.size(); ++B)
              if ((Cols[A] - Cols[B]) % T == 0) {
                SelfCollides = true;
                break;
              }
          if (SelfCollides)
            M.fixVar(Y, 0.0);
          for (int V : Consumers) {
            LinExpr &Row = M.scratchRow();
            Row.add(Y, 1.0);
            Row.add(XVar(E.Src, U), -1.0).add(XVar(E.Dst, V), -1.0);
            M.addConstraint(Row, CmpKind::GE, -1.0);
          }
        }
      }
    }

    // (c) ROUTE-cell capacity: two active routes on one unit may not both
    // occupy a cell in the same pattern step.  A cell of route (e1, u, c1)
    // at column col1 sits at pattern step (p + col1) mod T when e1's
    // producer initiates at step p, so for each colliding (p, q) pair:
    //   a[p][i1] + a[q][i2] + y1 + y2 <= 3.
    for (size_t R1 = 0; R1 < Vars.Route.size(); ++R1) {
      for (size_t R2 = R1 + 1; R2 < Vars.Route.size(); ++R2) {
        const FormulationVars::RouteVarIds &A1 = Vars.Route[R1];
        const FormulationVars::RouteVarIds &A2 = Vars.Route[R2];
        if (A1.Unit != A2.Unit || A1.Edge == A2.Edge)
          continue;
        const DdgEdge &E1 = G.edges()[static_cast<size_t>(A1.Edge)];
        const DdgEdge &E2 = G.edges()[static_cast<size_t>(A2.Edge)];
        std::vector<int> Cols1 =
            Topology::routeColumns(E1.Latency, A1.Hops, Topo->hopLatency());
        std::vector<int> Cols2 =
            Topology::routeColumns(E2.Latency, A2.Hops, Topo->hopLatency());
        for (int Col1 : Cols1) {
          for (int Col2 : Cols2) {
            for (int P = 0; P < T; ++P) {
              int Q = ((P + Col1 - Col2) % T + T) % T;
              if (E1.Src == E2.Src && Q != P)
                continue; // One producer has one offset; row is vacuous.
              LinExpr &Row = M.scratchRow();
              Row.add(Vars.A[static_cast<size_t>(P)]
                            [static_cast<size_t>(E1.Src)],
                      1.0);
              Row.add(Vars.A[static_cast<size_t>(Q)]
                            [static_cast<size_t>(E2.Src)],
                      1.0);
              Row.add(A1.Y, 1.0).add(A2.Y, 1.0);
              M.addConstraint(Row, CmpKind::LE, 3.0);
            }
          }
        }
      }
    }

    // (d) Instance symmetry breaking, the x-space analogue of the
    // lexicographic color caps: units that are pairwise swap-invariant in
    // the hop matrix form interchangeability classes, and within a class
    // the canonical solution uses members in first-use order — op a may
    // sit on the class's b-th member only if an earlier op of the type
    // uses the (b-1)-th.
    for (int R = 0; R < Machine.numTypes(); ++R) {
      const FuType &Ty = Machine.type(R);
      G.nodesOfClass(R, Ops);
      const int NumOps = static_cast<int>(Ops.size());
      if (NumOps == 0 || Ty.Count < 2)
        continue;
      for (const std::vector<int> &Class : Topo->interchangeClasses(
               Base[static_cast<size_t>(R)],
               Base[static_cast<size_t>(R)] + Ty.Count)) {
        for (size_t BIx = 1; BIx < Class.size(); ++BIx) {
          const int Prev = Class[BIx - 1] - Base[static_cast<size_t>(R)];
          const int Cur = Class[BIx] - Base[static_cast<size_t>(R)];
          for (int AIx = 0; AIx < NumOps; ++AIx) {
            if (AIx == 0) {
              M.fixVar(XVar(Ops[0], Cur), 0.0);
              continue;
            }
            LinExpr &Row = M.scratchRow();
            Row.add(XVar(Ops[static_cast<size_t>(AIx)], Cur), 1.0);
            for (int Earlier = 0; Earlier < AIx; ++Earlier)
              Row.add(XVar(Ops[static_cast<size_t>(Earlier)], Prev), -1.0);
            M.addConstraint(Row, CmpKind::LE, 0.0);
          }
        }
      }
    }
  }

  return M;
}

ModuloSchedule swp::extractSchedule(const Ddg &G, const MachineModel &Machine,
                                    int T, const FormulationOptions &Opts,
                                    const FormulationVars &Vars,
                                    const std::vector<double> &X) {
  const int N = G.numNodes();
  ModuloSchedule S;
  S.T = T;
  S.StartTime.assign(static_cast<size_t>(N), 0);
  for (int I = 0; I < N; ++I) {
    int Offset = 0;
    double BestVal = -1.0;
    for (int Slot = 0; Slot < T; ++Slot) {
      double V =
          X[static_cast<size_t>(Vars.A[static_cast<size_t>(Slot)]
                                      [static_cast<size_t>(I)])];
      if (V > BestVal) {
        BestVal = V;
        Offset = Slot;
      }
    }
    int K = static_cast<int>(
        std::llround(X[static_cast<size_t>(Vars.K[static_cast<size_t>(I)])]));
    S.StartTime[static_cast<size_t>(I)] = T * K + Offset;
  }

  if (Opts.Mapping == MappingKind::RunTime)
    return S;

  S.Mapping.assign(static_cast<size_t>(N), 0);
  if (!Vars.Inst.empty()) {
    // Instance path: the unit is named directly by the x[i][u] one-hot.
    for (int I = 0; I < N; ++I) {
      int Unit = 0;
      double BestVal = -1.0;
      const std::vector<VarId> &Row = Vars.Inst[static_cast<size_t>(I)];
      for (size_t U = 0; U < Row.size(); ++U) {
        double V = X[static_cast<size_t>(Row[U])];
        if (V > BestVal) {
          BestVal = V;
          Unit = static_cast<int>(U);
        }
      }
      S.Mapping[static_cast<size_t>(I)] = Unit;
    }
    return S;
  }
  for (int R = 0; R < Machine.numTypes(); ++R) {
    std::vector<int> Ops = G.nodesOfClass(R);
    const int NumOps = static_cast<int>(Ops.size());
    if (NumOps == 0)
      continue;
    if (NumOps <= Machine.type(R).Count) {
      // No coloring block was emitted: distinct units, in op order.
      for (int Ix = 0; Ix < NumOps; ++Ix)
        S.Mapping[static_cast<size_t>(Ops[static_cast<size_t>(Ix)])] = Ix;
      continue;
    }
    if (Machine.type(R).Count == 1)
      continue; // Everyone on unit 0 (already zero-initialized).
    for (int Op : Ops) {
      VarId C = Vars.Color[static_cast<size_t>(Op)];
      assert(C >= 0 && "colored type without color variable");
      S.Mapping[static_cast<size_t>(Op)] =
          static_cast<int>(std::llround(X[static_cast<size_t>(C)])) - 1;
    }
  }
  return S;
}

std::vector<double> swp::scheduleToAssignment(
    const Ddg &G, const MachineModel &Machine, int T,
    const FormulationOptions &Opts, const FormulationVars &Vars,
    const ModuloSchedule &S, int NumModelVars) {
  std::vector<double> X(static_cast<size_t>(NumModelVars), 0.0);
  const int N = G.numNodes();
  assert(S.T == T && static_cast<int>(S.StartTime.size()) == N &&
         "schedule does not match the model");

  for (int I = 0; I < N; ++I) {
    X[static_cast<size_t>(
        Vars.A[static_cast<size_t>(S.offset(I))][static_cast<size_t>(I)])] =
        1.0;
    X[static_cast<size_t>(Vars.K[static_cast<size_t>(I)])] = S.stageIndex(I);
  }

  // Colors, canonicalized per type so the symmetry-breaking upper bounds
  // (Ix-th op uses color <= Ix+1) hold.
  std::vector<int> Canonical(static_cast<size_t>(N), 0);
  if (Opts.Mapping == MappingKind::Fixed && S.hasMapping()) {
    for (int R = 0; R < Machine.numTypes(); ++R) {
      std::vector<int> Ops = G.nodesOfClass(R);
      std::vector<int> Relabel(static_cast<size_t>(Machine.type(R).Count),
                               -1);
      int Next = 1;
      for (int Op : Ops) {
        int Orig = S.Mapping[static_cast<size_t>(Op)];
        if (Relabel[static_cast<size_t>(Orig)] < 0)
          Relabel[static_cast<size_t>(Orig)] = Next++;
        Canonical[static_cast<size_t>(Op)] =
            Relabel[static_cast<size_t>(Orig)];
      }
    }
    for (int I = 0; I < N; ++I)
      if (Vars.Color[static_cast<size_t>(I)] >= 0)
        X[static_cast<size_t>(Vars.Color[static_cast<size_t>(I)])] =
            Canonical[static_cast<size_t>(I)];

    for (const FormulationVars::PairVarIds &P : Vars.Pairs) {
      bool Overlap = arcsOverlap(Machine.tableFor(G.node(P.OpI)),
                                 Machine.tableFor(G.node(P.OpJ)), T,
                                 S.offset(P.OpI), S.offset(P.OpJ));
      X[static_cast<size_t>(P.Overlap)] = Overlap ? 1.0 : 0.0;
      if (P.Sign >= 0)
        X[static_cast<size_t>(P.Sign)] =
            Canonical[static_cast<size_t>(P.OpJ)] >
                    Canonical[static_cast<size_t>(P.OpI)]
                ? 1.0
                : 0.0;
    }
    for (int R = 0; R < Machine.numTypes(); ++R) {
      if (Vars.CMax[static_cast<size_t>(R)] < 0)
        continue;
      int Max = 1;
      for (int Op : G.nodesOfClass(R))
        Max = std::max(Max, Canonical[static_cast<size_t>(Op)]);
      X[static_cast<size_t>(Vars.CMax[static_cast<size_t>(R)])] = Max;
    }
  }

  // Instance path: canonicalize the mapping within each topology
  // interchangeability class (members in first-use order, matching the
  // model's precedence rows — a pure symmetry, so the permuted schedule
  // stays legal), then set the x one-hots and the implied route
  // indicators.
  if (!Vars.Inst.empty() && S.hasMapping()) {
    const Topology &Topo = *Machine.topology();
    std::vector<int> Base(static_cast<size_t>(Machine.numTypes()), 0);
    for (int R = 1; R < Machine.numTypes(); ++R)
      Base[static_cast<size_t>(R)] =
          Base[static_cast<size_t>(R) - 1] + Machine.type(R - 1).Count;

    std::vector<int> CanonUnit(static_cast<size_t>(N), 0);
    for (int R = 0; R < Machine.numTypes(); ++R) {
      const int Count = Machine.type(R).Count;
      std::vector<int> Ops = G.nodesOfClass(R);
      std::vector<int> Perm(static_cast<size_t>(Count), -1);
      for (const std::vector<int> &Class : Topo.interchangeClasses(
               Base[static_cast<size_t>(R)],
               Base[static_cast<size_t>(R)] + Count)) {
        std::vector<bool> InClass(static_cast<size_t>(Count), false);
        for (int GU : Class)
          InClass[static_cast<size_t>(GU - Base[static_cast<size_t>(R)])] =
              true;
        std::vector<int> Order; // Original units, in first-use order.
        for (int Op : Ops) {
          int U = S.Mapping[static_cast<size_t>(Op)];
          if (InClass[static_cast<size_t>(U)] &&
              std::find(Order.begin(), Order.end(), U) == Order.end())
            Order.push_back(U);
        }
        for (int GU : Class) { // Unused members keep ascending order.
          int U = GU - Base[static_cast<size_t>(R)];
          if (std::find(Order.begin(), Order.end(), U) == Order.end())
            Order.push_back(U);
        }
        for (size_t Ix = 0; Ix < Class.size(); ++Ix)
          Perm[static_cast<size_t>(Order[Ix])] =
              Class[Ix] - Base[static_cast<size_t>(R)];
      }
      for (int Op : Ops)
        CanonUnit[static_cast<size_t>(Op)] =
            Perm[static_cast<size_t>(S.Mapping[static_cast<size_t>(Op)])];
    }

    for (int I = 0; I < N; ++I)
      X[static_cast<size_t>(
          Vars.Inst[static_cast<size_t>(I)]
                   [static_cast<size_t>(CanonUnit[static_cast<size_t>(I)])])] =
          1.0;
    for (const FormulationVars::RouteVarIds &RV : Vars.Route) {
      const DdgEdge &E = G.edges()[static_cast<size_t>(RV.Edge)];
      int GU = Base[static_cast<size_t>(G.node(E.Src).OpClass)] +
               CanonUnit[static_cast<size_t>(E.Src)];
      int GV = Base[static_cast<size_t>(G.node(E.Dst).OpClass)] +
               CanonUnit[static_cast<size_t>(E.Dst)];
      X[static_cast<size_t>(RV.Y)] =
          GU == RV.Unit && Topo.hops(GU, GV) == RV.Hops ? 1.0 : 0.0;
    }
  }

  for (size_t EIx = 0; EIx < Vars.Buffers.size(); ++EIx)
    X[static_cast<size_t>(Vars.Buffers[EIx])] =
        edgeBufferCount(G, S, G.edges()[EIx]);

  return X;
}
