//===- Formulation.cpp - The paper's ILP formulations ---------------------===//

#include "swp/core/Formulation.h"

#include "swp/core/CircularArcs.h"
#include "swp/core/PlacementRules.h"
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
  Recycled<PlacementRules> Rules;
  Rules->derive(G, Machine, Opts.Mapping);
  const bool TopoPath = Rules->topoPath();
  MilpModel M;
  resetVars(Vars, T, N, Machine.numTypes(), TopoPath);
  auto AVar = [&Vars](int Slot, int Op) {
    return Vars.A[static_cast<size_t>(Slot)][static_cast<size_t>(Op)];
  };
  auto XVar = [&Vars](int Op, int U) {
    return Vars.Inst[static_cast<size_t>(Op)][static_cast<size_t>(U)];
  };

  // a[t][i] and k[i].
  // Rotating a schedule so the anchor lands on pattern step 0 can carry
  // each stage index up by one, so an anchored model needs one more stage
  // of headroom to stay feasibility-equivalent.
  int KMax = (Opts.KMax >= 0
                  ? Opts.KMax
                  : defaultKMax(G, TopoPath
                                       ? Rules->topology().maxRoutePenalty()
                                       : 0)) +
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
    M.fixVar(AVar(0, Anchor), 1.0);
    for (int Slot = 1; Slot < T; ++Slot)
      M.fixVar(AVar(Slot, Anchor), 0.0);
  }

  // Each instruction initiates exactly once in the pattern (Eq. 9/23).
  for (int I = 0; I < N; ++I) {
    LinExpr &Sum = M.scratchRow();
    for (int Slot = 0; Slot < T; ++Slot)
      Sum.add(AVar(Slot, I), 1.0);
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

  // Overlap-indicator rows of a same-type pair: o >= a[p][i] + sum_{q
  // colliding with p} a[q][j] - 1 (the aggregated form of o >= U_s[t,i] +
  // U_s[t,j] - 1).
  auto AddOverlapRows = [&](VarId O, int OpI, int OpJ) {
    Rules->forEachCollision(OpI, OpJ, T, [&](int P, std::span<const int> Qs) {
      LinExpr &Row = M.scratchRow();
      Row.add(O, 1.0);
      Row.add(AVar(P, OpI), -1.0);
      for (int Q : Qs)
        Row.add(AVar(Q, OpJ), -1.0);
      M.addConstraint(Row, CmpKind::GE, -1.0);
    });
  };

  // Per-type blocks: capacity, then mapping.
  for (int R = 0; R < Machine.numTypes(); ++R) {
    const FuType &Ty = Machine.type(R);
    const std::span<const int> Ops = Rules->ops(R);
    const int NumOps = static_cast<int>(Ops.size());
    if (NumOps == 0)
      continue;

    // Capacity (Eq. 5 generalized per stage): implied when the type has at
    // least as many units as instructions.  Each op occupies the stages of
    // its own reservation-table variant (multi-function pipelines).
    if (NumOps > Ty.Count) {
      for (int Stage = 0; Stage < Rules->maxStages(R); ++Stage) {
        for (int Slot = 0; Slot < T; ++Slot) {
          LinExpr &Usage = M.scratchRow();
          Rules->forEachUsageCell(R, Stage, Slot, T, [&](int Op, int Row) {
            Usage.add(AVar(Row, Op), 1.0);
          });
          M.addConstraint(Usage, CmpKind::LE,
                          static_cast<double>(Ty.Count));
        }
      }
    }

    if (!Rules->separatesUnits(R))
      continue; // Distinct units fit, or units are picked at run time.

    if (Ty.Count == 1) {
      // Single unit: colliding placements are simply forbidden; the
      // coloring machinery would force the same exclusions with o_ij = 0.
      for (int AIx = 0; AIx < NumOps; ++AIx) {
        for (int BIx = AIx + 1; BIx < NumOps; ++BIx) {
          const int OpI = Ops[static_cast<size_t>(AIx)];
          const int OpJ = Ops[static_cast<size_t>(BIx)];
          Rules->forEachCollision(
              OpI, OpJ, T, [&](int P, std::span<const int> Qs) {
                LinExpr &Row = M.scratchRow();
                Row.add(AVar(P, OpI), 1.0);
                for (int Q : Qs)
                  Row.add(AVar(Q, OpJ), 1.0);
                M.addConstraint(Row, CmpKind::LE, 1.0);
              });
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
          const int OpI = Ops[static_cast<size_t>(AIx)];
          const int OpJ = Ops[static_cast<size_t>(BIx)];
          VarId O = M.addBinary();
          M.setBranchPriority(O, 3);
          Vars.Pairs.push_back({OpI, OpJ, O, -1});
          AddOverlapRows(O, OpI, OpJ);
          for (int U = 0; U < Ty.Count; ++U) {
            LinExpr &Row = M.scratchRow();
            Row.add(XVar(OpI, U), 1.0).add(XVar(OpJ, U), 1.0).add(O, 1.0);
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
        AddOverlapRows(O, OpI, OpJ);

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
    // (a) Per DDG edge: forbid unreachable / over-MaxHops placements and
    // tighten the dependence window by the routing penalty rho when both
    // endpoints land on a multi-hop pair.  BigM = rho is exact: with at
    // most one endpoint placed the row relaxes to (or below) the base
    // dependence row emitted above.
    Rules->forEachFeed([&](const DdgEdge &E, int U, int V, int Rho) {
      if (Rho < 0) {
        LinExpr &Row = M.scratchRow();
        Row.add(XVar(E.Src, U), 1.0).add(XVar(E.Dst, V), 1.0);
        M.addConstraint(Row, CmpKind::LE, 1.0);
        return;
      }
      if (Rho == 0)
        return;
      // t_j - t_i >= L + rho - T*m - rho*(2 - x_iu - x_jv).
      LinExpr &Row = M.scratchRow();
      addStartTime(Row, Vars, T, E.Dst, 1.0);
      addStartTime(Row, Vars, T, E.Src, -1.0);
      Row.add(XVar(E.Src, U), -static_cast<double>(Rho));
      Row.add(XVar(E.Dst, V), -static_cast<double>(Rho));
      M.addConstraint(Row, CmpKind::GE,
                      static_cast<double>(E.Latency - T * E.Distance - Rho));
    });

    // (b) Route indicators y[e][u][c]: the value of edge e leaves unit u
    // across exactly c >= 2 hops, occupying the producer's ROUTE cells.
    // Defining rows force y = 1 whenever an (x_iu, x_jv) pair at hop
    // distance c is chosen; a y whose own columns collide modulo T is
    // fixed to 0, which correctly forbids those placements at this T.
    for (const PlacementRules::Route &Rt : Rules->routes()) {
      const DdgEdge &E = G.edges()[static_cast<size_t>(Rt.Edge)];
      VarId Y = M.addBinary();
      M.setBranchPriority(Y, 3);
      Vars.Route.push_back({Rt.Edge, Rt.Unit, Rt.Hops, Y});
      if (Rules->routeSelfCollides(Rt, T))
        M.fixVar(Y, 0.0);
      for (int V : Rules->consumers(Rt)) {
        LinExpr &Row = M.scratchRow();
        Row.add(Y, 1.0);
        Row.add(XVar(E.Src, Rt.ProducerUnit), -1.0).add(XVar(E.Dst, V), -1.0);
        M.addConstraint(Row, CmpKind::GE, -1.0);
      }
    }

    // (c) ROUTE-cell capacity: two active routes on one unit may not both
    // occupy a cell in the same pattern step:
    //   a[p][i1] + a[q][i2] + y1 + y2 <= 3.
    Rules->forEachRouteCollision(T, [&](size_t A, size_t B, int P, int Q) {
      LinExpr &Row = M.scratchRow();
      Row.add(AVar(P, Rules->routes()[A].Producer), 1.0);
      Row.add(AVar(Q, Rules->routes()[B].Producer), 1.0);
      Row.add(Vars.Route[A].Y, 1.0).add(Vars.Route[B].Y, 1.0);
      M.addConstraint(Row, CmpKind::LE, 3.0);
    });

    // (d) Instance symmetry breaking, the x-space analogue of the
    // lexicographic color caps: x[op][cur] <= sum of x[earlier][prev].
    Rules->forEachFirstUse(
        [&](int Op, int Cur, std::span<const int> Earlier, int Prev) {
          if (Earlier.empty()) {
            M.fixVar(XVar(Op, Cur), 0.0);
            return;
          }
          LinExpr &Row = M.scratchRow();
          Row.add(XVar(Op, Cur), 1.0);
          for (int E : Earlier)
            Row.add(XVar(E, Prev), -1.0);
          M.addConstraint(Row, CmpKind::LE, 0.0);
        });
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
    Recycled<PlacementRules> Rules;
    Rules->derive(G, Machine, Opts.Mapping);
    std::vector<int> CanonUnit(static_cast<size_t>(N), 0);
    std::vector<int> Order; // A class's used units, in first-use order.
    for (const PlacementRules::UnitClass &C : Rules->classes()) {
      const std::span<const int> Units = Rules->members(C);
      Order.clear();
      for (int Op : Rules->ops(C.Type)) {
        const int U = S.Mapping[static_cast<size_t>(Op)];
        if (std::find(Units.begin(), Units.end(), U) == Units.end())
          continue;
        auto It = std::find(Order.begin(), Order.end(), U);
        if (It == Order.end())
          It = Order.insert(It, U);
        CanonUnit[static_cast<size_t>(Op)] =
            Units[static_cast<size_t>(It - Order.begin())];
      }
    }

    for (int I = 0; I < N; ++I)
      X[static_cast<size_t>(
          Vars.Inst[static_cast<size_t>(I)]
                   [static_cast<size_t>(CanonUnit[static_cast<size_t>(I)])])] =
          1.0;
    for (const FormulationVars::RouteVarIds &RV : Vars.Route) {
      const DdgEdge &E = G.edges()[static_cast<size_t>(RV.Edge)];
      const int GU = Rules->globalUnit(G.node(E.Src).OpClass,
                                       CanonUnit[static_cast<size_t>(E.Src)]);
      const int GV = Rules->globalUnit(G.node(E.Dst).OpClass,
                                       CanonUnit[static_cast<size_t>(E.Dst)]);
      X[static_cast<size_t>(RV.Y)] =
          GU == RV.Unit && Rules->topology().hops(GU, GV) == RV.Hops ? 1.0
                                                                     : 0.0;
    }
  }

  for (size_t EIx = 0; EIx < Vars.Buffers.size(); ++EIx)
    X[static_cast<size_t>(Vars.Buffers[EIx])] =
        edgeBufferCount(G, S, G.edges()[EIx]);

  return X;
}
