//===- BranchAndBound.cpp - MILP search -----------------------------------===//

#include "swp/solver/BranchAndBound.h"

#include "swp/solver/Simplex.h"
#include "swp/support/FaultInjector.h"
#include "swp/support/Stopwatch.h"

#include <cmath>
#include <limits>
#include <span>

using namespace swp;

namespace {

/// An LP value this close to an integer counts as integral.
constexpr double IntTol = 1e-6;

/// One saved bound pair on the propagation trail.
struct PropEntry {
  int Var;
  double OldLb, OldUb;
};

/// A <=-normalized row prepared for propagation, with its terms split by
/// convexity group.  For a group ("exactly one of these binaries"), the
/// row's minimum activity over *integer* points is the minimum coefficient
/// among the group's still-open members — far tighter than per-variable
/// interval arithmetic, which prices every member at its lower bound
/// simultaneously.  On the scheduling models this turns the dependence
/// rows into genuine time-window propagation: the offset sum of an op is
/// bracketed by its open slots, the stage difference k_j - k_i rounds up
/// to the ceil'd Bellman-Ford weight, and slots that would violate a row
/// get eliminated one by one.
///
/// Rows are offset ranges into SearchStore's pools: the ungrouped terms
/// are PropTerms[UngroupedBegin, UngroupedEnd) and the segments
/// PropSegs[SegBegin, SegEnd).
struct PropRow {
  int UngroupedBegin, UngroupedEnd;
  int SegBegin, SegEnd;
  double Rhs;
};
/// One group's part of a row: the members present in the row,
/// PropTerms[PresentBegin, PresentEnd), and the members absent from it
/// (coefficient 0 there), PropAbsent[AbsentBegin, AbsentEnd).
struct PropSeg {
  int PresentBegin, PresentEnd;
  int AbsentBegin, AbsentEnd;
};

/// Search's vectors, recycled across searches on a thread
/// (swp/support/ThreadSpare.h).
struct SearchStore {
  std::vector<double> Lb, Ub;
  /// "Exactly one of these binaries" rows (convexity/assignment rows),
  /// detected once up front: group G's members are
  /// GroupMembers[GroupStart[G], GroupStart[G + 1]); GroupOf maps a var to
  /// its group or -1.
  std::vector<int> GroupStart, GroupMembers, GroupOf;
  std::vector<PropRow> PropRows;
  std::vector<PropSeg> PropSegs;
  std::vector<LinTerm> PropTerms;
  std::vector<int> PropAbsent;
  /// The prop rows that read each variable's bounds (its terms and the
  /// absent members of its segments): VarRows[VarRowStart[V],
  /// VarRowStart[V + 1]).
  std::vector<int> VarRowStart, VarRows;
  /// Per prop row: a variable it reads changed bounds since it last ran.
  std::vector<char> RowDirty;
  /// addPropRow scratch: group -> segment index within the row, and the
  /// row's present members.
  std::vector<int> SegIx;
  std::vector<char> InRow;
  /// propagateRow scratch: per-segment (min contribution, decided).
  std::vector<std::pair<double, bool>> SegMin;
  /// Bound changes to undo, one DFS node's above another's.
  std::vector<PropEntry> Trail;
  /// Each open node's structural basis, NumVars statuses per node.
  std::vector<LpBasisStatus> BasisStack;
  /// branchOnGroup's open members and saved bounds, per open call.
  std::vector<int> OpenStack;
  std::vector<double> SavedStack;
  /// acceptIncumbent's rounded copy of an LP point.
  std::vector<double> Snapped;

  void reset() {
    for (std::vector<double> *V : {&Lb, &Ub, &SavedStack, &Snapped})
      V->clear();
    for (std::vector<int> *V :
         {&GroupStart, &GroupMembers, &GroupOf, &PropAbsent, &VarRowStart,
          &VarRows, &SegIx, &OpenStack})
      V->clear();
    PropRows.clear();
    PropSegs.clear();
    PropTerms.clear();
    RowDirty.clear();
    InRow.clear();
    SegMin.clear();
    Trail.clear();
    BasisStack.clear();
  }
  std::size_t capacityBytes() const {
    std::size_t Sum = heapBytes(PropRows) + heapBytes(PropSegs) +
                      heapBytes(PropTerms) + heapBytes(RowDirty) +
                      heapBytes(InRow) + heapBytes(SegMin) + heapBytes(Trail) +
                      heapBytes(BasisStack);
    for (const std::vector<double> *V : {&Lb, &Ub, &SavedStack, &Snapped})
      Sum += heapBytes(*V);
    for (const std::vector<int> *V :
         {&GroupStart, &GroupMembers, &GroupOf, &PropAbsent, &VarRowStart,
          &VarRows, &SegIx, &OpenStack})
      Sum += heapBytes(*V);
    return Sum;
  }
};

/// Mutable search state shared across the DFS.  All node relaxations go
/// through one SparseLp workspace: a child differs from its parent by one
/// tightened bound, so the parent's optimal basis is one short dual-simplex
/// reoptimization away from the child's.
class Search : private SpareBacked<SearchStore> {
public:
  Search(SparseLp &Lp, const MilpModel &M, const MilpOptions &Opts)
      : Lp(Lp), M(M), Opts(Opts), LpDeadline(Opts.Cancel) {
    Lb.resize(static_cast<size_t>(M.numVars()));
    Ub.resize(static_cast<size_t>(M.numVars()));
    for (int I = 0; I < M.numVars(); ++I) {
      Lb[static_cast<size_t>(I)] = M.var(I).Lb;
      Ub[static_cast<size_t>(I)] = M.var(I).Ub;
    }
    detectConvexityGroups();
    buildPropRows();
    // The node loop checks the wall-clock between relaxations, but a
    // single slow LP can blow straight through the budget; arm a nested
    // deadline token so the pivot loop itself stops on time.  (Deadlines
    // near the sentinel "unlimited" value would overflow the clock.)
    if (Opts.TimeLimitSec < 1e8)
      LpDeadline.setDeadlineAfter(Opts.TimeLimitSec);
    LpToken = LpDeadline.token();
  }

  MilpResult run() {
    if (!Opts.WarmStart.empty() && M.isFeasible(Opts.WarmStart, 1e-6)) {
      Incumbent = Opts.WarmStart;
      IncumbentObj = MilpModel::evaluate(M.objective(), Incumbent);
      if (Opts.StopAtFirstIncumbent)
        StopEarly = true;
    }
    dfs();
    // An LP stall censors only the subtree beneath the stalled node; the
    // DFS keeps exploring siblings.  Report it as the stop reason only
    // when no hard limit also fired.
    if (Stop == SearchStop::None && LpStalled)
      Stop = SearchStop::LpStall;
    MilpResult Res;
    Res.Nodes = Nodes;
    Res.X = std::move(Incumbent);
    Res.Objective = IncumbentObj;
    Res.StopReason = Stop;
    if (Stop == SearchStop::Fault)
      Res.Error = Status(StatusCode::FaultInjected,
                         "node expansion fault killed the search");
    bool LimitHit = Stop != SearchStop::None;
    if (!Res.X.empty())
      Res.Status = (LimitHit && !StopEarly) ? MilpStatus::Feasible
                                            : MilpStatus::Optimal;
    else if (Stop == SearchStop::Fault)
      Res.Status = MilpStatus::Error; // Killed with nothing usable.
    else
      Res.Status = LimitHit ? MilpStatus::Unknown : MilpStatus::Infeasible;
    return Res;
  }

private:
  bool limitsExceeded() {
    if (Stop != SearchStop::None)
      return true;
    if (Opts.Cancel.cancelled()) {
      Stop = SearchStop::Cancelled;
      return true;
    }
    if (Nodes >= Opts.NodeLimit) {
      Stop = SearchStop::NodeLimit;
      return true;
    }
    if (Watch.seconds() >= Opts.TimeLimitSec) {
      Stop = SearchStop::TimeLimit;
      return true;
    }
    return false;
  }

  /// Finds "exactly one of these binaries" rows (sum x = 1, unit
  /// coefficients) — the formulation's per-op assignment rows.  Branching
  /// splits such a group's support in two instead of fixing one binary at
  /// a time: on time-indexed scheduling models a single A[t][i] branch
  /// barely moves the weak big-M relaxation, while halving an op's time
  /// window changes many bounds at once and actually prunes.
  void detectConvexityGroups() {
    GroupOf.assign(static_cast<size_t>(M.numVars()), -1);
    GroupStart.push_back(0);
    for (const ModelConstraint &C : M.constraints()) {
      if (C.Cmp != CmpKind::EQ || std::abs(C.Rhs - 1.0) > 1e-9 ||
          C.Expr.terms().size() < 2)
        continue;
      bool Ok = true;
      for (const LinTerm &T : C.Expr.terms()) {
        const ModelVar &V = M.var(T.Var);
        Ok = Ok && std::abs(T.Coef - 1.0) <= 1e-9 &&
             V.Kind != VarKind::Continuous && V.Lb > -1e-9 &&
             V.Ub < 1.0 + 1e-9 && GroupOf[static_cast<size_t>(T.Var)] < 0;
      }
      if (!Ok)
        continue;
      const int G = numGroups();
      for (const LinTerm &T : C.Expr.terms()) {
        GroupOf[static_cast<size_t>(T.Var)] = G;
        GroupMembers.push_back(T.Var);
      }
      GroupStart.push_back(static_cast<int>(GroupMembers.size()));
    }
  }

  int numGroups() const { return static_cast<int>(GroupStart.size()) - 1; }
  std::span<const int> group(int G) const {
    return {GroupMembers.data() + GroupStart[static_cast<size_t>(G)],
            GroupMembers.data() + GroupStart[static_cast<size_t>(G) + 1]};
  }

  /// \returns the fractional integer variable to branch on, or -1 when all
  /// integer variables are integral.  Among fractional variables, the
  /// lowest BranchPriority class wins; within a class, the variable
  /// farthest from integrality.
  int pickBranchVar(const std::vector<double> &X) const {
    int Best = -1;
    int BestPriority = 0;
    double BestFrac = 0.0;
    for (int I = 0; I < M.numVars(); ++I) {
      const ModelVar &MV = M.var(I);
      if (MV.Kind == VarKind::Continuous)
        continue;
      double V = X[static_cast<size_t>(I)];
      double Frac = std::abs(V - std::round(V));
      if (Frac <= IntTol)
        continue;
      if (Best < 0 || MV.BranchPriority < BestPriority ||
          (MV.BranchPriority == BestPriority && Frac > BestFrac)) {
        Best = I;
        BestPriority = MV.BranchPriority;
        BestFrac = Frac;
      }
    }
    return Best;
  }

  void acceptIncumbent(const std::vector<double> &X, double Obj) {
    // Snap integer variables to exact integers.
    Snapped.assign(X.begin(), X.end());
    for (int I = 0; I < M.numVars(); ++I)
      if (M.var(I).Kind != VarKind::Continuous)
        Snapped[static_cast<size_t>(I)] =
            std::round(Snapped[static_cast<size_t>(I)]);
    if (!M.isFeasible(Snapped, 1e-5))
      return; // Rounding broke a tight constraint; keep searching.
    if (Incumbent.empty() || Obj < IncumbentObj - 1e-9) {
      Incumbent.swap(Snapped);
      IncumbentObj = Obj;
      if (Opts.StopAtFirstIncumbent)
        StopEarly = true;
    }
  }

  std::span<const LinTerm> propTerms(int Begin, int End) const {
    return {PropTerms.data() + Begin, PropTerms.data() + End};
  }

  void addPropRow(RowExpr Expr, double Sign, double Rhs) {
    PropRow R;
    R.Rhs = Rhs;
    // Ungrouped terms first, in row order; each group's segment, in order
    // of the group's first term, counts its present members.
    R.UngroupedBegin = static_cast<int>(PropTerms.size());
    R.SegBegin = static_cast<int>(PropSegs.size());
    for (const LinTerm &Tm : Expr.terms()) {
      int G = GroupOf[static_cast<size_t>(Tm.Var)];
      if (G < 0) {
        PropTerms.push_back({Tm.Var, Sign * Tm.Coef});
        continue;
      }
      int &S = SegIx[static_cast<size_t>(G)];
      if (S < 0) {
        S = static_cast<int>(PropSegs.size()) - R.SegBegin;
        PropSegs.push_back({0, 0, 0, 0});
      }
      ++PropSegs[static_cast<size_t>(R.SegBegin + S)].PresentEnd;
    }
    R.UngroupedEnd = static_cast<int>(PropTerms.size());
    R.SegEnd = static_cast<int>(PropSegs.size());
    // Lay the segments' present members out after the ungrouped terms.
    int Next = R.UngroupedEnd;
    for (int SIx = R.SegBegin; SIx < R.SegEnd; ++SIx) {
      PropSeg &Seg = PropSegs[static_cast<size_t>(SIx)];
      const int Count = Seg.PresentEnd;
      Seg.PresentBegin = Seg.PresentEnd = Next;
      Next += Count;
    }
    PropTerms.resize(static_cast<size_t>(Next));
    for (const LinTerm &Tm : Expr.terms()) {
      int G = GroupOf[static_cast<size_t>(Tm.Var)];
      if (G < 0)
        continue;
      PropSeg &Seg = PropSegs[static_cast<size_t>(
          R.SegBegin + SegIx[static_cast<size_t>(G)])];
      PropTerms[static_cast<size_t>(Seg.PresentEnd++)] = {Tm.Var,
                                                          Sign * Tm.Coef};
    }
    // Group members the row does not mention contribute 0 when chosen.
    for (int SIx = R.SegBegin; SIx < R.SegEnd; ++SIx) {
      PropSeg &Seg = PropSegs[static_cast<size_t>(SIx)];
      std::span<const LinTerm> Present =
          propTerms(Seg.PresentBegin, Seg.PresentEnd);
      for (const LinTerm &Tm : Present)
        InRow[static_cast<size_t>(Tm.Var)] = 1;
      const int G = GroupOf[static_cast<size_t>(Present.front().Var)];
      Seg.AbsentBegin = static_cast<int>(PropAbsent.size());
      for (int V : group(G))
        if (!InRow[static_cast<size_t>(V)])
          PropAbsent.push_back(V);
      Seg.AbsentEnd = static_cast<int>(PropAbsent.size());
      for (const LinTerm &Tm : Present)
        InRow[static_cast<size_t>(Tm.Var)] = 0;
      SegIx[static_cast<size_t>(G)] = -1;
    }
    PropRows.push_back(R);
  }

  void buildPropRows() {
    SegIx.assign(static_cast<size_t>(numGroups()), -1);
    InRow.assign(static_cast<size_t>(M.numVars()), 0);
    for (const ModelConstraint &C : M.constraints()) {
      if (C.Cmp != CmpKind::GE)
        addPropRow(C.Expr, 1.0, C.Rhs);
      if (C.Cmp != CmpKind::LE)
        addPropRow(C.Expr, -1.0, -C.Rhs);
    }
    // The variable -> rows index: VarRowStart[V] counts V's rows, then
    // holds the end of its range, and each fill steps it back to the start.
    VarRowStart.assign(static_cast<size_t>(M.numVars()) + 1, 0);
    forEachRowVar([&](int, int V) { ++VarRowStart[static_cast<size_t>(V)]; });
    for (int V = 0; V < M.numVars(); ++V)
      VarRowStart[static_cast<size_t>(V) + 1] +=
          VarRowStart[static_cast<size_t>(V)];
    VarRows.resize(static_cast<size_t>(VarRowStart.back()));
    forEachRowVar([&](int RIx, int V) {
      VarRows[static_cast<size_t>(--VarRowStart[static_cast<size_t>(V)])] =
          RIx;
    });
    RowDirty.assign(PropRows.size(), 0);
  }

  /// Calls \p F(row index, variable) for each variable whose bounds each
  /// prop row reads.
  template <typename Fn> void forEachRowVar(Fn &&F) const {
    for (size_t RIx = 0; RIx < PropRows.size(); ++RIx) {
      const PropRow &R = PropRows[RIx];
      const int Ix = static_cast<int>(RIx);
      for (int T = R.UngroupedBegin; T < R.UngroupedEnd; ++T)
        F(Ix, PropTerms[static_cast<size_t>(T)].Var);
      for (int SIx = R.SegBegin; SIx < R.SegEnd; ++SIx) {
        const PropSeg &Seg = PropSegs[static_cast<size_t>(SIx)];
        for (int T = Seg.PresentBegin; T < Seg.PresentEnd; ++T)
          F(Ix, PropTerms[static_cast<size_t>(T)].Var);
        for (int A = Seg.AbsentBegin; A < Seg.AbsentEnd; ++A)
          F(Ix, PropAbsent[static_cast<size_t>(A)]);
      }
    }
  }

  /// Propagates one prepared row.  \returns false when the row proves the
  /// node integer-infeasible.
  bool propagateRow(const PropRow &R, bool &Changed) {
    constexpr double Inf = std::numeric_limits<double>::infinity();
    // Minimum activity.  Ungrouped positive coefficients engage lower
    // bounds and negative ones upper bounds, so the tightenings below
    // (upper for positive, lower for negative, member eliminations) never
    // invalidate the running sum.
    double MinAct = 0.0;
    int InfTerms = 0;
    const std::span<const LinTerm> Ungrouped =
        propTerms(R.UngroupedBegin, R.UngroupedEnd);
    const std::span<const PropSeg> Segs(PropSegs.data() + R.SegBegin,
                                        PropSegs.data() + R.SegEnd);
    for (const LinTerm &Tm : Ungrouped) {
      double B = Tm.Coef > 0 ? Tm.Coef * Lb[static_cast<size_t>(Tm.Var)]
                             : Tm.Coef * Ub[static_cast<size_t>(Tm.Var)];
      if (std::isinf(B))
        ++InfTerms;
      else
        MinAct += B;
    }
    // Per-segment minimum contribution; a member fixed to 1 decides it.
    SegMin.clear();
    for (const PropSeg &S : Segs) {
      double GMin = Inf;
      bool Fixed1 = false;
      for (const LinTerm &Tm : propTerms(S.PresentBegin, S.PresentEnd)) {
        size_t V = static_cast<size_t>(Tm.Var);
        if (Lb[V] > 0.5) {
          GMin = Tm.Coef;
          Fixed1 = true;
          break;
        }
        if (Ub[V] > 0.5)
          GMin = std::min(GMin, Tm.Coef);
      }
      if (!Fixed1)
        for (int I = S.AbsentBegin; I < S.AbsentEnd; ++I) {
          const int V = PropAbsent[static_cast<size_t>(I)];
          if (Lb[static_cast<size_t>(V)] > 0.5) {
            GMin = 0.0;
            Fixed1 = true;
            break;
          }
          if (Ub[static_cast<size_t>(V)] > 0.5) {
            GMin = std::min(GMin, 0.0);
            break; // One open zero-coefficient member is enough.
          }
        }
      if (GMin == Inf)
        return false; // Group has no open member: no integer point.
      SegMin.push_back({GMin, Fixed1});
      MinAct += GMin;
    }
    if (InfTerms == 0 && MinAct > R.Rhs + 1e-6)
      return false;

    // Ungrouped tightening.
    for (const LinTerm &Tm : Ungrouped) {
      double C = Tm.Coef;
      size_t V = static_cast<size_t>(Tm.Var);
      double Own = C > 0 ? C * Lb[V] : C * Ub[V];
      bool OwnInf = std::isinf(Own);
      if (InfTerms > (OwnInf ? 1 : 0))
        continue; // Another unbounded term absorbs any slack.
      double Bound = (R.Rhs - (MinAct - (OwnInf ? 0.0 : Own))) / C;
      bool IsInt = M.var(Tm.Var).Kind != VarKind::Continuous;
      if (C > 0) {
        double NewUb = IsInt ? std::floor(Bound + 1e-6) : Bound + 1e-9;
        if (NewUb < Ub[V] - 1e-9) {
          if (NewUb < Lb[V] - 1e-6)
            return false;
          Trail.push_back({Tm.Var, Lb[V], Ub[V]});
          Ub[V] = NewUb;
          Changed = true;
        }
      } else {
        double NewLb = IsInt ? std::ceil(Bound - 1e-6) : Bound - 1e-9;
        if (NewLb > Lb[V] + 1e-9) {
          if (NewLb > Ub[V] + 1e-6)
            return false;
          Trail.push_back({Tm.Var, Lb[V], Ub[V]});
          Lb[V] = NewLb;
          Changed = true;
        }
      }
    }

    // Member elimination: choosing member v makes the row's activity at
    // least MinAct - GMin + coef_v, so any member whose coefficient
    // exceeds the segment's slack cannot be the group's 1.
    if (InfTerms == 0) {
      for (size_t SIx = 0; SIx < Segs.size(); ++SIx) {
        if (SegMin[SIx].second)
          continue; // Decided by a fixed member; EQ row zeroes the rest.
        double Slack = R.Rhs + 1e-6 - (MinAct - SegMin[SIx].first);
        const PropSeg &S = Segs[SIx];
        for (const LinTerm &Tm : propTerms(S.PresentBegin, S.PresentEnd)) {
          size_t V = static_cast<size_t>(Tm.Var);
          if (Ub[V] > 0.5 && Tm.Coef > Slack) {
            Trail.push_back({Tm.Var, Lb[V], Ub[V]});
            Ub[V] = 0.0;
            Changed = true;
          }
        }
        if (0.0 > Slack)
          for (int I = S.AbsentBegin; I < S.AbsentEnd; ++I) {
            const int AV = PropAbsent[static_cast<size_t>(I)];
            size_t V = static_cast<size_t>(AV);
            if (Ub[V] > 0.5) {
              Trail.push_back({AV, Lb[V], Ub[V]});
              Ub[V] = 0.0;
              Changed = true;
            }
          }
      }
    }
    return true;
  }

  /// Node presolve: tightens Lb/Ub to a fixpoint (bounded pass count).
  /// Every change lands on Trail for the caller to undo.  \returns false
  /// when some row proves the node has no integer point — the node is then
  /// pruned without an LP solve.
  ///
  /// The first pass runs every row; later passes run only the rows a new
  /// Trail entry has dirtied since they last started.  A clean row would
  /// read the bounds its last run read, which changed nothing and returned
  /// true (a change it made dirties it), so skipping it leaves every pass
  /// and the trail as running all rows would.
  bool propagateBounds() {
    size_t Seen = Trail.size();
    for (int Pass = 0; Pass < 16; ++Pass) {
      bool Changed = false;
      for (size_t RIx = 0; RIx < PropRows.size(); ++RIx) {
        if (Pass > 0 && !RowDirty[RIx])
          continue;
        RowDirty[RIx] = 0;
        if (!propagateRow(PropRows[RIx], Changed))
          return false;
        for (; Seen < Trail.size(); ++Seen) {
          const size_t V = static_cast<size_t>(Trail[Seen].Var);
          for (int I = VarRowStart[V]; I < VarRowStart[V + 1]; ++I)
            RowDirty[static_cast<size_t>(VarRows[static_cast<size_t>(I)])] =
                1;
        }
      }
      if (!Changed)
        break;
    }
    return true;
  }

  void dfs() {
    if (StopEarly || limitsExceeded())
      return;
    ++Nodes;

    // Fault injection: node expansion dies.  A fault is a hard stop (the
    // whole search is untrusted), unlike an LP stall which censors only
    // its subtree.
    if (FaultInjector::instance().shouldFire(FaultSite::BnbNode)) {
      Stop = SearchStop::Fault;
      return;
    }

    const size_t Mark = Trail.size();
    if (propagateBounds())
      expand();
    for (; Trail.size() > Mark; Trail.pop_back()) {
      Lb[static_cast<size_t>(Trail.back().Var)] = Trail.back().OldLb;
      Ub[static_cast<size_t>(Trail.back().Var)] = Trail.back().OldUb;
    }
  }

  /// Solves the node relaxation and branches; runs under the node's
  /// propagated bounds (see dfs).
  void expand() {
    LpResult Relax = Lp.solve(Lb, Ub, LpToken);
    if (Relax.Status == LpStatus::Infeasible)
      return;
    if (Relax.Status == LpStatus::Cancelled) {
      // Attribute the stop: the caller's token means cancellation, our own
      // nested deadline means the time limit expired mid-solve.
      Stop = Opts.Cancel.cancelled() ? SearchStop::Cancelled
                                     : SearchStop::TimeLimit;
      return;
    }
    if (Relax.Status != LpStatus::Optimal) {
      // Iteration trouble or unboundedness: nothing is proven below this
      // node, but sibling subtrees are unaffected — record the stall
      // without stopping the search.
      LpStalled = true;
      return;
    }
    if (!Incumbent.empty() && Relax.Objective >= IncumbentObj - 1e-9)
      return; // Bound prune.

    int BranchVar = pickBranchVar(Relax.X);
    if (BranchVar < 0) {
      acceptIncumbent(Relax.X, Relax.Objective);
      return;
    }

    // The first child re-solves straight from this node's optimal basis
    // (still loaded in the workspace).  By the time the second child runs,
    // the workspace holds whatever vertex the first child's subtree ended
    // on — arbitrarily far away — so snapshot this node's basis and
    // re-seed before the switch; a child is then always one bound change
    // from its parent, which is what keeps dual reoptimization short.
    const size_t BasisAt = BasisStack.size();
    const std::span<const LpBasisStatus> B = Lp.structuralBasis();
    BasisStack.insert(BasisStack.end(), B.begin(), B.end());
    branch(BranchVar, Relax.X, BasisAt);
    BasisStack.resize(BasisAt);
  }

  /// The structural basis expand() saved at \p BasisAt.
  std::span<const LpBasisStatus> nodeBasis(size_t BasisAt) const {
    return {BasisStack.data() + BasisAt, static_cast<size_t>(M.numVars())};
  }

  /// Branches on \p BranchVar, fractional in the node's LP point \p X.
  void branch(int BranchVar, const std::vector<double> &X, size_t BasisAt) {
    int Grp = GroupOf[static_cast<size_t>(BranchVar)];
    if (Grp >= 0 && branchOnGroup(Grp, X, BasisAt))
      return;

    double V = X[static_cast<size_t>(BranchVar)];
    double Floor = std::floor(V + IntTol);
    double SavedLb = Lb[static_cast<size_t>(BranchVar)];
    double SavedUb = Ub[static_cast<size_t>(BranchVar)];

    bool UpFirst = (V - Floor) > 0.5;
    for (int Side = 0; Side < 2 && !StopEarly; ++Side) {
      bool Up = (Side == 0) == UpFirst;
      if (Side == 1)
        Lp.seedBasis(nodeBasis(BasisAt));
      if (Up) {
        Lb[static_cast<size_t>(BranchVar)] = Floor + 1.0;
        if (Lb[static_cast<size_t>(BranchVar)] <= SavedUb + 1e-9)
          dfs();
        Lb[static_cast<size_t>(BranchVar)] = SavedLb;
      } else {
        Ub[static_cast<size_t>(BranchVar)] = Floor;
        if (Ub[static_cast<size_t>(BranchVar)] >= SavedLb - 1e-9)
          dfs();
        Ub[static_cast<size_t>(BranchVar)] = SavedUb;
      }
    }
  }

  /// Dichotomy branching on an "exactly one" group: split the still-open
  /// support at the LP mass midpoint and forbid one half per child.  Any
  /// integer point has its 1 in exactly one half, so the children
  /// partition the feasible set.  \returns false (caller falls back to
  /// single-variable branching) when fewer than two members are open.
  bool branchOnGroup(int Grp, const std::vector<double> &X, size_t BasisAt) {
    const size_t OpenAt = OpenStack.size();
    double Mass = 0.0;
    for (int V : group(Grp))
      if (Ub[static_cast<size_t>(V)] > 0.5) {
        OpenStack.push_back(V);
        Mass += X[static_cast<size_t>(V)];
      }
    const size_t NumOpen = OpenStack.size() - OpenAt;
    auto Open = [&](size_t I) {
      return static_cast<size_t>(OpenStack[OpenAt + I]);
    };
    if (NumOpen < 2) {
      OpenStack.resize(OpenAt);
      return false;
    }

    // Smallest prefix holding at least half the LP mass, but never the
    // whole support (both children must forbid something).
    size_t Cut = 0;
    double LeftMass = 0.0;
    while (Cut + 1 < NumOpen) {
      LeftMass += X[Open(Cut)];
      ++Cut;
      if (LeftMass >= Mass / 2.0)
        break;
    }

    bool LeftFirst = LeftMass >= Mass - LeftMass;
    for (int Side = 0; Side < 2 && !StopEarly; ++Side) {
      bool KeepLeft = (Side == 0) == LeftFirst;
      if (Side == 1)
        Lp.seedBasis(nodeBasis(BasisAt));
      size_t Begin = KeepLeft ? Cut : 0;
      size_t End = KeepLeft ? NumOpen : Cut;
      const size_t SavedAt = SavedStack.size();
      for (size_t I = Begin; I < End; ++I) {
        SavedStack.push_back(Ub[Open(I)]);
        Ub[Open(I)] = 0.0;
      }
      dfs();
      for (size_t I = Begin; I < End; ++I)
        Ub[Open(I)] = SavedStack[SavedAt + I - Begin];
      SavedStack.resize(SavedAt);
    }
    OpenStack.resize(OpenAt);
    return true;
  }

  SparseLp &Lp;
  const MilpModel &M;
  const MilpOptions &Opts;
  CancellationSource LpDeadline;
  CancellationToken LpToken;
  std::vector<double> Incumbent;
  double IncumbentObj = 0.0;
  std::int64_t Nodes = 0;
  SearchStop Stop = SearchStop::None;
  bool LpStalled = false;
  bool StopEarly = false;
  Stopwatch Watch;
};

} // namespace

const char *swp::milpStatusName(MilpStatus S) {
  switch (S) {
  case MilpStatus::Optimal:
    return "optimal";
  case MilpStatus::Infeasible:
    return "infeasible";
  case MilpStatus::Feasible:
    return "feasible";
  case MilpStatus::Unknown:
    return "unknown";
  case MilpStatus::Error:
    return "error";
  }
  return "?";
}

const char *swp::searchStopName(SearchStop S) {
  switch (S) {
  case SearchStop::None:
    return "none";
  case SearchStop::TimeLimit:
    return "time-limit";
  case SearchStop::NodeLimit:
    return "node-limit";
  case SearchStop::Cancelled:
    return "cancelled";
  case SearchStop::LpStall:
    return "lp-stall";
  case SearchStop::Fault:
    return "fault";
  }
  return "?";
}

namespace {

MilpResult invalidModelResult(const MilpModel &M) {
  MilpResult Res;
  Res.Status = MilpStatus::Error;
  Res.StopReason = SearchStop::Fault;
  Res.Error = Status(StatusCode::InvalidInput,
                     "malformed MILP model: " + M.buildError());
  return Res;
}

} // namespace

MilpResult swp::solveMilp(const MilpModel &M, const MilpOptions &Opts) {
  if (!M.valid())
    return invalidModelResult(M);
  SparseLp Lp(M);
  Search S(Lp, M, Opts);
  return S.run();
}

MilpResult swp::solveMilp(SparseLp &Lp, const MilpModel &M,
                          const MilpOptions &Opts) {
  if (!M.valid())
    return invalidModelResult(M);
  Search S(Lp, M, Opts);
  return S.run();
}
