//===- swp/core/PlacementRules.h - Placement rules of the exact encodings -===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The placement rules of the paper's Sections 4-5, derived once for both
/// exact encodings: buildScheduleModel and scheduleToAssignment emit them
/// as rows, CnfEncoder as clauses, each walking a rule in the order given
/// here.  The rules are the usage cells of Eqs. 5/24-25, the unit
/// collisions of same-type ops (the circular-arc overlap of Section 4.2)
/// and, on a topology that constrains placement under fixed mapping
/// (swp/machine/Topology.h), the feeds, route indicators, ROUTE-cell
/// collisions and interchange classes.
///
/// derive() computes what does not depend on T; the per-T enumerations
/// are templates over a visitor, so no row path allocates or calls
/// through std::function.  The object is a recyclable store
/// (swp/support/ThreadSpare.h).
///
//===----------------------------------------------------------------------===//

#ifndef SWP_CORE_PLACEMENTRULES_H
#define SWP_CORE_PLACEMENTRULES_H

#include "swp/core/Formulation.h"

#include <cstddef>
#include <span>
#include <vector>

namespace swp {

class PlacementRules {
public:
  /// Route indicator: the value of DDG edge Edge, produced by node
  /// Producer on unit ProducerUnit of its type (global unit Unit), crosses
  /// exactly Hops >= 2 hops.  T-independent, so every T lists the same
  /// routes in the same order.
  struct Route {
    int Edge, Producer, ProducerUnit, Unit, Hops;
    int ConsumerBegin, ConsumerEnd, ColBegin, ColEnd;
  };
  /// A class of one type's interchangeable units (Topology::
  /// interchangeClasses): any permutation of its members is a symmetry.
  struct UnitClass {
    int Type, Begin, End;
  };

  /// Derives the rules of \p G on \p Machine under \p Mapping, reusing
  /// this object's storage; borrows both until the next derive().
  void derive(const Ddg &G, const MachineModel &Machine, MappingKind Mapping);

  /// The ops of FU type \p R in node order (the symmetry breaking's op
  /// index), and the most stages any of their tables has.
  std::span<const int> ops(int R) const {
    return {TypeOps.data() + TypeBegin[static_cast<std::size_t>(R)],
            TypeOps.data() + TypeBegin[static_cast<std::size_t>(R) + 1]};
  }
  int maxStages(int R) const { return MaxStages[static_cast<std::size_t>(R)]; }

  /// True when colliding ops of type \p R must sit on different units:
  /// under fixed mapping, when the type has more ops than units or, on the
  /// topology path, two ops at all (adjacency may force unit sharing even
  /// when distinct units would fit).
  bool separatesUnits(int R) const;

  /// Fixed mapping on a machine whose topology constrains placement; the
  /// topology rules below are empty otherwise.
  bool topoPath() const { return Topo != nullptr; }
  const Topology &topology() const { return *Topo; }
  /// Global index of unit \p U of type \p R.
  int globalUnit(int R, int U) const {
    return UnitBase[static_cast<std::size_t>(R)] + U;
  }

  /// Calls Cell(Op, Row) for each op of type \p R that holds \p Stage at
  /// pattern step \p Slot, period \p T, when it initiates at step Row: in
  /// op order, then busy-column order.
  template <typename F>
  void forEachUsageCell(int R, int Stage, int Slot, int T, F &&Cell) const {
    for (int Op : ops(R)) {
      const ReservationTable &Table = Machine->tableFor(G->node(Op));
      if (Stage >= Table.numStages())
        continue;
      for (int L : Table.busyColumns(Stage))
        Cell(Op, ((Slot - L) % T + T) % T);
    }
  }

  /// Calls Forbid(P, Qs) for each pattern step P of op \p OpI, Qs being
  /// the ascending steps of same-type op \p OpJ at which the two collide
  /// on a shared unit at period \p T (their tables conflict at delta
  /// Q - P); calls nothing when they never collide.
  template <typename F>
  void forEachCollision(int OpI, int OpJ, int T, F &&Forbid) {
    if (!collisionOffsets(OpI, OpJ, T))
      return;
    for (int P = 0; P < T; ++P) {
      Steps.clear();
      for (int Q = 0; Q < T; ++Q)
        if (Collide[static_cast<std::size_t>(((Q - P) % T + T) % T)])
          Steps.push_back(Q);
      Forbid(P, std::span<const int>(Steps));
    }
  }

  /// Calls Feed(E, U, V, Rho) for each edge E between two distinct nodes
  /// and each unit U of its producer's and V of its consumer's type, in
  /// edge, U, V order: Rho is the routing penalty from U to V, or -1 when
  /// the topology forbids that feed.
  template <typename F> void forEachFeed(F &&Feed) const {
    for (const DdgEdge &E : G->edges()) {
      if (E.Src == E.Dst)
        continue; // Same unit, zero hops.
      const int Ri = G->node(E.Src).OpClass, Rj = G->node(E.Dst).OpClass;
      for (int U = 0; U < Machine->type(Ri).Count; ++U)
        for (int V = 0; V < Machine->type(Rj).Count; ++V) {
          const int GU = globalUnit(Ri, U), GV = globalUnit(Rj, V);
          Feed(E, U, V,
               Topo->feedAllowed(GU, GV) ? Topo->routePenalty(GU, GV) : -1);
        }
    }
  }

  /// The route indicators, by edge, producer unit and hop count; each with
  /// the consumer units (ascending, within their type) that activate it
  /// and its ROUTE columns relative to the producer's start.
  const std::vector<Route> &routes() const { return Routes; }
  std::span<const int> consumers(const Route &Rt) const {
    return {RouteConsumers.data() + Rt.ConsumerBegin,
            RouteConsumers.data() + Rt.ConsumerEnd};
  }
  std::span<const int> columns(const Route &Rt) const {
    return {RouteCols.data() + Rt.ColBegin, RouteCols.data() + Rt.ColEnd};
  }
  /// True when two of the route's own cells fold onto one pattern step at
  /// period \p T, so no placement may activate it.
  bool routeSelfCollides(const Route &Rt, int T) const;

  /// Calls Collide(A, B, P, Q) for each pair of routes A < B (indices into
  /// routes()) leaving one unit for different edges, each pair of their
  /// columns, and each step P of A's producer: at step Q of B's producer
  /// the two cells share a pattern step at period \p T.  Routes of one
  /// producer share its step, so only Q == P is visited for them.
  template <typename F> void forEachRouteCollision(int T, F &&Collide) const {
    for (std::size_t A = 0; A < Routes.size(); ++A)
      for (std::size_t B = A + 1; B < Routes.size(); ++B) {
        const Route &RA = Routes[A], &RB = Routes[B];
        if (RA.Unit != RB.Unit || RA.Edge == RB.Edge)
          continue;
        for (int ColA : columns(RA))
          for (int ColB : columns(RB))
            for (int P = 0; P < T; ++P) {
              const int Q = ((P + ColA - ColB) % T + T) % T;
              if (RA.Producer == RB.Producer && Q != P)
                continue; // One producer, one step: vacuous.
              Collide(A, B, P, Q);
            }
      }
  }

  /// The interchange classes of every type with ops, by type; members()
  /// are units within the type, ascending.
  const std::vector<UnitClass> &classes() const { return Classes; }
  std::span<const int> members(const UnitClass &C) const {
    return {ClassUnits.data() + C.Begin, ClassUnits.data() + C.End};
  }

  /// Calls Rule(Op, Cur, Earlier, Prev) for each consecutive member pair
  /// (Prev, Cur) of a class and each op of its type: a canonical placement
  /// uses members in first-use order, so Op may sit on Cur only if one of
  /// the ops before it (Earlier, possibly none) sits on Prev.
  template <typename F> void forEachFirstUse(F &&Rule) const {
    for (const UnitClass &C : Classes) {
      const std::span<const int> Ops = ops(C.Type), Units = members(C);
      for (std::size_t B = 1; B < Units.size(); ++B)
        for (std::size_t A = 0; A < Ops.size(); ++A)
          Rule(Ops[A], Units[B], Ops.first(A), Units[B - 1]);
    }
  }

  /// The recyclable-store interface of swp/support/ThreadSpare.h.
  void reset();
  std::size_t capacityBytes() const;

private:
  /// Fills Collide[delta] for the pair at period \p T; \returns whether
  /// any delta collides.
  bool collisionOffsets(int OpI, int OpJ, int T);

  const Ddg *G = nullptr;
  const MachineModel *Machine = nullptr;
  MappingKind Mapping = MappingKind::Fixed;
  const Topology *Topo = nullptr; // Set on the topology path only.
  /// Ops of type R are TypeOps[TypeBegin[R], TypeBegin[R + 1]).
  std::vector<int> TypeOps, TypeBegin, MaxStages, UnitBase;
  std::vector<Route> Routes;
  std::vector<int> RouteConsumers, RouteCols;
  std::vector<UnitClass> Classes;
  std::vector<int> ClassUnits;
  /// forEachCollision's scratch.
  std::vector<char> Collide;
  std::vector<int> Steps;
};

} // namespace swp

#endif // SWP_CORE_PLACEMENTRULES_H
