//===- swp/heuristics/ModuloReservationTable.h - Shared MRT -----*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The modulo reservation table shared by the heuristic schedulers: per
/// physical unit, per stage, per pattern slot, which instruction occupies
/// it.  Variant-aware (multi-function pipelines).  On top of it, the
/// placement state IMS and slack scheduling share (ModuloPlacer) and the
/// sweep that turns heuristics' per-T attempts into steps of the shared
/// rate-optimal T-sweep (heuristicSweep).
///
//===----------------------------------------------------------------------===//

#ifndef SWP_HEURISTICS_MODULORESERVATIONTABLE_H
#define SWP_HEURISTICS_MODULORESERVATIONTABLE_H

#include "swp/core/Driver.h"
#include "swp/core/Schedule.h"
#include "swp/ddg/Analysis.h"
#include "swp/ddg/Ddg.h"
#include "swp/machine/MachineModel.h"

#include <initializer_list>
#include <vector>

namespace swp {

/// Occupancy of every physical unit's stages modulo T; entries hold the
/// occupying node id or -1.
///
/// When the machine's topology constrains placement, the table
/// additionally tracks the ROUTE cells of multi-hop dependences: a DDG edge
/// whose endpoints sit more than one hop apart occupies cells on the
/// producer's unit (see Topology::routeColumns) with capacity 1 per
/// (unit, slot).  Callers keep the invariant that an edge's cells are
/// committed exactly while *both* endpoints are placed: call commitRoutes
/// right after place (with the updated Time/Unit arrays) and releaseRoutes
/// right before remove.
class ModuloReservationTable {
public:
  ModuloReservationTable(const MachineModel &Machine, int T);

  /// True when \p Node can issue at absolute time \p Time on unit \p U of
  /// its type without colliding with a *different* node.
  bool fits(const Ddg &G, int Node, int Time, int U) const;

  /// Occupies the slots of \p Node issued at \p Time on unit \p U.
  void place(const Ddg &G, int Node, int Time, int U);

  /// Releases the slots of \p Node issued at \p Time on unit \p U.
  void remove(const Ddg &G, int Node, int Time, int U);

  /// Node ids (unique) colliding with issuing \p Node at \p Time on \p U.
  std::vector<int> conflicts(const Ddg &G, int Node, int Time, int U) const;

  /// Extra slack the candidate scan must cover beyond the classic T slots:
  /// routing penalties make dependence windows placement-dependent, so a
  /// time rejected at one unit may admit at another up to maxRoutePenalty
  /// cycles later.  0 unless the topology constrains placement (the
  /// topology-aware checks below are vacuous then).
  int maxRoutePenalty() const;

  /// Topology admission for placing \p Node at (\p Time, \p U) against the
  /// currently placed nodes in \p Times / \p Units (-1 = unplaced): every
  /// incident dependence must be feed-allowed, satisfy its rho-tightened
  /// window, and claim only free, mutually distinct ROUTE cells.
  bool topoAdmits(const Ddg &G, int Node, int Time, int U,
                  const std::vector<int> &Times,
                  const std::vector<int> &Units) const;

  /// Placed nodes (unique) that must be evicted so that placing \p Node at
  /// (\p Time, \p U) becomes topology-clean: neighbors whose dependence
  /// would violate adjacency or its rho-window, producers of committed
  /// edges owning a ROUTE cell \p Node's edges need, and neighbors whose
  /// new edge would self-collide.  Evicting them (which releases their
  /// routes) makes commitRoutes succeed.
  std::vector<int> topoConflicts(const Ddg &G, int Node, int Time, int U,
                                 const std::vector<int> &Times,
                                 const std::vector<int> &Units) const;

  /// Commits the ROUTE cells of every edge incident on \p Node whose other
  /// endpoint is placed (\p Node itself must already be in \p Times /
  /// \p Units).  \pre the placement was admitted (topoAdmits) or its
  /// topoConflicts were evicted.
  void commitRoutes(const Ddg &G, int Node, const std::vector<int> &Times,
                    const std::vector<int> &Units);

  /// Releases the ROUTE cells of every committed edge incident on \p Node.
  void releaseRoutes(const Ddg &G, int Node);

private:
  template <typename Fn>
  void forEachSlot(const Ddg &G, int Node, int Time, int U, Fn Apply);

  struct RouteCell {
    int Unit; // Global (type-major) physical unit.
    int Slot; // Pattern step, already reduced mod T.
  };
  /// ROUTE cells of \p E assuming its producer issues at \p SrcTime on
  /// global unit \p SrcGU feeding global unit \p DstGU; empty when the
  /// value crosses fewer than 2 hops.  \pre feedAllowed(SrcGU, DstGU).
  std::vector<RouteCell> routeCellsOf(const DdgEdge &E, int SrcGU, int DstGU,
                                      int SrcTime) const;

  const MachineModel &Machine;
  int T;
  /// Slots[type][unit][stage][slot] = node or -1.
  std::vector<std::vector<std::vector<std::vector<int>>>> Slots;

  /// Non-null iff the machine's topology constrains placement.
  const Topology *Topo = nullptr;
  /// RouteOcc[globalUnit][slot] = owning DDG edge index or -1.
  std::vector<std::vector<int>> RouteOcc;
  /// Committed cells per DDG edge index (grown lazily to the DDG's size).
  mutable std::vector<std::vector<RouteCell>> RouteCells;
};

/// One heuristic attempt at one T, as IMS and slack scheduling share it:
/// the reservation table, each node's issue time and unit (-1 while
/// unscheduled), the time of its previous placement, and Rau's budget of
/// placement steps.  The two schedulers differ only in which node goes
/// next and which window it tries; the candidate scan, the forced
/// placement with eviction and the eviction of violated neighbours are
/// the same.
class ModuloPlacer {
public:
  ModuloPlacer(const Ddg &G, const MachineModel &Machine, int T);

  /// Nodes not (or no longer) scheduled.
  int unscheduled() const { return Remaining; }
  /// Issue time of \p Node, -1 while unscheduled.
  int time(int Node) const { return Time[static_cast<size_t>(Node)]; }
  /// Latest issue time worth trying; beyond it the attempt fails.
  int timeCap() const { return TimeCap; }
  /// Cycles a topology's routing penalties add to the classic T-slot
  /// window (0 on topology-free machines): they make dependence windows
  /// placement-dependent, so a time rejected at one unit may admit at
  /// another up to this many cycles later.
  int routePenalty() const { return Tables.maxRoutePenalty(); }

  /// Spends one step of the budget (six per node); \returns false once it
  /// is used up.
  bool spendStep() { return Budget-- > 0; }

  /// Scans issue times [\p Lo, \p Hi] upward, or downward when \p Late,
  /// and at each every unit of \p Node's type; places \p Node at the
  /// first slot that fits the table and the topology.  \returns false
  /// when none does.
  bool placeInWindow(int Node, int Lo, int Hi, bool Late);

  /// Rau's forced placement: issues \p Node at \p EStart, but never
  /// earlier than its previous placement + 1, on the unit with the fewest
  /// victims (table collisions plus, with a topology, routing and
  /// adjacency victims), evicting them.  \returns false when that time
  /// passes timeCap().
  bool forcePlace(int Node, int EStart);

  /// Evicts the scheduled successors (and, with \p AlsoPreds, the
  /// predecessors) whose dependence on the just-placed \p Node is now
  /// violated.  \returns false when \p Node's own self-dependence is
  /// violated: T is below its self-recurrence bound.
  bool evictViolated(int Node, bool AlsoPreds);

  /// The finished schedule.  \pre unscheduled() == 0.
  ModuloSchedule take();

private:
  void place(int Node, int At, int U);
  void unschedule(int Node);

  const Ddg &G;
  const MachineModel &Machine;
  int T;
  ModuloReservationTable Tables;
  std::vector<int> Time;
  std::vector<int> Unit;
  std::vector<int> PrevTime;
  int Remaining;
  int Budget;
  int TimeCap;
};

/// Longest paths at period \p T over the weights latency - T*distance, all
/// from zero: static earliest starts (Forward) or heights (Backward), the
/// priorities of IMS and slack scheduling.
std::vector<int> longestPathsAtT(const Ddg &G, int T, PathDirection Dir);

/// A heuristic's attempt at one T: fills \p Out and \returns true when
/// every node was placed.
using HeuristicAtT = bool (*)(const Ddg &G, const MachineModel &Machine,
                              int T, ModuloSchedule &Out);

/// Runs \p Chain's heuristics, in order, as the steps of the shared
/// rate-optimal sweep over [T_lb, T_lb + \p MaxTSlack]: at each T a placed
/// schedule answers Optimal, and a miss answers Unknown and hands T to the
/// next heuristic.  A miss is never a refutation, so a schedule counts as
/// proven only when every smaller T in the window was modulo-skipped.
/// The heuristics do not poll a cancellation token.
SchedulerResult heuristicSweep(const Ddg &G, const MachineModel &Machine,
                               int MaxTSlack,
                               std::initializer_list<HeuristicAtT> Chain);

} // namespace swp

#endif // SWP_HEURISTICS_MODULORESERVATIONTABLE_H
