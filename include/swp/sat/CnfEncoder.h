//===- swp/sat/CnfEncoder.h - Scheduling-to-CNF encoder ---------*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translates the paper's candidate-T scheduling-and-mapping problem into
/// CNF over one long-lived CdclSolver, incrementally across candidate
/// initiation intervals (see DESIGN.md Section 10).
///
/// Variable layout:
///   a[t][i]  — instruction i initiates at pattern step t.  Rows are
///              created lazily as T grows and shared by every period; an
///              unguarded pairwise at-most-one over each column plus a
///              per-period guarded at-least-one over rows 0..T-1 yields
///              "exactly one offset in [0,T)" at the assumed period.
///   s_T      — selector (assumption) variable of period T.  Every
///              T-dependent clause carries the literal ~s_T, so it is
///              active only under the assumption s_T and retracts by
///              simply not assuming it; since s_T never occurs positively,
///              learned clauses stay sound at every other period.
///   c[i][u]  — one-hot color (physical unit) of instruction i, for FU
///              types with more ops than units.  Lexicographic symmetry
///              breaking: the Ix-th op of a type may only use colors
///              0..min(Ix, R-1), the ILP's color bound 1..min(Ix+1, R).
///   o[i][j]  — schedule-dependent overlap indicator per same-type pair,
///              shared across periods; its defining clauses
///              (~s_T | ~a[p][i] | ~a[q][j] | o_ij) are per-period, the
///              color-difference clauses (~o_ij | ~c[i][u] | ~c[j][u])
///              are unguarded.
///
/// The placement rules (usage cells, unit collisions and, on a
/// constraining topology, feeds, routes and interchange classes) come from
/// swp/core/PlacementRules.h, which buildScheduleModel emits as rows; this
/// encoder emits them as clauses in the same order.
///
/// Constraint blocks per period: dependence-window clauses for self-edges
/// and 2-cycles (eager, offset-pair enumeration), per-(type, stage, slot)
/// usage rows as guarded Sinz sequential-counter cardinality constraints,
/// and unit-collision clauses from reservation-table offset conflicts
/// (direct for single-unit types, via o_ij for colored types).  Longer
/// recurrence cycles are enforced lazily: the decoder completes the K
/// vector by the shared longest-path routine (swp/ddg/Analysis.h) and the
/// scheduler blocks its positive-cycle witness's offset combination with a
/// guarded clause when completion fails.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SAT_CNFENCODER_H
#define SWP_SAT_CNFENCODER_H

#include "swp/core/Formulation.h"
#include "swp/core/PlacementRules.h"
#include "swp/core/Schedule.h"
#include "swp/ddg/Ddg.h"
#include "swp/machine/MachineModel.h"
#include "swp/sat/CdclSolver.h"

#include <vector>

namespace swp {

/// Incremental CNF encoding of one (DDG, machine) scheduling instance.
/// Borrows \p G, \p Machine, and \p Solver; keep them alive.
class CnfEncoder {
public:
  CnfEncoder(const Ddg &G, const MachineModel &Machine, MappingKind Mapping,
             CdclSolver &Solver);

  /// True when period \p T is infeasible without any search: below the
  /// recurrence bound, a violated self-edge window, or a failed
  /// modulo-scheduling precondition.  Such T must not be encoded.
  bool triviallyInfeasible(int T) const;

  /// Ensures the period-\p T slice of the encoding exists and \returns the
  /// assumption literal activating it.  \pre !triviallyInfeasible(T).
  SatLit selector(int T);

  /// Reads the pattern offsets out of the solver's model (last solve under
  /// selector(T) must have returned Sat).
  std::vector<int> modelOffsets(int T) const;

  /// Completes the solver's model into a schedule at period \p T: offsets
  /// from the a-variables, the K vector by longestPaths, the mapping from
  /// the color variables (greedily for types that needed none).  \returns
  /// false when the offsets admit no K vector, filling \p CycleNodes with
  /// a positive-cycle witness to block.
  bool decode(int T, ModuloSchedule &Out, std::vector<int> &CycleNodes) const;

  /// Forbids the current offsets of \p CycleNodes under period \p T (the
  /// lazy recurrence refinement; the clause is guarded by ~s_T).
  void blockCycle(int T, const std::vector<int> &CycleNodes,
                  const std::vector<int> &Offsets);

private:
  void ensureRows(int T);
  void encodePeriod(int T, int SelVar);
  void buildColoringSkeleton();
  void buildInstanceSkeleton();
  int overlapVar(int NodeI, int NodeJ);
  int modelUnit(int Node) const;

  /// Variable a[Row][Node].
  int aVar(int Row, int Node) const {
    return ARowBase[static_cast<std::size_t>(Row)] + Node;
  }

  const Ddg &G;
  const MachineModel &Machine;
  MappingKind Mapping;
  CdclSolver &S;

  int TDep = 0;

  /// First variable of each a-row (a[t][i] = ARowBase[t] + i); grows
  /// row-wise with the largest encoded period.
  std::vector<int> ARowBase;
  /// Selector variable per period (-1 = slice not built yet).
  std::vector<int> SelVar;
  /// One-hot color variables per node (empty when the node's type needed
  /// no coloring block).
  std::vector<std::vector<int>> ColorVar;
  /// Overlap variable per same-type node pair, keyed i * N + j (i < j);
  /// -1 until first needed.
  std::vector<int> OverlapByPair;

  /// The placement rules this encoding emits as clauses; on the
  /// instance-mapping path (Rules.topoPath()) x[i][u] one-hots replace the
  /// color block, with unguarded forbidden-pair clauses, interchange-class
  /// symmetry breaking, and route indicators whose ROUTE-cell collisions
  /// are forbidden per period.
  PlacementRules Rules;
  /// InstVar[i][u] — one-hot unit-within-type of instruction i.
  std::vector<std::vector<int>> InstVar;
  /// The variable of each route indicator, parallel to Rules.routes().
  std::vector<int> RouteVar;

  /// Reused scratch: the literals of the variable-width clause or usage
  /// row being built.
  std::vector<SatLit> ClauseBuf;
};

} // namespace swp

#endif // SWP_SAT_CNFENCODER_H
