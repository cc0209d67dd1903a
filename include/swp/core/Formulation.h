//===- swp/core/Formulation.h - The paper's ILP formulations ----*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the paper's unified scheduling-and-mapping ILP for a fixed
/// initiation interval T.
///
/// The single builder implements the Section 5 formulation over reservation
/// tables; the Section 3 (clean pipelines, [9]) and Section 4 (non-pipelined
/// units) formulations are the special cases obtained from clean /
/// non-pipelined tables, and run-time mapping (capacity-only, the pre-paper
/// state of the art) is obtained by disabling the coloring block.  The
/// usage cells, unit collisions and topology rules come from
/// swp/core/PlacementRules.h, which CnfEncoder emits as clauses; this
/// builder emits them as rows in the same order.
///
/// Variables (for N instructions, period T, FU types r with R_r units):
///   a[t][i] in {0,1}   — instruction i initiates at pattern step t
///                        (the A matrix / modulo reservation table);
///   k[i]    >= 0 int   — iteration-stage index (the K vector);
///   t_i is eliminated as T*k[i] + sum_t t*a[t][i] (paper Eq. 7);
///   c[i]    in [1,R_r] — color = physical unit of i's type (Section 4.2);
///   o[i][j] in {0,1}   — schedule-dependent overlap indicator;
///   w[i][j] in {0,1}   — Hu's [12] sign variable linearizing
///                        |c_i - c_j| >= 1.
///
/// Constraints:
///   sum_t a[t][i] = 1                                  (Eq. 9/23)
///   t_j - t_i >= latency - T*m_ij per DDG edge         (Eq. 4/8)
///   sum_{i in I(r)} U_s[t,i] <= R_r per stage/step     (Eq. 5/24-25)
///     where U_s[t,i] = sum_{l busy in stage s} a[(t-l) mod T][i]
///   o_ij >= a[p][i] + sum_{q conflicting with p} a[q][j] - 1  per p
///     (aggregated form of  o_ij >= U_s[t,i] + U_s[t,j] - 1)
///   c_i - c_j + R_r*w_ij + R_r*(1 - o_ij) >= 1          (Eqs. 12-14)
///   c_j - c_i + R_r*(1 - w_ij) + R_r*(1 - o_ij) >= 1
///
/// Objective (guides the search; feasibility per T is what the driver
/// needs): minimize sum_r CMax_r / R_r with CMax_r >= c_i.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_CORE_FORMULATION_H
#define SWP_CORE_FORMULATION_H

#include "swp/core/Schedule.h"
#include "swp/ddg/Ddg.h"
#include "swp/machine/MachineModel.h"
#include "swp/solver/Model.h"

#include <vector>

namespace swp {

/// Mapping discipline requested from the formulation.
enum class MappingKind {
  /// Capacity constraints only; units are picked at run time (Section 4.1
  /// alone — the formulation the paper improves on).
  RunTime,
  /// Scheduling and mapping unified via circular-arc coloring (the paper's
  /// contribution, Sections 4.2 and 5).
  Fixed,
};

/// Options controlling model construction.
struct FormulationOptions {
  MappingKind Mapping = MappingKind::Fixed;
  /// Upper bound on the k_i; -1 derives the safe default (sum of latencies
  /// plus N — see DESIGN.md).
  int KMax = -1;
  /// Add the colors-per-type guiding objective (otherwise pure feasibility).
  bool ColoringObjective = true;
  /// Minimize total Ning-Gao buffers (paper Section 7 extension via [18]):
  /// adds one integer variable per DDG edge with
  /// T*b_e >= t_j + T*m - t_i, b_e >= 1, and objective sum b_e.
  /// Overrides ColoringObjective.
  bool BufferObjective = false;
  /// Break the modulo-rotation symmetry: every schedule rotated by s
  /// cycles is again a schedule (dependence rows see only differences and
  /// the resource rows are modulo-T circulant), so one instruction's
  /// pattern step can be pinned to 0 without losing feasibility, dividing
  /// the branch-and-bound tree by up to T.  KMax grows by one to cover the
  /// stage-index carry the rotation can introduce.  Leave off when a warm
  /// start will be lifted from an un-rotated schedule
  /// (scheduleToAssignment does not canonicalize rotation).
  bool BreakRotation = false;
};

/// Variable handles for extracting a schedule from a MILP solution.
struct FormulationVars {
  /// A[t][i] variable ids (T rows).
  std::vector<std::vector<VarId>> A;
  /// K[i] variable ids.
  std::vector<VarId> K;
  /// Color variable id per instruction, or -1 when its type needed no
  /// coloring block (fewer ops than units, or run-time mapping).
  std::vector<VarId> Color;
  /// Buffer-count variable per DDG edge (parallel to Ddg::edges()); empty
  /// unless BufferObjective was requested.
  std::vector<VarId> Buffers;

  /// Overlap / Hu-sign variable pair per same-type instruction pair that
  /// got a coloring block.  On the instance-mapping (topology) path the
  /// Hu sign is not needed and Sign is -1.
  struct PairVarIds {
    int OpI;
    int OpJ;
    VarId Overlap;
    VarId Sign;
  };
  std::vector<PairVarIds> Pairs;

  /// CMax variable per FU type (-1 when absent).
  std::vector<VarId> CMax;

  /// Instance-assignment binaries x[i][u] (u = unit within i's type);
  /// empty unless the machine's topology constrains placement and the
  /// mapping is Fixed.
  std::vector<std::vector<VarId>> Inst;

  /// Route indicator per (DDG edge, producer global unit, hop count >= 2):
  /// Y = 1 when the edge's value leaves Unit across exactly Hops hops,
  /// occupying the ROUTE cells Topology::routeColumns gives.
  struct RouteVarIds {
    int Edge;
    int Unit;
    int Hops;
    VarId Y;
  };
  std::vector<RouteVarIds> Route;
};

/// Builds the unified scheduling+mapping MILP for period \p T.
/// \pre Machine.moduloFeasible(G, T) — offending T must be skipped by the
/// caller, as in the paper.
MilpModel buildScheduleModel(const Ddg &G, const MachineModel &Machine, int T,
                             const FormulationOptions &Opts,
                             FormulationVars &Vars);

/// The inverse of extractSchedule: lifts a legal schedule \p S into a full
/// variable assignment of a model built with the same (G, Machine, T,
/// Opts).  Colors are canonicalized to respect the model's symmetry
/// breaking; overlap, sign, and buffer variables are derived.  The result
/// is feasible for the model whenever \p S verifies — used to warm-start
/// branch and bound.
std::vector<double> scheduleToAssignment(const Ddg &G,
                                         const MachineModel &Machine, int T,
                                         const FormulationOptions &Opts,
                                         const FormulationVars &Vars,
                                         const ModuloSchedule &S,
                                         int NumModelVars);

/// Reads a schedule out of solution \p X of a model built by
/// buildScheduleModel.  With MappingKind::Fixed the mapping is completed
/// greedily for types that needed no coloring block; with RunTime the
/// mapping is left empty.
ModuloSchedule extractSchedule(const Ddg &G, const MachineModel &Machine,
                               int T, const FormulationOptions &Opts,
                               const FormulationVars &Vars,
                               const std::vector<double> &X);

} // namespace swp

#endif // SWP_CORE_FORMULATION_H
