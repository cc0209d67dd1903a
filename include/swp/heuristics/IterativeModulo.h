//===- swp/heuristics/IterativeModulo.h - Rau's IMS baseline ----*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Iterative modulo scheduling (Rau, MICRO-27 1994 [22]) adapted to
/// reservation-table machines with *fixed* unit binding — the practical
/// heuristic the paper's ILP is compared against (heuristics find
/// suboptimal II on some loops; the ILP is rate-optimal).
///
/// Per candidate T: instructions are scheduled highest-priority first
/// (height-based), each at the earliest dependence-legal slot with a
/// conflict-free unit in the modulo reservation table; when no slot fits
/// within a T-wide window the instruction is force-placed and conflicting /
/// dependence-violated instructions are evicted, within a budget.  Each
/// attempt is one step of the shared rate-optimal sweep (swp/core/Driver);
/// a miss at T answers Unknown and is never a refutation.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_HEURISTICS_ITERATIVEMODULO_H
#define SWP_HEURISTICS_ITERATIVEMODULO_H

#include "swp/core/Driver.h"
#include "swp/ddg/Ddg.h"
#include "swp/machine/MachineModel.h"

namespace swp {

/// IMS knobs.
struct ImsOptions {
  /// Candidate T range: [T_lb, T_lb + MaxTSlack].
  int MaxTSlack = 64;
};

/// One IMS attempt at the fixed period \p T (a HeuristicAtT, see
/// swp/heuristics/ModuloReservationTable.h): fills \p Out and \returns
/// true when every node was placed.
bool imsAtT(const Ddg &G, const MachineModel &Machine, int T,
            ModuloSchedule &Out);

/// Runs iterative modulo scheduling for \p G on \p Machine: the shared
/// sweep with an IMS step.  The schedule has a fixed mapping; it is
/// ProvenRateOptimal only when every smaller T was modulo-skipped.
SchedulerResult iterativeModuloSchedule(const Ddg &G,
                                        const MachineModel &Machine,
                                        const ImsOptions &Opts = {});

} // namespace swp

#endif // SWP_HEURISTICS_ITERATIVEMODULO_H
