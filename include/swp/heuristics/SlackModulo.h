//===- swp/heuristics/SlackModulo.h - Huff's slack scheduling ---*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lifetime-sensitive (slack) modulo scheduling in the style of Huff
/// (PLDI '93 [13]) — the second heuristic baseline the paper's related
/// work discusses.
///
/// Per candidate T: compute each instruction's earliest/latest start
/// (ASAP/ALAP over the T-weighted dependence graph) and schedule in order
/// of increasing slack.  Instructions whose scheduled neighbours are
/// mostly consumers are placed as *late* as possible, producers-first ones
/// as *early* as possible — shrinking value lifetimes — with IMS-style
/// eviction under a budget when no slot fits.  Each attempt is one step of
/// the shared rate-optimal sweep (swp/core/Driver); a miss at T answers
/// Unknown and is never a refutation.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_HEURISTICS_SLACKMODULO_H
#define SWP_HEURISTICS_SLACKMODULO_H

#include "swp/core/Driver.h"
#include "swp/ddg/Ddg.h"
#include "swp/machine/MachineModel.h"

namespace swp {

/// Slack-scheduler knobs.
struct SlackOptions {
  /// Candidate T range: [T_lb, T_lb + MaxTSlack].
  int MaxTSlack = 64;
};

/// One slack-scheduling attempt at the fixed period \p T (a HeuristicAtT,
/// see swp/heuristics/ModuloReservationTable.h): fills \p Out and
/// \returns true when every node was placed.
bool slackAtT(const Ddg &G, const MachineModel &Machine, int T,
              ModuloSchedule &Out);

/// Runs lifetime-sensitive slack modulo scheduling for \p G on \p Machine:
/// the shared sweep with a slack step.  The schedule is ProvenRateOptimal
/// only when every smaller T was modulo-skipped.
SchedulerResult slackModuloSchedule(const Ddg &G, const MachineModel &Machine,
                                    const SlackOptions &Opts = {});

} // namespace swp

#endif // SWP_HEURISTICS_SLACKMODULO_H
