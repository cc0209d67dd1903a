//===- swp/heuristics/Enumerative.h - Exhaustive search ---------*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An enumerative (backtracking) scheduler+mapper — the "cleverly designed
/// exhaustive search" alternative to the ILP the paper mentions via the
/// first author's thesis [2].
///
/// Per candidate T it enumerates pattern offsets and unit assignments with
/// pruning on the shared modulo reservation table and unit-symmetry
/// breaking; dependence feasibility of an offset assignment reduces to the
/// absence of a positive cycle in the k-difference constraint graph
///   k_j - k_i >= ceil((latency - T*m + off_i - off_j) / T),
/// solved by the shared longestPaths (swp/ddg/Analysis.h), which also
/// yields the K vector.  Exhaustive up
/// to the state limit, so — like the ILP — it proves infeasibility at a T.
/// Each T is one step of the shared rate-optimal sweep (swp/core/Driver):
/// an exhausted T answers Infeasible, one cut by the state or time limit a
/// censored Unknown.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_HEURISTICS_ENUMERATIVE_H
#define SWP_HEURISTICS_ENUMERATIVE_H

#include "swp/core/Driver.h"
#include "swp/ddg/Ddg.h"
#include "swp/machine/MachineModel.h"

#include <cstdint>

namespace swp {

/// Enumerative search knobs.
struct EnumOptions {
  /// Candidate T range: [T_lb, T_lb + MaxTSlack].
  int MaxTSlack = 64;
  /// State (node) limit per T.
  std::int64_t MaxStatesPerT = 2000000;
  /// Wall-clock limit per T, seconds.
  double TimeLimitPerT = 10.0;
};

/// Runs the enumerative search for \p G on \p Machine: the shared sweep
/// with an enumerative step.  Each attempt's Nodes counts its search
/// states.  On a machine whose topology constrains placement the search
/// declines with an InvalidInput error at its first T.
SchedulerResult enumerativeSchedule(const Ddg &G, const MachineModel &Machine,
                                    const EnumOptions &Opts = {});

} // namespace swp

#endif // SWP_HEURISTICS_ENUMERATIVE_H
