//===- swp/sat/SatScheduler.h - SAT-backed rate-optimal search --*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The second exact engine: swp/core/Driver's shared rate-optimal sweep
/// (searchRateOptimal) with a step that answers each candidate-T
/// feasibility question with the CDCL solver over the CnfEncoder's
/// incremental encoding instead of the MILP.  One SatScheduler keeps a
/// single solver alive across candidate periods, so conflict clauses
/// learned while refuting T keep pruning at T+1 (the incremental payoff
/// the tests pin down).
///
/// Results reuse the MILP vocabulary (MilpStatus / SearchStop /
/// SchedulerResult) so the service, tools, and fuzz harness treat both
/// engines uniformly; TAttempt::Nodes carries SAT conflicts.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SAT_SATSCHEDULER_H
#define SWP_SAT_SATSCHEDULER_H

#include "swp/core/Driver.h"
#include "swp/sat/CdclSolver.h"
#include "swp/sat/CnfEncoder.h"

#include <cstdint>
#include <memory>
#include <optional>

namespace swp {

/// Outcome of one candidate-T SAT solve.
struct SatAttempt {
  MilpStatus Status = MilpStatus::Unknown;
  SearchStop Stop = SearchStop::None;
  double Seconds = 0.0;
  /// CDCL conflicts spent on this attempt (the SAT analogue of nodes).
  std::int64_t Conflicts = 0;
  /// Lazy recurrence refinements (cycle-blocking clauses) this attempt.
  int CycleBlocks = 0;
  ModuloSchedule Schedule;
  swp::Status Error;
};

/// Incremental SAT engine for one (DDG, machine) instance.  Construct
/// once, then probe candidate periods in any order; state (including
/// learned clauses) persists across calls.  Borrows \p G and \p Machine.
class SatScheduler {
public:
  SatScheduler(const Ddg &G, const MachineModel &Machine,
               MappingKind Mapping = MappingKind::Fixed);
  ~SatScheduler();
  SatScheduler(const SatScheduler &) = delete;
  SatScheduler &operator=(const SatScheduler &) = delete;

  /// Decides feasibility of period \p T under the given budgets.
  /// Optimal = model found and decoded (first model, mirroring the MILP
  /// loop's stop-at-first-incumbent), Infeasible = proof, Unknown = budget
  /// or fault censored the answer (\c Stop says which), Error = invalid
  /// input or injected allocation death.
  SatAttempt solveAtT(int T, double TimeLimitSec = 1e18,
                      std::int64_t ConflictLimit = INT64_MAX,
                      CancellationToken Cancel = {});

  /// Lifetime solver counters (monotone across solveAtT calls).
  const SatStats &stats() const;

private:
  const Ddg &G;
  const MachineModel &Machine;
  MappingKind Mapping;
  bool Valid = false;
  std::unique_ptr<CdclSolver> Solver;
  std::unique_ptr<CnfEncoder> Encoder;
};

/// \p A as the shared sweep's per-T step result (conflicts count as
/// nodes); the SAT engine's searchRateOptimal steps return this.
TStepResult satStepResult(SatAttempt A);

/// satScheduleLoop's step: SatScheduler::solveAtT under Opts' time and
/// conflict (NodeLimitPerT) budgets and token, on \p Engine, which the
/// step builds at its first T (inside the sweep's clock, so the
/// T-independent encoding counts toward TotalSeconds).  Borrows every
/// argument.
TStep satSweepStep(const Ddg &G, const MachineModel &Machine,
                   const SchedulerOptions &Opts,
                   std::optional<SatScheduler> &Engine);

/// Runs the rate-optimal search for \p G on \p Machine with the SAT
/// engine: the shared sweep with satSweepStep, a drop-in sibling of
/// scheduleLoop() (Opts.NodeLimitPerT bounds conflicts per T;
/// ColoringObjective / MinimizeBuffers / LpRoundingProbe do not apply and
/// are ignored).
SchedulerResult satScheduleLoop(const Ddg &G, const MachineModel &Machine,
                                const SchedulerOptions &Opts = {});

} // namespace swp

#endif // SWP_SAT_SATSCHEDULER_H
