//===- swp/core/Driver.h - Rate-optimal scheduling driver -------*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The rate-optimal search loop of the paper's experiments: compute the
/// lower bound T_lb = max(T_dep, T_res), then try T = T_lb, T_lb+1, ...
/// until one is feasible.  T violating the modulo-scheduling precondition
/// are skipped (they admit no fixed-mapping schedule), exactly as in the
/// paper.  searchRateOptimal is that loop, shared by every scheduler; a
/// scheduler supplies only the per-T step (scheduleLoop's step solves the
/// unified scheduling+mapping MILP, satScheduleLoop's the CNF encoding,
/// and the heuristics' steps run IMS, slack scheduling or the enumerative
/// search at that T).  Several steps chain: each T asks them in order
/// until one refutes it or finds a schedule.
///
/// The found schedule is rate-optimal when every smaller T was *proven*
/// infeasible (TAttempt::refutes) by some step; time/node limits censor
/// proofs and are reported per attempt (the paper's "10/30" time-limit
/// note).  A heuristic miss answers Unknown: it is never a refutation.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_CORE_DRIVER_H
#define SWP_CORE_DRIVER_H

#include "swp/core/Formulation.h"
#include "swp/core/Schedule.h"
#include "swp/solver/BranchAndBound.h"
#include "swp/solver/Simplex.h"
#include "swp/support/Status.h"

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace swp {

/// Options of the rate-optimal search.
struct SchedulerOptions {
  MappingKind Mapping = MappingKind::Fixed;
  /// MILP wall-clock limit per candidate T, seconds.
  double TimeLimitPerT = 10.0;
  /// MILP node limit per candidate T.
  std::int64_t NodeLimitPerT = INT64_MAX;
  /// Search window: candidate T ranges over [T_lb, T_lb + MaxTSlack].
  int MaxTSlack = 64;
  /// Optimize the coloring objective instead of stopping at the first
  /// feasible schedule.
  bool ColoringObjective = false;
  /// At the rate-optimal T, find the schedule minimizing total Ning-Gao
  /// buffers (the Section 7 extension via [18]); implies solving to
  /// optimality instead of first feasibility.
  bool MinimizeBuffers = false;
  /// Try an LP-rounding primal probe before branch and bound: round the LP
  /// relaxation's A matrix to offsets, complete the mapping by first-fit
  /// circular-arc coloring and the K vector by longestPaths.  This is the
  /// analogue of the primal heuristics commercial MILP codes run
  /// internally; it never affects infeasibility proofs (those always come
  /// from the exhaustive search or the LP itself).
  bool LpRoundingProbe = true;
  /// Carry the simplex basis across candidate-T iterations: each T's LP
  /// workspace starts from the previous T's final basis, role-mapped
  /// between the two formulations (A slots both periods share, the K /
  /// color / pair / buffer variables), instead of a cold slack basis.
  /// A warm basis can land the LP on another optimal vertex.  Without
  /// limits the II and its proof are the same either way (the schedule
  /// may differ); under a node limit a censored T can be answered
  /// differently, changing the II, the proof or whether a schedule is
  /// found (at 100 nodes per T: the II of one or three of 1,066 ppc604
  /// corpus loops, by seed).
  bool WarmStartAcrossT = true;
  /// Cooperative cancellation/deadline token, polled between candidate T
  /// and inside the branch-and-bound node loop.  A default token never
  /// fires; the scheduling service installs per-loop deadlines here.
  CancellationToken Cancel;
};

/// LP effort spent by one solve (see LpStats): how much simplex work the
/// answer cost, and how much of it started warm.
struct LpEffort {
  std::int64_t Pivots = 0;
  std::int64_t Refactorizations = 0;
  std::int64_t Solves = 0;
  std::int64_t WarmSolves = 0;

  LpEffort &operator+=(const LpEffort &O) {
    Pivots += O.Pivots;
    Refactorizations += O.Refactorizations;
    Solves += O.Solves;
    WarmSolves += O.WarmSolves;
    return *this;
  }
};

/// Cross-T warm-start context: the previous candidate T's formulation
/// handles and final structural basis.  ilpStepAtT consumes it to seed
/// the new T's workspace and overwrites it with this T's outcome.  A
/// default-constructed context seeds nothing.
struct TWarmContext {
  int T = 0;
  FormulationVars Vars;
  std::vector<LpBasisStatus> Basis;

  bool valid() const { return T > 0 && !Basis.empty(); }
};

/// One candidate-T attempt record.
struct TAttempt {
  int T = 0;
  /// True when T was skipped for violating the modulo constraint.
  bool ModuloSkipped = false;
  MilpStatus Status = MilpStatus::Unknown;
  /// What censored this attempt's proof (SearchStop::None when nothing
  /// did) — distinguishes time limit / node limit / cancellation.
  SearchStop StopReason = SearchStop::None;
  double Seconds = 0.0;
  std::int64_t Nodes = 0;
  /// Simplex effort behind this attempt (probe + all node relaxations).
  LpEffort Lp;

  /// True when this attempt proves its T infeasible: an uncensored
  /// Infeasible verdict (a modulo skip is one).  Every ProvenRateOptimal
  /// claim rests on this rule.
  bool refutes() const {
    return Status == MilpStatus::Infeasible && StopReason == SearchStop::None;
  }
};

/// Which rung of the service's fallback ladder produced the schedule.
/// The ladder degrades ILP -> slack-modulo -> iterative-modulo; None means
/// the primary (ILP or portfolio) path answered.
enum class FallbackRung {
  None,
  SlackModulo,
  IterativeModulo,
};

/// Short stable name of \p R ("none", "slack-modulo", ...).
const char *fallbackRungName(FallbackRung R);

/// Result of the rate-optimal search.
struct SchedulerResult {
  /// The schedule (T == 0 when none was found within the window/limits).
  ModuloSchedule Schedule;
  int TDep = 0;
  int TRes = 0;
  int TLowerBound = 0;
  /// True when every T below the found one was proven infeasible.
  bool ProvenRateOptimal = false;
  /// True when the independent verifier rejected an extracted schedule
  /// (a bug — never expected; the schedule is then discarded).
  bool VerifyFailed = false;
  /// True when the search was cut short by the options' cancellation
  /// token (deadline or explicit cancel); the result covers only the T
  /// attempted before the cut.
  bool Cancelled = false;
  /// Typed library error (ok() when the search ran normally).  A non-ok
  /// status can coexist with a found schedule when a fallback rung
  /// answered after the primary path failed.
  Status Error;
  /// Which fallback rung produced Schedule (None on the primary path);
  /// set by the scheduling service's fallback ladder.
  FallbackRung Fallback = FallbackRung::None;
  /// True when fault-injection sites fired during this solve; such results
  /// never claim censored-proof optimality and are never cached.
  bool FaultsSeen = false;
  /// True when this result was served from the ResultCache (warm hit); the
  /// cached copy itself stores false, so a hit differs from its cold solve
  /// only in this flag.
  bool CacheHit = false;
  /// Watchdog retries the service spent on this job (transient faults).
  int Retries = 0;
  double TotalSeconds = 0.0;
  std::int64_t TotalNodes = 0;
  /// Simplex effort summed over every attempt.
  LpEffort TotalLp;
  std::vector<TAttempt> Attempts;

  bool found() const { return Schedule.T > 0; }

  /// True when some attempt refutes candidate \p T (TAttempt::refutes).
  bool refutes(int T) const;

  /// True when every T in [TLowerBound, \p T) is refuted: a schedule at
  /// \p T is then rate-optimal.
  bool refutesBelow(int T) const;

  /// Renders the per-attempt SearchStop chain ("T=3 infeasible; T=4
  /// lp-stall; ...") — the evidence trail behind an unfound/censored
  /// result.
  std::string stopChain() const;
};

/// One scheduler's answer for one candidate T: the attempt record
/// (Status, StopReason, Seconds, Nodes, Lp; the sweep fills T), the
/// schedule when Status is Optimal or Feasible, and the typed error when
/// it is Error.
struct TStepResult {
  TAttempt Attempt;
  ModuloSchedule Schedule;
  Status Error;
};

/// A scheduler's per-T step: answers candidate \p T.
using TStep = std::function<TStepResult(int T)>;

/// The rate-optimal T-sweep every scheduler shares.  Validates the loop
/// (phase "driver"), computes T_lb, then walks T = T_lb .. T_lb +
/// Opts.MaxTSlack: modulo-infeasible T are recorded as skips, every other
/// T is asked of \p Steps in order, each answer recorded as an attempt.
/// The sweep moves to T+1 as soon as one step refutes T (or every step
/// has answered without a schedule), and ends at the first found
/// schedule, which the independent verifier checks and which is
/// ProvenRateOptimal when refutesBelow(T).  The first typed error is
/// kept; an InvalidInput error stops the sweep, any other error censors
/// that step's answer and the next step is asked.  A fired Opts.Cancel,
/// or a step stopped by cancellation, ends the sweep with Cancelled set.
/// Sums TotalNodes and TotalLp over the steps and stamps FaultsSeen.
/// Holds no state beyond its own frame, so sweeps may run concurrently.
SchedulerResult searchRateOptimal(const Ddg &G, const MachineModel &Machine,
                                  const SchedulerOptions &Opts,
                                  std::span<const TStep> Steps);

/// The sweep over the one step \p Step.
inline SchedulerResult searchRateOptimal(const Ddg &G,
                                         const MachineModel &Machine,
                                         const SchedulerOptions &Opts,
                                         const TStep &Step) {
  return searchRateOptimal(G, Machine, Opts, std::span(&Step, 1));
}

/// Runs the rate-optimal search for \p G on \p Machine: the shared sweep
/// with scheduleLoop's step (ilpSweepStep).
SchedulerResult scheduleLoop(const Ddg &G, const MachineModel &Machine,
                             const SchedulerOptions &Opts = {});

/// scheduleLoop's step: ilpStepAtT, carrying the LP basis across T in
/// \p Warm when Opts.WarmStartAcrossT.  Borrows every argument.
TStep ilpSweepStep(const Ddg &G, const MachineModel &Machine,
                   const SchedulerOptions &Opts, TWarmContext &Warm);

/// The InvalidInput error of a loop that MachineModel::acceptsDdg rejects,
/// naming \p G; each entry point adds its own phase.
Status invalidLoopError(const Ddg &G);

/// scheduleLoop's step: builds and solves the MILP for one fixed \p T.
/// The attempt carries the solver outcome, what censored the search
/// (SearchStop::None when nothing did), the wall time, the B&B nodes and
/// the simplex effort; the schedule is set when the outcome is Optimal or
/// Feasible, the typed error when it is Error.  \p Warm, when non-null,
/// seeds this T's LP workspace from the context's basis and is
/// overwritten with this T's final basis (the scheduleLoop carry).
TStepResult ilpStepAtT(const Ddg &G, const MachineModel &Machine, int T,
                       const SchedulerOptions &Opts,
                       TWarmContext *Warm = nullptr);

/// ilpStepAtT with its answer spread over out-parameters.  Kept only for
/// the benchmark's per-T replay (perfbench/library.cpp); new code calls
/// ilpStepAtT.
MilpStatus scheduleAtT(const Ddg &G, const MachineModel &Machine, int T,
                       const SchedulerOptions &Opts, ModuloSchedule &Out,
                       double *SecondsOut = nullptr,
                       std::int64_t *NodesOut = nullptr,
                       SearchStop *StopOut = nullptr,
                       Status *ErrorOut = nullptr,
                       TWarmContext *Warm = nullptr,
                       LpEffort *EffortOut = nullptr);

} // namespace swp

#endif // SWP_CORE_DRIVER_H
