//===- swp/service/SchedulerService.h - Parallel scheduling -----*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch scheduling service: many loops, one machine, a fixed-size
/// worker pool.  Each submitted DDG flows through
///
///     queue -> [result cache] -> portfolio/ILP solve -> stats
///
/// schedule() probes the cache on the caller's thread first, so a hit
/// never queues; only a miss reaches the pool.
///
/// Portfolio mode races the cheap heuristics (iterative-modulo and slack
/// scheduling) against the rate-optimal ILP per loop: the heuristic leg
/// runs first (it is orders of magnitude faster, so it always wins the
/// race to an incumbent), its schedule becomes the upper-bound incumbent,
/// and the ILP leg is restricted to strictly better T — or cancelled
/// outright when the incumbent already sits on the lower bound.  The
/// outcome is decided by the *results*, never by thread timing, so a
/// portfolio batch is deterministic.
///
/// Cancellation is cooperative: every job's solve carries a token nested
/// under the service-wide source, checked in the driver's per-T loop and
/// the branch-and-bound node loop; per-loop deadlines use the same token.
///
/// The service guarantees an answer per job (DESIGN.md Section 9): a
/// watchdog re-runs solves killed by transient faults (bounded exponential
/// backoff), and a fallback ladder degrades ILP -> slack-modulo ->
/// iterative-modulo before reporting an unfound result — which then
/// carries the full per-attempt SearchStop chain and a typed Status.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SERVICE_SCHEDULERSERVICE_H
#define SWP_SERVICE_SCHEDULERSERVICE_H

#include "swp/core/Driver.h"
#include "swp/machine/MachineModel.h"
#include "swp/service/Fingerprint.h"
#include "swp/service/ResultCache.h"
#include "swp/service/ServiceStats.h"
#include "swp/service/ThreadPool.h"
#include "swp/support/Cancellation.h"
#include "swp/support/Stopwatch.h"

#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace swp {

/// The exact (proof-capable) scheduling engine a job runs.
enum class ExactEngine {
  /// The branch-and-bound ILP over the paper's formulation.
  Ilp,
  /// The CDCL SAT backend with incremental per-T re-solving.
  Sat,
  /// Both, raced with cross-cancellation; the adopted result is decided by
  /// what each engine *returned* (found schedules, proven windows), never
  /// by thread timing, so racing stays deterministic.
  Race,
};

/// Short stable name of \p E ("ilp", "sat", "race").
const char *exactEngineName(ExactEngine E);

/// Telemetry of one exactSchedule call (race accounting and cross-engine
/// proof merging; meaningful fields depend on the engine).
struct ExactRaceInfo {
  /// The exact engine actually ran (false when the portfolio's heuristic
  /// incumbent settled the loop before the exact leg started).
  bool Ran = false;
  /// Engine whose result was adopted.
  ExactEngine Winner = ExactEngine::Ilp;
  /// The losing engine's clean per-T infeasibility proofs upgraded the
  /// adopted result to ProvenRateOptimal (satellite accounting: a rung
  /// that loses the race but proved the matching lower bound still
  /// contributes its proof).
  bool ProofUpgraded = false;
  /// CDCL conflicts the SAT leg spent (0 when SAT never ran).
  std::int64_t SatConflicts = 0;
  /// The SAT leg produced the decisive answer first in wall time.  Stats
  /// only — never consulted when picking the winner.
  bool SatDecidedFirst = false;
};

/// Runs \p Engine on one loop: Ilp and Sat dispatch to the corresponding
/// rate-optimal loop; Race runs both concurrently, cancels the loser once
/// a decisive result exists, adopts by results (smaller T wins, a found
/// schedule beats none, tie prefers the ILP), and merges the loser's
/// infeasibility proofs into the winner's optimality claim.
SchedulerResult exactSchedule(const Ddg &G, const MachineModel &Machine,
                              const SchedulerOptions &Opts = {},
                              ExactEngine Engine = ExactEngine::Ilp,
                              ExactRaceInfo *Info = nullptr);

/// How one portfolio race was settled (for stats and tests).
enum class PortfolioOutcome {
  /// The heuristic incumbent hit T_lb; the ILP leg was cancelled unstarted.
  HeuristicWon,
  /// The ILP leg found a schedule (strictly better than the incumbent, or
  /// there was no incumbent).
  IlpWon,
  /// The ILP leg found nothing below the incumbent; the heuristic schedule
  /// stands (proven rate-optimal when the ILP proved every smaller T
  /// infeasible).
  FellBackToHeuristic,
  /// Neither leg produced a schedule.
  NothingFound,
};

/// Runs the portfolio race for one loop.  \p Opts configures the exact leg
/// (ILP, SAT, or both raced, per \p Engine); its Cancel token is honored by
/// every leg.  Exposed standalone so swpc and tests can run it without a
/// pool.  \p RaceOut receives the exact leg's race telemetry when it ran.
SchedulerResult portfolioSchedule(const Ddg &G, const MachineModel &Machine,
                                  const SchedulerOptions &Opts = {},
                                  PortfolioOutcome *OutcomeOut = nullptr,
                                  ExactEngine Engine = ExactEngine::Ilp,
                                  ExactRaceInfo *RaceOut = nullptr);

/// Service configuration.
struct ServiceOptions {
  /// Worker threads; 0 means one per hardware thread.
  int Jobs = 0;
  /// Per-loop scheduler knobs (the exact leg in portfolio mode).
  SchedulerOptions Sched;
  /// Which exact engine answers jobs (and anchors the portfolio).
  ExactEngine Engine = ExactEngine::Ilp;
  /// Race the heuristics against the exact engine per loop.
  bool Portfolio = false;
  /// Memoize results by canonical fingerprint.
  bool UseCache = true;
  /// Per-loop wall-clock deadline in seconds (0 = none); expiring cancels
  /// the solve cooperatively.
  double DeadlinePerLoop = 0.0;
  /// Watchdog: maximum re-runs of a job whose solve died of a transient
  /// fault (injected error, spurious cancellation).  Retries back off
  /// exponentially from RetryBackoff.
  int WatchdogRetries = 2;
  /// First watchdog backoff in seconds (doubles per retry).
  double RetryBackoff = 0.001;
};

/// Per-request overrides of the service-wide solve effort.  The admission
/// controller uses these to degrade saturated requests (shorter per-T time
/// slices, narrower T windows, tighter deadlines) without reconfiguring
/// the whole service; they fold into the job's fingerprint, so a degraded
/// solve never aliases a full-effort cache entry.
struct JobOptions {
  /// Per-loop wall-clock deadline in seconds; negative keeps the service
  /// default, 0 disables the deadline for this job.
  double DeadlineSeconds = -1.0;
  /// Per-T solver time limit in seconds; <= 0 keeps the service default.
  double TimeLimitPerT = 0.0;
  /// Candidate-T window above the lower bound; negative keeps the service
  /// default.
  int MaxTSlack = -1;
};

/// The degraded path the admission controller runs when exact engines are
/// saturated: slack-modulo first, then iterative-modulo, both verified.
/// Always returns (schedule, explicit unfound result, or InvalidInput for
/// a malformed DDG) and stamps the adopted rung in Result.Fallback.
SchedulerResult runHeuristicLadder(const Ddg &G, const MachineModel &Machine,
                                   int MaxTSlack);

/// Schedules many loops concurrently on one machine model.
class SchedulerService {
public:
  explicit SchedulerService(MachineModel Machine, ServiceOptions Opts = {});

  /// Shares \p Cache with other services (the swpd daemon keys services by
  /// machine but pools one cache across them, so snapshots and stats see a
  /// single memoization domain).  \p Cache must not be null.
  SchedulerService(MachineModel Machine, ServiceOptions Opts,
                   std::shared_ptr<ResultCache> Cache);
  ~SchedulerService();

  SchedulerService(const SchedulerService &) = delete;
  SchedulerService &operator=(const SchedulerService &) = delete;

  /// Enqueues one loop; the future resolves with its SchedulerResult.  Its
  /// latency, and its queue wait, count from this call.
  std::future<SchedulerResult> submit(Ddg G);

  /// Schedules one loop with per-job effort overrides and waits for it.  A
  /// cached loop is answered on the caller's thread; a miss runs on the
  /// pool, whose worker probes the cache once more under the same key (an
  /// identical job may have finished meanwhile) before it solves.
  SchedulerResult schedule(Ddg G, JobOptions Job = {});

  /// Schedules every loop of \p Loops; results are returned in input
  /// order (the whole batch runs through the pool concurrently).
  std::vector<SchedulerResult> scheduleAll(std::span<const Ddg> Loops);

  /// Cooperatively cancels every queued and running job.  Already-running
  /// solves unwind at their next token poll and report Cancelled.
  void cancelAll();

  /// Snapshot of the observability counters.
  ServiceStats stats() const;

  const MachineModel &machine() const { return Machine; }
  const ServiceOptions &options() const { return Opts; }

  /// The (possibly shared) result cache backing this service.
  const std::shared_ptr<ResultCache> &cacheHandle() const { return Cache; }

private:
  /// One job's effective solve options and cache key.
  struct PreparedJob {
    SchedulerOptions Sched;
    double Deadline = 0.0;
    /// Unset when the service runs without a cache.
    Fingerprint Key;
  };

  /// Folds \p Job's overrides into the service options, then fingerprints
  /// the result, so a degraded solve never aliases a full-effort entry.
  PreparedJob prepareJob(const Ddg &G, const JobOptions &Job) const;
  /// Probes the cache for \p Job; on a hit fills \p R and counts the
  /// completed job, which waited \p QueueWait seconds for a worker.
  bool answerFromCache(const PreparedJob &Job, SchedulerResult &R,
                       const Stopwatch &Latency, double QueueWait);
  /// The pool worker's body: probe the cache, else solve, insert, count.
  /// \p Latency started when the job was submitted; the worker took it
  /// \p QueueWait seconds later.
  SchedulerResult scheduleOne(const Ddg &G, const PreparedJob &Job,
                              const Stopwatch &Latency, double QueueWait);

  MachineModel Machine;
  ServiceOptions Opts;
  std::shared_ptr<ResultCache> Cache;
  CancellationSource GlobalCancel;

  mutable std::mutex StatsMutex;
  ServiceStats Counters;

  /// Declared last so workers die before any state they touch.
  ThreadPool Pool;
};

} // namespace swp

#endif // SWP_SERVICE_SCHEDULERSERVICE_H
