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
/// Portfolio mode pairs the cheap heuristics with the rate-optimal exact
/// engine per loop: the heuristic leg runs first, one sweep that asks
/// iterative-modulo and then slack scheduling at each T, and the first T
/// either places becomes the upper-bound incumbent; the exact leg is then
/// restricted to strictly better T, or skipped outright when the
/// incumbent already sits on the lower bound.
///
/// Every engine runs on the job's own thread.  The engine race and the
/// heuristic leg are each one sweep over an ordered chain of steps
/// (searchRateOptimal), so under node or conflict budgets an answer
/// depends on the loop and the options, never on thread timing.
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
#include <string>
#include <vector>

namespace swp {

/// The exact (proof-capable) scheduling engine a job runs.
enum class ExactEngine {
  /// The branch-and-bound ILP over the paper's formulation.
  Ilp,
  /// The CDCL SAT backend with incremental per-T re-solving.
  Sat,
  /// Both, chained per candidate T: the second engine answers each T the
  /// first left censored, and either engine's refutation refutes.  The ILP
  /// goes first, except on machines whose topology constrains placement,
  /// where SAT does.
  Race,
};

/// Parses an exact scheduler name of swpc and the wire: "ilp", "sat",
/// "race", and the portfolios "portfolio" (or "portfolio-ilp"),
/// "portfolio-sat" and "portfolio-race".  \returns false, leaving the
/// outputs unspecified, on any other name.
bool parseSchedulerName(const std::string &Name, ExactEngine &Engine,
                        bool &Portfolio);

/// Runs \p Engine on one loop: Ilp and Sat are scheduleLoop and
/// satScheduleLoop; Race is the shared sweep over the chain of both
/// engines' steps (ilpSweepStep, satSweepStep), on the caller's thread.
SchedulerResult exactSchedule(const Ddg &G, const MachineModel &Machine,
                              const SchedulerOptions &Opts = {},
                              ExactEngine Engine = ExactEngine::Ilp);

/// How one portfolio run was settled (for stats and tests).
enum class PortfolioOutcome {
  /// The heuristic incumbent hit T_lb; the exact leg never started.
  HeuristicWon,
  /// The exact leg found a schedule (strictly better than the incumbent,
  /// or there was no incumbent).
  IlpWon,
  /// The exact leg found nothing below the incumbent; the heuristic
  /// schedule stands (proven rate-optimal when the exact leg refuted every
  /// smaller T).
  FellBackToHeuristic,
  /// Neither leg produced a schedule.
  NothingFound,
};

/// Runs the portfolio for one loop.  \p Opts configures the exact leg
/// (\p Engine); its Cancel token is honored before the heuristic leg and
/// throughout the exact leg.  Exposed standalone so swpc and tests can
/// run it without a pool.  The result carries the heuristic sweep's
/// VerifyFailed.
SchedulerResult portfolioSchedule(const Ddg &G, const MachineModel &Machine,
                                  const SchedulerOptions &Opts = {},
                                  PortfolioOutcome *OutcomeOut = nullptr,
                                  ExactEngine Engine = ExactEngine::Ilp);

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
