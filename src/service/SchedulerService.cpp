//===- SchedulerService.cpp - Parallel scheduling service -----------------===//

#include "swp/service/SchedulerService.h"

#include "swp/heuristics/IterativeModulo.h"
#include "swp/heuristics/ModuloReservationTable.h"
#include "swp/heuristics/SlackModulo.h"
#include "swp/sat/SatScheduler.h"
#include "swp/service/Fingerprint.h"
#include "swp/support/FaultInjector.h"
#include "swp/support/Stopwatch.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

using namespace swp;

bool swp::parseSchedulerName(const std::string &Name, ExactEngine &Engine,
                             bool &Portfolio) {
  static const struct {
    const char *Name;
    ExactEngine Engine;
    bool Portfolio;
  } Names[] = {
      {"ilp", ExactEngine::Ilp, false},
      {"sat", ExactEngine::Sat, false},
      {"race", ExactEngine::Race, false},
      {"portfolio", ExactEngine::Ilp, true},
      {"portfolio-ilp", ExactEngine::Ilp, true},
      {"portfolio-sat", ExactEngine::Sat, true},
      {"portfolio-race", ExactEngine::Race, true},
  };
  for (const auto &N : Names)
    if (Name == N.Name) {
      Engine = N.Engine;
      Portfolio = N.Portfolio;
      return true;
    }
  return false;
}

namespace {

/// A search limit or a fault cut at least one attempt's proof short (the
/// paper's "10/30" situation).
bool censored(const SchedulerResult &R) {
  for (const TAttempt &A : R.Attempts)
    if (A.StopReason == SearchStop::TimeLimit ||
        A.StopReason == SearchStop::NodeLimit ||
        A.StopReason == SearchStop::LpStall ||
        A.StopReason == SearchStop::Fault)
      return true;
  return false;
}

} // namespace

SchedulerResult swp::exactSchedule(const Ddg &G, const MachineModel &Machine,
                                   const SchedulerOptions &Opts,
                                   ExactEngine Engine) {
  switch (Engine) {
  case ExactEngine::Ilp:
    return scheduleLoop(G, Machine, Opts);
  case ExactEngine::Sat:
    return satScheduleLoop(G, Machine, Opts);
  case ExactEngine::Race:
    break;
  }
  // The race is a chain: the second engine answers only the T the first
  // left censored.  The ILP's LP-rounding probe settles most corpus T in
  // one LP, so the ILP goes first; on a placement-constraining topology
  // SAT decides faster (EXPERIMENTS.md), so it goes first there.
  TWarmContext Warm;
  std::optional<SatScheduler> Sat;
  TStep Chain[] = {ilpSweepStep(G, Machine, Opts, Warm),
                   satSweepStep(G, Machine, Opts, Sat)};
  if (Machine.topologyConstrains())
    std::swap(Chain[0], Chain[1]);
  return searchRateOptimal(G, Machine, Opts, Chain);
}

SchedulerResult swp::portfolioSchedule(const Ddg &G,
                                       const MachineModel &Machine,
                                       const SchedulerOptions &Opts,
                                       PortfolioOutcome *OutcomeOut,
                                       ExactEngine Engine) {
  Stopwatch Total;
  auto Outcome = [&](PortfolioOutcome O) {
    if (OutcomeOut)
      *OutcomeOut = O;
  };
  const std::uint64_t FiredBefore = FaultInjector::instance().totalFired();
  auto StampFaults = [FiredBefore](SchedulerResult &R) {
    R.FaultsSeen = R.FaultsSeen ||
                   FaultInjector::instance().totalFired() > FiredBefore;
  };

  // The heuristic leg does not poll the token, so honor a pre-cancelled
  // one before running anything.
  if (Opts.Cancel.cancelled()) {
    SchedulerResult R;
    R.Cancelled = true;
    R.TotalSeconds = Total.seconds();
    StampFaults(R);
    Outcome(PortfolioOutcome::NothingFound);
    return R;
  }

  // Heuristic leg: one sweep that asks IMS, then slack scheduling, at each
  // T, so the incumbent is the first T either places (IMS's schedule on a
  // tie).  The sweep validates the loop and verifies the schedule it
  // returns; a rejected schedule (never expected) ends it empty with
  // VerifyFailed, which every portfolio result carries.
  SchedulerResult Heur =
      heuristicSweep(G, Machine, Opts.MaxTSlack, {imsAtT, slackAtT});
  if (!Heur.Error.isOk()) {
    // Only validation fails a heuristic sweep.
    Heur.Error.withPhase("portfolio");
    Heur.TotalSeconds = Total.seconds();
    Outcome(PortfolioOutcome::NothingFound);
    return Heur;
  }
  ModuloSchedule &Incumbent = Heur.Schedule;

  if (Incumbent.T > 0 && Incumbent.T == Heur.TLowerBound) {
    // The incumbent sits on the lower bound: it is rate-optimal by
    // construction, so the exact leg never starts, and the answer carries
    // no attempts.
    Heur.Attempts.clear();
    StampFaults(Heur);
    Heur.TotalSeconds = Total.seconds();
    Outcome(PortfolioOutcome::HeuristicWon);
    return Heur;
  }

  // Exact leg (ILP, SAT, or both chained), restricted to strictly better T
  // than the incumbent (its only way to win is to beat it, so T >=
  // Incumbent.T is pruned).
  SchedulerOptions ExactOpts = Opts;
  if (Incumbent.T > 0)
    ExactOpts.MaxTSlack =
        std::min(Opts.MaxTSlack, Incumbent.T - 1 - Heur.TLowerBound);
  SchedulerResult R = exactSchedule(G, Machine, ExactOpts, Engine);
  R.VerifyFailed = R.VerifyFailed || Heur.VerifyFailed;
  PortfolioOutcome Settled = PortfolioOutcome::IlpWon;
  if (!R.found() && Incumbent.T > 0) {
    // Fall back to the heuristic incumbent: the exact leg's result, with
    // its attempts and effort, answers with the incumbent instead.  It is
    // proven rate-optimal exactly when the exact leg refuted every smaller
    // T.
    R.Schedule = std::move(Incumbent);
    R.ProvenRateOptimal = R.refutesBelow(R.Schedule.T);
    Settled = PortfolioOutcome::FellBackToHeuristic;
  } else if (!R.found()) {
    Settled = PortfolioOutcome::NothingFound;
  }
  StampFaults(R);
  R.TotalSeconds = Total.seconds();
  Outcome(Settled);
  return R;
}

SchedulerResult swp::runHeuristicLadder(const Ddg &G,
                                        const MachineModel &Machine,
                                        int MaxTSlack) {
  Stopwatch Total;
  SchedulerResult R;
  if (!Machine.acceptsDdg(G)) {
    R.Error = invalidLoopError(G).withPhase("heuristic-ladder");
    R.TotalSeconds = Total.seconds();
    return R;
  }
  // Slack first, then IMS; each sweep verifies the schedule it returns.
  SlackOptions SlackOpts;
  SlackOpts.MaxTSlack = MaxTSlack;
  SchedulerResult Rung = slackModuloSchedule(G, Machine, SlackOpts);
  FallbackRung Which = FallbackRung::SlackModulo;
  if (!Rung.found()) {
    ImsOptions ImsOpts;
    ImsOpts.MaxTSlack = MaxTSlack;
    Rung = iterativeModuloSchedule(G, Machine, ImsOpts);
    Which = FallbackRung::IterativeModulo;
  }
  R.TDep = Rung.TDep;
  R.TRes = Rung.TRes;
  R.TLowerBound = Rung.TLowerBound;
  if (Rung.found()) {
    R.Schedule = std::move(Rung.Schedule);
    R.Fallback = Which;
  }
  // T_lb comes from fault-free analysis, so a rung schedule sitting on it
  // is rate-optimal by construction.
  R.ProvenRateOptimal =
      R.found() && R.TLowerBound > 0 && R.Schedule.T == R.TLowerBound;
  R.TotalSeconds = Total.seconds();
  return R;
}

SchedulerService::SchedulerService(MachineModel M, ServiceOptions O)
    : SchedulerService(std::move(M), O, std::make_shared<ResultCache>()) {}

SchedulerService::SchedulerService(MachineModel M, ServiceOptions O,
                                   std::shared_ptr<ResultCache> C)
    : Machine(std::move(M)), Opts(O), Cache(std::move(C)), Pool(O.Jobs) {
  Counters.Jobs = Pool.threadCount();
}

SchedulerService::~SchedulerService() = default;

std::future<SchedulerResult> SchedulerService::submit(Ddg G) {
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Counters.Submitted;
  }
  return Pool.submit([this, Loop = std::move(G), Latency = Stopwatch()] {
    const double QueueWait = Latency.seconds();
    return scheduleOne(Loop, prepareJob(Loop, JobOptions()), Latency,
                       QueueWait);
  });
}

SchedulerResult SchedulerService::schedule(Ddg G, JobOptions Job) {
  Stopwatch Latency;
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Counters.Submitted;
  }
  PreparedJob Prepared = prepareJob(G, Job);
  SchedulerResult R;
  if (answerFromCache(Prepared, R, Latency, 0.0))
    return R;
  return Pool
      .submit([this, Loop = std::move(G), Prepared = std::move(Prepared),
               Latency] {
        return scheduleOne(Loop, Prepared, Latency, Latency.seconds());
      })
      .get();
}

std::vector<SchedulerResult>
SchedulerService::scheduleAll(std::span<const Ddg> Loops) {
  std::vector<std::future<SchedulerResult>> Futures;
  Futures.reserve(Loops.size());
  for (const Ddg &G : Loops)
    Futures.push_back(submit(G));
  std::vector<SchedulerResult> Results;
  Results.reserve(Loops.size());
  for (auto &F : Futures)
    Results.push_back(F.get());
  return Results;
}

void SchedulerService::cancelAll() { GlobalCancel.cancel(); }

ServiceStats SchedulerService::stats() const {
  std::lock_guard<std::mutex> Lock(StatsMutex);
  ServiceStats S = Counters;
  S.QueueHighWater = Pool.queueHighWater();
  S.DispatchFaults = Pool.dispatchFaults();
  S.CacheSize = Cache->size();
  S.CacheEvictions = Cache->evictions();
  return S;
}

SchedulerService::PreparedJob
SchedulerService::prepareJob(const Ddg &G, const JobOptions &Job) const {
  PreparedJob P;
  P.Sched = Opts.Sched;
  if (Job.TimeLimitPerT > 0)
    P.Sched.TimeLimitPerT = Job.TimeLimitPerT;
  if (Job.MaxTSlack >= 0)
    P.Sched.MaxTSlack = Job.MaxTSlack;
  P.Deadline =
      Job.DeadlineSeconds >= 0 ? Job.DeadlineSeconds : Opts.DeadlinePerLoop;
  if (Opts.UseCache)
    P.Key = fingerprintJob(G, Machine, P.Sched, Opts.Portfolio, P.Deadline,
                           static_cast<int>(Opts.Engine));
  return P;
}

bool SchedulerService::answerFromCache(const PreparedJob &Job,
                                       SchedulerResult &R,
                                       const Stopwatch &Latency,
                                       double QueueWait) {
  if (!Opts.UseCache || !Cache->lookup(Job.Key, R))
    return false;
  // The cached copy stores CacheHit = false, so a warm hit differs from its
  // cold solve only in this flag.  Its effort was counted when it was first
  // solved.
  R.CacheHit = true;
  std::lock_guard<std::mutex> Lock(StatsMutex);
  ++Counters.Completed;
  ++Counters.CacheHits;
  if (R.Cancelled)
    ++Counters.Cancellations;
  if (censored(R))
    ++Counters.CensoredProofs;
  Counters.QueueWaitSeconds += QueueWait;
  Counters.Latency.add(Latency.seconds());
  return true;
}

SchedulerResult SchedulerService::scheduleOne(const Ddg &G,
                                              const PreparedJob &Job,
                                              const Stopwatch &Latency,
                                              double QueueWait) {
  SchedulerResult R;
  if (answerFromCache(Job, R, Latency, QueueWait))
    return R;

  PortfolioOutcome Outcome = PortfolioOutcome::NothingFound;
  // Faults seen by ANY watchdog attempt, even when a clean retry answered
  // (the final R.FaultsSeen then stays false so the result is cacheable).
  bool SawFaults = false;
  // Watchdog: re-run a solve killed by a transient fault.  Transient means
  // an injected/typed error that is not invalid input, or a cancellation
  // that neither cancelAll() nor the real per-loop deadline explains (i.e.
  // an injected deadline-expiry fault).
  for (int Attempt = 0;; ++Attempt) {
    // Fault injection: the per-loop deadline expires immediately.
    bool DeadlineFault =
        FaultInjector::instance().shouldFire(FaultSite::Deadline);
    Stopwatch JobWatch;
    CancellationSource JobCancel(GlobalCancel.token());
    if (Job.Deadline > 0)
      JobCancel.setDeadlineAfter(Job.Deadline);
    if (DeadlineFault)
      JobCancel.cancel();
    SchedulerOptions SOpts = Job.Sched;
    SOpts.Cancel = JobCancel.token();
    if (Opts.Portfolio)
      R = portfolioSchedule(G, Machine, SOpts, &Outcome, Opts.Engine);
    else
      R = exactSchedule(G, Machine, SOpts, Opts.Engine);
    R.Retries = Attempt;
    SawFaults = SawFaults || R.FaultsSeen;
    if (R.found() || Attempt >= Opts.WatchdogRetries)
      break;
    bool RealDeadline =
        Job.Deadline > 0 && JobWatch.seconds() >= Job.Deadline;
    bool TransientError =
        !R.Error.isOk() && R.Error.code() != StatusCode::InvalidInput;
    bool SpuriousCancel =
        R.Cancelled && !RealDeadline && !GlobalCancel.token().cancelled();
    if (!TransientError && !SpuriousCancel)
      break;
    std::this_thread::sleep_for(std::chrono::duration<double>(
        Opts.RetryBackoff * static_cast<double>(1 << std::min(Attempt, 8))));
  }

  // Fallback ladder: the primary path produced no schedule for a reason
  // other than a clean full-window infeasibility proof.  Degrade to the
  // heuristics (verified, like every schedule the service hands out); when
  // even they fail the caller gets the explicit unfound result with its
  // SearchStop chain — never an abort, hang, or empty answer.
  bool CleanProof = R.Error.isOk() && !R.Cancelled && !R.FaultsSeen;
  for (const TAttempt &A : R.Attempts)
    CleanProof = CleanProof && A.StopReason == SearchStop::None;
  if (!R.found() && !CleanProof &&
      R.Error.code() != StatusCode::InvalidInput &&
      !GlobalCancel.token().cancelled()) {
    SchedulerResult Rung = runHeuristicLadder(G, Machine, Job.Sched.MaxTSlack);
    if (Rung.found()) {
      R.Schedule = Rung.Schedule;
      R.Fallback = Rung.Fallback;
      if (R.TLowerBound == 0) {
        R.TDep = Rung.TDep;
        R.TRes = Rung.TRes;
        R.TLowerBound = Rung.TLowerBound;
      }
      // A rung schedule sitting on the fault-free T_lb is rate-optimal by
      // construction even though the ILP search was not trustworthy.
      R.ProvenRateOptimal = Rung.ProvenRateOptimal;
    }
  }

  bool WallClockCensored = R.Cancelled;
  for (const TAttempt &A : R.Attempts)
    WallClockCensored =
        WallClockCensored || A.StopReason == SearchStop::TimeLimit;
  // Memoize only results that a cold re-solve would reproduce: cancelled
  // or time-limit-censored answers depend on machine load at solve time,
  // and fault-window results on injector state (the cache rechecks that).
  // Node-limit and LP-stall censoring is deterministic and caches fine.
  if (Opts.UseCache && !WallClockCensored && !R.FaultsSeen)
    Cache->insert(Job.Key, R);

  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Counters.Completed;
    if (Opts.UseCache)
      ++Counters.CacheMisses;
    if (R.Cancelled)
      ++Counters.Cancellations;
    if (censored(R))
      ++Counters.CensoredProofs;
    // Only fresh solves spent effort; cache hits replay a recorded result
    // whose effort was already counted when it was first solved.
    Counters.SearchNodes +=
        static_cast<std::uint64_t>(std::max<std::int64_t>(R.TotalNodes, 0));
    Counters.LpPivots += static_cast<std::uint64_t>(
        std::max<std::int64_t>(R.TotalLp.Pivots, 0));
    Counters.LpRefactorizations += static_cast<std::uint64_t>(
        std::max<std::int64_t>(R.TotalLp.Refactorizations, 0));
    Counters.LpSolves += static_cast<std::uint64_t>(
        std::max<std::int64_t>(R.TotalLp.Solves, 0));
    Counters.LpWarmSolves += static_cast<std::uint64_t>(
        std::max<std::int64_t>(R.TotalLp.WarmSolves, 0));
    if (R.FaultsSeen || SawFaults)
      ++Counters.FaultedJobs;
    if (!R.Error.isOk())
      ++Counters.TypedErrors;
    Counters.WatchdogRetries += static_cast<std::uint64_t>(R.Retries);
    if (R.Fallback == FallbackRung::SlackModulo)
      ++Counters.FallbackSlackWins;
    else if (R.Fallback == FallbackRung::IterativeModulo)
      ++Counters.FallbackImsWins;
    if (Opts.Portfolio) {
      switch (Outcome) {
      case PortfolioOutcome::HeuristicWon:
        ++Counters.PortfolioHeuristicWins;
        break;
      case PortfolioOutcome::IlpWon:
        ++Counters.PortfolioIlpWins;
        break;
      case PortfolioOutcome::FellBackToHeuristic:
        ++Counters.PortfolioFallbacks;
        break;
      case PortfolioOutcome::NothingFound:
        break;
      }
    }
    Counters.QueueWaitSeconds += QueueWait;
    Counters.Latency.add(Latency.seconds());
  }
  return R;
}
