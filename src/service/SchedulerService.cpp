//===- SchedulerService.cpp - Parallel scheduling service -----------------===//

#include "swp/service/SchedulerService.h"

#include "swp/heuristics/IterativeModulo.h"
#include "swp/heuristics/SlackModulo.h"
#include "swp/sat/SatScheduler.h"
#include "swp/service/Fingerprint.h"
#include "swp/support/FaultInjector.h"
#include "swp/support/Stopwatch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

using namespace swp;

const char *swp::exactEngineName(ExactEngine E) {
  switch (E) {
  case ExactEngine::Ilp:
    return "ilp";
  case ExactEngine::Sat:
    return "sat";
  case ExactEngine::Race:
    return "race";
  }
  return "?";
}

namespace {

/// A result that should end the race: a schedule in hand, or a clean
/// full-window infeasibility proof (nothing left for the other engine to
/// find either).
bool decisive(const SchedulerResult &R) {
  if (R.found())
    return true;
  return R.Error.isOk() && !R.Cancelled && !R.FaultsSeen &&
         !R.Attempts.empty() && R.refutesBelow(R.Attempts.back().T + 1);
}

/// Cross-engine proof merge: the losing engine's refutations of the T below
/// the winner's upgrade the winner to ProvenRateOptimal.  Requires a
/// fault-free loser run — a proof produced while the injector was firing
/// is not trusted (mirrors the driver's own downgrade).
bool mergeCrossEngineProof(SchedulerResult &Winner,
                           const SchedulerResult &Loser) {
  if (!Winner.found() || Winner.ProvenRateOptimal || Loser.FaultsSeen ||
      Winner.TLowerBound <= 0)
    return false;
  for (int T = Winner.TLowerBound; T < Winner.Schedule.T; ++T)
    if (!Winner.refutes(T) && !Loser.refutes(T))
      return false;
  Winner.ProvenRateOptimal = true;
  return true;
}

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

SchedulerResult raceExact(const Ddg &G, const MachineModel &Machine,
                          const SchedulerOptions &Opts, ExactRaceInfo *Info) {
  // Each leg gets its own source nested under the caller's token, so the
  // caller can still cancel both while each leg can cancel only its rival.
  CancellationSource IlpCancel(Opts.Cancel);
  CancellationSource SatCancel(Opts.Cancel);
  SchedulerOptions IlpOpts = Opts;
  IlpOpts.Cancel = IlpCancel.token();
  SchedulerOptions SatOpts = Opts;
  SatOpts.Cancel = SatCancel.token();

  // 0 = undecided, 1 = ILP first, 2 = SAT first (wall-clock, stats only).
  std::atomic<int> FirstDecisive{0};
  SchedulerResult SatR;
  std::thread SatLeg([&] {
    SatR = satScheduleLoop(G, Machine, SatOpts);
    if (decisive(SatR)) {
      int Expected = 0;
      FirstDecisive.compare_exchange_strong(Expected, 2);
      IlpCancel.cancel();
    }
  });
  SchedulerResult IlpR = scheduleLoop(G, Machine, IlpOpts);
  if (decisive(IlpR)) {
    int Expected = 0;
    FirstDecisive.compare_exchange_strong(Expected, 1);
    SatCancel.cancel();
  }
  SatLeg.join();

  if (Info) {
    Info->SatConflicts = SatR.TotalNodes;
    Info->SatDecidedFirst = FirstDecisive.load() == 2;
  }

  // Adoption is decided by results alone.  A found schedule beats none;
  // between two schedules the smaller T wins; with no schedule anywhere a
  // clean full-window proof beats a censored or cancelled run.  Ties
  // prefer the ILP (both engines are exact, so a tie carries the same
  // schedule quality and the choice only names the winner).
  bool SatWins;
  if (SatR.found() || IlpR.found())
    SatWins =
        SatR.found() && (!IlpR.found() || SatR.Schedule.T < IlpR.Schedule.T);
  else
    SatWins = decisive(SatR) && !decisive(IlpR);

  SchedulerResult &Winner = SatWins ? SatR : IlpR;
  const SchedulerResult &Loser = SatWins ? IlpR : SatR;
  const bool Upgraded = mergeCrossEngineProof(Winner, Loser);
  // A fault in either leg taints the job; the loser's Cancelled flag does
  // not (cross-cancellation is how every race ends).
  Winner.FaultsSeen = Winner.FaultsSeen || Loser.FaultsSeen;
  if (Info) {
    Info->Winner = SatWins ? ExactEngine::Sat : ExactEngine::Ilp;
    Info->ProofUpgraded = Upgraded;
  }
  return std::move(Winner);
}

} // namespace

SchedulerResult swp::exactSchedule(const Ddg &G, const MachineModel &Machine,
                                   const SchedulerOptions &Opts,
                                   ExactEngine Engine, ExactRaceInfo *Info) {
  if (Info) {
    *Info = ExactRaceInfo();
    Info->Ran = true;
  }
  switch (Engine) {
  case ExactEngine::Ilp:
    break;
  case ExactEngine::Sat: {
    SchedulerResult R = satScheduleLoop(G, Machine, Opts);
    if (Info) {
      Info->Winner = ExactEngine::Sat;
      Info->SatConflicts = R.TotalNodes;
      Info->SatDecidedFirst = decisive(R);
    }
    return R;
  }
  case ExactEngine::Race:
    return raceExact(G, Machine, Opts, Info);
  }
  SchedulerResult R = scheduleLoop(G, Machine, Opts);
  if (Info)
    Info->Winner = ExactEngine::Ilp;
  return R;
}

SchedulerResult swp::portfolioSchedule(const Ddg &G,
                                       const MachineModel &Machine,
                                       const SchedulerOptions &Opts,
                                       PortfolioOutcome *OutcomeOut,
                                       ExactEngine Engine,
                                       ExactRaceInfo *RaceOut) {
  if (RaceOut)
    *RaceOut = ExactRaceInfo();
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

  // The heuristic legs are not cancellation-aware, so honor a
  // pre-cancelled token before running anything.
  if (Opts.Cancel.cancelled()) {
    SchedulerResult R;
    R.Cancelled = true;
    R.TotalSeconds = Total.seconds();
    StampFaults(R);
    Outcome(PortfolioOutcome::NothingFound);
    return R;
  }

  // Validate before the heuristic leg: IMS and the analyses it runs assert
  // on malformed DDGs, and the ILP leg would reject them anyway.
  if (!Machine.acceptsDdg(G)) {
    SchedulerResult R;
    R.Error = invalidLoopError(G).withPhase("portfolio");
    R.TotalSeconds = Total.seconds();
    Outcome(PortfolioOutcome::NothingFound);
    return R;
  }

  // Heuristic leg.  IMS and slack scheduling finish in microseconds on
  // corpus-sized loops, so they always win the race to a first incumbent;
  // the better of the two becomes the upper bound.  Their sweeps verify
  // what they return; a rejected schedule (never expected) leaves its leg
  // empty and is reported through VerifyFailed.
  ImsOptions ImsOpts;
  ImsOpts.MaxTSlack = Opts.MaxTSlack;
  SchedulerResult Ims = iterativeModuloSchedule(G, Machine, ImsOpts);
  ModuloSchedule Incumbent = Ims.Schedule;
  bool HeurVerifyFailed = Ims.VerifyFailed;
  if (!Opts.Cancel.cancelled()) {
    SlackOptions SlackOpts;
    SlackOpts.MaxTSlack = Opts.MaxTSlack;
    SchedulerResult Slack = slackModuloSchedule(G, Machine, SlackOpts);
    HeurVerifyFailed = HeurVerifyFailed || Slack.VerifyFailed;
    if (Slack.found() &&
        (Incumbent.T == 0 || Slack.Schedule.T < Incumbent.T))
      Incumbent = std::move(Slack.Schedule);
  }

  if (Incumbent.T > 0 && Incumbent.T == Ims.TLowerBound) {
    // The incumbent sits on the lower bound: it is rate-optimal by
    // construction, so the ILP leg loses the race unstarted.
    SchedulerResult R;
    R.TDep = Ims.TDep;
    R.TRes = Ims.TRes;
    R.TLowerBound = Ims.TLowerBound;
    R.Schedule = std::move(Incumbent);
    R.ProvenRateOptimal = true;
    StampFaults(R);
    R.TotalSeconds = Total.seconds();
    Outcome(PortfolioOutcome::HeuristicWon);
    return R;
  }

  // Exact leg (ILP, SAT, or both raced), restricted to strictly better T
  // than the incumbent (the race's only way to win is to beat it, so
  // T >= Incumbent.T is pruned).
  SchedulerOptions IlpOpts = Opts;
  if (Incumbent.T > 0)
    IlpOpts.MaxTSlack =
        std::min(Opts.MaxTSlack, Incumbent.T - 1 - Ims.TLowerBound);
  SchedulerResult Ilp = exactSchedule(G, Machine, IlpOpts, Engine, RaceOut);
  Ilp.VerifyFailed = Ilp.VerifyFailed || HeurVerifyFailed;
  PortfolioOutcome Settled = PortfolioOutcome::IlpWon;
  if (!Ilp.found() && Incumbent.T > 0) {
    // Fall back to the heuristic incumbent: the exact leg's result, with
    // its attempts and effort, answers with the incumbent instead.  It is
    // proven rate-optimal exactly when the exact leg refuted every smaller
    // T.
    Ilp.Schedule = std::move(Incumbent);
    Ilp.ProvenRateOptimal = Ilp.refutesBelow(Ilp.Schedule.T);
    Settled = PortfolioOutcome::FellBackToHeuristic;
  } else if (!Ilp.found()) {
    Settled = PortfolioOutcome::NothingFound;
  }
  StampFaults(Ilp);
  Ilp.TotalSeconds = Total.seconds();
  Outcome(Settled);
  return Ilp;
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
  ExactRaceInfo Race;
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
      R = portfolioSchedule(G, Machine, SOpts, &Outcome, Opts.Engine, &Race);
    else
      R = exactSchedule(G, Machine, SOpts, Opts.Engine, &Race);
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
    if (Race.Ran) {
      Counters.SatConflicts += static_cast<std::uint64_t>(
          std::max<std::int64_t>(Race.SatConflicts, 0));
      if (Race.ProofUpgraded)
        ++Counters.CrossEngineProofUpgrades;
      if (Opts.Engine == ExactEngine::Race) {
        if (Race.Winner == ExactEngine::Sat)
          ++Counters.RaceSatWins;
        else
          ++Counters.RaceIlpWins;
      }
    }
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
