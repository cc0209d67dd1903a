//===- test_service.cpp - Scheduling service tests ------------------------===//
//
// Unit and integration tests of the swp/service subsystem: cancellation
// tokens, the thread pool, job fingerprints, the result cache, and the
// SchedulerService itself — including the determinism contract (a parallel
// batch run is bit-identical to the serial baseline) and the portfolio
// race's agreement with the plain rate-optimal driver.
//
//===----------------------------------------------------------------------===//

#include "swp/core/Driver.h"
#include "swp/core/KernelExpander.h"
#include "swp/core/Verifier.h"
#include "swp/ddg/Analysis.h"
#include "swp/heuristics/IterativeModulo.h"
#include "swp/heuristics/SlackModulo.h"
#include "swp/machine/Catalog.h"
#include "swp/service/Fingerprint.h"
#include "swp/service/ResultCache.h"
#include "swp/service/ResultCodec.h"
#include "swp/service/SchedulerService.h"
#include "swp/service/ServiceStats.h"
#include "swp/service/ThreadPool.h"
#include "swp/solver/Simplex.h"
#include "swp/support/Cancellation.h"
#include "swp/workload/Corpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

using namespace swp;

namespace {

/// Deterministic censoring: only the node limit may fire, so serial and
/// parallel runs censor identically regardless of machine load
/// (wall-clock censoring would be scheduling-dependent, and time-censored
/// results are deliberately not cached).  The time limit must stay
/// unreachable even under TSan's slowdown with all workers sharing one
/// core.  The node limit is kept small — every node is an LP solve — so
/// censored loops stay cheap.
SchedulerOptions deterministicOptions() {
  SchedulerOptions Opts;
  Opts.TimeLimitPerT = 1e9;
  Opts.NodeLimitPerT = 250;
  Opts.MaxTSlack = 4;
  return Opts;
}

std::vector<Ddg> corpusSlice(int NumLoops) {
  MachineModel M = ppc604Like();
  CorpusOptions Opts;
  Opts.NumLoops = NumLoops;
  return generateCorpus(M, Opts);
}

/// \p R's bytes with its wall-clock fields cleared: two services' solves of
/// one loop compare equal, warm or cold.
std::vector<std::uint8_t> timelessBytes(SchedulerResult R) {
  R.TotalSeconds = 0.0;
  for (TAttempt &A : R.Attempts)
    A.Seconds = 0.0;
  return schedulerResultBytes(R);
}

/// The counters of \p S that depend neither on timing nor on whether a job
/// passed through the pool (QueueHighWater does).
std::vector<std::uint64_t> jobCounters(const ServiceStats &S) {
  return {S.Submitted,
          S.Completed,
          S.CacheHits,
          S.CacheMisses,
          S.CacheSize,
          S.CacheEvictions,
          S.Cancellations,
          S.CensoredProofs,
          S.PortfolioHeuristicWins,
          S.PortfolioIlpWins,
          S.PortfolioFallbacks,
          S.SearchNodes,
          S.FaultedJobs,
          S.TypedErrors,
          S.WatchdogRetries,
          S.FallbackSlackWins,
          S.FallbackImsWins,
          S.DispatchFaults,
          S.LpPivots,
          S.LpRefactorizations,
          S.LpSolves,
          S.LpWarmSolves,
          S.Latency.Count};
}

std::vector<std::uint64_t> counterDelta(const ServiceStats &After,
                                        const ServiceStats &Before) {
  std::vector<std::uint64_t> D = jobCounters(After);
  const std::vector<std::uint64_t> B = jobCounters(Before);
  for (std::size_t I = 0; I < D.size(); ++I)
    D[I] -= B[I];
  return D;
}

} // namespace

//===----------------------------------------------------------------------===//
// Cancellation tokens
//===----------------------------------------------------------------------===//

TEST(Cancellation, DefaultTokenNeverCancels) {
  CancellationToken T;
  EXPECT_FALSE(T.connected());
  EXPECT_FALSE(T.cancelled());
}

TEST(Cancellation, ExplicitCancelPropagates) {
  CancellationSource Src;
  CancellationToken T = Src.token();
  EXPECT_TRUE(T.connected());
  EXPECT_FALSE(T.cancelled());
  Src.cancel();
  EXPECT_TRUE(T.cancelled());
}

TEST(Cancellation, DeadlineFires) {
  CancellationSource Src;
  Src.setDeadlineAfter(-1.0);
  EXPECT_TRUE(Src.token().cancelled());

  CancellationSource Slow;
  Slow.setDeadlineAfter(0.005);
  EXPECT_FALSE(Slow.token().cancelled());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(Slow.token().cancelled());
}

TEST(Cancellation, NestedSourceInheritsParent) {
  CancellationSource Parent;
  CancellationSource Child(Parent.token());
  EXPECT_FALSE(Child.token().cancelled());
  Parent.cancel();
  EXPECT_TRUE(Child.token().cancelled());
  // And the child can cancel independently without touching the parent.
  CancellationSource P2;
  CancellationSource C2(P2.token());
  C2.cancel();
  EXPECT_TRUE(C2.token().cancelled());
  EXPECT_FALSE(P2.token().cancelled());
}

//===----------------------------------------------------------------------===//
// Thread pool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryJob) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(4);
    EXPECT_EQ(Pool.threadCount(), 4);
    for (int I = 0; I < 100; ++I)
      Pool.enqueue([&Count] { Count.fetch_add(1); });
  } // Destructor drains the queue.
  EXPECT_EQ(Count.load(), 100);
}

TEST(ThreadPool, SubmitReturnsResults) {
  ThreadPool Pool(2);
  std::vector<std::future<int>> Futures;
  for (int I = 0; I < 16; ++I)
    Futures.push_back(Pool.submit([I] { return I * I; }));
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(Futures[static_cast<size_t>(I)].get(), I * I);
}

TEST(ThreadPool, TracksQueueHighWater) {
  ThreadPool Pool(1);
  // Block the single worker so enqueued jobs pile up measurably.
  std::promise<void> Gate;
  std::shared_future<void> Open = Gate.get_future().share();
  Pool.enqueue([Open] { Open.wait(); });
  for (int I = 0; I < 8; ++I)
    Pool.enqueue([] {});
  EXPECT_GE(Pool.queueHighWater(), 8);
  Gate.set_value();
}

//===----------------------------------------------------------------------===//
// Fingerprints
//===----------------------------------------------------------------------===//

TEST(Fingerprint, IgnoresNames) {
  MachineModel M = ppc604Like();
  Ddg A("alpha");
  int A0 = A.addNode("load", 3, 2);
  int A1 = A.addNode("add", 0, 1);
  A.addEdge(A0, A1, 0);
  Ddg B("beta");
  int B0 = B.addNode("x", 3, 2);
  int B1 = B.addNode("y", 0, 1);
  B.addEdge(B0, B1, 0);
  EXPECT_EQ(fingerprintDdg(A), fingerprintDdg(B));
  EXPECT_EQ(fingerprintJob(A, M, {}, false, 0.0),
            fingerprintJob(B, M, {}, false, 0.0));
}

TEST(Fingerprint, SensitiveToStructure) {
  Ddg Base;
  int N0 = Base.addNode("a", 3, 2);
  int N1 = Base.addNode("b", 0, 1);
  Base.addEdge(N0, N1, 0);
  Fingerprint FBase = fingerprintDdg(Base);

  Ddg Latency = Base;
  Latency.addEdgeWithLatency(N1, N0, 1, 4);
  EXPECT_NE(fingerprintDdg(Latency), FBase);

  Ddg OtherClass;
  OtherClass.addNode("a", 2, 2);
  OtherClass.addNode("b", 0, 1);
  OtherClass.addEdge(0, 1, 0);
  EXPECT_NE(fingerprintDdg(OtherClass), FBase);

  Ddg OtherDistance;
  OtherDistance.addNode("a", 3, 2);
  OtherDistance.addNode("b", 0, 1);
  OtherDistance.addEdge(0, 1, 1);
  EXPECT_NE(fingerprintDdg(OtherDistance), FBase);
}

TEST(Fingerprint, SensitiveToMachineAndOptions) {
  EXPECT_NE(fingerprintMachine(ppc604Like()),
            fingerprintMachine(cleanVliw()));

  SchedulerOptions A;
  SchedulerOptions B;
  B.Mapping = MappingKind::RunTime;
  EXPECT_NE(fingerprintOptions(A), fingerprintOptions(B));
  SchedulerOptions C;
  C.NodeLimitPerT = 123;
  EXPECT_NE(fingerprintOptions(A), fingerprintOptions(C));

  Ddg G;
  G.addNode("a", 0, 1);
  MachineModel M = ppc604Like();
  EXPECT_NE(fingerprintJob(G, M, A, false, 0.0),
            fingerprintJob(G, M, A, true, 0.0));
}

//===----------------------------------------------------------------------===//
// Result cache
//===----------------------------------------------------------------------===//

TEST(ResultCache, StoresAndRetrieves) {
  ResultCache Cache;
  Fingerprint Key{1, 2};
  SchedulerResult Miss;
  EXPECT_FALSE(Cache.lookup(Key, Miss));
  SchedulerResult Value;
  Value.TLowerBound = 7;
  Cache.insert(Key, Value);
  SchedulerResult Out;
  ASSERT_TRUE(Cache.lookup(Key, Out));
  EXPECT_EQ(Out.TLowerBound, 7);
  EXPECT_EQ(Cache.size(), 1u);
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
}

TEST(ResultCache, FirstInsertWins) {
  ResultCache Cache;
  Fingerprint Key{3, 4};
  SchedulerResult First;
  First.TLowerBound = 1;
  SchedulerResult Second;
  Second.TLowerBound = 2;
  Cache.insert(Key, First);
  Cache.insert(Key, Second);
  SchedulerResult Out;
  ASSERT_TRUE(Cache.lookup(Key, Out));
  EXPECT_EQ(Out.TLowerBound, 1);
}

//===----------------------------------------------------------------------===//
// Driver cancellation
//===----------------------------------------------------------------------===//

TEST(DriverCancellation, PreCancelledTokenShortCircuits) {
  MachineModel M = ppc604Like();
  Ddg G = generateRandomLoop(M, 99, {});
  CancellationSource Src;
  Src.cancel();
  SchedulerOptions Opts;
  Opts.Cancel = Src.token();
  SchedulerResult R = scheduleLoop(G, M, Opts);
  EXPECT_FALSE(R.found());
  EXPECT_TRUE(R.Cancelled);
  EXPECT_TRUE(R.Attempts.empty());
}

TEST(DriverCancellation, ScheduleAtTReportsCancelledStop) {
  // Bypass scheduleLoop's per-T token check and hit the one inside the
  // branch-and-bound node loop: the ILP step must surface Cancelled.
  MachineModel M = ppc604Like();
  Ddg G = generateRandomLoop(M, 99, {});
  int T = std::max({1, recurrenceMii(G), M.resourceMii(G)});
  while (!M.moduloFeasible(G, T))
    ++T;
  CancellationSource Src;
  Src.cancel();
  SchedulerOptions Opts;
  Opts.Cancel = Src.token();
  Opts.LpRoundingProbe = false; // Force the search into branch and bound.
  TAttempt A = ilpStepAtT(G, M, T, Opts).Attempt;
  EXPECT_EQ(A.Status, MilpStatus::Unknown);
  EXPECT_EQ(A.StopReason, SearchStop::Cancelled);
  EXPECT_EQ(A.Nodes, 0);
}

TEST(DriverCancellation, SimplexPivotLoopHonorsToken) {
  // The deepest boundary: the token is polled inside the simplex pivot
  // loop itself, so even a single long LP solve unwinds.
  MachineModel M = ppc604Like();
  Ddg G = generateRandomLoop(M, 99, {});
  int T = std::max({1, recurrenceMii(G), M.resourceMii(G)});
  while (!M.moduloFeasible(G, T))
    ++T;
  FormulationVars Vars;
  MilpModel Model = buildScheduleModel(G, M, T, {}, Vars);
  ASSERT_TRUE(Model.valid());
  CancellationSource Src;
  Src.cancel();
  LpResult Lp = solveLp(Model, Src.token());
  EXPECT_EQ(Lp.Status, LpStatus::Cancelled);
}

TEST(DriverCancellation, KernelExpansionHonorsToken) {
  MachineModel M = ppc604Like();
  Ddg G = generateRandomLoop(M, 99, {});
  SchedulerResult R = scheduleLoop(G, M, deterministicOptions());
  ASSERT_TRUE(R.found());
  CancellationSource Src;
  Src.cancel();
  ExpandedSchedule E = expandSchedule(G, R.Schedule, 16, Src.token());
  EXPECT_TRUE(E.Truncated);
  ExpandedSchedule Full = expandSchedule(G, R.Schedule, 16);
  EXPECT_FALSE(Full.Truncated);
}

TEST(DriverCancellation, PortfolioPreCancelledReportsNothingFound) {
  MachineModel M = ppc604Like();
  Ddg G = generateRandomLoop(M, 99, {});
  CancellationSource Src;
  Src.cancel();
  SchedulerOptions Opts = deterministicOptions();
  Opts.Cancel = Src.token();
  PortfolioOutcome Outcome = PortfolioOutcome::IlpWon;
  SchedulerResult R = portfolioSchedule(G, M, Opts, &Outcome);
  EXPECT_FALSE(R.found());
  EXPECT_TRUE(R.Cancelled);
  EXPECT_EQ(Outcome, PortfolioOutcome::NothingFound);
  EXPECT_FALSE(R.stopChain().empty());
}

//===----------------------------------------------------------------------===//
// Scheduler service
//===----------------------------------------------------------------------===//

TEST(SchedulerService, SchedulerNamesShareOneVocabulary) {
  // swpc and the wire parse scheduler names with this one routine.
  const struct {
    const char *Name;
    ExactEngine Engine;
    bool Portfolio;
  } Known[] = {
      {"ilp", ExactEngine::Ilp, false},
      {"sat", ExactEngine::Sat, false},
      {"race", ExactEngine::Race, false},
      {"portfolio", ExactEngine::Ilp, true},
      {"portfolio-ilp", ExactEngine::Ilp, true},
      {"portfolio-sat", ExactEngine::Sat, true},
      {"portfolio-race", ExactEngine::Race, true},
  };
  for (const auto &K : Known) {
    ExactEngine Engine = K.Engine == ExactEngine::Ilp ? ExactEngine::Sat
                                                      : ExactEngine::Ilp;
    bool Portfolio = !K.Portfolio;
    ASSERT_TRUE(parseSchedulerName(K.Name, Engine, Portfolio)) << K.Name;
    EXPECT_EQ(Engine, K.Engine) << K.Name;
    EXPECT_EQ(Portfolio, K.Portfolio) << K.Name;
  }
  for (const char *Unknown :
       {"", "ims", "slack", "enum", "ILP", "portfolio-", "portfolio-ims"}) {
    ExactEngine Engine;
    bool Portfolio;
    EXPECT_FALSE(parseSchedulerName(Unknown, Engine, Portfolio)) << Unknown;
  }
}

TEST(SchedulerService, SubmitAfterCancelAllResolvesCancelled) {
  // Queue-boundary cancellation: jobs submitted into an already-cancelled
  // service must resolve promptly as Cancelled, not solve and not hang.
  MachineModel M = ppc604Like();
  Ddg G = generateRandomLoop(M, 7, {});
  ServiceOptions SvcOpts;
  SvcOpts.Jobs = 1;
  SvcOpts.UseCache = false;
  SchedulerService Svc(M, SvcOpts);
  Svc.cancelAll();
  SchedulerResult R = Svc.submit(G).get();
  EXPECT_FALSE(R.found());
  EXPECT_TRUE(R.Cancelled);
  EXPECT_EQ(R.Fallback, FallbackRung::None)
      << "a user cancel must not trigger the fallback ladder";
}

TEST(SchedulerService, ParallelBatchMatchesSerialBitForBit) {
  // The tentpole determinism contract: a --jobs 8 batch over a 128-loop
  // corpus slice produces exactly the serial driver's (T, proven,
  // verify-failed) tuple per loop.
  MachineModel M = ppc604Like();
  std::vector<Ddg> Corpus = corpusSlice(128);
  SchedulerOptions SOpts = deterministicOptions();

  std::vector<SchedulerResult> Serial;
  Serial.reserve(Corpus.size());
  for (const Ddg &G : Corpus)
    Serial.push_back(scheduleLoop(G, M, SOpts));

  ServiceOptions SvcOpts;
  SvcOpts.Jobs = 8;
  SvcOpts.Sched = SOpts;
  SchedulerService Svc(M, SvcOpts);
  std::vector<SchedulerResult> Parallel = Svc.scheduleAll(Corpus);

  ASSERT_EQ(Parallel.size(), Serial.size());
  for (size_t I = 0; I < Serial.size(); ++I) {
    // The fallback ladder deliberately improves on the serial driver, but
    // only for loops the primary path left unfound; the rest must match.
    if (Parallel[I].Fallback != FallbackRung::None) {
      EXPECT_FALSE(Serial[I].found()) << Corpus[I].name();
      continue;
    }
    EXPECT_EQ(Parallel[I].Schedule.T, Serial[I].Schedule.T)
        << Corpus[I].name();
    EXPECT_EQ(Parallel[I].ProvenRateOptimal, Serial[I].ProvenRateOptimal)
        << Corpus[I].name();
    EXPECT_EQ(Parallel[I].VerifyFailed, Serial[I].VerifyFailed)
        << Corpus[I].name();
    EXPECT_EQ(Parallel[I].TLowerBound, Serial[I].TLowerBound)
        << Corpus[I].name();
  }

  // Re-scheduling the same corpus must be answered from the cache with
  // results equal to the cold solves.
  std::vector<SchedulerResult> Cached = Svc.scheduleAll(Corpus);
  ServiceStats Stats = Svc.stats();
  EXPECT_EQ(Stats.Submitted, 2 * Corpus.size());
  EXPECT_EQ(Stats.Completed, 2 * Corpus.size());
  EXPECT_GE(Stats.CacheHits, Corpus.size()); // Second pass is all hits.
  EXPECT_EQ(Stats.CacheHits + Stats.CacheMisses, Stats.Completed);
  for (size_t I = 0; I < Parallel.size(); ++I) {
    EXPECT_EQ(Cached[I].Schedule.T, Parallel[I].Schedule.T);
    EXPECT_EQ(Cached[I].ProvenRateOptimal, Parallel[I].ProvenRateOptimal);
    EXPECT_EQ(Cached[I].VerifyFailed, Parallel[I].VerifyFailed);
  }
}

TEST(SchedulerService, SubmitResolvesSingleLoop) {
  MachineModel M = ppc604Like();
  Ddg G = generateRandomLoop(M, 7, {});
  ServiceOptions SvcOpts;
  SvcOpts.Jobs = 2;
  SchedulerService Svc(M, SvcOpts);
  SchedulerResult R = Svc.submit(G).get();
  SchedulerResult Ref = scheduleLoop(G, M, SvcOpts.Sched);
  EXPECT_EQ(R.Schedule.T, Ref.Schedule.T);
  EXPECT_EQ(R.ProvenRateOptimal, Ref.ProvenRateOptimal);
  if (R.found()) {
    EXPECT_TRUE(verifySchedule(G, M, R.Schedule).Ok);
  }
}

TEST(SchedulerService, PortfolioAgreesWithSerialIlp) {
  MachineModel M = ppc604Like();
  std::vector<Ddg> Corpus = corpusSlice(48);
  SchedulerOptions SOpts = deterministicOptions();

  ServiceOptions SvcOpts;
  SvcOpts.Jobs = 4;
  SvcOpts.Sched = SOpts;
  SvcOpts.Portfolio = true;
  SchedulerService Svc(M, SvcOpts);
  std::vector<SchedulerResult> Portfolio = Svc.scheduleAll(Corpus);

  for (size_t I = 0; I < Corpus.size(); ++I) {
    const Ddg &G = Corpus[I];
    const SchedulerResult &P = Portfolio[I];
    if (!P.found())
      continue;
    EXPECT_TRUE(verifySchedule(G, M, P.Schedule).Ok) << G.name();
    EXPECT_GE(P.Schedule.T, P.TLowerBound) << G.name();
    // The portfolio can never be worse than its heuristic legs.
    SchedulerResult Ims = iterativeModuloSchedule(G, M);
    if (Ims.found()) {
      EXPECT_LE(P.Schedule.T, Ims.Schedule.T) << G.name();
    }
    SchedulerResult Slack = slackModuloSchedule(G, M);
    if (Slack.found()) {
      EXPECT_LE(P.Schedule.T, Slack.Schedule.T) << G.name();
    }
    // And a proven-rate-optimal portfolio answer equals the serial ILP's
    // proven answer.
    SchedulerResult Ref = scheduleLoop(G, M, SOpts);
    if (P.ProvenRateOptimal && Ref.ProvenRateOptimal) {
      EXPECT_EQ(P.Schedule.T, Ref.Schedule.T) << G.name();
    }
  }

  ServiceStats Stats = Svc.stats();
  EXPECT_EQ(Stats.PortfolioHeuristicWins + Stats.PortfolioIlpWins +
                Stats.PortfolioFallbacks,
            Stats.CacheMisses)
      << "every cold portfolio job settles one way";
}

TEST(SchedulerService, PortfolioFallbackKeepsExactLegLpEffort) {
  // loop-0324 (3 nodes, T_lb 4): the exact leg refutes T = 4 and 5, so the
  // heuristic incumbent at T = 6 stands, proven.  The LP work behind those
  // refutations must reach the result and the service's counters.
  MachineModel M = ppc604Like();
  CorpusOptions COpts;
  COpts.NumLoops = 400;
  COpts.MaxNodes = 16;
  const Ddg G = generateCorpus(M, COpts)[324];
  ASSERT_EQ(G.name(), "loop-0324");
  SchedulerOptions SOpts;
  SOpts.TimeLimitPerT = 1e9; // Only deterministic limits.
  SOpts.NodeLimitPerT = 2000;

  PortfolioOutcome Outcome = PortfolioOutcome::NothingFound;
  SchedulerResult P = portfolioSchedule(G, M, SOpts, &Outcome);
  ASSERT_EQ(Outcome, PortfolioOutcome::FellBackToHeuristic);
  ASSERT_EQ(P.TLowerBound, 4);
  ASSERT_EQ(P.Schedule.T, 6);
  EXPECT_TRUE(P.ProvenRateOptimal);

  SchedulerOptions Narrow = SOpts;
  Narrow.MaxTSlack = P.Schedule.T - 1 - P.TLowerBound;
  SchedulerResult Exact = scheduleLoop(G, M, Narrow);
  EXPECT_FALSE(Exact.found());
  EXPECT_GT(Exact.TotalLp.Pivots, 0);
  EXPECT_EQ(P.TotalLp.Pivots, Exact.TotalLp.Pivots);
  EXPECT_EQ(P.TotalLp.Refactorizations, Exact.TotalLp.Refactorizations);
  EXPECT_EQ(P.TotalLp.Solves, Exact.TotalLp.Solves);
  EXPECT_EQ(P.TotalLp.WarmSolves, Exact.TotalLp.WarmSolves);

  ServiceOptions SvcOpts;
  SvcOpts.Jobs = 1;
  SvcOpts.Sched = SOpts;
  SvcOpts.Portfolio = true;
  SchedulerService Svc(M, SvcOpts);
  EXPECT_EQ(Svc.submit(G).get().Schedule.T, 6);
  EXPECT_EQ(Svc.stats().LpPivots,
            static_cast<std::uint64_t>(Exact.TotalLp.Pivots));
}

TEST(SchedulerService, CancelAllResolvesEverything) {
  MachineModel M = ppc604Like();
  std::vector<Ddg> Corpus = corpusSlice(32);
  ServiceOptions SvcOpts;
  SvcOpts.Jobs = 2;
  SvcOpts.UseCache = false;
  SchedulerService Svc(M, SvcOpts);
  std::vector<std::future<SchedulerResult>> Futures;
  for (const Ddg &G : Corpus)
    Futures.push_back(Svc.submit(G));
  Svc.cancelAll();
  for (auto &F : Futures)
    F.get(); // Every future must resolve — no deadlock, no abandonment.
  ServiceStats Stats = Svc.stats();
  EXPECT_EQ(Stats.Completed, Corpus.size());
  EXPECT_EQ(Stats.Submitted, Corpus.size());
}

TEST(SchedulerService, DeadlineCancelsHardLoop) {
  MachineModel M = ppc604Like();
  // A large saturated loop: the rate-optimal search needs many B&B nodes,
  // so a microscopic deadline fires mid-solve.
  CorpusOptions CO;
  CO.MaxNodes = 20;
  CO.MeanExtraNodes = 1000.0;
  Ddg G = generateRandomLoop(M, 4242, CO);
  ServiceOptions SvcOpts;
  SvcOpts.Jobs = 1;
  SvcOpts.DeadlinePerLoop = 1e-6;
  SvcOpts.Sched.LpRoundingProbe = false;
  SchedulerService Svc(M, SvcOpts);
  SchedulerResult R = Svc.submit(G).get();
  EXPECT_TRUE(R.Cancelled);
  EXPECT_EQ(Svc.stats().Cancellations, 1u);
}

TEST(SchedulerService, QueueWaitCountsTheTimeAJobWaitsForAWorker) {
  // One worker: the second job queues behind the first, so the queue-wait
  // total covers at least the first job's solve, less the moment between
  // the two submits.  A hit schedule() answers on the caller's thread
  // waits for no worker and adds nothing.
  MachineModel M = ppc604Like();
  CorpusOptions CO;
  CO.MaxNodes = 20;
  CO.MeanExtraNodes = 1000.0;
  Ddg Hard = generateRandomLoop(M, 4242, CO);
  std::vector<Ddg> Small = corpusSlice(1);
  ServiceOptions SvcOpts;
  SvcOpts.Jobs = 1;
  SvcOpts.Sched = deterministicOptions();
  SchedulerService Svc(M, SvcOpts);
  std::future<SchedulerResult> First = Svc.submit(Hard);
  std::future<SchedulerResult> Second = Svc.submit(Small[0]);
  const SchedulerResult A = First.get();
  Second.get();
  const double Waited = Svc.stats().QueueWaitSeconds;
  EXPECT_GT(Waited, 0.0);
  EXPECT_GE(Waited, 0.5 * A.TotalSeconds);
  EXPECT_TRUE(Svc.schedule(Small[0]).CacheHit);
  EXPECT_EQ(Svc.stats().QueueWaitSeconds, Waited);
}

TEST(SchedulerService, ScheduleMatchesSubmitColdAndWarm) {
  // schedule() answers a hit on the caller's thread and sends a miss to the
  // pool; both must give what submit() gives, byte for byte and counter for
  // counter, on a cold pass and on a warm one.
  MachineModel M = ppc604Like();
  // Distinct loops only, so that the cold pass misses on every one.
  std::vector<Ddg> Corpus;
  std::vector<Fingerprint> Seen;
  for (Ddg &G : corpusSlice(24)) {
    const Fingerprint F = fingerprintDdg(G);
    if (std::find(Seen.begin(), Seen.end(), F) != Seen.end())
      continue;
    Seen.push_back(F);
    Corpus.push_back(std::move(G));
  }
  ServiceOptions SvcOpts;
  SvcOpts.Jobs = 2;
  SvcOpts.Sched = deterministicOptions();
  SchedulerService BySchedule(M, SvcOpts);
  SchedulerService BySubmit(M, SvcOpts);
  for (const bool Warm : {false, true}) {
    const ServiceStats ScheduleBefore = BySchedule.stats();
    const ServiceStats SubmitBefore = BySubmit.stats();
    for (const Ddg &G : Corpus) {
      SchedulerResult A = BySchedule.schedule(G);
      SchedulerResult B = BySubmit.submit(G).get();
      EXPECT_EQ(A.CacheHit, Warm) << G.name();
      EXPECT_EQ(timelessBytes(A), timelessBytes(B)) << G.name();
    }
    EXPECT_EQ(counterDelta(BySchedule.stats(), ScheduleBefore),
              counterDelta(BySubmit.stats(), SubmitBefore))
        << (Warm ? "warm pass" : "cold pass");
  }
  EXPECT_EQ(BySchedule.stats().CacheHits, Corpus.size());

  // A degraded job folds its overrides into its key: it misses the warm
  // full-effort entry, answers as a service configured with that effort
  // does, and then hits its own entry.
  JobOptions Narrow;
  Narrow.MaxTSlack = 0;
  ServiceOptions NarrowOpts = SvcOpts;
  NarrowOpts.Sched.MaxTSlack = Narrow.MaxTSlack;
  SchedulerService Reference(M, NarrowOpts);
  for (const Ddg &G : Corpus) {
    SchedulerResult D = BySchedule.schedule(G, Narrow);
    EXPECT_FALSE(D.CacheHit)
        << G.name() << ": a degraded job aliased the full-effort entry";
    EXPECT_EQ(timelessBytes(D), timelessBytes(Reference.submit(G).get()))
        << G.name();
    EXPECT_TRUE(BySchedule.schedule(G, Narrow).CacheHit) << G.name();
  }
}

TEST(ServiceStats, RendersCountersAndHistogram) {
  ServiceStats Stats;
  Stats.Jobs = 4;
  Stats.Submitted = 10;
  Stats.Completed = 10;
  Stats.CacheHits = 3;
  Stats.CacheMisses = 7;
  Stats.Latency.add(0.0001);
  Stats.Latency.add(0.5);
  std::string Table = Stats.render();
  EXPECT_NE(Table.find("cache hits"), std::string::npos);
  EXPECT_NE(Table.find("queue high-water"), std::string::npos);
  EXPECT_NE(Table.find("queue wait total"), std::string::npos);
  EXPECT_NE(Table.find("Latency"), std::string::npos);
  EXPECT_EQ(Stats.Latency.Count, 2u);
  EXPECT_NEAR(Stats.Latency.MaxSeconds, 0.5, 1e-9);
}
