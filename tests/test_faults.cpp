//===- test_faults.cpp - Failure-domain tests -----------------------------===//
//
// The fault injector itself (spec parsing, deterministic firing, counters),
// typed Status propagation out of the solver stack, the shared T-sweep's
// proof accounting under a scripted per-T step, and the service-level
// guarantees under injected faults: the watchdog retries transient
// failures, the fallback ladder degrades to a verified heuristic schedule,
// faulted results are never cached and never claim censored-proof
// optimality, and every job gets an explicit answer — found-and-verified
// or unfound-with-evidence — no matter which sites fire.
//
// Every test disarms the injector on both ends: the singleton is process
// wide and these tests share one binary.
//
//===----------------------------------------------------------------------===//

#include "swp/core/Driver.h"
#include "swp/core/Verifier.h"
#include "swp/ddg/Analysis.h"
#include "swp/machine/Catalog.h"
#include "swp/service/SchedulerService.h"
#include "swp/service/ThreadPool.h"
#include "swp/support/FaultInjector.h"
#include "swp/support/Status.h"
#include "swp/workload/Corpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

using namespace swp;

namespace {

/// RAII disarm so a failing test cannot leak an armed injector into its
/// neighbors.
struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::instance().reset(); }
};

SchedulerOptions fastOptions() {
  SchedulerOptions Opts;
  Opts.TimeLimitPerT = 1e9; // Only deterministic limits.
  Opts.NodeLimitPerT = 250; // Every node is an LP solve: keep it cheap.
  Opts.MaxTSlack = 4;
  return Opts;
}

} // namespace

//===----------------------------------------------------------------------===//
// Status
//===----------------------------------------------------------------------===//

TEST(Status, DefaultIsOkAndRendersContext) {
  Status Ok;
  EXPECT_TRUE(Ok.isOk());
  EXPECT_EQ(Ok.str(), "ok");

  Status E = Status(StatusCode::SolverStall, "pivot limit")
                 .withPhase("milp")
                 .withT(7)
                 .withInstance("daxpy");
  EXPECT_FALSE(E.isOk());
  EXPECT_EQ(E.code(), StatusCode::SolverStall);
  std::string S = E.str();
  EXPECT_NE(S.find("solver-stall"), std::string::npos);
  EXPECT_NE(S.find("pivot limit"), std::string::npos);
  EXPECT_NE(S.find("phase=milp"), std::string::npos);
  EXPECT_NE(S.find("T=7"), std::string::npos);
  EXPECT_NE(S.find("instance=daxpy"), std::string::npos);
}

TEST(Status, ExpectedHoldsValueOrError) {
  Expected<int> V(42);
  ASSERT_TRUE(V.ok());
  EXPECT_EQ(*V, 42);
  Expected<int> E(Status(StatusCode::Internal, "boom"));
  ASSERT_FALSE(E.ok());
  EXPECT_EQ(E.status().code(), StatusCode::Internal);
}

//===----------------------------------------------------------------------===//
// FaultInjector
//===----------------------------------------------------------------------===//

TEST(FaultInjector, SpecParsingAndDisarm) {
  InjectorGuard Guard;
  FaultInjector &FI = FaultInjector::instance();
  std::string Err;
  EXPECT_TRUE(FI.configure("lp-stall:2,bnb-node:p0.5", 1, &Err)) << Err;
  EXPECT_TRUE(FI.armed());
  EXPECT_TRUE(FI.configure("", 0, &Err)) << "empty spec disarms";
  EXPECT_FALSE(FI.armed());
  EXPECT_FALSE(FI.configure("no-such-site:1", 0, &Err));
  EXPECT_FALSE(FI.armed()) << "bad spec leaves the injector disarmed";
  EXPECT_FALSE(FI.configure("lp-stall", 0, &Err)) << "missing count";
  EXPECT_FALSE(FI.configure("lp-stall:pzz", 0, &Err)) << "bad probability";
}

TEST(FaultInjector, CountedBudgetFiresExactly) {
  InjectorGuard Guard;
  FaultInjector &FI = FaultInjector::instance();
  ASSERT_TRUE(FI.configure("cache-insert:2", 0, nullptr));
  EXPECT_TRUE(FI.shouldFire(FaultSite::CacheInsert));
  EXPECT_TRUE(FI.shouldFire(FaultSite::CacheInsert));
  EXPECT_FALSE(FI.shouldFire(FaultSite::CacheInsert));
  EXPECT_FALSE(FI.shouldFire(FaultSite::LpStall)) << "other sites disarmed";
  EXPECT_EQ(FI.fired(FaultSite::CacheInsert), 2u);
  EXPECT_EQ(FI.totalFired(), 2u);
  FI.reset();
  EXPECT_FALSE(FI.armed());
  EXPECT_EQ(FI.totalFired(), 0u);
  EXPECT_FALSE(FI.shouldFire(FaultSite::CacheInsert));
}

TEST(FaultInjector, ProbabilisticFiringIsSeedDeterministic) {
  InjectorGuard Guard;
  FaultInjector &FI = FaultInjector::instance();
  auto Sample = [&FI](std::uint64_t Seed) {
    EXPECT_TRUE(FI.configure("bnb-node:p0.5", Seed, nullptr));
    std::vector<bool> Fires;
    for (int I = 0; I < 200; ++I)
      Fires.push_back(FI.shouldFire(FaultSite::BnbNode));
    return Fires;
  };
  std::vector<bool> A = Sample(42);
  std::vector<bool> B = Sample(42);
  EXPECT_EQ(A, B) << "same seed, same per-poll decisions";
  std::vector<bool> C = Sample(43);
  EXPECT_NE(A, C) << "different seed, different stream";
  int Fired = static_cast<int>(std::count(A.begin(), A.end(), true));
  EXPECT_GT(Fired, 50) << "p=0.5 over 200 polls";
  EXPECT_LT(Fired, 150);
}

//===----------------------------------------------------------------------===//
// Solver and driver under injected faults
//===----------------------------------------------------------------------===//

TEST(DriverFaults, LpStallCensorsEveryAttempt) {
  InjectorGuard Guard;
  MachineModel M = ppc604Like();
  Ddg G = generateRandomLoop(M, 11, {});
  ASSERT_TRUE(FaultInjector::instance().configure("lp-stall:p1.0", 5,
                                                  nullptr));
  SchedulerResult R = scheduleLoop(G, M, fastOptions());
  FaultInjector::instance().reset();
  EXPECT_FALSE(R.found()) << "every LP stalls, nothing can be extracted";
  EXPECT_FALSE(R.ProvenRateOptimal);
  EXPECT_TRUE(R.FaultsSeen);
  ASSERT_FALSE(R.Attempts.empty());
  for (const TAttempt &A : R.Attempts)
    if (!A.ModuloSkipped) {
      EXPECT_EQ(A.Status, MilpStatus::Unknown);
      EXPECT_EQ(A.StopReason, SearchStop::LpStall);
    }
  EXPECT_NE(R.stopChain().find("lp-stall"), std::string::npos);
}

TEST(DriverFaults, RefactorFaultNeverProvesOptimality) {
  // A failing basis factorization (singular/overflowing LU in a real
  // code) must degrade every solve to a censoring status: no schedule is
  // extracted from a faulted basis and no rate-optimality claim survives.
  InjectorGuard Guard;
  MachineModel M = ppc604Like();
  // Seed 22 is a 20-node loop whose solve chain genuinely refactorizes
  // (the eta file crosses the rebuild interval) and is proven clean — so
  // the fault below actually fires and the downgrade it forces is real.
  Ddg G = generateRandomLoop(M, 22, {});
  SchedulerResult Clean = scheduleLoop(G, M, fastOptions());
  ASSERT_TRUE(Clean.ProvenRateOptimal);
  ASSERT_GT(Clean.TotalLp.Refactorizations, 0);

  ASSERT_TRUE(FaultInjector::instance().configure("lp-refactor:p1.0", 5,
                                                  nullptr));
  SchedulerResult R = scheduleLoop(G, M, fastOptions());
  FaultInjector::instance().reset();
  EXPECT_TRUE(R.FaultsSeen);
  EXPECT_FALSE(R.ProvenRateOptimal)
      << "a rate-optimality proof survived a poisoned basis";
  EXPECT_FALSE(R.VerifyFailed);
  // Once the eta file crosses the rebuild interval the workspace is
  // poisoned for good under p1.0: the attempt where that happened must be
  // censored, not silently completed.
  bool AnyCensored = false;
  for (const TAttempt &A : R.Attempts)
    AnyCensored = AnyCensored || A.StopReason != SearchStop::None;
  EXPECT_TRUE(AnyCensored) << R.stopChain();
}

TEST(DriverFaults, SpuriousInfeasibilityNeverProvesOptimality) {
  // The fault-soundness core: an injected "infeasible" must never enter a
  // rate-optimality proof, with or without the LP-rounding probe.
  InjectorGuard Guard;
  MachineModel M = ppc604Like();
  Ddg G = generateRandomLoop(M, 11, {});
  for (bool Probe : {true, false}) {
    ASSERT_TRUE(FaultInjector::instance().configure("lp-infeasible:p1.0", 5,
                                                    nullptr));
    SchedulerOptions Opts = fastOptions();
    Opts.LpRoundingProbe = Probe;
    SchedulerResult R = scheduleLoop(G, M, Opts);
    FaultInjector::instance().reset();
    EXPECT_FALSE(R.ProvenRateOptimal) << "probe=" << Probe;
    EXPECT_TRUE(R.FaultsSeen) << "probe=" << Probe;
    for (const TAttempt &A : R.Attempts)
      if (!A.ModuloSkipped) {
        EXPECT_NE(A.Status, MilpStatus::Infeasible)
            << "probe=" << Probe
            << ": a faulted infeasibility survived as proof at T=" << A.T;
        EXPECT_EQ(A.StopReason, SearchStop::Fault) << "probe=" << Probe;
      }
  }
}

TEST(DriverFaults, BnbNodeFaultSurfacesTypedError) {
  InjectorGuard Guard;
  MachineModel M = ppc604Like();
  Ddg G = generateRandomLoop(M, 11, {});
  int T = std::max({1, recurrenceMii(G), M.resourceMii(G)});
  while (!M.moduloFeasible(G, T))
    ++T;
  ASSERT_TRUE(FaultInjector::instance().configure("bnb-node:1", 0, nullptr));
  SchedulerOptions Opts = fastOptions();
  Opts.LpRoundingProbe = false;
  TStepResult R = ilpStepAtT(G, M, T, Opts);
  FaultInjector::instance().reset();
  EXPECT_EQ(R.Attempt.Status, MilpStatus::Error);
  EXPECT_EQ(R.Attempt.StopReason, SearchStop::Fault);
  EXPECT_EQ(R.Error.code(), StatusCode::FaultInjected);
  EXPECT_EQ(R.Error.phase(), "milp");
  EXPECT_EQ(R.Error.t(), T);
}

TEST(DriverFaults, AllocFaultReportsResourceExhausted) {
  InjectorGuard Guard;
  MachineModel M = ppc604Like();
  Ddg G = generateRandomLoop(M, 11, {});
  ASSERT_TRUE(FaultInjector::instance().configure("alloc:1", 0, nullptr));
  TStepResult R = ilpStepAtT(G, M, 64, fastOptions());
  FaultInjector::instance().reset();
  EXPECT_EQ(R.Attempt.Status, MilpStatus::Error);
  EXPECT_EQ(R.Attempt.StopReason, SearchStop::Fault);
  EXPECT_EQ(R.Error.code(), StatusCode::ResourceExhausted);
  EXPECT_EQ(R.Error.phase(), "model-build");
}

TEST(DriverFaults, InvalidInputIsTypedWithoutInjection) {
  MachineModel M = ppc604Like();
  Ddg Cyclic;
  Cyclic.addNode("a", 0, 1);
  Cyclic.addNode("b", 0, 1);
  Cyclic.addEdge(0, 1, 0);
  Cyclic.addEdge(1, 0, 0); // Zero-distance cycle: malformed.
  SchedulerResult R = scheduleLoop(Cyclic, M, fastOptions());
  EXPECT_FALSE(R.found());
  EXPECT_EQ(R.Error.code(), StatusCode::InvalidInput);
  EXPECT_FALSE(R.FaultsSeen) << "a bad input is not a fault";
  EXPECT_TRUE(R.Attempts.empty());

  Ddg G = generateRandomLoop(M, 11, {});
  TStepResult Step = ilpStepAtT(G, M, 0, fastOptions());
  EXPECT_EQ(Step.Attempt.Status, MilpStatus::Error) << "T below 1 is invalid";
  EXPECT_EQ(Step.Error.code(), StatusCode::InvalidInput);
}

//===----------------------------------------------------------------------===//
// The shared T-sweep's proof accounting, driven by a scripted step
//===----------------------------------------------------------------------===//

TEST(SweepAccounting, ScriptedStepsFollowTheProofRules) {
  MachineModel M = ppc604Like();
  Ddg G = generateRandomLoop(M, 11, {});
  const int TLb = std::max({1, recurrenceMii(G), M.resourceMii(G)});
  ASSERT_TRUE(M.moduloFeasible(G, TLb));
  ASSERT_TRUE(M.moduloFeasible(G, TLb + 1));
  // A schedule at T_lb + 1 that really verifies, and a copy the verifier
  // rejects.
  TStepResult GoodStep = ilpStepAtT(G, M, TLb + 1, fastOptions());
  ASSERT_TRUE(GoodStep.Attempt.Status == MilpStatus::Optimal ||
              GoodStep.Attempt.Status == MilpStatus::Feasible);
  ModuloSchedule Good = GoodStep.Schedule;
  ASSERT_TRUE(verifySchedule(G, M, Good).Ok);
  ModuloSchedule Rejected = Good;
  Rejected.StartTime[0] = -1;
  ASSERT_FALSE(verifySchedule(G, M, Rejected).Ok);

  // The step's answer at T_lb; at T_lb + 1 it returns Good.
  struct Case {
    const char *Name;
    MilpStatus Verdict;
    SearchStop Stop;
    StatusCode Error;
    bool ReturnsRejected;
    // Expectations.
    bool Found, Proven, VerifyFailed, Cancelled;
    int Attempts;
  };
  const Case Cases[] = {
      {"refuted", MilpStatus::Infeasible, SearchStop::None, StatusCode::Ok,
       false, true, true, false, false, 2},
      {"node-limit", MilpStatus::Unknown, SearchStop::NodeLimit,
       StatusCode::Ok, false, true, false, false, false, 2},
      {"censored-infeasible", MilpStatus::Infeasible, SearchStop::TimeLimit,
       StatusCode::Ok, false, true, false, false, false, 2},
      {"transient-error", MilpStatus::Error, SearchStop::Fault,
       StatusCode::ResourceExhausted, false, true, false, false, false, 2},
      {"invalid-input", MilpStatus::Error, SearchStop::Fault,
       StatusCode::InvalidInput, false, false, false, false, false, 1},
      {"verifier-rejects", MilpStatus::Optimal, SearchStop::None,
       StatusCode::Ok, true, false, false, true, false, 1},
      {"cancelled", MilpStatus::Unknown, SearchStop::Cancelled,
       StatusCode::Ok, false, false, false, false, true, 1},
  };
  for (const Case &C : Cases) {
    int Calls = 0;
    SchedulerResult R =
        searchRateOptimal(G, M, fastOptions(), [&](int T) {
          ++Calls;
          TStepResult Answer;
          Answer.Attempt.Nodes = 3;
          if (T == TLb + 1) {
            Answer.Attempt.Status = MilpStatus::Optimal;
            Answer.Schedule = Good;
            return Answer;
          }
          Answer.Attempt.Status = C.Verdict;
          Answer.Attempt.StopReason = C.Stop;
          if (C.Error != StatusCode::Ok)
            Answer.Error = Status(C.Error, "scripted").withT(T);
          if (C.ReturnsRejected)
            Answer.Schedule = Rejected;
          return Answer;
        });
    EXPECT_EQ(R.TLowerBound, TLb) << C.Name;
    EXPECT_EQ(R.found(), C.Found) << C.Name;
    if (C.Found)
      EXPECT_EQ(R.Schedule.T, TLb + 1) << C.Name;
    EXPECT_EQ(R.ProvenRateOptimal, C.Proven) << C.Name;
    EXPECT_EQ(R.VerifyFailed, C.VerifyFailed) << C.Name;
    EXPECT_EQ(R.Cancelled, C.Cancelled) << C.Name;
    EXPECT_EQ(R.Error.code(), C.Error) << C.Name << ": first error kept";
    ASSERT_FALSE(R.Attempts.empty()) << C.Name;
    EXPECT_EQ(static_cast<int>(R.Attempts.size()), C.Attempts) << C.Name;
    EXPECT_EQ(Calls, C.Attempts) << C.Name << ": the sweep stopped there";
    EXPECT_EQ(R.Attempts[0].T, TLb) << C.Name;
    EXPECT_EQ(R.TotalNodes, 3 * C.Attempts) << C.Name;
    EXPECT_FALSE(R.FaultsSeen) << C.Name;
  }

  // Two-step chains.  A step answers Verdict (with Stop and an Error of
  // Code) at every T, except that a step that Finds returns Good at
  // T_lb + 1.  The second step is asked only about a T the first left
  // open, and either step's refutation counts.
  struct Script {
    MilpStatus Verdict;
    SearchStop Stop;
    StatusCode Code;
    bool Finds;
  };
  auto scripted = [&](const Script &S, int &Calls) -> TStep {
    return [&, S](int T) {
      ++Calls;
      TStepResult Answer;
      Answer.Attempt.Nodes = 3;
      if (S.Finds && T == TLb + 1) {
        Answer.Attempt.Status = MilpStatus::Optimal;
        Answer.Schedule = Good;
        return Answer;
      }
      Answer.Attempt.Status = S.Verdict;
      Answer.Attempt.StopReason = S.Stop;
      if (S.Code != StatusCode::Ok)
        Answer.Error = Status(S.Code, "scripted").withT(T);
      return Answer;
    };
  };
  const Script Censored{MilpStatus::Unknown, SearchStop::NodeLimit,
                        StatusCode::Ok, true};
  const Script Refutes{MilpStatus::Infeasible, SearchStop::None,
                       StatusCode::Ok, false};
  const Script RefutesThenFinds{MilpStatus::Infeasible, SearchStop::None,
                                StatusCode::Ok, true};
  const Script Errors{MilpStatus::Error, SearchStop::Fault,
                      StatusCode::ResourceExhausted, false};
  const Script Cancelled{MilpStatus::Unknown, SearchStop::Cancelled,
                         StatusCode::Ok, true};
  struct ChainCase {
    const char *Name;
    Script First, Second;
    // Expectations.
    bool Found, Proven, Cancelled;
    StatusCode Error;
    int FirstCalls, SecondCalls;
  };
  const ChainCase Chains[] = {
      {"first-refutes", RefutesThenFinds, Refutes, true, true, false,
       StatusCode::Ok, 2, 0},
      {"censored-then-refuted", Censored, Refutes, true, true, false,
       StatusCode::Ok, 2, 1},
      {"error-then-found", Errors, RefutesThenFinds, true, true, false,
       StatusCode::ResourceExhausted, 2, 2},
      {"cancelled", Cancelled, Refutes, false, false, true, StatusCode::Ok, 1,
       0},
  };
  for (const ChainCase &C : Chains) {
    int FirstCalls = 0, SecondCalls = 0;
    const TStep Steps[] = {scripted(C.First, FirstCalls),
                           scripted(C.Second, SecondCalls)};
    SchedulerResult R = searchRateOptimal(G, M, fastOptions(), Steps);
    EXPECT_EQ(R.found(), C.Found) << C.Name;
    if (C.Found)
      EXPECT_EQ(R.Schedule.T, TLb + 1) << C.Name;
    EXPECT_EQ(R.ProvenRateOptimal, C.Proven) << C.Name;
    EXPECT_EQ(R.Cancelled, C.Cancelled) << C.Name;
    EXPECT_FALSE(R.VerifyFailed) << C.Name;
    EXPECT_EQ(R.Error.code(), C.Error) << C.Name << ": first error kept";
    EXPECT_EQ(FirstCalls, C.FirstCalls) << C.Name;
    EXPECT_EQ(SecondCalls, C.SecondCalls) << C.Name;
    // Every answer is one attempt, in the order the steps gave them.
    const int Answers = C.FirstCalls + C.SecondCalls;
    ASSERT_EQ(static_cast<int>(R.Attempts.size()), Answers) << C.Name;
    EXPECT_EQ(R.Attempts[0].T, TLb) << C.Name;
    EXPECT_EQ(R.Attempts.back().T, C.FirstCalls == 1 ? TLb : TLb + 1)
        << C.Name;
    EXPECT_EQ(R.TotalNodes, 3 * Answers) << C.Name;
  }
}

//===----------------------------------------------------------------------===//
// Thread pool and cache under injected faults
//===----------------------------------------------------------------------===//

TEST(PoolFaults, DispatchFaultRequeuesEveryJob) {
  InjectorGuard Guard;
  ASSERT_TRUE(FaultInjector::instance().configure("dispatch:3", 0, nullptr));
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I < 50; ++I)
      Pool.enqueue([&Count] { Count.fetch_add(1); });
  }
  EXPECT_EQ(Count.load(), 50) << "requeued jobs still run exactly once";
  EXPECT_EQ(FaultInjector::instance().fired(FaultSite::Dispatch), 3u);
}

TEST(PoolFaults, PermanentDispatchFaultIsBounded) {
  // p=1.0 would live-lock an unbounded requeue; MaxRequeues caps it and
  // the job still runs.
  InjectorGuard Guard;
  ASSERT_TRUE(
      FaultInjector::instance().configure("dispatch:p1.0", 0, nullptr));
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(1);
    std::uint64_t Before = Pool.dispatchFaults();
    for (int I = 0; I < 4; ++I)
      Pool.enqueue([&Count] { Count.fetch_add(1); });
    (void)Before;
  }
  FaultInjector::instance().reset();
  EXPECT_EQ(Count.load(), 4);
}

TEST(CacheFaults, FaultedResultsAreNeverCached) {
  InjectorGuard Guard;
  ResultCache Cache;
  Fingerprint Key{9, 9};

  // A result stamped FaultsSeen is refused even with the injector off.
  SchedulerResult Tainted;
  Tainted.TLowerBound = 3;
  Tainted.FaultsSeen = true;
  Cache.insert(Key, Tainted);
  SchedulerResult Out;
  EXPECT_FALSE(Cache.lookup(Key, Out));

  // While any site is armed, every insert is skipped (the solve cannot be
  // trusted), and the cache-insert site itself drops writes and counts.
  ASSERT_TRUE(
      FaultInjector::instance().configure("cache-insert:1", 0, nullptr));
  SchedulerResult Clean;
  Clean.TLowerBound = 4;
  Cache.insert(Key, Clean);
  EXPECT_FALSE(Cache.lookup(Key, Out));
  EXPECT_EQ(FaultInjector::instance().fired(FaultSite::CacheInsert), 1u);
  Cache.insert(Key, Clean);
  EXPECT_FALSE(Cache.lookup(Key, Out)) << "armed injector blocks caching";
  FaultInjector::instance().reset();

  Cache.insert(Key, Clean);
  ASSERT_TRUE(Cache.lookup(Key, Out)) << "disarmed: caching resumes";
  EXPECT_EQ(Out.TLowerBound, 4);
}

//===----------------------------------------------------------------------===//
// Service guarantees
//===----------------------------------------------------------------------===//

TEST(ServiceFaults, WatchdogRetriesTransientAllocFailure) {
  InjectorGuard Guard;
  MachineModel M = ppc604Like();
  Ddg G = generateRandomLoop(M, 21, {});
  // Budget 5 = one full solve window (MaxTSlack 4): the first watchdog
  // attempt fails every T with ResourceExhausted, the retry runs clean.
  ASSERT_TRUE(FaultInjector::instance().configure("alloc:5", 0, nullptr));
  ServiceOptions SvcOpts;
  SvcOpts.Jobs = 1;
  SvcOpts.Sched = fastOptions();
  SvcOpts.WatchdogRetries = 2;
  SvcOpts.RetryBackoff = 1e-4;
  SchedulerService Svc(SvcOpts);
  SchedulerResult R = Svc.submit(M, G).get();
  FaultInjector::instance().reset();
  ASSERT_TRUE(R.found()) << R.Error.str() << "; " << R.stopChain();
  EXPECT_TRUE(verifySchedule(G, M, R.Schedule).Ok);
  EXPECT_GE(R.Retries, 1);
  EXPECT_EQ(R.Fallback, FallbackRung::None)
      << "the retry answered; no ladder needed";
  ServiceStats Stats = Svc.stats();
  EXPECT_GE(Stats.WatchdogRetries, 1u);
  EXPECT_GE(Stats.FaultedJobs, 1u);
}

TEST(ServiceFaults, SpuriousDeadlineIsRetriedNotReported) {
  InjectorGuard Guard;
  MachineModel M = ppc604Like();
  Ddg G = generateRandomLoop(M, 22, {});
  ASSERT_TRUE(FaultInjector::instance().configure("deadline:1", 0, nullptr));
  ServiceOptions SvcOpts;
  SvcOpts.Jobs = 1;
  SvcOpts.Sched = fastOptions();
  SvcOpts.RetryBackoff = 1e-4;
  SchedulerService Svc(SvcOpts);
  SchedulerResult R = Svc.submit(M, G).get();
  FaultInjector::instance().reset();
  ASSERT_TRUE(R.found()) << R.Error.str() << "; " << R.stopChain();
  EXPECT_FALSE(R.Cancelled) << "the injected expiry must not leak out";
  EXPECT_GE(R.Retries, 1);
}

TEST(ServiceFaults, FallbackLadderAnswersWhenIlpIsDead) {
  InjectorGuard Guard;
  MachineModel M = ppc604Like();
  Ddg G = generateRandomLoop(M, 23, {});
  // Every LP stalls forever: the ILP can neither find nor prove anything,
  // retries included.  The ladder must still produce a verified schedule.
  ASSERT_TRUE(
      FaultInjector::instance().configure("lp-stall:p1.0", 7, nullptr));
  ServiceOptions SvcOpts;
  SvcOpts.Jobs = 1;
  SvcOpts.Sched = fastOptions();
  SvcOpts.WatchdogRetries = 0;
  SchedulerService Svc(SvcOpts);
  SchedulerResult R = Svc.submit(M, G).get();
  FaultInjector::instance().reset();
  ASSERT_TRUE(R.found()) << "ladder must answer: " << R.stopChain();
  EXPECT_NE(R.Fallback, FallbackRung::None);
  EXPECT_TRUE(verifySchedule(G, M, R.Schedule).Ok);
  // A rung schedule may still be proven rate-optimal, but only by sitting
  // on the fault-free combinatorial lower bound — never via the (dead)
  // ILP's infeasibility chain.
  EXPECT_TRUE(!R.ProvenRateOptimal || R.Schedule.T == R.TLowerBound)
      << "optimality claimed without evidence";
  ServiceStats Stats = Svc.stats();
  EXPECT_GE(Stats.FallbackSlackWins + Stats.FallbackImsWins, 1u);
  EXPECT_GE(Stats.FaultedJobs, 1u);
}

TEST(ServiceFaults, EveryJobGetsAnExplicitAnswerUnderHeavyFaults) {
  // The umbrella guarantee: with every site firing probabilistically, each
  // job still resolves to a verified schedule or an unfound result whose
  // stop chain / typed error explains why.  Never a hang, never a silent
  // empty result.
  InjectorGuard Guard;
  MachineModel M = ppc604Like();
  CorpusOptions CO;
  CO.NumLoops = 12;
  std::vector<Ddg> Corpus = generateCorpus(M, CO);
  ASSERT_TRUE(FaultInjector::instance().configure(
      "lp-stall:p0.05,lp-infeasible:p0.05,bnb-node:p0.02,alloc:p0.02,"
      "dispatch:p0.05,cache-insert:p0.5,deadline:2",
      13, nullptr));
  ServiceOptions SvcOpts;
  SvcOpts.Jobs = 4;
  SvcOpts.Sched = fastOptions();
  SvcOpts.RetryBackoff = 1e-4;
  SchedulerService Svc(SvcOpts);
  std::vector<SchedulerResult> Results = Svc.scheduleAll(M, Corpus);
  FaultInjector::instance().reset();
  ASSERT_EQ(Results.size(), Corpus.size());
  for (size_t I = 0; I < Results.size(); ++I) {
    const SchedulerResult &R = Results[I];
    if (R.found()) {
      EXPECT_TRUE(verifySchedule(Corpus[I], M, R.Schedule).Ok)
          << Corpus[I].name();
    } else {
      EXPECT_TRUE(R.Cancelled || !R.Error.isOk() || !R.Attempts.empty())
          << Corpus[I].name() << ": unexplained empty result";
      EXPECT_FALSE(R.stopChain().empty()) << Corpus[I].name();
    }
    if (R.ProvenRateOptimal) {
      // A proof under faults is only sound when backed by evidence: the
      // schedule sits on the fault-free lower bound, or every smaller T
      // carries an uncensored infeasibility proof.
      bool OnBound = R.Schedule.T == R.TLowerBound && R.TLowerBound > 0;
      bool ChainClean = true;
      for (const TAttempt &A : R.Attempts)
        if (A.T < R.Schedule.T && !A.ModuloSkipped)
          ChainClean = ChainClean && A.Status == MilpStatus::Infeasible &&
                       A.StopReason == SearchStop::None;
      EXPECT_TRUE(OnBound || ChainClean)
          << Corpus[I].name() << ": unsupported proof claim";
    }
  }
  EXPECT_EQ(Svc.stats().Completed, Corpus.size());
}

TEST(ServiceFaults, FaultedSolvesAreNotServedFromCache) {
  InjectorGuard Guard;
  MachineModel M = ppc604Like();
  Ddg G = generateRandomLoop(M, 24, {});
  ServiceOptions SvcOpts;
  SvcOpts.Jobs = 1;
  SvcOpts.Sched = fastOptions();
  SvcOpts.WatchdogRetries = 0;
  SchedulerService Svc(SvcOpts);

  // First submission solves under injected stalls -> ladder answer, not
  // cacheable.
  ASSERT_TRUE(
      FaultInjector::instance().configure("lp-stall:p1.0", 7, nullptr));
  SchedulerResult Faulted = Svc.submit(M, G).get();
  FaultInjector::instance().reset();
  EXPECT_TRUE(Faulted.FaultsSeen);

  // Second submission must re-solve cleanly (no cache hit) and improve on
  // the degraded answer's provenance.
  SchedulerResult Clean = Svc.submit(M, G).get();
  EXPECT_EQ(Svc.stats().CacheHits, 0u)
      << "a faulted result must not satisfy later lookups";
  EXPECT_EQ(Clean.Fallback, FallbackRung::None);
  EXPECT_FALSE(Clean.FaultsSeen);
  if (Clean.found() && Faulted.found()) {
    EXPECT_LE(Clean.Schedule.T, Faulted.Schedule.T)
        << "the clean ILP answer can only be better";
  }
}
