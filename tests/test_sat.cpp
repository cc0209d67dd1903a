//===- test_sat.cpp - CDCL SAT engine tests -------------------------------===//
//
// The SAT backend end to end: the CDCL core (propagation, learning,
// assumptions, budgets), agreement of the SAT rate-optimal loop with the
// ILP on kernels and random loops (both mapping disciplines), the
// incremental per-T payoffs (learned-clause reuse strictly cheaper than
// from-scratch; assumption retraction never leaks a stale period
// constraint), fault-domain behaviour (an injected SAT death is never
// reported as an infeasibility proof), and recycled solver storage (a
// solver on a store another solver parked answers as on a fresh one, on
// any thread; the ILP's recycled model, LP and search stores likewise,
// so both engines' two-thread tests run together under TSan).
//
//===----------------------------------------------------------------------===//

#include "swp/core/Driver.h"
#include "swp/core/Verifier.h"
#include "swp/machine/Catalog.h"
#include "swp/sat/CdclSolver.h"
#include "swp/sat/SatScheduler.h"
#include "swp/service/Fingerprint.h"
#include "swp/service/ResultCodec.h"
#include "swp/service/SchedulerService.h"
#include "swp/support/FaultInjector.h"
#include "swp/support/Rng.h"
#include "swp/workload/Corpus.h"
#include "swp/workload/Kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

using namespace swp;

namespace {

struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::instance().reset(); }
};

std::uint64_t sliceSeed(int I) {
  return static_cast<std::uint64_t>(I) * 2654435761ULL + 99;
}

/// \p R's bytes with its wall-clock fields cleared: two solves of one loop
/// under node or conflict budgets compare equal.
std::vector<std::uint8_t> timelessBytes(SchedulerResult R) {
  R.TotalSeconds = 0.0;
  for (TAttempt &A : R.Attempts)
    A.Seconds = 0.0;
  return schedulerResultBytes(R);
}

/// Every clause given to a solver, for checking its answers exhaustively.
struct ClauseLog {
  std::vector<std::vector<SatLit>> Clauses;

  void add(const std::vector<SatLit> &C) { Clauses.push_back(C); }

  static bool litTrue(std::uint32_t Assignment, SatLit L) {
    return (((Assignment >> litVar(L)) & 1u) != 0) != litNeg(L);
  }

  /// True when some assignment of variables 0..NumVars-1 makes every
  /// literal of \p Assumptions and some literal of every clause true.
  bool satisfiable(int NumVars, const std::vector<SatLit> &Assumptions) const {
    for (std::uint32_t A = 0; A < (1u << NumVars); ++A) {
      auto True = [A](SatLit L) { return litTrue(A, L); };
      if (std::all_of(Assumptions.begin(), Assumptions.end(), True) &&
          std::all_of(Clauses.begin(), Clauses.end(),
                      [&](const std::vector<SatLit> &C) {
                        return std::any_of(C.begin(), C.end(), True);
                      }))
        return true;
    }
    return false;
  }

  /// True when \p Model (one value per variable) satisfies every clause
  /// and assumption.
  bool satisfiedBy(const std::vector<bool> &Model,
                   const std::vector<SatLit> &Assumptions) const {
    auto True = [&Model](SatLit L) {
      return Model[static_cast<std::size_t>(litVar(L))] != litNeg(L);
    };
    return std::all_of(Assumptions.begin(), Assumptions.end(), True) &&
           std::all_of(Clauses.begin(), Clauses.end(),
                       [&](const std::vector<SatLit> &C) {
                         return std::any_of(C.begin(), C.end(), True);
                       });
  }

  /// True when \p S's model satisfies every clause and assumption.
  bool satisfiedBy(const CdclSolver &S,
                   const std::vector<SatLit> &Assumptions) const {
    return satisfiedBy(modelOf(S), Assumptions);
  }

  static std::vector<bool> modelOf(const CdclSolver &S) {
    std::vector<bool> Model;
    for (int V = 0; V < S.numVars(); ++V)
      Model.push_back(S.modelValue(V));
    return Model;
  }
};

/// x0 -> x1 -> ... -> x(N-1) over fresh variables: satisfiable.
void addImplicationChain(CdclSolver &S, int N) {
  const int First = S.numVars();
  for (int I = 0; I < N; ++I)
    S.newVar();
  for (int I = 0; I + 1 < N; ++I)
    S.addClause({mkLit(First + I, true), mkLit(First + I + 1)});
}

/// PHP(Pigeons, Holes) over fresh variables, pigeon I in hole J being
/// variable numVars() + I * Holes + J: each pigeon in some hole (each row
/// extended by \p Guard when it is a literal), no two pigeons in one hole.
/// Unsatisfiable when Pigeons > Holes and the rows are active.
void addPigeonhole(CdclSolver &S, int Pigeons, int Holes, SatLit Guard = -1,
                   ClauseLog *Log = nullptr) {
  const int First = S.numVars();
  for (int I = 0; I < Pigeons * Holes; ++I)
    S.newVar();
  auto add = [&](const std::vector<SatLit> &C) {
    if (Log)
      Log->add(C);
    S.addClause(C);
  };
  for (int I = 0; I < Pigeons; ++I) {
    std::vector<SatLit> Row;
    if (Guard >= 0)
      Row.push_back(Guard);
    for (int J = 0; J < Holes; ++J)
      Row.push_back(mkLit(First + I * Holes + J));
    add(Row);
  }
  for (int J = 0; J < Holes; ++J)
    for (int I = 0; I < Pigeons; ++I)
      for (int K = I + 1; K < Pigeons; ++K)
        add({mkLit(First + I * Holes + J, true),
             mkLit(First + K * Holes + J, true)});
}

/// One instance of the brute-force corpus: variables and clauses arrive in
/// batches, and each batch ends with two solves under assumptions.
struct CnfScript {
  struct Batch {
    int Vars = 0;
    std::vector<std::vector<SatLit>> Clauses;
    std::vector<SatLit> Assumptions[2];
  };
  std::vector<Batch> Batches;
};

/// Everything a solver reports while it runs a CnfScript.
struct Transcript {
  /// addClause results, and each solve's status and ok() after it, in call
  /// order.
  std::vector<int> Answers;
  /// The model of each Sat answer.
  std::vector<std::vector<bool>> Models;
  SatStats Stats;
};

/// The counters of \p St, printable by gtest.
auto counters(const SatStats &St) {
  return std::make_tuple(St.Decisions, St.Propagations, St.Conflicts,
                         St.LearnedClauses, St.LearnedLiterals, St.Restarts,
                         St.InjectedFaults);
}

Transcript runScript(const CnfScript &Script, CdclSolver &S) {
  Transcript Out;
  for (const CnfScript::Batch &B : Script.Batches) {
    while (S.numVars() < B.Vars)
      S.newVar();
    for (const std::vector<SatLit> &C : B.Clauses) {
      const bool Added = S.addClause(C);
      EXPECT_EQ(Added, S.ok());
      Out.Answers.push_back(Added);
    }
    for (const std::vector<SatLit> &A : B.Assumptions) {
      const SatStatus St = S.solve(A);
      Out.Answers.push_back(static_cast<int>(St));
      Out.Answers.push_back(S.ok());
      if (St == SatStatus::Sat)
        Out.Models.push_back(ClauseLog::modelOf(S));
    }
  }
  Out.Stats = S.stats();
  return Out;
}

/// How the solver that parks a recycled store ends.
enum class ExitState { GlobalUnsat, ConflictLimit, Cancelled, Fault };

/// Runs a solver larger than any CnfScript into \p How and destroys it,
/// which parks its store for the next solver built on this thread.  It
/// first refutes PHP(6,5) under a selector, so the store holds learned
/// clauses and long watch lists.
void parkStoreEndingIn(ExitState How) {
  CdclSolver S;
  const int Sel = S.newVar();
  addPigeonhole(S, 6, 5, mkLit(Sel, true));
  ASSERT_EQ(S.solve({mkLit(Sel)}), SatStatus::Unsat);
  ASSERT_TRUE(S.ok());
  SatLimits Limits;
  switch (How) {
  case ExitState::GlobalUnsat:
    S.addClause({mkLit(Sel)});
    EXPECT_EQ(S.solve({}), SatStatus::Unsat);
    ASSERT_FALSE(S.ok());
    return;
  case ExitState::ConflictLimit:
    addPigeonhole(S, 5, 4);
    Limits.ConflictLimit = 3;
    ASSERT_EQ(S.solve({}, Limits), SatStatus::Unknown);
    ASSERT_EQ(S.lastStop(), SatStop::ConflictLimit);
    return;
  case ExitState::Cancelled: {
    CancellationSource Src;
    Src.cancel();
    Limits.Cancel = Src.token();
    ASSERT_EQ(S.solve({mkLit(Sel)}, Limits), SatStatus::Unknown);
    ASSERT_EQ(S.lastStop(), SatStop::Cancelled);
    return;
  }
  case ExitState::Fault: {
    InjectorGuard Guard;
    addPigeonhole(S, 5, 4);
    ASSERT_TRUE(FaultInjector::instance().configure("sat-conflict:p1.0", 3));
    ASSERT_EQ(S.solve({}), SatStatus::Unknown);
    ASSERT_EQ(S.lastStop(), SatStop::Fault);
    return;
  }
  }
}

/// Remaps a ppc604-class corpus loop onto a machine that defines only op
/// classes 0..K-1 (the Section 2-5 example machines).
Ddg remapClasses(const Ddg &Gen, int K) {
  Ddg G(Gen.name());
  for (const DdgNode &Nd : Gen.nodes())
    G.addNode(Nd.Name, Nd.OpClass % K, Nd.Latency);
  for (const DdgEdge &E : Gen.edges())
    G.addEdgeWithLatency(E.Src, E.Dst, E.Distance, E.Latency);
  return G;
}

} // namespace

//===----------------------------------------------------------------------===//
// CdclSolver core
//===----------------------------------------------------------------------===//

TEST(Cdcl, UnitPropagationAndModel) {
  CdclSolver S;
  int A = S.newVar(), B = S.newVar(), C = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(A)}));
  ASSERT_TRUE(S.addClause({mkLit(A, true), mkLit(B)}));
  ASSERT_TRUE(S.addClause({mkLit(B, true), mkLit(C)}));
  ASSERT_EQ(S.solve({}), SatStatus::Sat);
  EXPECT_TRUE(S.modelValue(A));
  EXPECT_TRUE(S.modelValue(B));
  EXPECT_TRUE(S.modelValue(C));
}

TEST(Cdcl, GlobalUnsatIsSticky) {
  CdclSolver S;
  int A = S.newVar(), B = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(A), mkLit(B)}));
  ASSERT_TRUE(S.addClause({mkLit(A), mkLit(B, true)}));
  ASSERT_TRUE(S.addClause({mkLit(A, true), mkLit(B)}));
  EXPECT_EQ(S.solve({}), SatStatus::Sat);
  EXPECT_TRUE(S.modelValue(A));
  EXPECT_TRUE(S.modelValue(B));
  // Close the last corner: now globally unsat, and stays so.
  S.addClause({mkLit(A, true), mkLit(B, true)});
  EXPECT_EQ(S.solve({}), SatStatus::Unsat);
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.solve({}), SatStatus::Unsat);
}

TEST(Cdcl, AssumptionsRetractCleanly) {
  CdclSolver S;
  int A = S.newVar(), B = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(A, true), mkLit(B)}));
  ASSERT_TRUE(S.addClause({mkLit(A, true), mkLit(B, true)}));
  // Unsat only while A is assumed; the instance itself stays sat.
  EXPECT_EQ(S.solve({mkLit(A)}), SatStatus::Unsat);
  EXPECT_TRUE(S.ok());
  EXPECT_EQ(S.solve({}), SatStatus::Sat);
  EXPECT_FALSE(S.modelValue(A));
  EXPECT_EQ(S.solve({mkLit(A, true)}), SatStatus::Sat);
}

TEST(Cdcl, PigeonholePrinciple) {
  // 5 pigeons, 4 holes: unsat, and deep enough to exercise 1-UIP learning
  // and restarts.
  CdclSolver S;
  addPigeonhole(S, 5, 4);
  EXPECT_TRUE(S.ok());
  EXPECT_EQ(S.solve({}), SatStatus::Unsat);
  EXPECT_GT(S.stats().Conflicts, 0);
  EXPECT_GT(S.stats().LearnedClauses, 0);
}

TEST(Cdcl, ConflictLimitCensorsWithStopReason) {
  // Same pigeonhole instance, but a 1-conflict budget: no proof, and the
  // stop reason says why.
  CdclSolver S;
  addPigeonhole(S, 5, 4);
  SatLimits Limits;
  Limits.ConflictLimit = 1;
  EXPECT_EQ(S.solve({}, Limits), SatStatus::Unknown);
  EXPECT_EQ(S.lastStop(), SatStop::ConflictLimit);
  // And with the budget lifted the proof completes on the same instance.
  EXPECT_EQ(S.solve({}), SatStatus::Unsat);
}

TEST(Cdcl, CancellationStopsSearch) {
  // A pre-cancelled token stops the search at solve() entry, before any
  // propagation: on a satisfiable implication chain and on PHP(5,4), which
  // would otherwise be refuted within a few dozen conflicts.
  for (int Instance = 0; Instance < 2; ++Instance) {
    CdclSolver S;
    if (Instance == 0)
      addImplicationChain(S, 6);
    else
      addPigeonhole(S, 5, 4);
    CancellationSource Src;
    Src.cancel();
    SatLimits Limits;
    Limits.Cancel = Src.token();
    EXPECT_EQ(S.solve({}, Limits), SatStatus::Unknown) << Instance;
    EXPECT_EQ(S.lastStop(), SatStop::Cancelled) << Instance;
    EXPECT_EQ(S.stats().Conflicts, 0) << Instance;
    EXPECT_EQ(S.stats().Decisions, 0) << Instance;
    EXPECT_TRUE(S.ok()) << Instance;
    // Without the token the same solver answers.
    EXPECT_EQ(S.solve({}), Instance == 0 ? SatStatus::Sat : SatStatus::Unsat)
        << Instance;
  }
}

TEST(Cdcl, SpentTimeBudgetStopsSearch) {
  // TimeLimitSec = 0 is a budget already spent when solve() is entered.
  for (int Instance = 0; Instance < 2; ++Instance) {
    CdclSolver S;
    if (Instance == 0)
      addImplicationChain(S, 6);
    else
      addPigeonhole(S, 5, 4);
    SatLimits Limits;
    Limits.TimeLimitSec = 0;
    EXPECT_EQ(S.solve({}, Limits), SatStatus::Unknown) << Instance;
    EXPECT_EQ(S.lastStop(), SatStop::TimeLimit) << Instance;
    EXPECT_EQ(S.stats().Conflicts, 0) << Instance;
    EXPECT_EQ(S.stats().Decisions, 0) << Instance;
    EXPECT_EQ(S.solve({}), Instance == 0 ? SatStatus::Sat : SatStatus::Unsat)
        << Instance;
  }
}

TEST(Cdcl, MatchesBruteForceOnRandomCnfs) {
  // Seeded random CNFs small enough to enumerate.  Clauses have width 1-4
  // and may repeat a literal or hold its complement, so the dedupe,
  // tautology, unit and level-0 paths of addClause all run.  Clauses and
  // variables arrive in batches between solves, and each solve runs under
  // 0-3 random assumptions (possibly contradicting one another).  Half the
  // instances are 3/4-wide CNFs over 9-12 variables that cross the
  // satisfiability threshold batch by batch, so the search learns clauses.
  //
  // Each script runs twice: on a fresh store (another live solver holds the
  // thread's spare), and on a store recycled from a larger solver that
  // ended in one of the four exit states.  Both runs must give the same
  // answers, models and counters.
  Rng R(19950618);
  std::int64_t Learned = 0;
  int SatAnswers = 0, UnsatAnswers = 0, GlobalUnsat = 0;
  for (int Instance = 0; Instance < 600; ++Instance) {
    CnfScript Script;
    const bool Hard = R.chance(0.5);
    const int MaxVars = Hard ? R.intIn(9, 12) : R.intIn(1, 12);
    int NumVars = 0;
    for (int BatchNo = 0; BatchNo < 4; ++BatchNo) {
      CnfScript::Batch &B = Script.Batches.emplace_back();
      const int Vars =
          BatchNo == 3 ? MaxVars : R.intIn(std::max(1, NumVars), MaxVars);
      NumVars = B.Vars = std::max(NumVars, Vars);
      const int NumClauses =
          Hard ? R.intIn(Vars, 2 * Vars) : R.intIn(1, Vars + 2);
      for (int CI = 0; CI < NumClauses; ++CI) {
        const double Roll = R.unit();
        const int Width = Hard        ? (Roll < 0.7 ? 3 : 4)
                          : Roll < 0.1  ? 1
                          : Roll < 0.35 ? 2
                          : Roll < 0.75 ? 3
                                        : 4;
        std::vector<SatLit> &C = B.Clauses.emplace_back();
        for (int K = 0; K < Width; ++K) {
          if (K > 0 && R.chance(0.15))
            C.push_back(C.back()); // Repeated literal.
          else if (K > 0 && R.chance(0.08))
            C.push_back(litNot(C.back())); // Tautology.
          else
            C.push_back(mkLit(R.intIn(0, Vars - 1), R.chance(0.5)));
        }
      }
      for (std::vector<SatLit> &Assumptions : B.Assumptions)
        for (int K = R.intIn(0, 3); K > 0; --K)
          Assumptions.push_back(mkLit(R.intIn(0, Vars - 1), R.chance(0.5)));
    }

    Transcript Fresh;
    {
      CdclSolver Holder; // Takes the thread's spare, so S starts fresh.
      CdclSolver S;
      Fresh = runScript(Script, S);
    }
    parkStoreEndingIn(static_cast<ExitState>(Instance % 4));
    Transcript Recycled;
    {
      CdclSolver S;
      Recycled = runScript(Script, S);
    }
    EXPECT_EQ(Fresh.Answers, Recycled.Answers) << "instance " << Instance;
    EXPECT_EQ(Fresh.Models, Recycled.Models) << "instance " << Instance;
    EXPECT_EQ(counters(Fresh.Stats), counters(Recycled.Stats))
        << "instance " << Instance;

    // Check the answers by enumeration.
    ClauseLog Log;
    std::size_t Answer = 0, Model = 0;
    bool Ok = true;
    for (const CnfScript::Batch &B : Script.Batches) {
      for (const std::vector<SatLit> &C : B.Clauses) {
        Log.add(C);
        Ok = Fresh.Answers[Answer++] != 0;
      }
      for (const std::vector<SatLit> &A : B.Assumptions) {
        const auto St = static_cast<SatStatus>(Fresh.Answers[Answer++]);
        Ok = Fresh.Answers[Answer++] != 0;
        ASSERT_NE(St, SatStatus::Unknown) << "instance " << Instance;
        EXPECT_EQ(St == SatStatus::Sat, Log.satisfiable(B.Vars, A))
            << "instance " << Instance;
        if (St == SatStatus::Sat) {
          ++SatAnswers;
          EXPECT_TRUE(Log.satisfiedBy(Fresh.Models[Model++], A))
              << "instance " << Instance;
        } else {
          ++UnsatAnswers;
          if (A.empty()) {
            EXPECT_FALSE(Ok) << "instance " << Instance;
          }
        }
        if (!Ok) {
          EXPECT_FALSE(Log.satisfiable(B.Vars, {})) << "instance " << Instance;
        }
      }
    }
    GlobalUnsat += Ok ? 0 : 1;
    Learned += Fresh.Stats.LearnedClauses;
  }
  // The corpus must reach every kind of answer, and learn clauses.
  EXPECT_GT(SatAnswers, 1000);
  EXPECT_GT(UnsatAnswers, 1000);
  EXPECT_GT(GlobalUnsat, 100);
  EXPECT_GT(Learned, 50);
}

TEST(Cdcl, LearningUnderAssumptionsThenIncrementalClauses) {
  // PHP(6,5) with its at-least-one rows guarded by a selector: refuting it
  // under the selector learns clauses (appended to the clause store while
  // earlier clauses are being propagated), and later solves over the same
  // store must stay sound as problem clauses keep arriving.
  CdclSolver S;
  ClauseLog Log;
  const int Sel = S.newVar();
  addPigeonhole(S, 6, 5, mkLit(Sel, true), &Log);
  EXPECT_EQ(S.solve({mkLit(Sel)}), SatStatus::Unsat);
  EXPECT_TRUE(S.ok());
  EXPECT_GT(S.stats().LearnedClauses, 10);
  // Without the selector the rows are off: satisfiable.
  ASSERT_EQ(S.solve({}), SatStatus::Sat);
  EXPECT_TRUE(Log.satisfiedBy(S, {}));
  EXPECT_FALSE(S.modelValue(Sel));
  // Assert five of the six rows outright: a perfect matching exists.
  const int Holes = 5;
  for (int I = 0; I < 5; ++I) {
    std::vector<SatLit> Row;
    for (int J = 0; J < Holes; ++J)
      Row.push_back(mkLit(1 + I * Holes + J));
    Log.add(Row);
    ASSERT_TRUE(S.addClause(Row));
    ASSERT_EQ(S.solve({}), SatStatus::Sat);
    EXPECT_TRUE(Log.satisfiedBy(S, {}));
  }
  // The sixth row makes the instance unsat for good.
  std::vector<SatLit> Last;
  for (int J = 0; J < Holes; ++J)
    Last.push_back(mkLit(1 + 5 * Holes + J));
  S.addClause(Last);
  EXPECT_EQ(S.solve({}), SatStatus::Unsat);
  EXPECT_FALSE(S.ok());
}

//===----------------------------------------------------------------------===//
// SAT engine vs ILP agreement
//===----------------------------------------------------------------------===//

TEST(SatScheduler, MatchesIlpOnClassicKernels) {
  MachineModel M = ppc604Like();
  // No wall-clock limit: these instances solve in milliseconds, and a
  // time-based censor would make the parity assertions load-sensitive.
  SchedulerOptions Opts;
  Opts.TimeLimitPerT = 1e9;
  for (const Ddg &G : classicKernels()) {
    SchedulerResult Ilp = scheduleLoop(G, M, Opts);
    SchedulerResult Sat = satScheduleLoop(G, M, Opts);
    ASSERT_TRUE(Ilp.found()) << G.name();
    ASSERT_TRUE(Sat.found()) << G.name();
    EXPECT_EQ(Sat.Schedule.T, Ilp.Schedule.T) << G.name();
    EXPECT_EQ(Sat.TLowerBound, Ilp.TLowerBound) << G.name();
    EXPECT_EQ(Sat.ProvenRateOptimal, Ilp.ProvenRateOptimal) << G.name();
    VerifyResult V = verifySchedule(G, M, Sat.Schedule);
    EXPECT_TRUE(V.Ok) << G.name() << ": " << V.Error;
    EXPECT_FALSE(Sat.VerifyFailed) << G.name();
  }
}

TEST(SatScheduler, MatchesIlpOnHazardExamples) {
  // The Section 2-5 example machines: unclean pipelines, non-pipelined
  // units, and the Schedule A instance whose run-time-mapping optimum
  // admits no fixed assignment.
  std::vector<MachineModel> Machines = {
      exampleCleanMachine(), exampleNonPipelinedMachine(),
      exampleTwoFpMachine(), exampleHazardMachine()};
  CorpusOptions COpts;
  COpts.MaxNodes = 7;
  for (std::size_t MI = 0; MI < Machines.size(); ++MI) {
    // The example machines define classes {0, 1}; reuse the corpus
    // generator aimed at ppc604Like and remap classes into range.
    for (int I = 0; I < 6; ++I) {
      Ddg G = remapClasses(
          generateRandomLoop(ppc604Like(), sliceSeed(I + 10), COpts), 2);
      SchedulerOptions Opts;
      Opts.TimeLimitPerT = 1e9; // Load-independent parity (see above).
      SchedulerResult Ilp = scheduleLoop(G, Machines[MI], Opts);
      SchedulerResult Sat = satScheduleLoop(G, Machines[MI], Opts);
      ASSERT_EQ(Sat.found(), Ilp.found())
          << "machine " << MI << " loop " << I;
      if (!Ilp.found())
        continue;
      EXPECT_EQ(Sat.Schedule.T, Ilp.Schedule.T)
          << "machine " << MI << " loop " << I;
      VerifyResult V = verifySchedule(G, Machines[MI], Sat.Schedule);
      EXPECT_TRUE(V.Ok) << V.Error;
    }
  }
}

TEST(SatScheduler, MatchesIlpOnRandomLoops) {
  MachineModel M = ppc604Like();
  CorpusOptions COpts;
  COpts.MaxNodes = 9;
  SchedulerOptions Opts;
  Opts.TimeLimitPerT = 1e9; // Load-independent parity (see above).
  for (int I = 0; I < 25; ++I) {
    Ddg G = generateRandomLoop(M, sliceSeed(I), COpts);
    SchedulerResult Ilp = scheduleLoop(G, M, Opts);
    SchedulerResult Sat = satScheduleLoop(G, M, Opts);
    ASSERT_EQ(Sat.found(), Ilp.found()) << G.name();
    if (!Ilp.found())
      continue;
    EXPECT_EQ(Sat.Schedule.T, Ilp.Schedule.T) << G.name();
    EXPECT_EQ(Sat.ProvenRateOptimal, Ilp.ProvenRateOptimal) << G.name();
    VerifyResult V = verifySchedule(G, M, Sat.Schedule);
    EXPECT_TRUE(V.Ok) << G.name() << ": " << V.Error;
  }
}

TEST(SatScheduler, RunTimeMappingMatchesIlp) {
  MachineModel M = ppc604Like();
  CorpusOptions COpts;
  COpts.MaxNodes = 8;
  SchedulerOptions Opts;
  Opts.Mapping = MappingKind::RunTime;
  Opts.TimeLimitPerT = 1e9; // Load-independent parity (see above).
  for (int I = 0; I < 10; ++I) {
    Ddg G = generateRandomLoop(M, sliceSeed(I + 1000), COpts);
    SchedulerResult Ilp = scheduleLoop(G, M, Opts);
    SchedulerResult Sat = satScheduleLoop(G, M, Opts);
    ASSERT_EQ(Sat.found(), Ilp.found()) << G.name();
    if (!Ilp.found())
      continue;
    EXPECT_EQ(Sat.Schedule.T, Ilp.Schedule.T) << G.name();
    EXPECT_FALSE(Sat.Schedule.hasMapping()) << G.name();
    VerifyResult V = verifySchedule(G, M, Sat.Schedule);
    EXPECT_TRUE(V.Ok) << G.name() << ": " << V.Error;
  }
}

//===----------------------------------------------------------------------===//
// Incremental per-T re-solve
//===----------------------------------------------------------------------===//

TEST(SatScheduler, IncrementalReuseBeatsFromScratch) {
  // Walk T upward with one engine (learned clauses, activities, and phases
  // carried across periods) and compare the conflicts spent at the final T
  // against a cold engine solving that T directly.  Aggregated over a
  // seeded corpus slice and filtered to loops whose cold solve actually
  // conflicts, the incremental path must be strictly cheaper.  The
  // non-pipelined example machine forces optima above the lower bound;
  // the ILP proof (ProvenRateOptimal) pins the per-T ground truth.
  MachineModel M = exampleNonPipelinedMachine();
  CorpusOptions COpts;
  COpts.MaxNodes = 11;
  // Budget the ILP by node count only: it just pins ground truth, and
  // instances it cannot prove inside the cap are filtered out by the
  // ProvenRateOptimal check.  A node cap censors identically under any
  // machine load; a wall-clock cap would make the filter flaky.  Keep
  // the cap small: censored instances pay it in full before filtering.
  SchedulerOptions IlpOpts;
  IlpOpts.TimeLimitPerT = 1e9;
  IlpOpts.NodeLimitPerT = 1500;
  std::int64_t Incremental = 0, Scratch = 0;
  int Counted = 0;
  for (int I = 0; I < 40 && Counted < 6; ++I) {
    Ddg G = remapClasses(
        generateRandomLoop(ppc604Like(), sliceSeed(I + 2000), COpts), 2);
    SchedulerResult Ilp = scheduleLoop(G, M, IlpOpts);
    if (!Ilp.found() || !Ilp.ProvenRateOptimal ||
        Ilp.Schedule.T == Ilp.TLowerBound)
      continue; // Interesting only when at least one T gets refuted.
    const int FoundT = Ilp.Schedule.T;

    SatScheduler Warm(G, M);
    std::int64_t AtFoundT = 0;
    for (int T = Ilp.TLowerBound; T <= FoundT; ++T) {
      if (!M.moduloFeasible(G, T))
        continue;
      SatAttempt A = Warm.solveAtT(T);
      ASSERT_NE(A.Status, MilpStatus::Error) << G.name();
      if (T == FoundT) {
        ASSERT_EQ(A.Status, MilpStatus::Optimal) << G.name();
        AtFoundT = A.Conflicts;
      } else {
        ASSERT_EQ(A.Status, MilpStatus::Infeasible) << G.name();
      }
    }

    SatScheduler Cold(G, M);
    SatAttempt ColdA = Cold.solveAtT(FoundT);
    ASSERT_EQ(ColdA.Status, MilpStatus::Optimal) << G.name();
    if (ColdA.Conflicts == 0)
      continue; // Nothing to save on a propagation-only solve.
    Incremental += AtFoundT;
    Scratch += ColdA.Conflicts;
    ++Counted;
  }
  ASSERT_GT(Counted, 0) << "slice produced no conflicting instances";
  EXPECT_LT(Incremental, Scratch)
      << "learned-clause reuse should beat from-scratch re-solves ("
      << Counted << " loops)";
}

TEST(SatScheduler, AssumptionRetractionNeverLeaksAcrossT) {
  // Probe periods out of order on one engine: infeasible T stay
  // infeasible, feasible T stay feasible with verifier-clean schedules,
  // and the optimal II matches the ILP — a stale leaked period constraint
  // would break one of these.
  MachineModel M = exampleNonPipelinedMachine();
  CorpusOptions COpts;
  COpts.MaxNodes = 8;
  // Node-limit-only budget: deterministic under any machine load.
  SchedulerOptions IlpOpts;
  IlpOpts.TimeLimitPerT = 1e9;
  IlpOpts.NodeLimitPerT = 3000;
  int Exercised = 0;
  for (int I = 0; I < 30; ++I) {
    Ddg G = remapClasses(
        generateRandomLoop(ppc604Like(), sliceSeed(I + 3000), COpts), 2);
    SchedulerResult Ilp = scheduleLoop(G, M, IlpOpts);
    if (!Ilp.found() || !Ilp.ProvenRateOptimal)
      continue;
    const int FoundT = Ilp.Schedule.T;
    SatScheduler Engine(G, M);
    for (int T = Ilp.TLowerBound; T <= FoundT; ++T) {
      if (!M.moduloFeasible(G, T))
        continue;
      SatAttempt A = Engine.solveAtT(T);
      if (T < FoundT)
        ASSERT_EQ(A.Status, MilpStatus::Infeasible) << G.name() << " T=" << T;
      else
        ASSERT_EQ(A.Status, MilpStatus::Optimal) << G.name();
    }
    // Revisit: the feasible period again (its guarded slice must still be
    // active and decodable), then every refuted one, then feasible again.
    SatAttempt Again = Engine.solveAtT(FoundT);
    ASSERT_EQ(Again.Status, MilpStatus::Optimal) << G.name();
    VerifyResult V = verifySchedule(G, M, Again.Schedule);
    ASSERT_TRUE(V.Ok) << G.name() << ": " << V.Error;
    EXPECT_EQ(Again.Schedule.T, FoundT) << G.name();
    for (int T = Ilp.TLowerBound; T < FoundT; ++T) {
      if (!M.moduloFeasible(G, T))
        continue;
      SatAttempt A = Engine.solveAtT(T);
      EXPECT_EQ(A.Status, MilpStatus::Infeasible)
          << G.name() << " re-solve T=" << T;
      ++Exercised;
    }
    SatAttempt Final = Engine.solveAtT(FoundT);
    ASSERT_EQ(Final.Status, MilpStatus::Optimal) << G.name();
    VerifyResult VF = verifySchedule(G, M, Final.Schedule);
    EXPECT_TRUE(VF.Ok) << G.name() << ": " << VF.Error;
  }
  ASSERT_GT(Exercised, 0) << "slice never exercised a refuted period";
}

//===----------------------------------------------------------------------===//
// Failure domain
//===----------------------------------------------------------------------===//

TEST(SatFaults, InjectedConflictDeathIsNeverAnInfeasibilityProof) {
  InjectorGuard Guard;
  MachineModel M = ppc604Like();
  CorpusOptions COpts;
  COpts.MaxNodes = 14;
  // Every conflict faults: any attempt that would need search dies.
  ASSERT_TRUE(
      FaultInjector::instance().configure("sat-conflict:p1.0", 7));
  int Killed = 0;
  for (int I = 0; I < 25 && Killed == 0; ++I) {
    Ddg G = generateRandomLoop(M, sliceSeed(I + 2000), COpts);
    SchedulerResult Sat = satScheduleLoop(G, M);
    EXPECT_TRUE(Sat.Error.isOk());
    for (const TAttempt &A : Sat.Attempts) {
      if (A.StopReason == SearchStop::Fault) {
        // The killed attempt reports Unknown — never a fake Unsat.
        EXPECT_EQ(A.Status, MilpStatus::Unknown);
        ++Killed;
      }
      if (A.Status == MilpStatus::Infeasible && !A.ModuloSkipped) {
        EXPECT_EQ(A.StopReason, SearchStop::None);
      }
    }
    if (Killed > 0) {
      EXPECT_TRUE(Sat.FaultsSeen);
      EXPECT_FALSE(Sat.ProvenRateOptimal);
    }
  }
  EXPECT_GT(Killed, 0) << "slice never reached a SAT conflict";
}

TEST(SatFaults, AllocFaultIsATypedError) {
  InjectorGuard Guard;
  MachineModel M = ppc604Like();
  Ddg G = generateRandomLoop(M, sliceSeed(4), CorpusOptions{});
  ASSERT_TRUE(FaultInjector::instance().configure("alloc:1"));
  SatScheduler Engine(G, M);
  SatAttempt A = Engine.solveAtT(4);
  EXPECT_EQ(A.Status, MilpStatus::Error);
  EXPECT_EQ(A.Error.code(), StatusCode::ResourceExhausted);
  EXPECT_EQ(A.Stop, SearchStop::Fault);
  FaultInjector::instance().reset();
  // The engine recovers: the same period solves once the injector disarms.
  SatAttempt B = Engine.solveAtT(4);
  EXPECT_NE(B.Status, MilpStatus::Error);
}

TEST(SatScheduler, PreCancelledTokenShortCircuits) {
  MachineModel M = ppc604Like();
  Ddg G = generateRandomLoop(M, sliceSeed(5), CorpusOptions{});
  CancellationSource Src;
  Src.cancel();
  SchedulerOptions Opts;
  Opts.Cancel = Src.token();
  SchedulerResult Sat = satScheduleLoop(G, M, Opts);
  EXPECT_FALSE(Sat.found());
  EXPECT_TRUE(Sat.Cancelled);
}

TEST(SatScheduler, InvalidInputIsATypedError) {
  MachineModel M = ppc604Like();
  Ddg G("bad-class");
  G.addNode("x", 97, 1);
  SchedulerResult Sat = satScheduleLoop(G, M);
  EXPECT_FALSE(Sat.found());
  EXPECT_EQ(Sat.Error.code(), StatusCode::InvalidInput);
}

//===----------------------------------------------------------------------===//
// Service integration: exactSchedule engines, the engine chain, stats
//===----------------------------------------------------------------------===//

namespace {

/// Node- and conflict-limit-only budgets: a wall-clock cap would let
/// background load change what gets censored and flake the comparisons.
SchedulerOptions nodeBudgetOptions() {
  SchedulerOptions Opts;
  Opts.TimeLimitPerT = 1e9;
  Opts.NodeLimitPerT = 6000;
  return Opts;
}

/// True when some T of \p R was answered by two steps of a chain.
bool askedTwice(const SchedulerResult &R) {
  for (std::size_t I = 1; I < R.Attempts.size(); ++I)
    if (R.Attempts[I].T == R.Attempts[I - 1].T)
      return true;
  return false;
}

} // namespace

TEST(SatService, ExactScheduleSatEngineMatchesIlp) {
  MachineModel M = ppc604Like();
  const SchedulerOptions Opts = nodeBudgetOptions();
  int Compared = 0;
  for (int I = 0; I < 8; ++I) {
    Ddg G = generateRandomLoop(M, sliceSeed(I + 500), CorpusOptions{});
    SchedulerResult Ilp = exactSchedule(G, M, Opts, ExactEngine::Ilp);
    SchedulerResult Sat = exactSchedule(G, M, Opts, ExactEngine::Sat);
    EXPECT_EQ(timelessBytes(Sat), timelessBytes(satScheduleLoop(G, M, Opts)))
        << G.name();
    if (Sat.found())
      EXPECT_TRUE(verifySchedule(G, M, Sat.Schedule).Ok) << G.name();
    // Neither engine may beat the other's proven optimum.
    if (Ilp.ProvenRateOptimal && Sat.found())
      EXPECT_GE(Sat.Schedule.T, Ilp.Schedule.T) << G.name();
    if (Sat.ProvenRateOptimal && Ilp.found())
      EXPECT_GE(Ilp.Schedule.T, Sat.Schedule.T) << G.name();
    if (!Ilp.ProvenRateOptimal || !Sat.ProvenRateOptimal)
      continue; // A censored run pins nothing exactly.
    EXPECT_EQ(Ilp.Schedule.T, Sat.Schedule.T) << G.name();
    ++Compared;
  }
  EXPECT_GT(Compared, 0) << "no instance yielded two proven optima";
}

TEST(SatService, RaceAdoptsAProvenAnswer) {
  // The race asks SAT only about the T the ILP leaves censored, and the
  // ILP answers every T it is asked exactly as it does alone.  So the race
  // proves wherever the ILP alone proves, never answers a larger II, and
  // answers identically on every run.  A tight node budget without the
  // rounding probe leaves ILP attempts censored, so SAT gets asked.
  MachineModel M = ppc604Like();
  SchedulerOptions Opts = nodeBudgetOptions();
  Opts.NodeLimitPerT = 5;
  Opts.LpRoundingProbe = false;
  Opts.MaxTSlack = 4;
  int Proven = 0, IlpProven = 0, Chained = 0;
  for (int I = 0; I < 24; ++I) {
    Ddg G = generateRandomLoop(M, sliceSeed(I + 600), CorpusOptions{});
    SchedulerResult IlpSolo = scheduleLoop(G, M, Opts);
    SchedulerResult Race = exactSchedule(G, M, Opts, ExactEngine::Race);
    EXPECT_EQ(timelessBytes(Race),
              timelessBytes(exactSchedule(G, M, Opts, ExactEngine::Race)))
        << G.name() << ": the race must answer the same on every run";
    Proven += Race.ProvenRateOptimal;
    IlpProven += IlpSolo.ProvenRateOptimal;
    Chained += askedTwice(Race);
    if (!IlpSolo.found())
      continue;
    ASSERT_TRUE(Race.found()) << G.name();
    EXPECT_TRUE(verifySchedule(G, M, Race.Schedule).Ok) << G.name();
    EXPECT_LE(Race.Schedule.T, IlpSolo.Schedule.T) << G.name();
    if (IlpSolo.ProvenRateOptimal) {
      EXPECT_TRUE(Race.ProvenRateOptimal) << G.name();
      EXPECT_EQ(Race.Schedule.T, IlpSolo.Schedule.T) << G.name();
    }
  }
  EXPECT_GT(Chained, 0) << "no T reached the second engine";
  EXPECT_GT(Proven, IlpProven) << "SAT's refutations proved nothing more";
}

TEST(SatService, RaceChainsTheEnginesPerT) {
  // The race is the shared sweep over both engines' steps: the ILP first,
  // and SAT first where the topology constrains placement.  A small budget
  // keeps the grid's censored ILP attempts cheap.
  SchedulerOptions Opts = nodeBudgetOptions();
  Opts.NodeLimitPerT = 100;
  Opts.MaxTSlack = 4;
  auto chain = [&](const Ddg &G, const MachineModel &M, bool SatFirst) {
    TWarmContext Warm;
    std::optional<SatScheduler> Sat;
    TStep Steps[] = {ilpSweepStep(G, M, Opts, Warm),
                     satSweepStep(G, M, Opts, Sat)};
    if (SatFirst)
      std::swap(Steps[0], Steps[1]);
    return searchRateOptimal(G, M, Opts, Steps);
  };
  // The other order answers differently on some loop, so the comparison
  // pins the order.
  int OtherOrderDiffers = 0;
  MachineModel Ppc = ppc604Like();
  for (int I = 0; I < 4; ++I) {
    Ddg G = generateRandomLoop(Ppc, sliceSeed(I + 650), CorpusOptions{});
    const std::vector<std::uint8_t> Race =
        timelessBytes(exactSchedule(G, Ppc, Opts, ExactEngine::Race));
    EXPECT_EQ(Race, timelessBytes(chain(G, Ppc, /*SatFirst=*/false)))
        << G.name();
    OtherOrderDiffers += Race != timelessBytes(chain(G, Ppc, true));
  }
  EXPECT_GT(OtherOrderDiffers, 0);
  OtherOrderDiffers = 0;
  MachineModel Mesh = cgraGrid(2, 2);
  ASSERT_TRUE(Mesh.topologyConstrains());
  for (int I = 0; I < 4; ++I) {
    CgraCorpusOptions Small;
    Small.MaxNodes = 8;
    Ddg G = generateRandomCgraLoop(Mesh, sliceSeed(I + 660), Small);
    SchedulerResult Race = exactSchedule(G, Mesh, Opts, ExactEngine::Race);
    EXPECT_EQ(timelessBytes(Race),
              timelessBytes(chain(G, Mesh, /*SatFirst=*/true)))
        << G.name();
    OtherOrderDiffers +=
        timelessBytes(Race) != timelessBytes(chain(G, Mesh, false));
    if (Race.found())
      EXPECT_TRUE(verifySchedule(G, Mesh, Race.Schedule).Ok) << G.name();
  }
  EXPECT_GT(OtherOrderDiffers, 0);
}

TEST(SatService, RaceHonorsPreCancelledToken) {
  MachineModel M = ppc604Like();
  Ddg G = generateRandomLoop(M, sliceSeed(7), CorpusOptions{});
  CancellationSource Src;
  Src.cancel();
  SchedulerOptions Opts;
  Opts.Cancel = Src.token();
  SchedulerResult R = exactSchedule(G, M, Opts, ExactEngine::Race);
  EXPECT_FALSE(R.found());
  EXPECT_TRUE(R.Cancelled);
}

TEST(SatService, EngineTagKeepsCacheKeysDistinct) {
  // Results from different exact engines must never alias in the result
  // cache, even for an identical loop/machine/options job.
  MachineModel M = ppc604Like();
  Ddg G = generateRandomLoop(M, sliceSeed(8), CorpusOptions{});
  Fingerprint Ilp = fingerprintJob(G, M, {}, false, 0.0,
                                   static_cast<int>(ExactEngine::Ilp));
  Fingerprint Sat = fingerprintJob(G, M, {}, false, 0.0,
                                   static_cast<int>(ExactEngine::Sat));
  Fingerprint Race = fingerprintJob(G, M, {}, false, 0.0,
                                    static_cast<int>(ExactEngine::Race));
  EXPECT_FALSE(Ilp == Sat);
  EXPECT_FALSE(Ilp == Race);
  EXPECT_FALSE(Sat == Race);
}

TEST(SatService, ServiceBatchWithSatEngineCountsConflicts) {
  MachineModel M = ppc604Like();
  std::vector<Ddg> Loops;
  for (int I = 0; I < 6; ++I)
    Loops.push_back(generateRandomLoop(M, sliceSeed(I + 700),
                                       CorpusOptions{}));
  ServiceOptions SvcOpts;
  SvcOpts.Jobs = 2;
  JobOptions Sat;
  Sat.Engine = ExactEngine::Sat;
  SchedulerService Svc(SvcOpts);
  std::vector<SchedulerResult> Results = Svc.scheduleAll(M, Loops, Sat);
  std::uint64_t FreshConflicts = 0;
  for (size_t I = 0; I < Results.size(); ++I) {
    ASSERT_TRUE(Results[I].found()) << Loops[I].name();
    EXPECT_TRUE(verifySchedule(Loops[I], M, Results[I].Schedule).Ok)
        << Loops[I].name();
    if (!Results[I].CacheHit)
      FreshConflicts += static_cast<std::uint64_t>(Results[I].TotalNodes);
  }
  ServiceStats Stats = Svc.stats();
  EXPECT_EQ(Stats.Completed, Loops.size());
  // The search-effort counter sums the fresh solves' conflicts.
  EXPECT_EQ(Stats.SearchNodes, FreshConflicts);
  EXPECT_GT(Stats.SearchNodes, 0u);
}

TEST(SatService, RaceBatchIsDeterministicAcrossJobs) {
  // Every job's race runs on its own worker, so one worker and four answer
  // byte for byte alike, and as the race called directly does.
  MachineModel M = ppc604Like();
  std::vector<Ddg> Loops;
  for (int I = 0; I < 8; ++I)
    Loops.push_back(generateRandomLoop(M, sliceSeed(I + 800),
                                       CorpusOptions{}));
  ServiceOptions SvcOpts;
  SvcOpts.UseCache = false;
  SvcOpts.Sched = nodeBudgetOptions();
  SvcOpts.Sched.NodeLimitPerT = 1;
  SvcOpts.Sched.LpRoundingProbe = false;
  auto batch = [&](int Jobs) {
    SvcOpts.Jobs = Jobs;
    SchedulerService Svc(SvcOpts);
    JobOptions Race;
    Race.Engine = ExactEngine::Race;
    std::vector<std::vector<std::uint8_t>> Bytes;
    for (const SchedulerResult &R : Svc.scheduleAll(M, Loops, Race))
      Bytes.push_back(timelessBytes(R));
    return std::make_pair(Bytes, Svc.stats().SearchNodes);
  };
  const auto One = batch(1);
  const auto Four = batch(4);
  EXPECT_EQ(One.first, Four.first);
  EXPECT_EQ(One.second, Four.second);
  int Chained = 0;
  for (size_t I = 0; I < Loops.size(); ++I) {
    SchedulerResult Direct =
        exactSchedule(Loops[I], M, SvcOpts.Sched, ExactEngine::Race);
    EXPECT_EQ(One.first[I], timelessBytes(Direct)) << Loops[I].name();
    Chained += askedTwice(Direct);
  }
  EXPECT_GT(Chained, 0) << "no T reached the second engine";
}

//===----------------------------------------------------------------------===//
// Recycled solver storage across threads
//===----------------------------------------------------------------------===//

TEST(SatThreads, ConcurrentSweepsMatchSerial) {
  // Each thread parks and takes solver stores in its own slot, so two
  // sweeps running at once must answer exactly as one running alone.
  // Conflict budgets only: a wall-clock cap would make answers load-bound.
  MachineModel M = ppc604Like();
  std::vector<Ddg> Loops;
  for (int I = 0; I < 16; ++I)
    Loops.push_back(generateRandomLoop(M, sliceSeed(I + 900),
                                       CorpusOptions{}));
  auto sweepAll = [&] {
    std::vector<SchedulerResult> Out;
    for (MappingKind Kind : {MappingKind::Fixed, MappingKind::RunTime}) {
      SchedulerOptions Opts;
      Opts.TimeLimitPerT = 1e9;
      Opts.NodeLimitPerT = 200;
      Opts.Mapping = Kind;
      for (const Ddg &G : Loops)
        Out.push_back(satScheduleLoop(G, M, Opts));
    }
    return Out;
  };
  const std::vector<SchedulerResult> Serial = sweepAll();
  std::vector<SchedulerResult> A, B;
  std::thread TA([&] { A = sweepAll(); });
  std::thread TB([&] { B = sweepAll(); });
  TA.join();
  TB.join();
  int Found = 0;
  for (const std::vector<SchedulerResult> *Run : {&A, &B}) {
    ASSERT_EQ(Run->size(), Serial.size());
    for (std::size_t I = 0; I < Serial.size(); ++I) {
      const SchedulerResult &X = (*Run)[I], &Y = Serial[I];
      EXPECT_EQ(X.found(), Y.found()) << I;
      EXPECT_EQ(X.Schedule.T, Y.Schedule.T) << I;
      EXPECT_EQ(X.ProvenRateOptimal, Y.ProvenRateOptimal) << I;
      EXPECT_EQ(X.TotalNodes, Y.TotalNodes) << I;
      EXPECT_EQ(X.Schedule.StartTime, Y.Schedule.StartTime) << I;
      EXPECT_EQ(X.Schedule.Mapping, Y.Schedule.Mapping) << I;
      Found += X.found() ? 1 : 0;
    }
  }
  EXPECT_GT(Found, 0);
}

TEST(IlpThreads, ConcurrentSweepsMatchSerial) {
  // The ILP step recycles its model, LP workspace, search and step stores
  // through per-thread slots; two sweeps at once must answer byte for byte
  // as one alone.  The coloring objective nests a feasibility step inside
  // each T's step while the outer model is alive, so two stores of a kind
  // are live at once.  Node budgets only: a wall-clock cap would make the
  // answers load-bound.
  MachineModel M = ppc604Like();
  std::vector<Ddg> Loops;
  for (int I = 0; I < 24; ++I)
    Loops.push_back(generateRandomLoop(M, sliceSeed(I + 700),
                                       CorpusOptions{}));
  auto sweepAll = [&] {
    std::vector<std::vector<std::uint8_t>> Out;
    for (bool Coloring : {false, true}) {
      SchedulerOptions Opts;
      Opts.TimeLimitPerT = 1e9;
      Opts.NodeLimitPerT = 100;
      Opts.MaxTSlack = 4;
      Opts.ColoringObjective = Coloring;
      for (const Ddg &G : Loops)
        Out.push_back(timelessBytes(scheduleLoop(G, M, Opts)));
    }
    return Out;
  };
  const std::vector<std::vector<std::uint8_t>> Serial = sweepAll();
  std::vector<std::vector<std::uint8_t>> A, B;
  std::thread TA([&] { A = sweepAll(); });
  std::thread TB([&] { B = sweepAll(); });
  TA.join();
  TB.join();
  EXPECT_EQ(A, Serial);
  EXPECT_EQ(B, Serial);
}
