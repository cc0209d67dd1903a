//===- swp_fuzz.cpp - Differential fuzzer for the scheduling stack --------===//
//
// Generates random DDGs on random reservation-table machines and runs every
// scheduler path over each instance:
//
//   - rate-optimal ILP (scheduleLoop), with and without the LP-rounding
//     probe (two independent routes to the same proofs),
//   - iterative-modulo and slack-modulo heuristics,
//   - the portfolio (heuristic incumbent, then the ILP below it),
//   - on every fourth instance, the buffer-minimizing ILP: the only fuzzed
//     model with an objective, hence the only one whose LPs reach the
//     primal simplex.  It must agree with the proven rate-optimal T, and an
//     uncensored minimum at the feasibility run's T may not need more
//     buffers than that run's schedule.
//
// Every schedule any path produces is checked by the static verifier AND
// replayed on the cycle-accurate dynamic simulator, and every result whose
// sweep's own verifier rejected a schedule (VerifyFailed) is a finding in
// every mode; the paths are then
// cross-checked against each other (a heuristic can never beat a proven
// rate-optimal T, two proven ILP runs must agree, a clean full-window
// infeasibility proof means the heuristics find nothing either).  Machine
// and loop text formats are round-tripped through the parser as a bonus
// differential.
//
// With --faults SPEC the fault injector is armed per instance (seeded
// deterministically from the instance seed) and the harness additionally
// proves the failure-domain guarantee: a faulted run either returns a
// verified schedule or an explicit unfound result with a populated
// SearchStop chain, and any rate-optimality claim it makes survives a
// fault-free re-solve.
//
// With --mode ilp-vs-sat the harness becomes a two-engine differential:
// the branch-and-bound ILP, the CDCL SAT backend and their race (the
// chain of both engines' steps) solve every instance and their answers
// are cross-checked pairwise — every schedule verified and replayed,
// proven-optimal IIs must agree exactly, neither may beat the other's
// proven optimum, and a clean full-window infeasibility proof from one
// forbids the other from finding anything in the window.
//
// With --mode warmstart the harness solves every instance twice — once
// with the LP warm starts across candidate T (and the basis carried into
// branch-and-bound) and once with cold rebuilds — and cross-checks the
// two runs: a warm basis may change which vertex the simplex lands on,
// never the answer.  When neither run was censored by a limit the whole
// per-T status chain must match exactly; proofs and found IIs are
// cross-checked either way, and both schedules are verified and replayed.
//
// With --mode cgra the harness fuzzes the topology-aware mapping path:
// random small PE grids (mesh or torus, bounded hop budgets) with random
// dataflow kernels; the two exact engines and their race are
// cross-checked as in ilp-vs-sat, the heuristics' schedules are verified and replayed and may
// never beat a proven optimum, and the grid machine text must round-trip.
//
// With --mode wire the harness fuzzes the swpd wire protocol instead of
// the schedulers: random requests and responses (arbitrary byte strings,
// NaN/infinity doubles, every enum value) must round-trip byte-exactly
// through the message codecs and the frame codec, every truncation of a
// frame must be rejected, and every single-bit flip anywhere in a frame —
// header or payload — must be caught by one of the two CRCs.  The bit-flip
// and truncation sweeps are exhaustive per instance, not sampled.
//
//   swp_fuzz --instances 10000 --seed 1            # acceptance run
//   swp_fuzz --instances 10000 --seed 1 --mode ilp-vs-sat
//   swp_fuzz --instances 10000 --seed 1 --mode warmstart
//   swp_fuzz --instances 10000 --seed 1 --mode cgra
//   swp_fuzz --instances 2000 --seed 1 --mode wire
//   swp_fuzz --instances 200 --faults "lp-infeasible:p0.1,bnb-node:p0.05"
//
// Exit status: 0 = no findings, 1 = findings (each printed with a full
// machine/loop dump for replay), 2 = bad usage.
//
//===----------------------------------------------------------------------===//

#include "swp/core/Driver.h"
#include "swp/core/Registers.h"
#include "swp/core/Verifier.h"
#include "swp/ddg/Ddg.h"
#include "swp/heuristics/IterativeModulo.h"
#include "swp/heuristics/SlackModulo.h"
#include "swp/machine/Catalog.h"
#include "swp/machine/MachineModel.h"
#include "swp/net/Wire.h"
#include "swp/sat/SatScheduler.h"
#include "swp/workload/Corpus.h"
#include "swp/service/SchedulerService.h"
#include "swp/sim/DynamicSimulator.h"
#include "swp/support/FaultInjector.h"
#include "swp/support/Rng.h"
#include "swp/support/Stopwatch.h"
#include "swp/textio/Parser.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

using namespace swp;

namespace {

struct FuzzOptions {
  int Instances = 1000;
  std::uint64_t Seed = 1;
  int MaxNodes = 10;
  /// "all" = every scheduler path; "ilp-vs-sat" = two-engine differential;
  /// "warmstart" = warm vs cold-rebuild LP differential; "wire" = swpd
  /// frame/message codec round trips and corruption rejection.
  std::string Mode = "all";
  std::string FaultSpec;
  double TimeLimitPerT = 0.05;
  std::int64_t NodeLimitPerT = 1500;
  int MaxTSlack = 4;
  /// Exercise the SchedulerService path every this many instances (0 off).
  int ServiceEvery = 64;
  bool Verbose = false;
};

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--instances N] [--seed S] [--max-nodes N]\n"
               "       [--mode all|ilp-vs-sat|warmstart|cgra|wire] [--faults SPEC]\n"
               "       [--time-limit S] [--node-limit N]\n"
               "       [--max-t-slack N] [--service-every N] [--verbose]\n",
               Argv0);
  return 2;
}

std::uint64_t mix64(std::uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// A random machine: 1-4 FU types, each 1-3 units, reservation tables with
/// 1-3 stages over 1-5 cycles and ~45% busy cells, occasionally with extra
/// multi-function variants.  Every table keeps at least one busy cell so
/// the instance is not degenerate.
MachineModel randomMachine(Rng &R) {
  MachineModel M("fuzz");
  int NumTypes = R.intIn(1, 4);
  for (int T = 0; T < NumTypes; ++T) {
    auto RandomTable = [&R]() {
      int Stages = R.intIn(1, 3);
      int Cols = R.intIn(1, 5);
      std::vector<std::vector<std::uint8_t>> Rows(
          static_cast<size_t>(Stages),
          std::vector<std::uint8_t>(static_cast<size_t>(Cols), 0));
      bool AnyBusy = false;
      for (auto &Row : Rows)
        for (auto &Cell : Row) {
          Cell = R.chance(0.45) ? 1 : 0;
          AnyBusy = AnyBusy || Cell;
        }
      if (!AnyBusy)
        Rows[0][0] = 1;
      return ReservationTable(std::move(Rows));
    };
    int Type = M.addFuType("fu" + std::to_string(T), R.intIn(1, 3),
                           RandomTable());
    while (R.chance(0.25))
      M.addVariant(Type, RandomTable());
  }
  // ~25% of machines carry a random placement topology over all units
  // (possibly vacuous, possibly with unreachable pairs — both are legal
  // and must keep every cross-check honest).
  if (R.chance(0.25)) {
    int Units = M.totalUnits();
    Topology Topo(Units);
    for (int A = 0; A < Units; ++A)
      for (int B = 0; B < Units; ++B)
        if (A != B && R.chance(0.5))
          Topo.addEdge(A, B);
    Topo.setHopLatency(R.intIn(1, 2));
    Topo.setMaxHops(R.chance(0.3) ? -1 : R.intIn(1, 2));
    M.setTopology(std::move(Topo));
  }
  return M;
}

/// A random well-formed DDG for \p Machine: forward edges carry distance 0,
/// back/self edges distance >= 1, so no zero-distance cycle can form.
Ddg randomLoop(Rng &R, const MachineModel &Machine, int MaxNodes,
               std::uint64_t InstanceSeed) {
  Ddg G;
  G.setName("fuzz" + std::to_string(InstanceSeed));
  int N = R.intIn(2, MaxNodes);
  for (int I = 0; I < N; ++I) {
    int Class = R.intIn(0, Machine.numTypes() - 1);
    int Variant = R.intIn(0, Machine.type(Class).numVariants() - 1);
    G.addNodeVariant("n" + std::to_string(I), Class, Variant, R.intIn(0, 5));
  }
  for (int J = 1; J < N; ++J) {
    int Degree = R.intIn(0, 2);
    for (int E = 0; E < Degree; ++E)
      G.addEdge(R.intIn(0, J - 1), J, 0);
  }
  if (R.chance(0.4)) {
    int Dst = R.intIn(0, N - 1);
    int Src = R.intIn(Dst, N - 1);
    G.addEdge(Src, Dst, R.intIn(1, 2));
  }
  return G;
}

/// One reportable finding; carries everything needed to replay.
struct Findings {
  int Count = 0;

  void report(std::uint64_t InstanceSeed, const MachineModel &Machine,
              const Ddg &G, const std::string &What) {
    ++Count;
    std::fprintf(stderr, "FINDING (instance seed %llu): %s\n",
                 static_cast<unsigned long long>(InstanceSeed), What.c_str());
    std::fprintf(stderr, "--- machine\n%s--- loop\n%s---\n",
                 printMachine(Machine).c_str(),
                 printLoop(G, Machine).c_str());
  }

  /// Wire-mode findings have no machine/loop to dump; the instance seed
  /// alone replays them.
  void report(std::uint64_t InstanceSeed, const std::string &What) {
    ++Count;
    std::fprintf(stderr, "FINDING (instance seed %llu): %s\n",
                 static_cast<unsigned long long>(InstanceSeed), What.c_str());
  }
};

/// Verifier + simulator check of one found schedule.
void checkSchedule(Findings &F, std::uint64_t Seed, const MachineModel &M,
                   const Ddg &G, const ModuloSchedule &S,
                   const char *Path) {
  VerifyResult V = verifySchedule(G, M, S);
  if (!V.Ok) {
    F.report(Seed, M, G,
             std::string(Path) + ": verifier rejected schedule at T=" +
                 std::to_string(S.T) + ": " + V.Error);
    return;
  }
  std::string SimErr;
  if (!replaySchedule(G, M, S, 6, &SimErr))
    F.report(Seed, M, G,
             std::string(Path) + ": dynamic replay rejected schedule at T=" +
                 std::to_string(S.T) + ": " + SimErr);
}

/// Checks one result a sweep returned: a verifier rejection inside the
/// sweep (VerifyFailed) is a finding, and a found schedule goes through
/// checkSchedule.
void checkResult(Findings &F, std::uint64_t Seed, const MachineModel &M,
                 const Ddg &G, const SchedulerResult &R, const char *Path) {
  if (R.VerifyFailed)
    F.report(Seed, M, G,
             std::string(Path) + ": the sweep's verifier rejected a schedule");
  if (R.found())
    checkSchedule(F, Seed, M, G, R.Schedule, Path);
}

/// The buffer-minimizing ILP runs on the instances whose seed this divides.
constexpr std::uint64_t BufferEvery = 4;

/// True when \p R is a clean full-window infeasibility proof: every T in
/// [T_lb, T_lb + MaxTSlack] proven infeasible with nothing censored.
bool cleanFullProof(const SchedulerResult &R, int MaxTSlack) {
  if (R.found() || R.Cancelled || !R.Error.isOk() || R.FaultsSeen)
    return false;
  if (static_cast<int>(R.Attempts.size()) != MaxTSlack + 1)
    return false;
  for (const TAttempt &A : R.Attempts)
    if (A.Status != MilpStatus::Infeasible || A.StopReason != SearchStop::None)
      return false;
  return true;
}

void fuzzOne(const FuzzOptions &Opts, std::uint64_t InstanceSeed,
             Findings &F) {
  Rng R(InstanceSeed);
  MachineModel Machine = randomMachine(R);
  Ddg G = randomLoop(R, Machine, Opts.MaxNodes, InstanceSeed);

  // Parser round-trip differential: print -> parse -> print must be a
  // fixed point for both formats.
  {
    std::string MText = printMachine(Machine);
    Expected<MachineModel> M2 = parseMachineText(MText);
    if (!M2.ok())
      F.report(InstanceSeed, Machine, G,
               "machine round-trip failed: " + M2.status().str());
    else if (printMachine(*M2) != MText)
      F.report(InstanceSeed, Machine, G,
               "machine round-trip is not a fixed point");
    std::string LText = printLoop(G, Machine);
    Expected<Ddg> G2 = parseLoopText(LText, Machine);
    if (!G2.ok())
      F.report(InstanceSeed, Machine, G,
               "loop round-trip failed: " + G2.status().str());
    else if (printLoop(*G2, Machine) != LText)
      F.report(InstanceSeed, Machine, G,
               "loop round-trip is not a fixed point");
  }

  const bool WithFaults = !Opts.FaultSpec.empty();
  if (WithFaults) {
    std::string Err;
    if (!FaultInjector::instance().configure(Opts.FaultSpec,
                                             mix64(InstanceSeed), &Err)) {
      std::fprintf(stderr, "bad --faults spec: %s\n", Err.c_str());
      std::exit(2);
    }
  }

  SchedulerOptions Ilp;
  Ilp.TimeLimitPerT = Opts.TimeLimitPerT;
  Ilp.NodeLimitPerT = Opts.NodeLimitPerT;
  Ilp.MaxTSlack = Opts.MaxTSlack;

  SchedulerResult WithProbe = scheduleLoop(G, Machine, Ilp);
  SchedulerOptions NoProbeOpts = Ilp;
  NoProbeOpts.LpRoundingProbe = false;
  SchedulerResult NoProbe = scheduleLoop(G, Machine, NoProbeOpts);

  ImsOptions ImsOpts;
  ImsOpts.MaxTSlack = Opts.MaxTSlack;
  SchedulerResult Ims = iterativeModuloSchedule(G, Machine, ImsOpts);
  SlackOptions SlackOpts;
  SlackOpts.MaxTSlack = Opts.MaxTSlack;
  SchedulerResult Slack = slackModuloSchedule(G, Machine, SlackOpts);
  SchedulerResult Portfolio = portfolioSchedule(G, Machine, Ilp);
  const bool Buffers = InstanceSeed % BufferEvery == 0;
  SchedulerResult MinBuf;
  if (Buffers) {
    SchedulerOptions BufOpts = Ilp;
    BufOpts.MinimizeBuffers = true;
    MinBuf = scheduleLoop(G, Machine, BufOpts);
  }

  // Faulted runs must end in a typed state, never a silent empty result:
  // found schedule, explicit error, or an unfound result whose stop chain
  // names what censored each attempt.
  if (WithFaults) {
    if (!WithProbe.found() && WithProbe.Error.isOk() &&
        WithProbe.Attempts.empty() && !WithProbe.Cancelled)
      F.report(InstanceSeed, Machine, G,
               "faulted ILP run returned an unexplained empty result");
    FaultInjector::instance().reset();
  }

  checkResult(F, InstanceSeed, Machine, G, WithProbe, "ilp+probe");
  checkResult(F, InstanceSeed, Machine, G, NoProbe, "ilp");
  checkResult(F, InstanceSeed, Machine, G, Ims, "ims");
  checkResult(F, InstanceSeed, Machine, G, Slack, "slack");
  checkResult(F, InstanceSeed, Machine, G, Portfolio, "portfolio");
  if (Buffers)
    checkResult(F, InstanceSeed, Machine, G, MinBuf, "ilp buffers");

  // Cross-path consistency.  Proofs from faulted runs were already
  // downgraded by the driver, so every claim below must hold even when
  // --faults was active (that is the fault-soundness guarantee).
  if (WithFaults) {
    // Re-derive the ground truth fault-free for the proof checks.
    WithProbe = scheduleLoop(G, Machine, Ilp);
    NoProbe = scheduleLoop(G, Machine, NoProbeOpts);
    checkResult(F, InstanceSeed, Machine, G, WithProbe, "ilp+probe (clean)");
    checkResult(F, InstanceSeed, Machine, G, NoProbe, "ilp (clean)");
  }
  if (WithProbe.ProvenRateOptimal && NoProbe.ProvenRateOptimal &&
      WithProbe.Schedule.T != NoProbe.Schedule.T)
    F.report(InstanceSeed, Machine, G,
             "probe/no-probe proven-optimal T disagree: " +
                 std::to_string(WithProbe.Schedule.T) + " vs " +
                 std::to_string(NoProbe.Schedule.T));
  if (WithProbe.ProvenRateOptimal) {
    int TStar = WithProbe.Schedule.T;
    auto CheckNotBetter = [&](int T, const char *Path) {
      if (T > 0 && T < TStar)
        F.report(InstanceSeed, Machine, G,
                 std::string(Path) + " beat a proven rate-optimal T: " +
                     std::to_string(T) + " < " + std::to_string(TStar));
    };
    CheckNotBetter(NoProbe.Schedule.T, "ilp");
    CheckNotBetter(Ims.Schedule.T, "ims");
    CheckNotBetter(Slack.Schedule.T, "slack");
    CheckNotBetter(Portfolio.Schedule.T, "portfolio");
    CheckNotBetter(MinBuf.Schedule.T, "ilp buffers");
    if (MinBuf.ProvenRateOptimal && MinBuf.Schedule.T != TStar)
      F.report(InstanceSeed, Machine, G,
               "ilp buffers proved another rate-optimal T: " +
                   std::to_string(MinBuf.Schedule.T) + " vs " +
                   std::to_string(TStar));
  }
  if (Portfolio.found() && Ims.found() &&
      Portfolio.Schedule.T > Ims.Schedule.T)
    F.report(InstanceSeed, Machine, G,
             "portfolio worse than its own IMS leg");
  if (Portfolio.found() && Slack.found() &&
      Portfolio.Schedule.T > Slack.Schedule.T)
    F.report(InstanceSeed, Machine, G,
             "portfolio worse than its own slack leg");
  if (cleanFullProof(WithProbe, Opts.MaxTSlack)) {
    int WindowEnd = WithProbe.TLowerBound + Opts.MaxTSlack;
    auto CheckUnfound = [&](int T, const char *Path) {
      if (T > 0 && T <= WindowEnd)
        F.report(InstanceSeed, Machine, G,
                 std::string(Path) + " found T=" + std::to_string(T) +
                     " inside a window proven fully infeasible");
    };
    CheckUnfound(Ims.Schedule.T, "ims");
    CheckUnfound(Slack.Schedule.T, "slack");
    CheckUnfound(Portfolio.Schedule.T, "portfolio");
    CheckUnfound(MinBuf.Schedule.T, "ilp buffers");
  }
  // A buffer minimum proven at the feasibility run's T needs no more
  // buffers than the feasibility schedule there.
  if (MinBuf.found() && !MinBuf.FaultsSeen && WithProbe.found() &&
      MinBuf.Schedule.T == WithProbe.Schedule.T &&
      MinBuf.Attempts.back().Status == MilpStatus::Optimal &&
      MinBuf.Attempts.back().StopReason == SearchStop::None) {
    const int Min = totalBuffers(G, MinBuf.Schedule);
    const int Feas = totalBuffers(G, WithProbe.Schedule);
    if (Min > Feas)
      F.report(InstanceSeed, Machine, G,
               "ilp buffers needs more buffers than the feasibility schedule "
               "at T=" + std::to_string(WithProbe.Schedule.T) + ": " +
                   std::to_string(Min) + " > " + std::to_string(Feas));
  }

  // Service path (pool + cache + watchdog + ladder): resubmitting the same
  // loop must give T-identical results, cold or cached.
  if (Opts.ServiceEvery > 0 &&
      InstanceSeed % static_cast<std::uint64_t>(Opts.ServiceEvery) == 0) {
    ServiceOptions SvcOpts;
    SvcOpts.Jobs = 2;
    SvcOpts.Sched = Ilp;
    JobOptions Portfolio;
    Portfolio.Portfolio = true;
    SchedulerService Service(SvcOpts);
    std::vector<Ddg> Batch{G, G, G};
    std::vector<SchedulerResult> Results =
        Service.scheduleAll(Machine, Batch, Portfolio);
    for (const SchedulerResult &SR : Results) {
      checkResult(F, InstanceSeed, Machine, G, SR, "service");
      if (SR.Schedule.T != Results.front().Schedule.T)
        F.report(InstanceSeed, Machine, G,
                 "service resubmission changed the answer");
    }
  }
}

/// Cross-checks two exact answers \p A and \p B to one instance: equal
/// T_lb, equal proven-optimal IIs, neither beats the other's proven
/// optimum, and a clean full-window infeasibility proof from one forbids
/// the other from finding anything in the window.
void crossCheckExact(Findings &F, std::uint64_t Seed, const MachineModel &M,
                     const Ddg &G, int MaxTSlack, const SchedulerResult &A,
                     const char *AName, const SchedulerResult &B,
                     const char *BName) {
  const std::string Pair = std::string(AName) + " vs " + BName + ": ";
  if (A.Error.isOk() && B.Error.isOk() && A.TLowerBound != B.TLowerBound)
    F.report(Seed, M, G,
             Pair + "T_lb disagrees: " + std::to_string(A.TLowerBound) +
                 " vs " + std::to_string(B.TLowerBound));
  if (A.ProvenRateOptimal && B.ProvenRateOptimal &&
      A.Schedule.T != B.Schedule.T)
    F.report(Seed, M, G,
             Pair + "proven-optimal II mismatch: " +
                 std::to_string(A.Schedule.T) + " vs " +
                 std::to_string(B.Schedule.T));
  auto Bounds = [&](const SchedulerResult &P, const char *PName,
                    const SchedulerResult &X, const char *XName) {
    if (P.ProvenRateOptimal && X.found() && X.Schedule.T < P.Schedule.T)
      F.report(Seed, M, G,
               Pair + XName + " beat " + PName + "'s proven optimum: " +
                   std::to_string(X.Schedule.T) + " < " +
                   std::to_string(P.Schedule.T));
    if (cleanFullProof(P, MaxTSlack) && X.found() &&
        X.Schedule.T <= P.TLowerBound + MaxTSlack)
      F.report(Seed, M, G,
               Pair + XName + " found T=" + std::to_string(X.Schedule.T) +
                   " inside a window " + PName + " proved fully infeasible");
  };
  Bounds(A, AName, B, BName);
  Bounds(B, BName, A, AName);
}

/// Two-engine differential body shared by --mode ilp-vs-sat and --mode
/// cgra: the branch-and-bound ILP, the CDCL SAT backend and their race
/// answer the same instance; any disagreement between their schedules or
/// proofs is a finding.
SchedulerResult ilpVsSatBody(const FuzzOptions &Opts,
                             std::uint64_t InstanceSeed,
                             const MachineModel &Machine, const Ddg &G,
                             Findings &F) {
  const bool WithFaults = !Opts.FaultSpec.empty();
  if (WithFaults) {
    std::string Err;
    if (!FaultInjector::instance().configure(Opts.FaultSpec,
                                             mix64(InstanceSeed), &Err)) {
      std::fprintf(stderr, "bad --faults spec: %s\n", Err.c_str());
      std::exit(2);
    }
  }

  SchedulerOptions SOpts;
  SOpts.TimeLimitPerT = Opts.TimeLimitPerT;
  SOpts.NodeLimitPerT = Opts.NodeLimitPerT;
  SOpts.MaxTSlack = Opts.MaxTSlack;

  SchedulerResult Ilp = scheduleLoop(G, Machine, SOpts);
  SchedulerResult Sat = satScheduleLoop(G, Machine, SOpts);
  SchedulerResult Race = exactSchedule(G, Machine, SOpts, ExactEngine::Race);

  // Faulted runs must end in a typed state, never a silent empty result.
  if (WithFaults) {
    auto Unexplained = [](const SchedulerResult &X) {
      return !X.found() && X.Error.isOk() && X.Attempts.empty() &&
             !X.Cancelled;
    };
    if (Unexplained(Ilp))
      F.report(InstanceSeed, Machine, G,
               "faulted ILP run returned an unexplained empty result");
    if (Unexplained(Sat))
      F.report(InstanceSeed, Machine, G,
               "faulted SAT run returned an unexplained empty result");
    if (Unexplained(Race))
      F.report(InstanceSeed, Machine, G,
               "faulted race returned an unexplained empty result");
    FaultInjector::instance().reset();
  }

  checkResult(F, InstanceSeed, Machine, G, Ilp, "ilp");
  checkResult(F, InstanceSeed, Machine, G, Sat, "sat");
  checkResult(F, InstanceSeed, Machine, G, Race, "race");

  // Proof cross-checks run on fault-free ground truth (a faulted run
  // already downgraded its claims; the re-solve proves it downgraded
  // enough — any surviving claim must agree with the clean answers).
  if (WithFaults) {
    Ilp = scheduleLoop(G, Machine, SOpts);
    Sat = satScheduleLoop(G, Machine, SOpts);
    Race = exactSchedule(G, Machine, SOpts, ExactEngine::Race);
    checkResult(F, InstanceSeed, Machine, G, Ilp, "ilp (clean)");
    checkResult(F, InstanceSeed, Machine, G, Sat, "sat (clean)");
    checkResult(F, InstanceSeed, Machine, G, Race, "race (clean)");
  }
  crossCheckExact(F, InstanceSeed, Machine, G, Opts.MaxTSlack, Ilp, "ilp",
                  Sat, "sat");
  crossCheckExact(F, InstanceSeed, Machine, G, Opts.MaxTSlack, Race, "race",
                  Ilp, "ilp");
  crossCheckExact(F, InstanceSeed, Machine, G, Opts.MaxTSlack, Race, "race",
                  Sat, "sat");
  return Ilp;
}

void fuzzIlpVsSat(const FuzzOptions &Opts, std::uint64_t InstanceSeed,
                  Findings &F) {
  Rng R(InstanceSeed);
  MachineModel Machine = randomMachine(R);
  Ddg G = randomLoop(R, Machine, Opts.MaxNodes, InstanceSeed);
  ilpVsSatBody(Opts, InstanceSeed, Machine, G, F);
}

/// CGRA mapping differential (--mode cgra): a random small PE grid (mesh
/// or torus, bounded hop budget) and a dataflow kernel; both exact engines
/// answer and are cross-checked, the heuristics' schedules are verified
/// and replayed, and the machine text (grid topology included) must
/// round-trip through the parser.
void fuzzCgra(const FuzzOptions &Opts, std::uint64_t InstanceSeed,
              Findings &F) {
  Rng R(InstanceSeed);
  int Rows = R.intIn(1, 2);
  int Cols = R.intIn(2, 3);
  bool Torus = R.chance(0.5);
  int MaxHops = R.chance(0.25) ? -1 : R.intIn(1, 2);
  MachineModel Machine = cgraGrid(Rows, Cols, Torus, MaxHops);

  CgraCorpusOptions LoopOpts;
  LoopOpts.MaxNodes = std::min(Opts.MaxNodes, 8);
  Ddg G = generateRandomCgraLoop(Machine, mix64(InstanceSeed ^ 0xc62a), LoopOpts);

  // Topology-bearing machine text must round-trip exactly.
  {
    std::string MText = printMachine(Machine);
    Expected<MachineModel> M2 = parseMachineText(MText);
    if (!M2.ok())
      F.report(InstanceSeed, Machine, G,
               "cgra machine round-trip failed: " + M2.status().str());
    else if (printMachine(*M2) != MText)
      F.report(InstanceSeed, Machine, G,
               "cgra machine round-trip is not a fixed point");
  }

  // The heuristics must stay sound under routing hazards: anything they
  // find verifies and replays (the exact engines' optima bound them via
  // the shared body's proof checks).
  ImsOptions ImsOpts;
  ImsOpts.MaxTSlack = Opts.MaxTSlack;
  SchedulerResult Ims = iterativeModuloSchedule(G, Machine, ImsOpts);
  checkResult(F, InstanceSeed, Machine, G, Ims, "cgra-ims");
  SlackOptions SlackOpts;
  SlackOpts.MaxTSlack = Opts.MaxTSlack;
  SchedulerResult Slack = slackModuloSchedule(G, Machine, SlackOpts);
  checkResult(F, InstanceSeed, Machine, G, Slack, "cgra-slack");

  SchedulerResult Ilp = ilpVsSatBody(Opts, InstanceSeed, Machine, G, F);
  if (Ilp.ProvenRateOptimal) {
    if (Ims.found() && Ims.Schedule.T < Ilp.Schedule.T)
      F.report(InstanceSeed, Machine, G,
               "cgra-ims beat a proven rate-optimal T: " +
                   std::to_string(Ims.Schedule.T) + " < " +
                   std::to_string(Ilp.Schedule.T));
    if (Slack.found() && Slack.Schedule.T < Ilp.Schedule.T)
      F.report(InstanceSeed, Machine, G,
               "cgra-slack beat a proven rate-optimal T: " +
                   std::to_string(Slack.Schedule.T) + " < " +
                   std::to_string(Ilp.Schedule.T));
  }
  if (cleanFullProof(Ilp, Opts.MaxTSlack)) {
    int WindowEnd = Ilp.TLowerBound + Opts.MaxTSlack;
    if (Ims.found() && Ims.Schedule.T <= WindowEnd)
      F.report(InstanceSeed, Machine, G,
               "cgra-ims found T=" + std::to_string(Ims.Schedule.T) +
                   " inside a window proven fully infeasible");
    if (Slack.found() && Slack.Schedule.T <= WindowEnd)
      F.report(InstanceSeed, Machine, G,
               "cgra-slack found T=" + std::to_string(Slack.Schedule.T) +
                   " inside a window proven fully infeasible");
  }
}

/// True when no limit censored any part of \p R: the per-T status chain is
/// then deterministic ground truth — warm starts may change the simplex
/// path, never which T is infeasible or what II gets proven.
bool uncensored(const SchedulerResult &R) {
  if (R.Cancelled || !R.Error.isOk() || R.FaultsSeen)
    return false;
  for (const TAttempt &A : R.Attempts)
    if (A.StopReason != SearchStop::None)
      return false;
  return true;
}

/// Warm-vs-cold differential: the same instance solved with LP warm starts
/// across candidate T (basis carried from the previous T's relaxation into
/// the next probe and branch-and-bound) and with cold rebuilds.  The two
/// runs may pivot through different vertices — the answers must agree.
void fuzzWarmstart(const FuzzOptions &Opts, std::uint64_t InstanceSeed,
                   Findings &F) {
  Rng R(InstanceSeed);
  MachineModel Machine = randomMachine(R);
  Ddg G = randomLoop(R, Machine, Opts.MaxNodes, InstanceSeed);

  const bool WithFaults = !Opts.FaultSpec.empty();
  if (WithFaults) {
    std::string Err;
    if (!FaultInjector::instance().configure(Opts.FaultSpec,
                                             mix64(InstanceSeed), &Err)) {
      std::fprintf(stderr, "bad --faults spec: %s\n", Err.c_str());
      std::exit(2);
    }
  }

  SchedulerOptions WarmOpts;
  WarmOpts.TimeLimitPerT = Opts.TimeLimitPerT;
  WarmOpts.NodeLimitPerT = Opts.NodeLimitPerT;
  WarmOpts.MaxTSlack = Opts.MaxTSlack;
  SchedulerOptions ColdOpts = WarmOpts;
  ColdOpts.WarmStartAcrossT = false;

  SchedulerResult Warm = scheduleLoop(G, Machine, WarmOpts);
  SchedulerResult Cold = scheduleLoop(G, Machine, ColdOpts);

  if (WithFaults) {
    auto Unexplained = [](const SchedulerResult &X) {
      return !X.found() && X.Error.isOk() && X.Attempts.empty() &&
             !X.Cancelled;
    };
    if (Unexplained(Warm))
      F.report(InstanceSeed, Machine, G,
               "faulted warm run returned an unexplained empty result");
    if (Unexplained(Cold))
      F.report(InstanceSeed, Machine, G,
               "faulted cold run returned an unexplained empty result");
    FaultInjector::instance().reset();
  }

  checkResult(F, InstanceSeed, Machine, G, Warm, "warm");
  checkResult(F, InstanceSeed, Machine, G, Cold, "cold");

  // Cross-checks run on fault-free ground truth, as in the other modes: a
  // faulted run must already have downgraded any claim the clean runs
  // would contradict.
  if (WithFaults) {
    Warm = scheduleLoop(G, Machine, WarmOpts);
    Cold = scheduleLoop(G, Machine, ColdOpts);
    checkResult(F, InstanceSeed, Machine, G, Warm, "warm (clean)");
    checkResult(F, InstanceSeed, Machine, G, Cold, "cold (clean)");
  }
  if (Warm.Error.isOk() && Cold.Error.isOk() &&
      Warm.TLowerBound != Cold.TLowerBound)
    F.report(InstanceSeed, Machine, G,
             "T_lb disagrees: warm " + std::to_string(Warm.TLowerBound) +
                 " vs cold " + std::to_string(Cold.TLowerBound));
  if (Warm.ProvenRateOptimal && Cold.ProvenRateOptimal &&
      Warm.Schedule.T != Cold.Schedule.T)
    F.report(InstanceSeed, Machine, G,
             "proven-optimal II mismatch: warm " +
                 std::to_string(Warm.Schedule.T) + " vs cold " +
                 std::to_string(Cold.Schedule.T));
  if (Warm.ProvenRateOptimal && Cold.found() &&
      Cold.Schedule.T < Warm.Schedule.T)
    F.report(InstanceSeed, Machine, G,
             "cold rebuild beat the warm run's proven optimum: " +
                 std::to_string(Cold.Schedule.T) + " < " +
                 std::to_string(Warm.Schedule.T));
  if (Cold.ProvenRateOptimal && Warm.found() &&
      Warm.Schedule.T < Cold.Schedule.T)
    F.report(InstanceSeed, Machine, G,
             "warm run beat the cold rebuild's proven optimum: " +
                 std::to_string(Warm.Schedule.T) + " < " +
                 std::to_string(Cold.Schedule.T));
  if (cleanFullProof(Warm, Opts.MaxTSlack) && Cold.found() &&
      Cold.Schedule.T <= Warm.TLowerBound + Opts.MaxTSlack)
    F.report(InstanceSeed, Machine, G,
             "cold found T=" + std::to_string(Cold.Schedule.T) +
                 " inside a window the warm run proved fully infeasible");
  if (cleanFullProof(Cold, Opts.MaxTSlack) && Warm.found() &&
      Warm.Schedule.T <= Cold.TLowerBound + Opts.MaxTSlack)
    F.report(InstanceSeed, Machine, G,
             "warm found T=" + std::to_string(Warm.Schedule.T) +
                 " inside a window the cold run proved fully infeasible");

  // The strongest check needs both runs uncensored; then the whole per-T
  // chain is deterministic and must match attempt for attempt.  (The
  // schedules themselves may differ — LP degeneracy legitimately lets the
  // two runs extract different optimal vertices.)
  if (uncensored(Warm) && uncensored(Cold)) {
    if (Warm.found() != Cold.found() ||
        Warm.Schedule.T != Cold.Schedule.T ||
        Warm.ProvenRateOptimal != Cold.ProvenRateOptimal)
      F.report(InstanceSeed, Machine, G,
               "uncensored warm/cold answers diverge: warm T=" +
                   std::to_string(Warm.Schedule.T) +
                   (Warm.ProvenRateOptimal ? " (proven)" : "") + " vs cold T=" +
                   std::to_string(Cold.Schedule.T) +
                   (Cold.ProvenRateOptimal ? " (proven)" : "") +
                   " [warm: " + Warm.stopChain() + "] [cold: " +
                   Cold.stopChain() + "]");
    else if (Warm.Attempts.size() != Cold.Attempts.size())
      F.report(InstanceSeed, Machine, G,
               "uncensored warm/cold attempt chains differ in length: [warm: " +
                   Warm.stopChain() + "] [cold: " + Cold.stopChain() + "]");
    else
      for (size_t I = 0; I < Warm.Attempts.size(); ++I)
        if (Warm.Attempts[I].T != Cold.Attempts[I].T ||
            Warm.Attempts[I].Status != Cold.Attempts[I].Status ||
            Warm.Attempts[I].ModuloSkipped != Cold.Attempts[I].ModuloSkipped) {
          F.report(InstanceSeed, Machine, G,
                   "uncensored warm/cold status chains diverge: [warm: " +
                       Warm.stopChain() + "] [cold: " + Cold.stopChain() +
                       "]");
          break;
        }
  }
}

//===----------------------------------------------------------------------===//
// Wire-protocol fuzzing (--mode wire)
//===----------------------------------------------------------------------===//

/// Arbitrary bytes, including NUL and high bit — the codec is
/// length-prefixed, so content must never matter.
std::string randomWireString(Rng &R, int MaxLen) {
  int Len = R.intIn(0, MaxLen);
  std::string S;
  S.reserve(static_cast<std::size_t>(Len));
  for (int I = 0; I < Len; ++I)
    S.push_back(static_cast<char>(R.intIn(0, 255)));
  return S;
}

/// Doubles that stress the f64 bit-pattern contract: signed zeros,
/// infinities, NaN, and ordinary values.
double randomWireDouble(Rng &R) {
  switch (R.intIn(0, 7)) {
  case 0:
    return 0.0;
  case 1:
    return -0.0;
  case 2:
    return std::numeric_limits<double>::infinity();
  case 3:
    return -std::numeric_limits<double>::infinity();
  case 4:
    return std::numeric_limits<double>::quiet_NaN();
  default:
    return R.intIn(-1000000, 1000000) * 0.001;
  }
}

/// A SchedulerResult with every field randomized over its full legal
/// range (the decoder rejects out-of-range enums, so stay in range here;
/// rejection is covered separately by the corruption sweeps).
SchedulerResult randomWireResult(Rng &R) {
  SchedulerResult Res;
  Res.Schedule.T = R.intIn(-2, 100);
  int N = R.intIn(0, 8);
  for (int I = 0; I < N; ++I) {
    Res.Schedule.StartTime.push_back(R.intIn(-1, 500));
    Res.Schedule.Mapping.push_back(R.intIn(-1, 7));
  }
  Res.TDep = R.intIn(0, 50);
  Res.TRes = R.intIn(0, 50);
  Res.TLowerBound = R.intIn(0, 50);
  Res.ProvenRateOptimal = R.chance(0.5);
  Res.VerifyFailed = R.chance(0.1);
  Res.Cancelled = R.chance(0.1);
  Res.Error = Status(
      static_cast<StatusCode>(
          R.intIn(0, static_cast<int>(StatusCode::FaultInjected))),
      randomWireString(R, 32));
  Res.Error.withPhase(randomWireString(R, 12))
      .withT(R.intIn(-1, 50))
      .withInstance(randomWireString(R, 12));
  Res.Fallback = static_cast<FallbackRung>(
      R.intIn(0, static_cast<int>(FallbackRung::IterativeModulo)));
  Res.FaultsSeen = R.chance(0.2);
  Res.CacheHit = R.chance(0.3);
  Res.Retries = R.intIn(0, 3);
  Res.TotalSeconds = randomWireDouble(R);
  Res.TotalNodes = static_cast<std::int64_t>(R.next() >> 16);
  int Attempts = R.intIn(0, 4);
  for (int I = 0; I < Attempts; ++I) {
    TAttempt A;
    A.T = R.intIn(1, 60);
    A.ModuloSkipped = R.chance(0.2);
    A.Status = static_cast<MilpStatus>(
        R.intIn(0, static_cast<int>(MilpStatus::Error)));
    A.StopReason = static_cast<SearchStop>(
        R.intIn(0, static_cast<int>(SearchStop::Fault)));
    A.Seconds = randomWireDouble(R);
    A.Nodes = static_cast<std::int64_t>(R.next() >> 20);
    Res.Attempts.push_back(A);
  }
  return Res;
}

net::ScheduleRequestMsg randomWireRequest(Rng &R) {
  net::ScheduleRequestMsg Req;
  Req.Tenant = randomWireString(R, 24);
  Req.Scheduler = randomWireString(R, 16);
  Req.DeadlineSeconds = randomWireDouble(R);
  Req.MachineText = randomWireString(R, 64);
  Req.LoopText = randomWireString(R, 64);
  return Req;
}

net::ScheduleResponseMsg randomWireResponse(Rng &R) {
  net::ScheduleResponseMsg Resp;
  Resp.Outcome = static_cast<net::ResponseOutcome>(
      R.intIn(0, static_cast<int>(net::ResponseOutcome::Error)));
  Resp.Degradation = static_cast<DegradationLevel>(
      R.intIn(0, static_cast<int>(DegradationLevel::Shed)));
  Resp.Reason = randomWireString(R, 48);
  Resp.HasResult = R.chance(0.6);
  if (Resp.HasResult)
    Resp.Result = randomWireResult(R);
  return Resp;
}

/// The daemon's receive path in miniature: header decode, then payload
/// length/CRC verification.  \returns true when \p Bytes is rejected.
bool wireRejects(std::span<const std::uint8_t> Bytes) {
  net::FrameHeader H;
  if (net::decodeFrameHeader(Bytes, H) != net::FrameError::None)
    return true;
  return net::verifyFramePayload(H, Bytes.subspan(net::FrameHeaderSize)) !=
         net::FrameError::None;
}

/// Frame-level checks for one payload: clean accept, then exhaustive
/// truncation and exhaustive single-bit-flip rejection.
void fuzzWireFrame(std::uint64_t InstanceSeed, Findings &F,
                   net::MessageType Type,
                   std::span<const std::uint8_t> Payload, const char *What) {
  std::vector<std::uint8_t> Frame = net::encodeFrame(Type, Payload);

  net::FrameHeader H;
  net::FrameError E =
      net::decodeFrameHeader(std::span(Frame).first(net::FrameHeaderSize), H);
  if (E != net::FrameError::None) {
    F.report(InstanceSeed, std::string(What) + ": clean header rejected: " +
                               net::frameErrorName(E));
    return;
  }
  if (H.Type != Type || H.PayloadLen != Payload.size()) {
    F.report(InstanceSeed,
             std::string(What) + ": header fields do not round-trip");
    return;
  }
  E = net::verifyFramePayload(H,
                              std::span(Frame).subspan(net::FrameHeaderSize));
  if (E != net::FrameError::None) {
    F.report(InstanceSeed, std::string(What) + ": clean payload rejected: " +
                               net::frameErrorName(E));
    return;
  }

  // Every proper prefix of the frame must be rejected (a short header is
  // a bad header; a short payload fails length/CRC verification).
  for (std::size_t Cut = 0; Cut < Frame.size(); ++Cut) {
    if (!wireRejects(std::span(Frame).first(Cut))) {
      F.report(InstanceSeed, std::string(What) + ": truncation to " +
                                 std::to_string(Cut) + " bytes accepted");
      break;
    }
  }

  // Every single-bit flip — header or payload — must be caught by one of
  // the two CRC-32s (which detect all single-bit errors).
  for (std::size_t Bit = 0; Bit < Frame.size() * 8; ++Bit) {
    Frame[Bit / 8] ^= static_cast<std::uint8_t>(1u << (Bit % 8));
    bool Rejected = wireRejects(Frame);
    Frame[Bit / 8] ^= static_cast<std::uint8_t>(1u << (Bit % 8));
    if (!Rejected) {
      F.report(InstanceSeed, std::string(What) + ": bit flip at bit " +
                                 std::to_string(Bit) + " accepted");
      break;
    }
  }
}

/// One wire-protocol instance: random request and response, byte-exact
/// message round trips, message-level truncation/corruption rejection, and
/// the frame sweeps of fuzzWireFrame.
void fuzzWire(std::uint64_t InstanceSeed, Findings &F) {
  Rng R(InstanceSeed);

  // --- ScheduleRequest message codec.
  net::ScheduleRequestMsg Req = randomWireRequest(R);
  ByteWriter ReqW;
  net::encodeScheduleRequest(ReqW, Req);
  std::vector<std::uint8_t> ReqBytes = ReqW.take();
  {
    ByteReader Rd(ReqBytes);
    net::ScheduleRequestMsg Out;
    if (!net::decodeScheduleRequest(Rd, Out) || !Rd.done()) {
      F.report(InstanceSeed, "request decode(encode()) failed");
    } else {
      ByteWriter W2;
      net::encodeScheduleRequest(W2, Out);
      if (W2.data() != ReqBytes)
        F.report(InstanceSeed, "request re-encode is not byte-exact");
    }
    // Any message-level truncation must fail (the codec is length-
    // prefixed throughout, so a cut always lands inside a promised field).
    std::vector<std::uint8_t> Cut(
        ReqBytes.begin(),
        ReqBytes.begin() +
            R.intIn(0, static_cast<int>(ReqBytes.size()) - 1));
    ByteReader RdCut(Cut);
    net::ScheduleRequestMsg OutCut;
    if (net::decodeScheduleRequest(RdCut, OutCut) && RdCut.done())
      F.report(InstanceSeed, "truncated request message accepted");
    // Trailing garbage must be flagged by done().
    std::vector<std::uint8_t> Extra = ReqBytes;
    Extra.push_back(static_cast<std::uint8_t>(R.intIn(0, 255)));
    ByteReader RdExtra(Extra);
    net::ScheduleRequestMsg OutExtra;
    if (net::decodeScheduleRequest(RdExtra, OutExtra) && RdExtra.done())
      F.report(InstanceSeed, "request with trailing garbage accepted");
  }

  // --- ScheduleResponse message codec.
  net::ScheduleResponseMsg Resp = randomWireResponse(R);
  ByteWriter RespW;
  net::encodeScheduleResponse(RespW, Resp);
  std::vector<std::uint8_t> RespBytes = RespW.take();
  {
    ByteReader Rd(RespBytes);
    net::ScheduleResponseMsg Out;
    if (!net::decodeScheduleResponse(Rd, Out) || !Rd.done()) {
      F.report(InstanceSeed, "response decode(encode()) failed");
    } else {
      ByteWriter W2;
      net::encodeScheduleResponse(W2, Out);
      if (W2.data() != RespBytes)
        F.report(InstanceSeed, "response re-encode is not byte-exact");
    }
    std::vector<std::uint8_t> Cut(
        RespBytes.begin(),
        RespBytes.begin() +
            R.intIn(0, static_cast<int>(RespBytes.size()) - 1));
    ByteReader RdCut(Cut);
    net::ScheduleResponseMsg OutCut;
    if (net::decodeScheduleResponse(RdCut, OutCut) && RdCut.done())
      F.report(InstanceSeed, "truncated response message accepted");

    // Semantic rejection: an out-of-range outcome enum and a
    // non-canonical boolean must both fail, not alias a legal value.
    std::vector<std::uint8_t> BadEnum = RespBytes;
    BadEnum[0] = static_cast<std::uint8_t>(R.intIn(
        static_cast<int>(net::ResponseOutcome::Error) + 1, 255));
    ByteReader RdEnum(BadEnum);
    net::ScheduleResponseMsg OutEnum;
    if (net::decodeScheduleResponse(RdEnum, OutEnum))
      F.report(InstanceSeed, "out-of-range response outcome accepted");
    std::vector<std::uint8_t> BadBool = RespBytes;
    // HasResult sits after outcome, level, and the length-prefixed reason.
    std::size_t BoolAt = 1 + 1 + 4 + Resp.Reason.size();
    BadBool[BoolAt] = static_cast<std::uint8_t>(R.intIn(2, 255));
    ByteReader RdBool(BadBool);
    net::ScheduleResponseMsg OutBool;
    if (net::decodeScheduleResponse(RdBool, OutBool) && RdBool.done())
      F.report(InstanceSeed, "non-canonical HasResult boolean accepted");
  }

  // --- frame codec: exhaustive truncation + bit-flip sweeps over both
  // payloads and over an empty-payload control frame.
  fuzzWireFrame(InstanceSeed, F, net::MessageType::ScheduleRequest, ReqBytes,
                "request frame");
  fuzzWireFrame(InstanceSeed, F, net::MessageType::ScheduleResponse,
                RespBytes, "response frame");
  fuzzWireFrame(InstanceSeed, F, net::MessageType::StatsRequest, {},
                "empty frame");
}

} // namespace

int main(int Argc, char **Argv) {
  FuzzOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (Arg == "--instances") {
      const char *V = Next();
      if (!V)
        return usage(Argv[0]);
      Opts.Instances = std::atoi(V);
    } else if (Arg == "--seed") {
      const char *V = Next();
      if (!V)
        return usage(Argv[0]);
      Opts.Seed = static_cast<std::uint64_t>(std::strtoull(V, nullptr, 10));
    } else if (Arg == "--max-nodes") {
      const char *V = Next();
      if (!V)
        return usage(Argv[0]);
      Opts.MaxNodes = std::atoi(V);
    } else if (Arg == "--mode") {
      const char *V = Next();
      if (!V)
        return usage(Argv[0]);
      Opts.Mode = V;
    } else if (Arg == "--faults") {
      const char *V = Next();
      if (!V)
        return usage(Argv[0]);
      Opts.FaultSpec = V;
    } else if (Arg == "--time-limit") {
      const char *V = Next();
      if (!V)
        return usage(Argv[0]);
      Opts.TimeLimitPerT = std::atof(V);
    } else if (Arg == "--node-limit") {
      const char *V = Next();
      if (!V)
        return usage(Argv[0]);
      Opts.NodeLimitPerT = std::atoll(V);
    } else if (Arg == "--max-t-slack") {
      const char *V = Next();
      if (!V)
        return usage(Argv[0]);
      Opts.MaxTSlack = std::atoi(V);
    } else if (Arg == "--service-every") {
      const char *V = Next();
      if (!V)
        return usage(Argv[0]);
      Opts.ServiceEvery = std::atoi(V);
    } else if (Arg == "--verbose") {
      Opts.Verbose = true;
    } else {
      return usage(Argv[0]);
    }
  }
  if (Opts.Instances < 1 || Opts.MaxNodes < 2)
    return usage(Argv[0]);
  if (Opts.Mode != "all" && Opts.Mode != "ilp-vs-sat" &&
      Opts.Mode != "warmstart" && Opts.Mode != "cgra" &&
      Opts.Mode != "wire")
    return usage(Argv[0]);

  Stopwatch Total;
  Findings F;
  for (int I = 0; I < Opts.Instances; ++I) {
    std::uint64_t InstanceSeed = mix64(Opts.Seed) ^ static_cast<std::uint64_t>(I);
    if (Opts.Mode == "ilp-vs-sat")
      fuzzIlpVsSat(Opts, InstanceSeed, F);
    else if (Opts.Mode == "warmstart")
      fuzzWarmstart(Opts, InstanceSeed, F);
    else if (Opts.Mode == "cgra")
      fuzzCgra(Opts, InstanceSeed, F);
    else if (Opts.Mode == "wire")
      fuzzWire(InstanceSeed, F);
    else
      fuzzOne(Opts, InstanceSeed, F);
    if (Opts.Verbose && (I + 1) % 100 == 0)
      std::fprintf(stderr, "... %d/%d instances, %d findings, %.1fs\n",
                   I + 1, Opts.Instances, F.Count, Total.seconds());
  }

  std::printf("swp_fuzz: %d instances (%s), seed %llu%s, %d findings, "
              "%.1fs\n",
              Opts.Instances, Opts.Mode.c_str(),
              static_cast<unsigned long long>(Opts.Seed),
              Opts.FaultSpec.empty()
                  ? ""
                  : (" (faults: " + Opts.FaultSpec + ")").c_str(),
              F.Count, Total.seconds());
  return F.Count == 0 ? 0 : 1;
}
