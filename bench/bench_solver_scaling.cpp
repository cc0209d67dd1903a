//===- bench_solver_scaling.cpp - Solver scaling (google-benchmark) -------===//
//
// Scaling study (DESIGN.md): wall-clock of the substrate and the schedulers
// as problem size grows — LP relaxation solves, full MILP feasibility at
// T_lb, IMS, and the enumerative search, each against loop size N.
//
// With SWP_PERF_SMOKE set the binary runs the CI regression gate instead
// of the google-benchmark suite: the rate-optimal ILP and the SAT engine
// solve a pinned tiny corpus under deterministic limits and the *counter*
// totals (simplex pivots, B&B nodes, LP solves; CDCL conflicts, decisions,
// propagations, cycle blocks) are compared against the checked-in
// reference (bench/perf_smoke_ref.json, override via SWP_PERF_REF).  Any
// counter exceeding 3x its reference — or a drop in found/proven loops —
// fails the gate.  Counters, not wall-clock, so a loaded CI runner cannot
// flake the job; SWP_PERF_SMOKE=write regenerates the reference after an
// intentional solver change.
//
//===----------------------------------------------------------------------===//

#include "swp/core/Driver.h"
#include "swp/core/Formulation.h"
#include "swp/core/Verifier.h"
#include "swp/ddg/Analysis.h"
#include "swp/heuristics/Enumerative.h"
#include "swp/heuristics/IterativeModulo.h"
#include "swp/machine/Catalog.h"
#include "swp/sat/SatScheduler.h"
#include "swp/service/SchedulerService.h"
#include "swp/solver/BranchAndBound.h"
#include "swp/solver/Simplex.h"
#include "swp/workload/Corpus.h"

#include "swp/support/Format.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace swp;

namespace {

/// A deterministic loop of exactly \p N nodes (the generator's size cap and
/// floor coincide).
Ddg loopOfSize(int N, std::uint64_t Seed) {
  MachineModel M = ppc604Like();
  CorpusOptions Opts;
  Opts.MaxNodes = N;
  Opts.MeanExtraNodes = 1000.0; // Saturate the cap: size is exactly N.
  return generateRandomLoop(M, Seed, Opts);
}

void BM_LpRelaxation(benchmark::State &State) {
  MachineModel M = ppc604Like();
  Ddg G = loopOfSize(static_cast<int>(State.range(0)), 42);
  int T = std::max({1, recurrenceMii(G), M.resourceMii(G)});
  while (!M.moduloFeasible(G, T))
    ++T;
  FormulationOptions FOpts;
  FormulationVars Vars;
  MilpModel Model = buildScheduleModel(G, M, T, FOpts, Vars);
  for (auto _ : State) {
    LpResult R = solveLp(Model);
    benchmark::DoNotOptimize(R.Objective);
  }
  State.counters["vars"] = Model.numVars();
  State.counters["rows"] = Model.numConstraints();
}
BENCHMARK(BM_LpRelaxation)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void BM_MilpAtTlb(benchmark::State &State) {
  MachineModel M = ppc604Like();
  Ddg G = loopOfSize(static_cast<int>(State.range(0)), 43);
  SchedulerOptions Opts;
  Opts.TimeLimitPerT = 5.0;
  Opts.MaxTSlack = 0; // Only the first feasibility question.
  for (auto _ : State) {
    SchedulerResult R = scheduleLoop(G, M, Opts);
    benchmark::DoNotOptimize(R.TotalNodes);
  }
}
BENCHMARK(BM_MilpAtTlb)->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Arg(12);

/// The CDCL SAT backend answering the same first feasibility question as
/// BM_MilpAtTlb (same loops, same window) — the two curves are directly
/// comparable.
void BM_SatAtTlb(benchmark::State &State) {
  MachineModel M = ppc604Like();
  Ddg G = loopOfSize(static_cast<int>(State.range(0)), 43);
  SchedulerOptions Opts;
  Opts.TimeLimitPerT = 5.0;
  Opts.MaxTSlack = 0;
  for (auto _ : State) {
    SchedulerResult R = satScheduleLoop(G, M, Opts);
    benchmark::DoNotOptimize(R.TotalNodes);
  }
}
BENCHMARK(BM_SatAtTlb)->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Arg(12);

/// Full rate-optimal search, both engines, as loop size grows: what the
/// portfolio's exact rung costs per engine.
void BM_IlpFullSearch(benchmark::State &State) {
  MachineModel M = ppc604Like();
  Ddg G = loopOfSize(static_cast<int>(State.range(0)), 48);
  SchedulerOptions Opts;
  Opts.TimeLimitPerT = 5.0;
  Opts.MaxTSlack = 8;
  for (auto _ : State) {
    SchedulerResult R = scheduleLoop(G, M, Opts);
    benchmark::DoNotOptimize(R.TotalNodes);
  }
}
BENCHMARK(BM_IlpFullSearch)->Arg(4)->Arg(8)->Arg(12);

void BM_SatFullSearch(benchmark::State &State) {
  MachineModel M = ppc604Like();
  Ddg G = loopOfSize(static_cast<int>(State.range(0)), 48);
  SchedulerOptions Opts;
  Opts.TimeLimitPerT = 5.0;
  Opts.MaxTSlack = 8;
  for (auto _ : State) {
    SchedulerResult R = satScheduleLoop(G, M, Opts);
    benchmark::DoNotOptimize(R.TotalNodes);
  }
}
BENCHMARK(BM_SatFullSearch)->Arg(4)->Arg(8)->Arg(12);

void BM_IterativeModulo(benchmark::State &State) {
  MachineModel M = ppc604Like();
  Ddg G = loopOfSize(static_cast<int>(State.range(0)), 44);
  for (auto _ : State) {
    SchedulerResult R = iterativeModuloSchedule(G, M);
    benchmark::DoNotOptimize(R.Schedule.T);
  }
}
BENCHMARK(BM_IterativeModulo)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void BM_Enumerative(benchmark::State &State) {
  MachineModel M = ppc604Like();
  Ddg G = loopOfSize(static_cast<int>(State.range(0)), 45);
  EnumOptions Opts;
  Opts.TimeLimitPerT = 5.0;
  for (auto _ : State) {
    SchedulerResult R = enumerativeSchedule(G, M, Opts);
    benchmark::DoNotOptimize(R.TotalNodes);
  }
}
BENCHMARK(BM_Enumerative)->Arg(4)->Arg(6)->Arg(8);

void BM_RecurrenceMii(benchmark::State &State) {
  Ddg G = loopOfSize(static_cast<int>(State.range(0)), 46);
  for (auto _ : State) {
    int Mii = recurrenceMii(G);
    benchmark::DoNotOptimize(Mii);
  }
}
BENCHMARK(BM_RecurrenceMii)->Arg(8)->Arg(16)->Arg(24);

/// Batch throughput of the scheduling service over a fixed 64-loop corpus
/// slice as the worker count grows (Arg = jobs).  Real time, not CPU time:
/// the point is wall-clock parallel speedup.  The cache is off so every
/// iteration solves cold.
void BM_ServiceBatch(benchmark::State &State) {
  MachineModel M = ppc604Like();
  CorpusOptions COpts;
  COpts.NumLoops = 64;
  std::vector<Ddg> Corpus = generateCorpus(M, COpts);
  ServiceOptions SvcOpts;
  SvcOpts.Jobs = static_cast<int>(State.range(0));
  SvcOpts.Sched.TimeLimitPerT = 2.0;
  SvcOpts.Sched.MaxTSlack = 12;
  SvcOpts.UseCache = false;
  for (auto _ : State) {
    SchedulerService Svc(M, SvcOpts);
    std::vector<SchedulerResult> Results = Svc.scheduleAll(Corpus);
    benchmark::DoNotOptimize(Results.size());
  }
  State.counters["loops"] = static_cast<double>(Corpus.size());
  State.counters["jobs"] = static_cast<double>(SvcOpts.Jobs);
}
BENCHMARK(BM_ServiceBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_VerifierThroughput(benchmark::State &State) {
  MachineModel M = ppc604Like();
  Ddg G = loopOfSize(static_cast<int>(State.range(0)), 47);
  SchedulerResult R = iterativeModuloSchedule(G, M);
  if (!R.found()) {
    State.SkipWithError("no schedule");
    return;
  }
  for (auto _ : State) {
    auto V = verifySchedule(G, M, R.Schedule);
    benchmark::DoNotOptimize(V.Ok);
  }
}
BENCHMARK(BM_VerifierThroughput)->Arg(8)->Arg(16);

//===----------------------------------------------------------------------===//
// CI perf-smoke gate (SWP_PERF_SMOKE)
//===----------------------------------------------------------------------===//

/// Deterministic effort totals of the ILP and the SAT engine over the
/// pinned smoke corpus.
struct SmokeTotals {
  long long Pivots = 0;
  long long Nodes = 0;
  long long Solves = 0;
  long long Refactorizations = 0;
  long long Found = 0;
  long long Proven = 0;
  double Seconds = 0.0; // Informational only — never gated.
  long long SatConflicts = 0;
  long long SatDecisions = 0;
  long long SatPropagations = 0;
  long long SatCycleBlocks = 0;
  long long SatFound = 0;
  long long SatProven = 0;
  double SatSeconds = 0.0; // Informational only — never gated.
};

/// The SAT engine's rate-optimal sweep over \p G, as satScheduleLoop runs
/// it, with a step that also reads the solver's decision and propagation
/// counters around each attempt.
void addSatSmokeLoop(const Ddg &G, const MachineModel &M,
                     const SchedulerOptions &Opts, SmokeTotals &Tot) {
  SatScheduler Engine(G, M, Opts.Mapping);
  SchedulerResult R = searchRateOptimal(G, M, Opts, [&](int T) {
    const SatStats Before = Engine.stats();
    SatAttempt A = Engine.solveAtT(T, Opts.TimeLimitPerT, Opts.NodeLimitPerT,
                                   Opts.Cancel);
    const SatStats &After = Engine.stats();
    Tot.SatDecisions += After.Decisions - Before.Decisions;
    Tot.SatPropagations += After.Propagations - Before.Propagations;
    Tot.SatCycleBlocks += A.CycleBlocks;
    return satStepResult(std::move(A));
  });
  Tot.SatConflicts += R.TotalNodes;
  Tot.SatFound += R.found() ? 1 : 0;
  Tot.SatProven += R.ProvenRateOptimal ? 1 : 0;
  Tot.SatSeconds += R.TotalSeconds;
}

SmokeTotals runSmokeCorpus() {
  MachineModel M = ppc604Like();
  CorpusOptions COpts;
  COpts.NumLoops = 48;
  COpts.MaxNodes = 16;
  std::vector<Ddg> Corpus = generateCorpus(M, COpts);

  // Only deterministic limits: a node (conflict) budget bounds a runaway
  // regression, a wall-clock limit would make the counters depend on
  // machine speed.
  SchedulerOptions Opts;
  Opts.TimeLimitPerT = 1e9;
  Opts.NodeLimitPerT = 5000;
  Opts.MaxTSlack = 6;

  SmokeTotals T;
  for (const Ddg &G : Corpus) {
    SchedulerResult R = scheduleLoop(G, M, Opts);
    T.Pivots += R.TotalLp.Pivots;
    T.Nodes += R.TotalNodes;
    T.Solves += R.TotalLp.Solves;
    T.Refactorizations += R.TotalLp.Refactorizations;
    T.Found += R.found() ? 1 : 0;
    T.Proven += R.ProvenRateOptimal ? 1 : 0;
    T.Seconds += R.TotalSeconds;
  }
  for (const Ddg &G : Corpus)
    addSatSmokeLoop(G, M, Opts, T);
  return T;
}

std::string smokeJson(const SmokeTotals &T) {
  return strFormat("{\n  \"pivots\": %lld,\n  \"nodes\": %lld,\n"
                   "  \"solves\": %lld,\n  \"refactorizations\": %lld,\n"
                   "  \"found\": %lld,\n  \"proven\": %lld,\n"
                   "  \"seconds\": %.3f,\n"
                   "  \"sat_conflicts\": %lld,\n  \"sat_decisions\": %lld,\n"
                   "  \"sat_propagations\": %lld,\n"
                   "  \"sat_cycle_blocks\": %lld,\n"
                   "  \"sat_found\": %lld,\n  \"sat_proven\": %lld,\n"
                   "  \"sat_seconds\": %.3f\n}\n",
                   T.Pivots, T.Nodes, T.Solves, T.Refactorizations, T.Found,
                   T.Proven, T.Seconds, T.SatConflicts, T.SatDecisions,
                   T.SatPropagations, T.SatCycleBlocks, T.SatFound,
                   T.SatProven, T.SatSeconds);
}

/// Pulls `"key": <integer>` out of the flat reference JSON; \returns -1
/// when the key is missing (treated as a malformed reference).
long long refField(const std::string &Json, const char *Key) {
  std::string Needle = std::string("\"") + Key + "\":";
  std::size_t At = Json.find(Needle);
  if (At == std::string::npos)
    return -1;
  return std::atoll(Json.c_str() + At + Needle.size());
}

int perfSmoke(bool WriteRef) {
  const char *RefEnv = std::getenv("SWP_PERF_REF");
  std::string RefPath = RefEnv ? RefEnv : "bench/perf_smoke_ref.json";

  SmokeTotals Cur = runSmokeCorpus();
  std::printf("perf-smoke totals (48-loop pinned corpus):\n%s",
              smokeJson(Cur).c_str());

  if (WriteRef) {
    std::FILE *Out = std::fopen(RefPath.c_str(), "w");
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", RefPath.c_str());
      return 1;
    }
    std::fputs(smokeJson(Cur).c_str(), Out);
    std::fclose(Out);
    std::printf("wrote reference %s\n", RefPath.c_str());
    return 0;
  }

  std::FILE *In = std::fopen(RefPath.c_str(), "r");
  if (!In) {
    std::fprintf(stderr, "error: reference %s not found (run with "
                         "SWP_PERF_SMOKE=write to create it)\n",
                 RefPath.c_str());
    return 1;
  }
  std::string Ref;
  char Buf[256];
  while (std::size_t Got = std::fread(Buf, 1, sizeof(Buf), In))
    Ref.append(Buf, Got);
  std::fclose(In);

  int Failures = 0;
  auto GateCeiling = [&](const char *Key, long long Have) {
    long long Want = refField(Ref, Key);
    if (Want < 0) {
      std::fprintf(stderr, "FAIL %s: missing from reference\n", Key);
      ++Failures;
      return;
    }
    long long Limit = 3 * (Want < 1 ? 1 : Want);
    std::printf("  %-16s %8lld vs ref %8lld (limit %lld) %s\n", Key, Have,
                Want, Limit, Have > Limit ? "FAIL" : "ok");
    if (Have > Limit)
      ++Failures;
  };
  auto GateFloor = [&](const char *Key, long long Have) {
    long long Want = refField(Ref, Key);
    if (Want < 0) {
      std::fprintf(stderr, "FAIL %s: missing from reference\n", Key);
      ++Failures;
      return;
    }
    std::printf("  %-16s %8lld vs ref %8lld (floor) %s\n", Key, Have, Want,
                Have < Want ? "FAIL" : "ok");
    if (Have < Want)
      ++Failures;
  };
  std::printf("gate (>3x a counter fails; fewer found/proven fails):\n");
  GateCeiling("pivots", Cur.Pivots);
  GateCeiling("nodes", Cur.Nodes);
  GateCeiling("solves", Cur.Solves);
  GateFloor("found", Cur.Found);
  GateFloor("proven", Cur.Proven);
  GateCeiling("sat_conflicts", Cur.SatConflicts);
  GateCeiling("sat_decisions", Cur.SatDecisions);
  GateCeiling("sat_propagations", Cur.SatPropagations);
  GateCeiling("sat_cycle_blocks", Cur.SatCycleBlocks);
  GateFloor("sat_found", Cur.SatFound);
  GateFloor("sat_proven", Cur.SatProven);
  if (Failures) {
    std::fprintf(stderr, "perf-smoke: %d gate failure(s)\n", Failures);
    return 1;
  }
  std::printf("perf-smoke: ok\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (const char *Mode = std::getenv("SWP_PERF_SMOKE"))
    return perfSmoke(std::strcmp(Mode, "write") == 0);
  benchmark::Initialize(&Argc, Argv);
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
