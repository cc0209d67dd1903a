//===- library.cpp - Library workloads: corpus-ilp and corpus-sat ---------===//
//
// The compiler's view: loops arrive as text, are parsed once (set-up), and
// are scheduled one at a time through exactSchedule on the ppc604.  Every
// solve is bounded by a deterministic per-T node or conflict budget (the
// wall-clock limit is set far beyond reach), so answers and counters repeat
// exactly and only the machine's own timing variation is left.
//
// The input is several generated 1066-loop corpora, the first from the
// seed itself: per-loop cost is heavy-tailed (one loop of a corpus can cost
// more than the other 1065 together), so statistics over one corpus move
// with the seed far more than with the code.
//
// Untraced run: two passes over all loops, then passes over all but the
// slowest twentieth until the time budget is spent; each loop's time is its
// fastest solve.  Rates use the geometric mean of those times and the tail
// is a fixed percentile with hundreds of loops beyond it, for the same
// reason.
//
// Traced run: one untraced pass through exactSchedule, then a replay that
// calls each layer's public function itself in the driver's order (T_lb
// analysis, then per T the modulo check, formulation, presolve, root LP
// and scheduleAtT with a carried warm context — or SatScheduler::solveAtT
// — then the verifier), once with spans off and once with spans on.  The
// replays' counters must equal the untraced pass's.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "swp/core/Driver.h"
#include "swp/core/Formulation.h"
#include "swp/core/Verifier.h"
#include "swp/ddg/Analysis.h"
#include "swp/machine/Catalog.h"
#include "swp/sat/SatScheduler.h"
#include "swp/service/SchedulerService.h"
#include "swp/sim/DynamicSimulator.h"
#include "swp/solver/Presolve.h"
#include "swp/solver/Simplex.h"
#include "swp/textio/Parser.h"
#include "swp/workload/Corpus.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

using namespace swp;

namespace perfbench {
namespace {

/// A library workload's fixed parameters.
struct LibraryConfig {
  ExactEngine Engine;
  /// Per-T node (ILP) or conflict (SAT) budget: the only bound on a solve.
  std::int64_t BudgetPerT;
  /// Candidate T values tried above T_lb.
  int MaxTSlack;
  /// Generated corpora per run and loops per corpus.
  int Corpora;
  int LoopsPerCorpus;
};

// Budgets well below 500 nodes / 2000 conflicts per T, so that a pass over
// four corpora fits a run many times: at 500 nodes per T one loop took
// 11.1 s of a 13.5 s pass.  corpus-sat's window is 3 because its slowest
// loops spend seconds per T in cycle-blocking re-solves the conflict budget
// does not bound.
constexpr LibraryConfig CorpusIlp{ExactEngine::Ilp, 100, 6, 4, 1066};
constexpr LibraryConfig CorpusSat{ExactEngine::Sat, 100, 3, 4, 1066};

/// The first FullPasses passes solve every loop; later ones repeat only the
/// loops whose first solve was among the cheapest RepeatedShare.  The slowest twentieth holds
/// most of a pass's time (one loop can cost more than the rest of its
/// corpus) but lies beyond the median and the tail percentile, so sparing
/// it buys every other loop many more solves in the same run length.
constexpr int FullPasses = 2;
constexpr double RepeatedShare = 0.95;

SchedulerOptions optionsFor(const LibraryConfig &C) {
  SchedulerOptions O;
  O.NodeLimitPerT = C.BudgetPerT;
  O.MaxTSlack = C.MaxTSlack;
  O.TimeLimitPerT = TimeLimitPerT;
  return O;
}

void recordKnobs(const LibraryConfig &C, Report &Rep) {
  Rep.knob("engine", C.Engine == ExactEngine::Sat ? "sat" : "ilp");
  Rep.knob("budget_per_t", C.BudgetPerT);
  Rep.knob("max_t_slack", C.MaxTSlack);
  Rep.knob("corpora", C.Corpora);
  Rep.knob("loops_per_corpus", C.LoopsPerCorpus);
  Rep.knob("full_passes", FullPasses);
  Rep.knob("repeated_share", RepeatedShare);
  Rep.knob("time_limit_per_t", TimeLimitPerT);
  Rep.knob("replay_iterations", ReplayIterations);
  Rep.knob("setup_burst", SetupBurst);
  Rep.knob("tail_percentile", TailPercentile);
}

/// Generated inputs as text: what a compiler hands the scheduler.
struct Inputs {
  std::string MachineText;
  std::vector<std::string> LoopTexts;
  std::size_t Bytes = 0;
};

/// The models the solves run on.
struct Parsed {
  MachineModel Machine;
  std::vector<Ddg> Loops;
};

Inputs generateInputs(const RunContext &Ctx, const LibraryConfig &C) {
  Inputs In;
  MachineModel M = ppc604Like();
  In.MachineText = printMachine(M);
  for (int K = 0; K < C.Corpora; ++K) {
    CorpusOptions CO;
    CO.NumLoops = C.LoopsPerCorpus;
    CO.Seed = static_cast<std::uint64_t>(Ctx.Seed) +
              static_cast<std::uint64_t>(K) * 0x9e3779b97f4a7c15ULL;
    for (const Ddg &G : generateCorpus(M, CO))
      In.LoopTexts.push_back(printLoop(G, M));
  }
  In.Bytes = In.MachineText.size();
  for (const std::string &T : In.LoopTexts)
    In.Bytes += T.size();
  return In;
}

/// The set-up a compiler pays before its first answer: parsing the machine
/// and every loop.  \returns nothing on a parse error.
std::optional<Parsed> parseInputs(const Inputs &In) {
  Expected<MachineModel> M = parseMachineText(In.MachineText);
  if (!M.ok())
    return std::nullopt;
  Parsed P{std::move(*M), {}};
  P.Loops.reserve(In.LoopTexts.size());
  for (const std::string &Text : In.LoopTexts) {
    Expected<Ddg> G = parseLoopText(Text, P.Machine);
    if (!G.ok())
      return std::nullopt;
    P.Loops.push_back(std::move(*G));
  }
  return P;
}

/// The parts of a result that must repeat exactly.
struct Outcome {
  int T = 0;
  bool Proven = false;
  std::int64_t Nodes = 0;
  std::int64_t Pivots = 0;
  bool operator==(const Outcome &) const = default;
};

Outcome outcomeOf(const SchedulerResult &R) {
  return Outcome{R.Schedule.T, R.ProvenRateOptimal, R.TotalNodes,
                 R.TotalLp.Pivots};
}

/// Independent re-check of one returned answer.  \returns true when the
/// loop has a schedule both the verifier and the cycle-level replay accept.
bool checkAnswer(const Ddg &G, const MachineModel &M, const SchedulerResult &R,
                 Report &Rep, const std::string &Where) {
  if (R.VerifyFailed || !R.Error.isOk()) {
    Rep.fail(Where + ": " +
             (R.VerifyFailed
                  ? std::string("engine verifier rejected its schedule")
                  : R.Error.str()));
    return false;
  }
  if (!R.found())
    return false;
  VerifyResult V = verifySchedule(G, M, R.Schedule);
  if (!V.Ok) {
    Rep.fail(Where + ": verifySchedule: " + V.Error);
    return false;
  }
  std::string SimErr;
  if (!replaySchedule(G, M, R.Schedule, ReplayIterations, &SimErr)) {
    Rep.fail(Where + ": replaySchedule: " + SimErr);
    return false;
  }
  return true;
}

/// Deterministic outcome totals of one pass.
void addOutcomes(const std::vector<SchedulerResult> &Results,
                 const std::vector<bool> &Verified, ExactEngine Engine,
                 Report &Rep) {
  double IiSum = 0.0, Nodes = 0.0, Pivots = 0.0;
  int Found = 0, Proven = 0;
  for (std::size_t I = 0; I < Results.size(); ++I) {
    const SchedulerResult &R = Results[I];
    Nodes += static_cast<double>(R.TotalNodes);
    Pivots += static_cast<double>(R.TotalLp.Pivots);
    if (R.ProvenRateOptimal)
      ++Proven;
    if (Verified[I]) {
      ++Found;
      IiSum += R.Schedule.T;
    }
  }
  const double N = static_cast<double>(Results.size());
  Rep.Outcomes["loops"] = N;
  Rep.Outcomes["mean_ii"] = Found ? IiSum / Found : 0.0;
  Rep.Outcomes["proven_ratio"] = Proven / N;
  Rep.Outcomes["scheduled_ratio"] = Found / N;
  if (Engine == ExactEngine::Sat) {
    Rep.Outcomes["conflicts"] = Nodes;
  } else {
    Rep.Outcomes["nodes"] = Nodes;
    Rep.Outcomes["pivots"] = Pivots;
  }
}

/// Layer accumulators of one traced replay pass (seconds and counts).
struct Layers {
  double Tlb = 0, Modulo = 0, Formulation = 0, Presolve = 0, RootLp = 0,
         AtT = 0, Bnb = 0, Verify = 0, Encode = 0, SatSolve = 0;
  std::int64_t ModuloSkips = 0, Rows = 0, Cols = 0, Nnz = 0,
               PresolveDecided = 0, Pivots = 0, Refactorizations = 0,
               LpSolves = 0, LpWarm = 0, Nodes = 0, CensoredT = 0,
               VerifyRejects = 0, SatVars = 0, SatClauses = 0,
               SolveCalls = 0, Conflicts = 0, Decisions = 0,
               Propagations = 0, CycleBlocks = 0, Models = 0, Decoded = 0;
};

/// Replays the ILP driver's T-sweep for one loop through each layer's
/// public entry point.  \returns the same outcome scheduleLoop would.
Outcome replayIlp(Tracer &Tr, int Request, const Ddg &G, const MachineModel &M,
                  const SchedulerOptions &Opts, Layers &L) {
  Tracer::Scope Loop(Tr, "loop", Request);
  Outcome O;
  int TDep, TRes;
  {
    Tracer::Scope S(Tr, "ddg.tlb");
    TDep = recurrenceMii(G);
    TRes = M.resourceMii(G);
    L.Tlb += S.elapsed();
  }
  const int TLb = std::max({1, TDep, TRes});
  TWarmContext Warm;
  bool AllBelowProven = true;
  for (int T = TLb; T <= TLb + Opts.MaxTSlack; ++T) {
    Tracer::Scope Attempt(Tr, "t_attempt");
    bool Feasible;
    {
      Tracer::Scope S(Tr, "machine.modulo_feasible");
      Feasible = M.moduloFeasible(G, T);
      L.Modulo += S.elapsed();
    }
    if (!Feasible) {
      ++L.ModuloSkips;
      continue;
    }
    // The formulation scheduleAtT builds for a pure feasibility solve.
    FormulationOptions FOpts;
    FOpts.Mapping = Opts.Mapping;
    FOpts.ColoringObjective = false;
    FOpts.BreakRotation = true;
    FormulationVars Vars;
    double Inner = 0.0;
    std::optional<MilpModel> Model;
    {
      Tracer::Scope S(Tr, "core.formulation");
      Model.emplace(buildScheduleModel(G, M, T, FOpts, Vars));
      Inner += S.elapsed();
      L.Formulation += S.elapsed();
    }
    L.Rows += Model->numConstraints();
    L.Cols += Model->numVars();
    for (const ModelConstraint &C : Model->constraints())
      L.Nnz += static_cast<std::int64_t>(C.Expr.terms().size());
    {
      Tracer::Scope S(Tr, "solver.presolve");
      PresolveInfo P = presolveModel(*Model);
      if (P.Infeasible)
        ++L.PresolveDecided;
      Inner += S.elapsed();
      L.Presolve += S.elapsed();
    }
    {
      Tracer::Scope S(Tr, "solver.root_lp");
      (void)solveLp(*Model);
      Inner += S.elapsed();
      L.RootLp += S.elapsed();
    }
    ModuloSchedule Cand;
    double Seconds = 0.0;
    std::int64_t Nodes = 0;
    SearchStop Stop = SearchStop::None;
    Status Err;
    LpEffort Effort;
    MilpStatus St;
    {
      Tracer::Scope S(Tr, "solver.schedule_at_t");
      St = scheduleAtT(G, M, T, Opts, Cand, &Seconds, &Nodes, &Stop, &Err,
                       Opts.WarmStartAcrossT ? &Warm : nullptr, &Effort);
      L.AtT += S.elapsed();
      // scheduleAtT rebuilds the model, presolves and solves the root LP
      // itself; what is left of its time is the probe and B&B.
      L.Bnb += std::max(0.0, S.elapsed() - Inner);
    }
    O.Nodes += Nodes;
    O.Pivots += Effort.Pivots;
    L.Nodes += Nodes;
    L.Pivots += Effort.Pivots;
    L.Refactorizations += Effort.Refactorizations;
    L.LpSolves += Effort.Solves;
    L.LpWarm += Effort.WarmSolves;
    if (Stop != SearchStop::None)
      ++L.CensoredT;
    if (St == MilpStatus::Error) {
      AllBelowProven = false;
      if (Err.code() == StatusCode::InvalidInput)
        break;
      continue;
    }
    if (St == MilpStatus::Optimal || St == MilpStatus::Feasible) {
      Tracer::Scope S(Tr, "core.verify");
      VerifyResult V = verifySchedule(G, M, Cand);
      L.Verify += S.elapsed();
      if (!V.Ok) {
        ++L.VerifyRejects;
        break;
      }
      O.T = T;
      O.Proven = AllBelowProven;
      break;
    }
    if (St != MilpStatus::Infeasible)
      AllBelowProven = false;
  }
  return O;
}

/// Replays satScheduleLoop for one loop: SatScheduler::solveAtT per T with
/// SatStats snapshots, then a standalone CnfEncoder over the attempted T
/// for encoding time and sizes.
Outcome replaySat(Tracer &Tr, int Request, const Ddg &G, const MachineModel &M,
                  const SchedulerOptions &Opts, Layers &L) {
  Tracer::Scope Loop(Tr, "loop", Request);
  Outcome O;
  int TDep, TRes;
  {
    Tracer::Scope S(Tr, "ddg.tlb");
    TDep = recurrenceMii(G);
    TRes = M.resourceMii(G);
    L.Tlb += S.elapsed();
  }
  const int TLb = std::max({1, TDep, TRes});
  struct Tried {
    int T;
    int CycleBlocks;
    bool Decoded;
  };
  std::vector<Tried> Attempted;
  double SolveSeconds = 0.0;
  std::optional<SatScheduler> Engine;
  {
    Tracer::Scope S(Tr, "sat.solve_at_t");
    Engine.emplace(G, M, Opts.Mapping);
    SolveSeconds += S.elapsed();
  }
  bool AllBelowProven = true;
  for (int T = TLb; T <= TLb + Opts.MaxTSlack; ++T) {
    Tracer::Scope Attempt(Tr, "t_attempt");
    bool Feasible;
    {
      Tracer::Scope S(Tr, "machine.modulo_feasible");
      Feasible = M.moduloFeasible(G, T);
      L.Modulo += S.elapsed();
    }
    if (!Feasible) {
      ++L.ModuloSkips;
      continue;
    }
    const SatStats Before = Engine->stats();
    SatAttempt A;
    {
      Tracer::Scope S(Tr, "sat.solve_at_t");
      A = Engine->solveAtT(T, Opts.TimeLimitPerT, Opts.NodeLimitPerT,
                           Opts.Cancel);
      SolveSeconds += S.elapsed();
    }
    const SatStats &After = Engine->stats();
    L.Decisions += After.Decisions - Before.Decisions;
    L.Propagations += After.Propagations - Before.Propagations;
    L.Conflicts += A.Conflicts;
    L.CycleBlocks += A.CycleBlocks;
    O.Nodes += A.Conflicts;
    if (A.Stop != SearchStop::None)
      ++L.CensoredT;
    const bool Found =
        A.Status == MilpStatus::Optimal || A.Status == MilpStatus::Feasible;
    Attempted.push_back({T, A.CycleBlocks, Found});
    if (A.Status == MilpStatus::Error) {
      AllBelowProven = false;
      if (A.Error.code() == StatusCode::InvalidInput)
        break;
      continue;
    }
    if (Found) {
      Tracer::Scope S(Tr, "core.verify");
      VerifyResult V = verifySchedule(G, M, A.Schedule);
      L.Verify += S.elapsed();
      if (!V.Ok) {
        ++L.VerifyRejects;
        break;
      }
      O.T = T;
      O.Proven = AllBelowProven;
      break;
    }
    if (A.Status != MilpStatus::Infeasible)
      AllBelowProven = false;
  }
  L.SatSolve += SolveSeconds;
  {
    Tracer::Scope S(Tr, "sat.encode");
    CdclSolver Solver;
    CnfEncoder Enc(G, M, Opts.Mapping, Solver);
    for (const Tried &A : Attempted) {
      if (Enc.triviallyInfeasible(A.T))
        continue;
      (void)Enc.selector(A.T);
      // One solve per model found plus the call that ended the attempt.
      L.SolveCalls += A.CycleBlocks + 1;
      L.Models += A.CycleBlocks + (A.Decoded ? 1 : 0);
      L.Decoded += A.Decoded ? 1 : 0;
    }
    L.SatVars += Solver.numVars();
    L.SatClauses += Solver.numClauses();
    L.Encode += S.elapsed();
  }
  return O;
}

/// Wall times of the traced run's three passes over the loops.
struct PassWalls {
  double Untraced = 0.0;  // exactSchedule
  double ReplayOff = 0.0; // layer replay, spans off
  double ReplayOn = 0.0;  // layer replay, spans on
};

void setLayerMetrics(bool Sat, const Inputs &In, const Layers &L,
                     double ParseSeconds, const PassWalls &W, Report &Rep) {
  const std::size_t N = In.LoopTexts.size();
  const double TracedWall = W.ReplayOn;
  auto Ms = [](double S) { return S * 1e3; };
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  Rep.set("textio.parse_ms", Ms(ParseSeconds), "ms", N);
  Rep.set("textio.print_us", 0.0, "us", 0);
  Rep.set("textio.bytes", static_cast<double>(In.Bytes), "bytes", N);
  Rep.set("machine.build_ms", 0.0, "ms", 1,
          "the ppc604 text parse is in textio.parse_ms");
  Rep.set("machine.modulo_skips", static_cast<double>(L.ModuloSkips), "count",
          N);
  Rep.set("ddg.tlb_ms", Ms(L.Tlb), "ms", N);
  Rep.set("core.formulation_ms", Ms(L.Formulation), "ms", N);
  Rep.set("core.model_rows", static_cast<double>(L.Rows), "count", N);
  Rep.set("core.model_cols", static_cast<double>(L.Cols), "count", N);
  Rep.set("core.model_nnz", static_cast<double>(L.Nnz), "count", N);
  Rep.set("solver.presolve_ms", Ms(L.Presolve), "ms", N);
  Rep.set("solver.presolve_decided", static_cast<double>(L.PresolveDecided),
          "count", N);
  Rep.set("solver.root_lp_ms", Ms(L.RootLp), "ms", N);
  Rep.set("solver.pivots", static_cast<double>(L.Pivots), "count", N);
  Rep.set("solver.refactorizations", static_cast<double>(L.Refactorizations),
          "count", N);
  Rep.set("solver.warm_solve_ratio",
          Ratio(static_cast<double>(L.LpWarm), static_cast<double>(L.LpSolves)),
          "ratio", static_cast<std::size_t>(L.LpSolves));
  Rep.set("solver.bnb_ms", Ms(L.Bnb), "ms", N);
  Rep.set("solver.bnb_nodes", static_cast<double>(Sat ? 0 : L.Nodes), "count",
          N);
  Rep.set("solver.censored_t", static_cast<double>(Sat ? 0 : L.CensoredT),
          "count", N);
  double Cdcl = std::max(0.0, L.SatSolve - L.Encode);
  Rep.set("sat.encode_ms", Ms(L.Encode), "ms", N);
  Rep.set("sat.vars", static_cast<double>(L.SatVars), "count", N);
  Rep.set("sat.clauses", static_cast<double>(L.SatClauses), "count", N);
  Rep.set("sat.cdcl_ms", Ms(Cdcl), "ms", N);
  Rep.set("sat.solve_calls", static_cast<double>(L.SolveCalls), "count", N);
  Rep.set("sat.conflicts", static_cast<double>(L.Conflicts), "count", N);
  Rep.set("sat.decisions", static_cast<double>(L.Decisions), "count", N);
  Rep.set("sat.propagations", static_cast<double>(L.Propagations), "count", N);
  Rep.set("sat.cycle_blocks", static_cast<double>(L.CycleBlocks), "count", N);
  Rep.set("sat.decode_ratio",
          Ratio(static_cast<double>(L.Decoded), static_cast<double>(L.Models)),
          "ratio", static_cast<std::size_t>(L.Models));
  Rep.set("core.verify_ms", Ms(L.Verify), "ms", N);
  Rep.set("core.verify_rejects", static_cast<double>(L.VerifyRejects), "count",
          N);
  // Share of the traced pass that some layer call covers; the rest is the
  // benchmark's own loop and span bookkeeping.
  double Covered = L.Tlb + L.Modulo + L.Verify +
                   (Sat ? L.SatSolve + L.Encode
                        : L.Formulation + L.Presolve + L.RootLp + L.AtT);
  Rep.set("bench.coverage", Ratio(Covered, TracedWall), "ratio", N,
          "layer calls over the traced pass");
  Rep.set("bench.trace_overhead", Ratio(W.ReplayOn, W.ReplayOff) - 1.0,
          "ratio", N, "replay with spans over replay without, minus 1");
  // The replay repeats work scheduleAtT also does (formulation, presolve,
  // root LP; a second CNF build), so it is slower than exactSchedule
  // without being traced.
  Rep.Notes["replay_over_untraced"] = std::to_string(W.ReplayOff / W.Untraced);
  Rep.set("bench.generator_lag_ms", 0.0, "ms", 0, "closed loop: no generator");
  for (const char *Name :
       {"heuristics.ms", "heuristics.found_ratio", "service.fingerprint_us",
        "service.cache_lookup_us", "service.cache_insert_us",
        "service.cache_hit_ratio", "service.cache_evictions",
        "service.admission_us", "service.degraded", "service.queue_high_water",
        "service.result_bytes", "service.persist_load_ms",
        "service.persist_save_ms", "service.snapshot_bytes", "net.decode_us",
        "net.encode_us", "net.bytes_in", "net.bytes_out", "net.frame_errors",
        "net.unattributed_us", "service.solve_ms"})
    Rep.set(Name, 0.0, "", 0, "no work on this workload");
  Rep.Outcomes["cycle_blocks"] = static_cast<double>(L.CycleBlocks);
  Rep.Outcomes["model_rows"] = static_cast<double>(L.Rows);
  Rep.Outcomes["model_cols"] = static_cast<double>(L.Cols);
  Rep.Outcomes["model_nnz"] = static_cast<double>(L.Nnz);
  Rep.Outcomes["clauses"] = static_cast<double>(L.SatClauses);

  std::printf("layer shares of the traced pass (%.3f s; without spans %.3f s; "
              "exactSchedule %.3f s):\n",
              W.ReplayOn, W.ReplayOff, W.Untraced);
  auto Share = [&](const char *Name, double S) {
    std::printf("  %-34s %10.3f ms  %6.2f%%\n", Name, S * 1e3,
                100.0 * Ratio(S, TracedWall));
  };
  Share("ddg.tlb", L.Tlb);
  Share("machine.modulo_feasible", L.Modulo);
  if (Sat) {
    Share("sat.encode (standalone)", L.Encode);
    Share("sat.cdcl (solveAtT - encode)", Cdcl);
  } else {
    Share("core.formulation", L.Formulation);
    Share("solver.presolve", L.Presolve);
    Share("solver.root_lp", L.RootLp);
    Share("solver.bnb (rest of scheduleAtT)", L.Bnb);
  }
  Share("core.verify", L.Verify);
  Share("unattributed", std::max(0.0, TracedWall - Covered));
}

} // namespace

Report runLibraryWorkload(const RunContext &Ctx) {
  const bool Sat = Ctx.Workload == "corpus-sat";
  const LibraryConfig &Cfg = Sat ? CorpusSat : CorpusIlp;
  const SchedulerOptions Opts = optionsFor(Cfg);
  Report Rep;
  recordKnobs(Cfg, Rep);
  const Inputs In = generateInputs(Ctx, Cfg);
  const std::size_t N = In.LoopTexts.size();
  Rep.Notes["loops"] = std::to_string(N);

  // Set-up: fresh repetitions, a burst before the first pass and one after
  // every pass.  Each repetition frees the previous one's models before
  // the clock starts; the first burst's last models are the ones solved.
  std::vector<double> Setup;
  auto SetupRepetitions = [&](std::optional<Parsed> &Into, int Count) {
    for (int Rp = 0; Rp < Count; ++Rp) {
      Into.reset();
      const double T0 = nowSeconds();
      std::optional<Parsed> Got = parseInputs(In);
      Setup.push_back(nowSeconds() - T0);
      if (!Got)
        return false;
      Into = std::move(Got);
    }
    return true;
  };
  std::optional<Parsed> P;
  if (!SetupRepetitions(P, SetupBurst)) {
    Rep.fail("generated input failed to parse");
    return Rep;
  }
  const MachineModel &Machine = P->Machine;
  const std::vector<Ddg> &Loops = P->Loops;

  // Solves the loops \p Which, one at a time, into Results[I].
  auto RunPass = [&](const std::vector<std::size_t> &Which,
                     std::vector<SchedulerResult> &Results,
                     std::vector<std::vector<double>> *Times,
                     std::vector<std::vector<double>> *Cpu) {
    Results.resize(N);
    for (std::size_t I : Which) {
      const double C0 = threadCpuSeconds();
      const double T0 = nowSeconds();
      Results[I] = exactSchedule(Loops[I], Machine, Opts, Cfg.Engine);
      if (Times) {
        (*Times)[I].push_back(nowSeconds() - T0);
        (*Cpu)[I].push_back(threadCpuSeconds() - C0);
      }
    }
  };
  std::vector<std::size_t> All(N);
  for (std::size_t I = 0; I < N; ++I)
    All[I] = I;

  // Independent checks of one pass's answers.
  std::vector<SchedulerResult> First;
  std::vector<bool> Verified(N, false);
  auto CheckPass = [&](const std::vector<SchedulerResult> &Results) {
    for (std::size_t I = 0; I < N; ++I)
      Verified[I] = checkAnswer(Loops[I], Machine, Results[I], Rep,
                                "loop " + std::to_string(I));
  };

  // ILP and SAT are both exact: wherever both prove rate-optimality they
  // must agree on the II.  corpus-sat re-solves the loops it proved with
  // corpus-ilp's settings to check that, untimed but within the run's time
  // budget.
  auto CrossCheck = [&] {
    if (!Sat)
      return;
    const SchedulerOptions IlpOpts = optionsFor(CorpusIlp);
    int Compared = 0;
    for (std::size_t I = 0; I < N; ++I) {
      if (!First[I].ProvenRateOptimal)
        continue;
      SchedulerResult R =
          exactSchedule(Loops[I], Machine, IlpOpts, CorpusIlp.Engine);
      if (!R.ProvenRateOptimal)
        continue;
      ++Compared;
      if (R.Schedule.T != First[I].Schedule.T)
        Rep.fail("loop " + std::to_string(I) + ": proven II " +
                 std::to_string(First[I].Schedule.T) + " vs " +
                 std::to_string(R.Schedule.T) + " from corpus-ilp's engine");
    }
    Rep.Notes["cross_engine_compared"] = std::to_string(Compared);
  };

  if (!Ctx.Trace) {
    std::vector<std::vector<double>> Times(N), Cpu(N);
    std::vector<std::size_t> Repeated;
    std::vector<double> PassSeconds;
    SpeedScale Speed;
    double Rss = 0.0;
    const double Start = nowSeconds();
    Speed.sample();
    for (;;) {
      const int Pass = static_cast<int>(PassSeconds.size()) + 1;
      const std::vector<std::size_t> &Which =
          Pass <= FullPasses ? All : Repeated;
      std::vector<SchedulerResult> Results;
      const double P0 = nowSeconds();
      RunPass(Which, Results, &Times, &Cpu);
      PassSeconds.push_back(nowSeconds() - P0);
      if (Pass == 1) {
        First = std::move(Results);
        // Peak memory of the fixed work (later passes repeat it), so the
        // figure does not depend on how many passes the time allowed.
        Rss = peakRssMb();
        Repeated = All;
        std::stable_sort(Repeated.begin(), Repeated.end(),
                         [&](std::size_t A, std::size_t B) {
                           return Times[A][0] < Times[B][0];
                         });
        Repeated.resize(static_cast<std::size_t>(
            std::ceil(RepeatedShare * static_cast<double>(N))));
        std::sort(Repeated.begin(), Repeated.end());
        CrossCheck();
      } else {
        for (std::size_t I : Which)
          if (!(outcomeOf(Results[I]) == outcomeOf(First[I])))
            Rep.fail("loop " + std::to_string(I) + ": pass " +
                     std::to_string(Pass) +
                     " differs from pass 1 (II, proof, nodes or pivots)");
      }
      Speed.sample();
      std::optional<Parsed> Spare;
      if (!SetupRepetitions(Spare, 1))
        Rep.fail("generated input failed to parse");
      const double Elapsed = nowSeconds() - Start;
      if (Pass >= FullPasses && Elapsed + PassSeconds.back() > Ctx.Seconds)
        break;
    }
    CheckPass(First);
    const int Passes = static_cast<int>(PassSeconds.size());

    // Each loop's time is its fastest solve: the program's own cost recurs
    // in every solve, while a stall of the shared machine rarely hits the
    // same loop in all of them.
    std::vector<double> Best(N), CpuBest(N);
    double Sum = 0.0;
    for (std::size_t I = 0; I < N; ++I) {
      Best[I] = *std::min_element(Times[I].begin(), Times[I].end());
      CpuBest[I] = *std::min_element(Cpu[I].begin(), Cpu[I].end());
      Sum += Best[I];
    }
    char TailNote[64];
    std::snprintf(
        TailNote, sizeof(TailNote), "p%g, %zu loops beyond", TailPercentile,
        static_cast<std::size_t>(N * (100.0 - TailPercentile) / 100.0));
    const std::string Over = "over per-loop minima of " +
                             std::to_string(Times[Repeated[0]].size()) +
                             " solves (" + std::to_string(FullPasses) +
                             " for the slowest loops)";
    Rep.set("loops_per_s", 1.0 / geometricMean(Best), "1/s", N,
            "1 / geometric-mean loop time, " + Over);
    Rep.set("latency_p50_ms", median(Best) * 1e3, "ms", N, Over);
    Rep.set("latency_tail_ms", percentileOf(Best, TailPercentile) * 1e3, "ms",
            N, TailNote);
    Rep.set("cpu_ms_per_loop", geometricMean(CpuBest) * 1e3, "ms", N,
            "geometric-mean thread CPU time per loop");
    addOutcomes(First, Verified, Cfg.Engine, Rep);
    Rep.set("mean_ii", Rep.Outcomes["mean_ii"], "cycles",
            static_cast<std::size_t>(Rep.Outcomes["scheduled_ratio"] * N +
                                     0.5));
    Rep.set("proven_ratio", Rep.Outcomes["proven_ratio"], "ratio", N);
    Rep.set("scheduled_ratio", Rep.Outcomes["scheduled_ratio"], "ratio", N);
    Rep.set("setup_s", median(Setup), "s", Setup.size(),
            "median of fresh set-up repetitions");
    Rep.set("peak_rss_mb", Rss, "MB", 1);
    scaleTimings(Rep, Speed);
    Rep.Attempted += static_cast<std::int64_t>(N) * FullPasses +
                     static_cast<std::int64_t>(Repeated.size()) *
                         (Passes - FullPasses);
    Rep.Notes["passes"] = std::to_string(Passes);

    // Pass times show whether the machine drifted within the run.
    std::string PassNote;
    for (double S : PassSeconds)
      PassNote += (PassNote.empty() ? "" : " ") + std::to_string(S);
    Rep.Notes["pass_seconds"] = PassNote;
    // Where a pass's time goes: the arithmetic rate and the slowest loops.
    Rep.Notes["arithmetic_loops_per_s"] = std::to_string(N / Sum);
    std::vector<std::size_t> Order = All;
    std::sort(Order.begin(), Order.end(),
              [&](std::size_t A, std::size_t B) { return Best[A] > Best[B]; });
    std::string SlowestLoops;
    for (std::size_t I = 0; I < std::min<std::size_t>(5, N); ++I) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%s%zu:%.1fms", I ? " " : "", Order[I],
                    Best[Order[I]] * 1e3);
      SlowestLoops += Buf;
    }
    Rep.Notes["slowest_loops"] = SlowestLoops;
  } else {
    // Untraced pass, then the replay of the same loops with spans off and
    // with spans on; the two replays differ only in the span recording.
    PassWalls W;
    const double U0 = nowSeconds();
    RunPass(All, First, nullptr, nullptr);
    W.Untraced = nowSeconds() - U0;
    CheckPass(First);
    addOutcomes(First, Verified, Cfg.Engine, Rep);
    CrossCheck();

    Tracer Off(false), On(true);
    Layers LOff, L;
    for (std::size_t I = 0; I < N; ++I) {
      // Each loop is replayed twice in a row, the traced replay first on
      // every other loop, so that warm caches and drift favour neither.
      for (std::size_t K = 0; K < 2; ++K) {
        const bool Traced = (I + K) % 2 == 1;
        Tracer &Tr = Traced ? On : Off;
        Layers &Acc = Traced ? L : LOff;
        const double T0 = nowSeconds();
        Outcome O = Sat ? replaySat(Tr, static_cast<int>(I), Loops[I],
                                    Machine, Opts, Acc)
                        : replayIlp(Tr, static_cast<int>(I), Loops[I],
                                    Machine, Opts, Acc);
        (Traced ? W.ReplayOn : W.ReplayOff) += nowSeconds() - T0;
        Outcome U = outcomeOf(First[I]);
        if (Sat)
          U.Pivots = 0;
        if (!(O == U))
          Rep.fail("loop " + std::to_string(I) + ": " +
                   (Traced ? "traced" : "untraced") +
                   " replay counters differ from exactSchedule's");
      }
    }
    setLayerMetrics(Sat, In, L, median(Setup), W, Rep);
    Rep.Attempted += static_cast<std::int64_t>(N) * 3;
    std::string Path = Ctx.WorkDir + "/trace-" + Ctx.Workload + "-seed" +
                       std::to_string(Ctx.Seed) + ".json";
    if (!On.writeJson(Path, Ctx.Workload, Ctx.Seed))
      Rep.fail("could not write " + Path);
    Rep.Notes["spans"] = std::to_string(On.spans().size());
    std::printf("bench.trace_overhead %.4f  bench.coverage %.4f  (%zu spans)\n",
                Rep.Metrics["bench.trace_overhead"].Value,
                Rep.Metrics["bench.coverage"].Value, On.spans().size());
  }

  return Rep;
}

} // namespace perfbench
