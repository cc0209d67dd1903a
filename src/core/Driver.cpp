//===- Driver.cpp - Rate-optimal scheduling driver ------------------------===//

#include "swp/core/Driver.h"

#include "swp/core/CircularArcs.h"
#include "swp/core/Verifier.h"
#include "swp/ddg/Analysis.h"
#include "swp/solver/Simplex.h"
#include "swp/support/FaultInjector.h"
#include "swp/support/Stopwatch.h"

#include <algorithm>
#include <cmath>

using namespace swp;

namespace {

enum class ProbeOutcome { Found, NotFound, LpInfeasible };

/// ilpStepAtT's vectors, recycled across steps on a thread
/// (swp/support/ThreadSpare.h): the formulation handles, the basis hints
/// mapped from the previous T, and the rounding probe's offsets, stage
/// indices, per-type coloring inputs and outputs, candidate and dive
/// bounds.  reset() leaves Vars alone: buildScheduleModel rebuilds it in
/// place.
struct StepStore {
  FormulationVars Vars;
  std::vector<LpBasisStatus> Hints;
  std::vector<int> Offsets, K, Ops, TypeOffsets, Colors, Order;
  std::vector<const ReservationTable *> Tables;
  ModuloSchedule Candidate;
  std::vector<double> DiveLb, DiveUb;
  std::vector<char> FixedOp;

  void reset() {
    for (std::vector<int> *V : {&Offsets, &K, &Ops, &TypeOffsets, &Colors,
                                &Order})
      V->clear();
    Hints.clear();
    Tables.clear();
    Candidate.StartTime.clear();
    Candidate.Mapping.clear();
    DiveLb.clear();
    DiveUb.clear();
    FixedOp.clear();
  }
  std::size_t capacityBytes() const {
    std::size_t Sum = heapBytes(Vars.A) + heapBytes(Vars.K) +
                      heapBytes(Vars.Color) + heapBytes(Vars.Buffers) +
                      heapBytes(Vars.Pairs) + heapBytes(Vars.CMax) +
                      heapBytes(Vars.Inst) + heapBytes(Vars.Route) +
                      heapBytes(Hints) + heapBytes(Tables) +
                      heapBytes(Candidate.StartTime) +
                      heapBytes(Candidate.Mapping) + heapBytes(DiveLb) +
                      heapBytes(DiveUb) + heapBytes(FixedOp);
    for (const std::vector<VarId> &Row : Vars.A)
      Sum += heapBytes(Row);
    for (const std::vector<VarId> &Row : Vars.Inst)
      Sum += heapBytes(Row);
    for (const std::vector<int> *V :
         {&Offsets, &K, &Ops, &TypeOffsets, &Colors, &Order})
      Sum += heapBytes(*V);
    return Sum;
  }
};

/// Completes pattern offsets into a full schedule: the K vector by the
/// longest paths over the k-difference constraints, the mapping by
/// first-fit circular-arc coloring.  \returns false when either step fails.
bool completeSchedule(const Ddg &G, const MachineModel &Machine, int T,
                      MappingKind Mapping, StepStore &S, ModuloSchedule &Out) {
  const int N = G.numNodes();
  const std::vector<int> &Offsets = S.Offsets;
  std::vector<int> &K = S.K;
  if (longestPaths(
          G,
          [&](const DdgEdge &E) {
            return kDifferenceWeight(E, T, Offsets[static_cast<size_t>(E.Src)],
                                     Offsets[static_cast<size_t>(E.Dst)]);
          },
          K, PathDirection::Forward))
    return false; // Positive cycle: offsets dependence-infeasible.

  Out.T = T;
  Out.StartTime.assign(static_cast<size_t>(N), 0);
  for (int I = 0; I < N; ++I)
    Out.StartTime[static_cast<size_t>(I)] =
        K[static_cast<size_t>(I)] * T + Offsets[static_cast<size_t>(I)];
  Out.Mapping.clear();
  if (Mapping == MappingKind::RunTime)
    return true;

  Out.Mapping.assign(static_cast<size_t>(N), 0);
  std::vector<int> &Ops = S.Ops;
  std::vector<int> &TypeOffsets = S.TypeOffsets;
  std::vector<const ReservationTable *> &Tables = S.Tables;
  std::vector<int> &Colors = S.Colors;
  for (int R = 0; R < Machine.numTypes(); ++R) {
    G.nodesOfClass(R, Ops);
    TypeOffsets.clear();
    Tables.clear();
    if (Ops.empty())
      continue;
    for (int Op : Ops) {
      TypeOffsets.push_back(Offsets[static_cast<size_t>(Op)]);
      Tables.push_back(&Machine.tableFor(G.node(Op)));
    }
    firstFitUnitColoring(Tables, T, TypeOffsets, Colors, S.Order);
    for (size_t Ix = 0; Ix < Ops.size(); ++Ix) {
      if (Colors[Ix] >= Machine.type(R).Count)
        return false; // First-fit needed more units than exist.
      Out.Mapping[static_cast<size_t>(Ops[Ix])] = Colors[Ix];
    }
  }
  return true;
}

/// LP-rounding primal probe (see SchedulerOptions::LpRoundingProbe).  Runs
/// on the shared workspace, so the branch-and-bound that usually follows
/// starts from the relaxation's optimal basis instead of from scratch.
///
/// Two stages: static rounding of the relaxation's optimum, then a
/// dive-and-fix walk (fix the most decided instruction to its
/// highest-mass slot, warm re-solve, round again).  The dive makes the
/// probe robust to which degenerate vertex the simplex happens to land
/// on — static rounding alone is hostage to that tie-break.
ProbeOutcome lpRoundingProbe(const Ddg &G, const MachineModel &Machine, int T,
                             MappingKind Mapping, const MilpModel &M,
                             SparseLp &Workspace, StepStore &S,
                             const CancellationToken &Cancel,
                             ModuloSchedule &Out) {
  const FormulationVars &Vars = S.Vars;
  LpResult Lp = Workspace.solve(Cancel);
  if (Lp.Status == LpStatus::Infeasible)
    return ProbeOutcome::LpInfeasible;
  if (Lp.Status != LpStatus::Optimal)
    return ProbeOutcome::NotFound;

  const int N = G.numNodes();
  // Two rounding variants: argmax of the A column, and the rounded
  // expected offset sum_t t*a[t][i].
  auto tryRound = [&](const std::vector<double> &X) {
    std::vector<int> &Offsets = S.Offsets;
    for (int Variant = 0; Variant < 2; ++Variant) {
      Offsets.assign(static_cast<size_t>(N), 0);
      for (int I = 0; I < N; ++I) {
        if (Variant == 0) {
          double BestVal = -1.0;
          for (int Slot = 0; Slot < T; ++Slot) {
            double V = X[static_cast<size_t>(
                Vars.A[static_cast<size_t>(Slot)][static_cast<size_t>(I)])];
            if (V > BestVal + 1e-9) {
              BestVal = V;
              Offsets[static_cast<size_t>(I)] = Slot;
            }
          }
        } else {
          double Expect = 0.0;
          for (int Slot = 0; Slot < T; ++Slot)
            Expect += Slot * X[static_cast<size_t>(
                                 Vars.A[static_cast<size_t>(Slot)]
                                       [static_cast<size_t>(I)])];
          Offsets[static_cast<size_t>(I)] =
              std::min(T - 1, std::max(0, static_cast<int>(
                                              std::llround(Expect))));
        }
      }
      if (!completeSchedule(G, Machine, T, Mapping, S, S.Candidate))
        continue;
      if (verifySchedule(G, Machine, S.Candidate).Ok) {
        Out = S.Candidate;
        return true;
      }
    }
    return false;
  };
  if (tryRound(Lp.X))
    return ProbeOutcome::Found;

  // Dive-and-fix.  Fixing a slot that turns the LP infeasible is undone
  // by forbidding that slot instead (still a relaxation of the remaining
  // subproblem); a small miss budget bounds the thrashing.  Bounds are
  // local — the model is untouched and the caller's branch-and-bound
  // re-solves under its own bound vectors, warm from wherever the dive
  // ended.
  std::vector<double> &Lb = S.DiveLb;
  std::vector<double> &Ub = S.DiveUb;
  Lb.resize(static_cast<size_t>(M.numVars()));
  Ub.resize(static_cast<size_t>(M.numVars()));
  for (int I = 0; I < M.numVars(); ++I) {
    Lb[static_cast<size_t>(I)] = M.var(I).Lb;
    Ub[static_cast<size_t>(I)] = M.var(I).Ub;
  }
  std::vector<char> &FixedOp = S.FixedOp;
  FixedOp.assign(static_cast<size_t>(N), 0);
  int Misses = 0;
  for (int Round = 0; Round < 2 * N; ++Round) {
    int BestOp = -1;
    int BestSlot = 0;
    double BestVal = -1.0;
    for (int I = 0; I < N; ++I) {
      if (FixedOp[static_cast<size_t>(I)])
        continue;
      for (int Slot = 0; Slot < T; ++Slot) {
        double V = Lp.X[static_cast<size_t>(
            Vars.A[static_cast<size_t>(Slot)][static_cast<size_t>(I)])];
        if (V > BestVal) {
          BestVal = V;
          BestOp = I;
          BestSlot = Slot;
        }
      }
    }
    if (BestOp < 0)
      break; // Everything fixed; the round after the last fix already ran.
    VarId AV =
        Vars.A[static_cast<size_t>(BestSlot)][static_cast<size_t>(BestOp)];
    Lb[static_cast<size_t>(AV)] = 1.0;
    LpResult Next = Workspace.solve(Lb, Ub, Cancel);
    if (Next.Status == LpStatus::Infeasible) {
      Lb[static_cast<size_t>(AV)] = 0.0;
      Ub[static_cast<size_t>(AV)] = 0.0;
      if (++Misses > 3)
        return ProbeOutcome::NotFound;
      Next = Workspace.solve(Lb, Ub, Cancel);
      if (Next.Status != LpStatus::Optimal)
        return ProbeOutcome::NotFound;
      Lp = std::move(Next);
      continue;
    }
    if (Next.Status != LpStatus::Optimal)
      return ProbeOutcome::NotFound; // Cancelled or numerical trouble.
    FixedOp[static_cast<size_t>(BestOp)] = 1;
    Lp = std::move(Next);
    if (tryRound(Lp.X))
      return ProbeOutcome::Found;
  }
  return ProbeOutcome::NotFound;
}

/// Role-maps a structural basis from the previous candidate T's formulation
/// onto the new one: variables with the same meaning in both models (the
/// A[t][i] slots of pattern steps both periods have, the K vector, colors,
/// per-pair overlap/sign variables, per-type CMax, per-edge buffers, unit
/// assignments and route indicators) carry their basis status across;
/// everything else starts at its lower bound.
/// Purely a crash-basis hint — seedBasis repairs whatever doesn't pivot.
void mapBasisAcrossT(const TWarmContext &Old, int NewT,
                     const FormulationVars &NewVars, int NewNumVars,
                     std::vector<LpBasisStatus> &Hints) {
  Hints.assign(static_cast<size_t>(NewNumVars), LpBasisStatus::AtLower);
  auto Put = [&](VarId To, VarId From) {
    if (To < 0 || From < 0)
      return;
    if (static_cast<size_t>(From) >= Old.Basis.size() || To >= NewNumVars)
      return;
    Hints[static_cast<size_t>(To)] = Old.Basis[static_cast<size_t>(From)];
  };

  const size_t SharedT = std::min(
      {static_cast<size_t>(std::min(Old.T, NewT)), Old.Vars.A.size(),
       NewVars.A.size()});
  for (size_t Slot = 0; Slot < SharedT; ++Slot) {
    const size_t N = std::min(Old.Vars.A[Slot].size(), NewVars.A[Slot].size());
    for (size_t I = 0; I < N; ++I)
      Put(NewVars.A[Slot][I], Old.Vars.A[Slot][I]);
  }
  for (size_t I = 0, N = std::min(Old.Vars.K.size(), NewVars.K.size()); I < N;
       ++I)
    Put(NewVars.K[I], Old.Vars.K[I]);
  for (size_t I = 0,
              N = std::min(Old.Vars.Color.size(), NewVars.Color.size());
       I < N; ++I)
    Put(NewVars.Color[I], Old.Vars.Color[I]);
  for (size_t R = 0, N = std::min(Old.Vars.CMax.size(), NewVars.CMax.size());
       R < N; ++R)
    Put(NewVars.CMax[R], Old.Vars.CMax[R]);
  for (size_t E = 0,
              N = std::min(Old.Vars.Buffers.size(), NewVars.Buffers.size());
       E < N; ++E)
    Put(NewVars.Buffers[E], Old.Vars.Buffers[E]);

  // Every T lists the same (OpI, OpJ) pairs and, on the topology path, the
  // same T-independent route indicators in the same order, so each carries
  // to the one at its position (nothing carries if the lists differ).
  auto SamePair = [](const FormulationVars::PairVarIds &A,
                     const FormulationVars::PairVarIds &B) {
    return A.OpI == B.OpI && A.OpJ == B.OpJ;
  };
  if (std::equal(NewVars.Pairs.begin(), NewVars.Pairs.end(),
                 Old.Vars.Pairs.begin(), Old.Vars.Pairs.end(), SamePair))
    for (size_t P = 0; P < NewVars.Pairs.size(); ++P) {
      Put(NewVars.Pairs[P].Overlap, Old.Vars.Pairs[P].Overlap);
      Put(NewVars.Pairs[P].Sign, Old.Vars.Pairs[P].Sign);
    }
  auto SameRoute = [](const FormulationVars::RouteVarIds &A,
                      const FormulationVars::RouteVarIds &B) {
    return A.Edge == B.Edge && A.Unit == B.Unit && A.Hops == B.Hops;
  };
  if (std::equal(NewVars.Route.begin(), NewVars.Route.end(),
                 Old.Vars.Route.begin(), Old.Vars.Route.end(), SameRoute))
    for (size_t R = 0; R < NewVars.Route.size(); ++R)
      Put(NewVars.Route[R].Y, Old.Vars.Route[R].Y);

  // Instance-mapping variables are T-independent, so their layout matches
  // across candidate T whenever both models took the topology path.
  for (size_t I = 0,
              N = std::min(Old.Vars.Inst.size(), NewVars.Inst.size());
       I < N; ++I)
    for (size_t U = 0, C = std::min(Old.Vars.Inst[I].size(),
                                    NewVars.Inst[I].size());
         U < C; ++U)
      Put(NewVars.Inst[I][U], Old.Vars.Inst[I][U]);
}

} // namespace

TStepResult swp::ilpStepAtT(const Ddg &G, const MachineModel &Machine, int T,
                            const SchedulerOptions &Opts, TWarmContext *Warm) {
  Stopwatch Watch;
  TStepResult R;
  TAttempt &A = R.Attempt;

  // Malformed inputs become typed errors instead of downstream asserts or
  // garbage models; T < 1 admits no schedule by definition of the
  // initiation interval.
  if (T < 1 || !Machine.acceptsDdg(G)) {
    A.Status = MilpStatus::Error;
    A.StopReason = SearchStop::Fault;
    R.Error = T < 1 ? Status(StatusCode::InvalidInput,
                             "initiation interval T must be >= 1")
                    : invalidLoopError(G);
    R.Error.withPhase("schedule-at-t").withT(T).withInstance(G.name());
    return R;
  }

  FaultInjector &FI = FaultInjector::instance();
  // Fault injection: the MILP model allocation fails.
  if (FI.shouldFire(FaultSite::Alloc)) {
    A.Status = MilpStatus::Error;
    A.StopReason = SearchStop::Fault;
    R.Error = Status(StatusCode::ResourceExhausted,
                     "injected allocation failure building the MILP model")
                  .withPhase("model-build")
                  .withT(T)
                  .withInstance(G.name());
    return R;
  }
  // Fault soundness: an injected spurious "LP infeasible" must never turn
  // into a fake infeasibility proof (and from there into a false
  // rate-optimality claim), so snapshot the site's fire count and
  // downgrade any Infeasible answer produced while it moved.  Concurrent
  // solves can inflate the delta; that only downgrades more, never less.
  const std::uint64_t SpuriousBefore = FI.fired(FaultSite::LpInfeasible);
  auto Faulted = [&FI, SpuriousBefore]() {
    return FI.fired(FaultSite::LpInfeasible) > SpuriousBefore;
  };

  const bool Optimizing = Opts.ColoringObjective || Opts.MinimizeBuffers;
  FormulationOptions FOpts;
  FOpts.Mapping = Opts.Mapping;
  FOpts.ColoringObjective = Opts.ColoringObjective;
  FOpts.BufferObjective = Opts.MinimizeBuffers;
  // Pure feasibility checks can pin one instruction's pattern step
  // (rotation symmetry breaking); the optimizing path keeps the full
  // symmetric model because its warm start is lifted from an un-rotated
  // schedule.
  FOpts.BreakRotation = !Optimizing;
  Recycled<StepStore> Store;
  FormulationVars &Vars = Store->Vars;
  MilpModel M = buildScheduleModel(G, Machine, T, FOpts, Vars);

  MilpOptions MOpts;
  MOpts.Cancel = Opts.Cancel;
  if (Optimizing) {
    // Get any feasible schedule first (cheap: probe + first-incumbent
    // search) and lift it into a warm start, so a censored optimization
    // never returns anything worse than plain feasibility scheduling.
    // The recursive call also advances the cross-T context, so the
    // optimizing workspace below seeds from a same-T basis.
    SchedulerOptions FeasOpts = Opts;
    FeasOpts.ColoringObjective = false;
    FeasOpts.MinimizeBuffers = false;
    TStepResult Feas = ilpStepAtT(G, Machine, T, FeasOpts, Warm);
    A.Lp += Feas.Attempt.Lp;
    if (Feas.Attempt.Status == MilpStatus::Infeasible) {
      A.Status = MilpStatus::Infeasible;
      A.Seconds = Watch.seconds();
      return R;
    }
    if (Feas.Attempt.Status == MilpStatus::Optimal ||
        Feas.Attempt.Status == MilpStatus::Feasible)
      MOpts.WarmStart = scheduleToAssignment(G, Machine, T, FOpts, Vars,
                                             Feas.Schedule, M.numVars());
  }

  // One LP workspace serves the rounding probe and every branch-and-bound
  // node of this T; presolve runs once here.  Seeded from the previous T's
  // final basis when the caller carries a context.
  SparseLp Workspace(M);
  if (Warm && Warm->valid() && M.valid()) {
    mapBasisAcrossT(*Warm, T, Vars, M.numVars(), Store->Hints);
    Workspace.seedBasis(Store->Hints);
  }
  auto Finish = [&](MilpStatus S) {
    A.Status = S;
    A.Seconds = Watch.seconds();
    const LpStats &WS = Workspace.stats();
    A.Lp.Pivots += WS.totalPivots();
    A.Lp.Refactorizations += WS.Refactorizations;
    A.Lp.Solves += WS.Solves;
    A.Lp.WarmSolves += WS.WarmSolves;
    if (Warm && M.valid()) {
      // The context takes this T's handles; the store keeps the previous
      // T's for its capacity.
      Warm->T = T;
      std::swap(Warm->Vars, Vars);
      const std::span<const LpBasisStatus> Basis = Workspace.structuralBasis();
      Warm->Basis.assign(Basis.begin(), Basis.end());
    }
    return std::move(R);
  };

  // The rounding probe completes offsets with a topology-blind first-fit
  // coloring; on a constraining topology its candidates essentially never
  // verify, so skip straight to branch and bound there.
  const bool ProbeUseful = !(Opts.Mapping == MappingKind::Fixed &&
                             Machine.topologyConstrains());
  if (!Optimizing && Opts.LpRoundingProbe && ProbeUseful) {
    // Primal probe: can settle feasibility (rounded incumbent) or
    // infeasibility (LP relaxation empty) without branching.  The dive
    // stage gets a slice of the per-T budget via a nested deadline so a
    // slow dive can never starve the branch-and-bound that follows.
    CancellationSource ProbeDeadline(Opts.Cancel);
    if (Opts.TimeLimitPerT < 1e8)
      ProbeDeadline.setDeadlineAfter(Opts.TimeLimitPerT * 0.25);
    ProbeOutcome Probe =
        lpRoundingProbe(G, Machine, T, Opts.Mapping, M, Workspace, *Store,
                        ProbeDeadline.token(), R.Schedule);
    if (Probe == ProbeOutcome::LpInfeasible) {
      if (Faulted()) {
        A.StopReason = SearchStop::Fault;
        return Finish(MilpStatus::Unknown);
      }
      return Finish(MilpStatus::Infeasible);
    }
    if (Probe == ProbeOutcome::Found)
      return Finish(MilpStatus::Optimal);
  }

  MOpts.TimeLimitSec = Opts.TimeLimitPerT;
  MOpts.NodeLimit = Opts.NodeLimitPerT;
  MOpts.StopAtFirstIncumbent = !Optimizing;
  MilpResult Res = solveMilp(Workspace, M, MOpts);
  A.Nodes = Res.Nodes;
  A.StopReason = Res.StopReason;
  if (Res.Status == MilpStatus::Error)
    R.Error = Status(Res.Error)
                  .withPhase("milp")
                  .withT(T)
                  .withInstance(G.name());
  if (Res.Status == MilpStatus::Infeasible && Faulted()) {
    A.StopReason = SearchStop::Fault;
    return Finish(MilpStatus::Unknown);
  }
  if (Res.hasSolution())
    R.Schedule = extractSchedule(G, Machine, T, FOpts, Vars, Res.X);
  return Finish(Res.Status);
}

MilpStatus swp::scheduleAtT(const Ddg &G, const MachineModel &Machine, int T,
                            const SchedulerOptions &Opts, ModuloSchedule &Out,
                            double *SecondsOut, std::int64_t *NodesOut,
                            SearchStop *StopOut, Status *ErrorOut,
                            TWarmContext *Warm, LpEffort *EffortOut) {
  TStepResult R = ilpStepAtT(G, Machine, T, Opts, Warm);
  if (SecondsOut)
    *SecondsOut = R.Attempt.Seconds;
  if (NodesOut)
    *NodesOut = R.Attempt.Nodes;
  if (StopOut)
    *StopOut = R.Attempt.StopReason;
  if (ErrorOut)
    *ErrorOut = std::move(R.Error);
  if (EffortOut)
    *EffortOut = R.Attempt.Lp;
  if (R.Schedule.T > 0)
    Out = std::move(R.Schedule);
  return R.Attempt.Status;
}

Status swp::invalidLoopError(const Ddg &G) {
  return Status(StatusCode::InvalidInput,
                "DDG is malformed or uses op classes the machine does not "
                "define")
      .withInstance(G.name());
}

SchedulerResult swp::searchRateOptimal(const Ddg &G,
                                       const MachineModel &Machine,
                                       const SchedulerOptions &Opts,
                                       std::span<const TStep> Steps) {
  SchedulerResult Result;
  // Validate before any analysis: recurrenceMii asserts on zero-distance
  // cycles, and a DDG referencing op classes the machine lacks has no
  // reservation tables to schedule against.  Such inputs return a typed
  // error, never an abort.
  if (!Machine.acceptsDdg(G)) {
    Result.Error = invalidLoopError(G).withPhase("driver");
    return Result;
  }
  Result.TDep = recurrenceMii(G);
  Result.TRes = Machine.resourceMii(G);
  Result.TLowerBound = std::max({1, Result.TDep, Result.TRes});

  const std::uint64_t FiredBefore = FaultInjector::instance().totalFired();
  Stopwatch Total;
  bool Done = false;
  for (int T = Result.TLowerBound;
       !Done && T <= Result.TLowerBound + Opts.MaxTSlack; ++T) {
    if (Opts.Cancel.cancelled()) {
      Result.Cancelled = true;
      break;
    }
    if (!Machine.moduloFeasible(G, T)) {
      // No fixed-assignment schedule can exist at this T (paper Sec. 2);
      // the skip is itself a proof of infeasibility.
      TAttempt Skip;
      Skip.T = T;
      Skip.ModuloSkipped = true;
      Skip.Status = MilpStatus::Infeasible;
      Result.Attempts.push_back(Skip);
      continue;
    }

    // The steps answer T in turn: a refutation settles it, a censored or
    // unknown answer hands it to the next step.
    for (const TStep &Step : Steps) {
      TStepResult Answer = Step(T);
      TAttempt &Attempt = Answer.Attempt;
      Attempt.T = T;
      Result.TotalNodes += Attempt.Nodes;
      Result.TotalLp += Attempt.Lp;
      Result.Attempts.push_back(Attempt);

      if (Attempt.StopReason == SearchStop::Cancelled)
        Result.Cancelled = true;

      if (Attempt.Status == MilpStatus::Error) {
        // Keep the first typed error for the caller.  Invalid input will
        // fail identically at every T, so stop; transient faults (injected
        // allocation death) leave other steps and larger T worth trying,
        // but this answer is censored.
        const bool Invalid = Answer.Error.code() == StatusCode::InvalidInput;
        if (Result.Error.isOk())
          Result.Error = std::move(Answer.Error);
        if (Invalid) {
          Done = true;
          break;
        }
        continue;
      }

      if (Attempt.Status == MilpStatus::Optimal ||
          Attempt.Status == MilpStatus::Feasible) {
        Done = true;
        if (!verifySchedule(G, Machine, Answer.Schedule).Ok) {
          Result.VerifyFailed = true;
          break;
        }
        Result.Schedule = std::move(Answer.Schedule);
        Result.ProvenRateOptimal = Result.refutesBelow(T);
        break;
      }
      if (Result.Cancelled) {
        Done = true; // A cancelled attempt proves nothing; larger T too.
        break;
      }
      if (Attempt.refutes())
        break;
    }
  }
  Result.FaultsSeen =
      FaultInjector::instance().totalFired() > FiredBefore;
  Result.TotalSeconds = Total.seconds();
  return Result;
}

SchedulerResult swp::scheduleLoop(const Ddg &G, const MachineModel &Machine,
                                  const SchedulerOptions &Opts) {
  TWarmContext Warm;
  return searchRateOptimal(G, Machine, Opts,
                           ilpSweepStep(G, Machine, Opts, Warm));
}

TStep swp::ilpSweepStep(const Ddg &G, const MachineModel &Machine,
                        const SchedulerOptions &Opts, TWarmContext &Warm) {
  // Basis carry across the candidate-T sweep: consecutive T solve nearly
  // the same model, so each workspace starts from the previous T's basis.
  TWarmContext *WarmPtr = Opts.WarmStartAcrossT ? &Warm : nullptr;
  return [&G, &Machine, &Opts, WarmPtr](int T) {
    return ilpStepAtT(G, Machine, T, Opts, WarmPtr);
  };
}

const char *swp::fallbackRungName(FallbackRung R) {
  switch (R) {
  case FallbackRung::None:
    return "none";
  case FallbackRung::SlackModulo:
    return "slack-modulo";
  case FallbackRung::IterativeModulo:
    return "iterative-modulo";
  }
  return "?";
}

bool SchedulerResult::refutes(int T) const {
  return std::any_of(Attempts.begin(), Attempts.end(), [T](const TAttempt &A) {
    return A.T == T && A.refutes();
  });
}

bool SchedulerResult::refutesBelow(int T) const {
  for (int Below = TLowerBound; Below < T; ++Below)
    if (!refutes(Below))
      return false;
  return true;
}

std::string SchedulerResult::stopChain() const {
  std::string Out;
  for (const TAttempt &A : Attempts) {
    if (!Out.empty())
      Out += "; ";
    Out += "T=" + std::to_string(A.T) + " ";
    if (A.ModuloSkipped) {
      Out += "modulo-skip";
      continue;
    }
    Out += milpStatusName(A.Status);
    if (A.StopReason != SearchStop::None)
      Out += std::string("/") + searchStopName(A.StopReason);
  }
  if (Out.empty())
    Out = Cancelled ? "cancelled before any attempt" : "no attempts";
  return Out;
}
