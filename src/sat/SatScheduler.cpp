//===- SatScheduler.cpp - SAT-backed rate-optimal search ------------------===//

#include "swp/sat/SatScheduler.h"

#include "swp/support/FaultInjector.h"
#include "swp/support/Stopwatch.h"

using namespace swp;

SatScheduler::SatScheduler(const Ddg &Graph, const MachineModel &M,
                           MappingKind Kind)
    : G(Graph), Machine(M), Mapping(Kind) {
  Valid = Machine.acceptsDdg(G);
  if (Valid) {
    Solver = std::make_unique<CdclSolver>();
    Encoder = std::make_unique<CnfEncoder>(G, Machine, Mapping, *Solver);
  }
}

SatScheduler::~SatScheduler() = default;

const SatStats &SatScheduler::stats() const {
  static const SatStats Empty;
  return Solver ? Solver->stats() : Empty;
}

SatAttempt SatScheduler::solveAtT(int T, double TimeLimitSec,
                                  std::int64_t ConflictLimit,
                                  CancellationToken Cancel) {
  Stopwatch Watch;
  SatAttempt A;
  auto finish = [&](MilpStatus St, SearchStop Stop) {
    A.Status = St;
    A.Stop = Stop;
    A.Seconds = Watch.seconds();
    return A;
  };

  if (!Valid || T < 1) {
    A.Error = Valid ? Status(StatusCode::InvalidInput,
                             "initiation interval T must be >= 1")
                    : invalidLoopError(G);
    A.Error.withPhase("sat-schedule-at-t").withT(T).withInstance(G.name());
    return finish(MilpStatus::Error, SearchStop::Fault);
  }

  FaultInjector &FI = FaultInjector::instance();
  // Fault injection: building the CNF slice fails, like the MILP model
  // allocation in scheduleAtT.
  if (FI.shouldFire(FaultSite::Alloc)) {
    A.Error = Status(StatusCode::ResourceExhausted,
                     "injected allocation failure building the CNF encoding")
                  .withPhase("cnf-build")
                  .withT(T)
                  .withInstance(G.name());
    return finish(MilpStatus::Error, SearchStop::Fault);
  }

  if (Encoder->triviallyInfeasible(T))
    return finish(MilpStatus::Infeasible, SearchStop::None);

  // Fault soundness, belt and braces: the solver already reports Unknown
  // (never Unsat) when the injected conflict fault fires, but mirror the
  // driver's downgrade anyway so no future refactor can turn an injected
  // death into a fake infeasibility proof.
  const std::uint64_t FaultsBefore = FI.fired(FaultSite::SatConflict);

  const SatLit Sel = Encoder->selector(T);
  const std::int64_t ConflictsStart = Solver->stats().Conflicts;

  for (;;) {
    A.Conflicts = Solver->stats().Conflicts - ConflictsStart;
    if (Cancel.cancelled())
      return finish(MilpStatus::Unknown, SearchStop::Cancelled);
    const double Remaining = TimeLimitSec - Watch.seconds();
    if (Remaining <= 0.0)
      return finish(MilpStatus::Unknown, SearchStop::TimeLimit);
    SatLimits Limits;
    Limits.TimeLimitSec = Remaining;
    Limits.ConflictLimit = ConflictLimit - A.Conflicts;
    Limits.Cancel = Cancel;
    if (Limits.ConflictLimit <= 0)
      return finish(MilpStatus::Unknown, SearchStop::NodeLimit);

    const SatStatus St = Solver->solve({Sel}, Limits);
    A.Conflicts = Solver->stats().Conflicts - ConflictsStart;

    if (St == SatStatus::Unknown) {
      switch (Solver->lastStop()) {
      case SatStop::TimeLimit:
        return finish(MilpStatus::Unknown, SearchStop::TimeLimit);
      case SatStop::ConflictLimit:
        return finish(MilpStatus::Unknown, SearchStop::NodeLimit);
      case SatStop::Cancelled:
        return finish(MilpStatus::Unknown, SearchStop::Cancelled);
      case SatStop::Fault:
      case SatStop::None:
        return finish(MilpStatus::Unknown, SearchStop::Fault);
      }
    }
    if (St == SatStatus::Unsat) {
      if (FI.fired(FaultSite::SatConflict) > FaultsBefore)
        return finish(MilpStatus::Unknown, SearchStop::Fault);
      return finish(MilpStatus::Infeasible, SearchStop::None);
    }

    // Sat: complete the model; recurrence cycles the pairwise encoding
    // cannot see are refined lazily until a completion exists.
    ModuloSchedule Sched;
    std::vector<int> CycleNodes;
    if (Encoder->decode(T, Sched, CycleNodes)) {
      A.Schedule = std::move(Sched);
      return finish(MilpStatus::Optimal, SearchStop::None);
    }
    Encoder->blockCycle(T, CycleNodes, Encoder->modelOffsets(T));
    ++A.CycleBlocks;
  }
}

TStepResult swp::satStepResult(SatAttempt A) {
  TStepResult R;
  R.Attempt.Status = A.Status;
  R.Attempt.StopReason = A.Stop;
  R.Attempt.Seconds = A.Seconds;
  R.Attempt.Nodes = A.Conflicts;
  R.Schedule = std::move(A.Schedule);
  R.Error = std::move(A.Error);
  return R;
}

TStep swp::satSweepStep(const Ddg &G, const MachineModel &Machine,
                        const SchedulerOptions &Opts,
                        std::optional<SatScheduler> &Engine) {
  return [&G, &Machine, &Opts, &Engine](int T) {
    if (!Engine)
      Engine.emplace(G, Machine, Opts.Mapping);
    return satStepResult(Engine->solveAtT(T, Opts.TimeLimitPerT,
                                          Opts.NodeLimitPerT, Opts.Cancel));
  };
}

SchedulerResult swp::satScheduleLoop(const Ddg &G, const MachineModel &Machine,
                                     const SchedulerOptions &Opts) {
  std::optional<SatScheduler> Engine;
  return searchRateOptimal(G, Machine, Opts,
                           satSweepStep(G, Machine, Opts, Engine));
}
