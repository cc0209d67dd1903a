//===- Enumerative.cpp - Exhaustive search --------------------------------===//

#include "swp/heuristics/Enumerative.h"

#include "swp/support/Stopwatch.h"

#include <algorithm>
#include <cmath>

using namespace swp;

namespace {

int ceilDiv(int A, int B) {
  // B > 0.
  return A >= 0 ? (A + B - 1) / B : -((-A) / B);
}

/// Per-T exhaustive search state.
class EnumSearch {
public:
  EnumSearch(const Ddg &G, const MachineModel &Machine, int T,
             const EnumOptions &Opts)
      : G(G), Machine(Machine), T(T), Opts(Opts) {
    const int N = G.numNodes();
    Offset.assign(static_cast<size_t>(N), -1);
    Unit.assign(static_cast<size_t>(N), -1);
    // Unit-usage tables: Busy[type][unit][stage][slot].
    for (int R = 0; R < Machine.numTypes(); ++R) {
      const FuType &Ty = Machine.type(R);
      int Stages = Ty.Table.numStages();
      for (int V = 1; V < Ty.numVariants(); ++V)
        Stages = std::max(Stages, Ty.variant(V).numStages());
      Busy.emplace_back(
          static_cast<size_t>(Ty.Count),
          std::vector<std::vector<bool>>(
              static_cast<size_t>(Stages),
              std::vector<bool>(static_cast<size_t>(T), false)));
      MaxUsedUnit.push_back(-1);
    }
    // Order: scarcest types first (ops / units descending), then index.
    Order.resize(static_cast<size_t>(N));
    for (int I = 0; I < N; ++I)
      Order[static_cast<size_t>(I)] = I;
    std::sort(Order.begin(), Order.end(), [this](int A, int B) {
      double PA = pressure(A), PB = pressure(B);
      if (PA != PB)
        return PA > PB;
      return A < B;
    });
  }

  /// Searches this T as a sweep step: Optimal with the schedule when a
  /// complete assignment exists, Infeasible when the space was exhausted,
  /// Unknown censored by the state or time limit otherwise.
  TStepResult run() {
    TStepResult R;
    if (dfs(0, R.Schedule))
      R.Attempt.Status = MilpStatus::Optimal;
    else if (Stop == SearchStop::None)
      R.Attempt.Status = MilpStatus::Infeasible;
    R.Attempt.StopReason = Stop;
    R.Attempt.Nodes = StateCount;
    R.Attempt.Seconds = Watch.seconds();
    return R;
  }

private:
  double pressure(int Node) const {
    int R = G.node(Node).OpClass;
    return static_cast<double>(G.nodesOfClass(R).size()) /
           static_cast<double>(Machine.type(R).Count);
  }

  bool unitFree(int R, int U, int Off, const ReservationTable &Table) const {
    for (int S = 0; S < Table.numStages(); ++S)
      for (int L : Table.busyColumns(S))
        if (Busy[static_cast<size_t>(R)][static_cast<size_t>(U)]
                [static_cast<size_t>(S)][static_cast<size_t>((Off + L) % T)])
          return false;
    return true;
  }

  void mark(int R, int U, int Off, bool Value,
            const ReservationTable &Table) {
    for (int S = 0; S < Table.numStages(); ++S)
      for (int L : Table.busyColumns(S))
        Busy[static_cast<size_t>(R)][static_cast<size_t>(U)]
            [static_cast<size_t>(S)][static_cast<size_t>((Off + L) % T)] =
            Value;
  }

  /// Bellman-Ford feasibility of the k-difference constraints over the
  /// currently assigned nodes; when \p KOut is non-null (complete
  /// assignment) it receives the K vector.
  bool kFeasible(std::vector<int> *KOut) const {
    const int N = G.numNodes();
    std::vector<int> K(static_cast<size_t>(N), 0);
    for (int Pass = 0; Pass <= N; ++Pass) {
      bool Changed = false;
      for (const DdgEdge &E : G.edges()) {
        if (Offset[static_cast<size_t>(E.Src)] < 0 ||
            Offset[static_cast<size_t>(E.Dst)] < 0)
          continue;
        int W = ceilDiv(E.Latency - T * E.Distance +
                            Offset[static_cast<size_t>(E.Src)] -
                            Offset[static_cast<size_t>(E.Dst)],
                        T);
        int Cand = K[static_cast<size_t>(E.Src)] + W;
        if (Cand > K[static_cast<size_t>(E.Dst)]) {
          if (Pass == N)
            return false; // Positive cycle.
          K[static_cast<size_t>(E.Dst)] = Cand;
          Changed = true;
        }
      }
      if (!Changed)
        break;
    }
    if (KOut)
      *KOut = std::move(K);
    return true;
  }

  bool dfs(int Depth, ModuloSchedule &Out) {
    if (Stop != SearchStop::None)
      return false;
    if (++StateCount >= Opts.MaxStatesPerT)
      Stop = SearchStop::NodeLimit;
    else if (Watch.seconds() >= Opts.TimeLimitPerT)
      Stop = SearchStop::TimeLimit;
    if (Stop != SearchStop::None)
      return false;
    const int N = G.numNodes();
    if (Depth == N) {
      std::vector<int> K;
      if (!kFeasible(&K))
        return false;
      Out.T = T;
      Out.StartTime.assign(static_cast<size_t>(N), 0);
      Out.Mapping.assign(static_cast<size_t>(N), 0);
      for (int I = 0; I < N; ++I) {
        Out.StartTime[static_cast<size_t>(I)] =
            K[static_cast<size_t>(I)] * T + Offset[static_cast<size_t>(I)];
        Out.Mapping[static_cast<size_t>(I)] = Unit[static_cast<size_t>(I)];
      }
      return true;
    }

    int Node = Order[static_cast<size_t>(Depth)];
    int R = G.node(Node).OpClass;
    const FuType &Ty = Machine.type(R);
    for (int Off = 0; Off < T; ++Off) {
      // Symmetry breaking: a fresh unit index may exceed the highest used
      // one by at most 1.
      int UnitCap = std::min(Ty.Count - 1,
                             MaxUsedUnit[static_cast<size_t>(R)] + 1);
      const ReservationTable &Table = Machine.tableFor(G.node(Node));
      for (int U = 0; U <= UnitCap; ++U) {
        if (!unitFree(R, U, Off, Table))
          continue;
        Offset[static_cast<size_t>(Node)] = Off;
        Unit[static_cast<size_t>(Node)] = U;
        mark(R, U, Off, true, Table);
        int SavedMax = MaxUsedUnit[static_cast<size_t>(R)];
        MaxUsedUnit[static_cast<size_t>(R)] = std::max(SavedMax, U);
        bool Ok = kFeasible(nullptr) && dfs(Depth + 1, Out);
        MaxUsedUnit[static_cast<size_t>(R)] = SavedMax;
        mark(R, U, Off, false, Table);
        Offset[static_cast<size_t>(Node)] = -1;
        Unit[static_cast<size_t>(Node)] = -1;
        if (Ok)
          return true;
        if (Stop != SearchStop::None)
          return false;
      }
    }
    return false;
  }

  const Ddg &G;
  const MachineModel &Machine;
  int T;
  const EnumOptions &Opts;
  std::vector<int> Order;
  std::vector<int> Offset;
  std::vector<int> Unit;
  std::vector<std::vector<std::vector<std::vector<bool>>>> Busy;
  std::vector<int> MaxUsedUnit;
  std::int64_t StateCount = 0;
  /// The limit that cut the search short (None while it is exhaustive).
  SearchStop Stop = SearchStop::None;
  Stopwatch Watch;
};

} // namespace

SchedulerResult swp::enumerativeSchedule(const Ddg &G,
                                         const MachineModel &Machine,
                                         const EnumOptions &Opts) {
  SchedulerOptions Sweep;
  Sweep.MaxTSlack = Opts.MaxTSlack;
  return searchRateOptimal(G, Machine, Sweep, [&](int T) {
    // The search tree enumerates offsets and units without routing-hazard
    // pruning, so on a placement-constraining topology it would claim
    // proofs it cannot make.  Decline, and leave those machines to the
    // exact engines (ILP / SAT).
    if (Machine.topologyConstrains()) {
      TStepResult R;
      R.Attempt.Status = MilpStatus::Error;
      R.Error = Status(StatusCode::InvalidInput,
                       "the enumerative search does not model topology "
                       "routing; use the ILP or SAT engine")
                    .withPhase("enumerative")
                    .withT(T)
                    .withInstance(G.name());
      return R;
    }
    return EnumSearch(G, Machine, T, Opts).run();
  });
}
