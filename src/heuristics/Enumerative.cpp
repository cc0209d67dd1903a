//===- Enumerative.cpp - Exhaustive search --------------------------------===//

#include "swp/heuristics/Enumerative.h"

#include "swp/ddg/Analysis.h"
#include "swp/heuristics/ModuloReservationTable.h"
#include "swp/support/Stopwatch.h"

#include <algorithm>
#include <cmath>
#include <optional>

using namespace swp;

namespace {

/// Per-T exhaustive search state.
class EnumSearch {
public:
  EnumSearch(const Ddg &G, const MachineModel &Machine, int T,
             const EnumOptions &Opts)
      : G(G), Machine(Machine), T(T), Opts(Opts), Occupancy(Machine, T) {
    const int N = G.numNodes();
    Offset.assign(static_cast<size_t>(N), -1);
    Unit.assign(static_cast<size_t>(N), -1);
    MaxUsedUnit.assign(static_cast<size_t>(Machine.numTypes()), -1);
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

  /// Whether the k-difference constraints between the assigned nodes admit
  /// a K vector (an edge with an unassigned end imposes none); the least
  /// one is left in K.
  bool kFeasible() {
    return !longestPaths(
        G,
        [this](const DdgEdge &E) -> std::optional<int> {
          const int OffSrc = Offset[static_cast<size_t>(E.Src)];
          const int OffDst = Offset[static_cast<size_t>(E.Dst)];
          if (OffSrc < 0 || OffDst < 0)
            return std::nullopt;
          return kDifferenceWeight(E, T, OffSrc, OffDst);
        },
        K, PathDirection::Forward);
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
      if (!kFeasible())
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
      for (int U = 0; U <= UnitCap; ++U) {
        if (!Occupancy.fits(G, Node, Off, U))
          continue;
        Offset[static_cast<size_t>(Node)] = Off;
        Unit[static_cast<size_t>(Node)] = U;
        Occupancy.place(G, Node, Off, U);
        int SavedMax = MaxUsedUnit[static_cast<size_t>(R)];
        MaxUsedUnit[static_cast<size_t>(R)] = std::max(SavedMax, U);
        bool Ok = kFeasible() && dfs(Depth + 1, Out);
        MaxUsedUnit[static_cast<size_t>(R)] = SavedMax;
        Occupancy.remove(G, Node, Off, U);
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
  ModuloReservationTable Occupancy;
  std::vector<int> MaxUsedUnit;
  /// kFeasible's potentials: the K vector once every node is assigned.
  std::vector<int> K;
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
