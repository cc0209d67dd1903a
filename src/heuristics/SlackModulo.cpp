//===- SlackModulo.cpp - Huff's slack scheduling --------------------------===//

#include "swp/heuristics/SlackModulo.h"

#include "swp/heuristics/ModuloReservationTable.h"

#include <algorithm>

using namespace swp;

bool swp::slackAtT(const Ddg &G, const MachineModel &Machine, int T,
                   ModuloSchedule &Out) {
  const int N = G.numNodes();
  std::vector<int> Asap = longestPathsAtT(G, T, PathDirection::Forward);
  int Horizon = 0;
  for (int V : Asap)
    Horizon = std::max(Horizon, V);
  Horizon += T;
  // Static latest starts anchored at Horizon: Horizon minus the heights.
  std::vector<int> Alap = longestPathsAtT(G, T, PathDirection::Backward);
  for (int &V : Alap)
    V = Horizon - V;

  ModuloPlacer P(G, Machine, T);
  while (P.unscheduled() > 0) {
    if (!P.spendStep())
      return false;

    // Minimum-slack unscheduled instruction (critical ops first).
    int Node = -1;
    for (int I = 0; I < N; ++I) {
      if (P.time(I) >= 0)
        continue;
      int SlackI = Alap[static_cast<size_t>(I)] - Asap[static_cast<size_t>(I)];
      if (Node < 0 ||
          SlackI < Alap[static_cast<size_t>(Node)] -
                       Asap[static_cast<size_t>(Node)])
        Node = I;
    }

    // Dynamic window from scheduled neighbours.
    int EStart = 0;
    int LStart = P.timeCap();
    int ScheduledPreds = 0, ScheduledSuccs = 0;
    for (const DdgEdge &E : G.edges()) {
      if (E.Dst == Node && E.Src != Node && P.time(E.Src) >= 0) {
        EStart =
            std::max(EStart, P.time(E.Src) + E.Latency - T * E.Distance);
        ++ScheduledPreds;
      }
      if (E.Src == Node && E.Dst != Node && P.time(E.Dst) >= 0) {
        LStart =
            std::min(LStart, P.time(E.Dst) - E.Latency + T * E.Distance);
        ++ScheduledSuccs;
      }
    }
    if (EStart > P.timeCap())
      return false;
    // A window of at most T slots suffices (resources repeat mod T) —
    // widened by the worst-case routing penalty when the topology makes
    // dependence windows placement-dependent (0 otherwise).
    int WindowHi = std::min(LStart, EStart + T - 1 + P.routePenalty());

    // Direction: consumers-anchored ops go late (shrink the lifetime of
    // the value they produce toward its uses), otherwise early.  Failing
    // the window, force the placement with eviction (IMS rule).
    bool Late = ScheduledSuccs > ScheduledPreds;
    if (!P.placeInWindow(Node, EStart, WindowHi, Late) &&
        !P.forcePlace(Node, EStart))
      return false;
    if (!P.evictViolated(Node, /*AlsoPreds=*/true))
      return false;
  }

  // Late placement can leave everything shifted; normalize to start >= 0
  // (dependences are shift-invariant).
  Out = P.take();
  auto Earliest = std::min_element(Out.StartTime.begin(), Out.StartTime.end());
  if (Earliest != Out.StartTime.end() && *Earliest > 0) {
    // Align the earliest instruction to its offset-preserving residue so
    // the mapping stays valid: shift by a multiple of T.
    int Shift = (*Earliest / T) * T;
    for (int &V : Out.StartTime)
      V -= Shift;
  }
  return true;
}

SchedulerResult swp::slackModuloSchedule(const Ddg &G,
                                         const MachineModel &Machine,
                                         const SlackOptions &Opts) {
  return heuristicSweep(G, Machine, Opts.MaxTSlack, {slackAtT});
}
