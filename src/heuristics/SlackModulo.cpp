//===- SlackModulo.cpp - Huff's slack scheduling --------------------------===//

#include "swp/heuristics/SlackModulo.h"

#include "swp/heuristics/ModuloReservationTable.h"

#include <algorithm>

using namespace swp;

namespace {

/// Static earliest starts: longest paths over weights latency - T*distance
/// from a virtual root (all zeros).
std::vector<int> asapTimes(const Ddg &G, int T) {
  const int N = G.numNodes();
  std::vector<int> E(static_cast<size_t>(N), 0);
  for (int Pass = 0; Pass < N; ++Pass) {
    bool Changed = false;
    for (const DdgEdge &Edge : G.edges()) {
      int Cand = E[static_cast<size_t>(Edge.Src)] + Edge.Latency -
                 T * Edge.Distance;
      if (Cand > E[static_cast<size_t>(Edge.Dst)]) {
        E[static_cast<size_t>(Edge.Dst)] = Cand;
        Changed = true;
      }
    }
    if (!Changed)
      break;
  }
  for (int I = 0; I < N; ++I)
    E[static_cast<size_t>(I)] = std::max(E[static_cast<size_t>(I)], 0);
  return E;
}

/// Static latest starts anchored at \p Horizon.
std::vector<int> alapTimes(const Ddg &G, int T, int Horizon) {
  const int N = G.numNodes();
  std::vector<int> L(static_cast<size_t>(N), Horizon);
  for (int Pass = 0; Pass < N; ++Pass) {
    bool Changed = false;
    for (const DdgEdge &Edge : G.edges()) {
      int Cand = L[static_cast<size_t>(Edge.Dst)] - Edge.Latency +
                 T * Edge.Distance;
      if (Cand < L[static_cast<size_t>(Edge.Src)]) {
        L[static_cast<size_t>(Edge.Src)] = Cand;
        Changed = true;
      }
    }
    if (!Changed)
      break;
  }
  return L;
}

/// One slack-scheduling attempt at a fixed T; fills \p Out on success.
bool slackAtT(const Ddg &G, const MachineModel &Machine, int T,
              ModuloSchedule &Out) {
  const int N = G.numNodes();
  std::vector<int> Asap = asapTimes(G, T);
  int Horizon = 0;
  for (int V : Asap)
    Horizon = std::max(Horizon, V);
  Horizon += T;
  std::vector<int> Alap = alapTimes(G, T, Horizon);

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

} // namespace

SchedulerResult swp::slackModuloSchedule(const Ddg &G,
                                         const MachineModel &Machine,
                                         const SlackOptions &Opts) {
  return heuristicSweep(G, Machine, Opts.MaxTSlack, slackAtT);
}
