//===- IterativeModulo.cpp - Rau's IMS baseline ---------------------------===//

#include "swp/heuristics/IterativeModulo.h"

#include "swp/heuristics/ModuloReservationTable.h"

#include <algorithm>

using namespace swp;

bool swp::imsAtT(const Ddg &G, const MachineModel &Machine, int T,
                 ModuloSchedule &Out) {
  const int N = G.numNodes();
  // Height-based priority: the longest path onward; higher goes first.
  std::vector<int> Height = longestPathsAtT(G, T, PathDirection::Backward);
  ModuloPlacer P(G, Machine, T);
  while (P.unscheduled() > 0) {
    if (!P.spendStep())
      return false;

    // Highest-priority unscheduled instruction.
    int Node = -1;
    for (int I = 0; I < N; ++I) {
      if (P.time(I) >= 0)
        continue;
      if (Node < 0 || Height[static_cast<size_t>(I)] >
                          Height[static_cast<size_t>(Node)])
        Node = I;
    }

    // Earliest start from scheduled predecessors.
    int EStart = 0;
    for (const DdgEdge &E : G.edges()) {
      if (E.Dst != Node || P.time(E.Src) < 0)
        continue;
      EStart = std::max(EStart, P.time(E.Src) + E.Latency - T * E.Distance);
    }
    if (EStart > P.timeCap())
      return false;

    // Try a window of T slots (widened by the routing penalty), any unit;
    // failing that, force the placement and evict whatever is in the way.
    if (!P.placeInWindow(Node, EStart, EStart + T - 1 + P.routePenalty(),
                         /*Late=*/false) &&
        !P.forcePlace(Node, EStart))
      return false;
    if (!P.evictViolated(Node, /*AlsoPreds=*/false))
      return false;
  }
  Out = P.take();
  return true;
}

SchedulerResult swp::iterativeModuloSchedule(const Ddg &G,
                                             const MachineModel &Machine,
                                             const ImsOptions &Opts) {
  return heuristicSweep(G, Machine, Opts.MaxTSlack, {imsAtT});
}
