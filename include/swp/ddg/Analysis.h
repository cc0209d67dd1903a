//===- swp/ddg/Analysis.h - DDG analyses ------------------------*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graph analyses on DDGs: strongly connected components, the
/// recurrence-constrained lower bound T_dep on the initiation interval, and
/// the one longest-path routine every difference-constraint solve shares.
///
/// T_dep = max over cycles C of (sum of edge latencies) / (sum of
/// distances) (paper Section 2, citing Reiter [23]).  The integer bound
/// recurrenceMii = ceil(T_dep) is computed exactly by binary search on T:
/// T admits a schedule w.r.t. recurrences iff the edge weights
/// latency - T*distance contain no positive cycle, which is monotone in T.
///
/// Writing each start time as t_i = k_i*T + o_i (Section 3 of the paper)
/// turns every dependence t_j - t_i >= d_i - T*m_ij into a difference
/// constraint, so the T_dep test, the heuristics' static heights and
/// earliest starts, and the K completion of the ILP probe, the SAT decoder
/// and the enumerative search are all one longest-path problem:
/// longestPaths() below.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_DDG_ANALYSIS_H
#define SWP_DDG_ANALYSIS_H

#include "swp/ddg/Ddg.h"

#include <cstddef>
#include <optional>
#include <vector>

namespace swp {

/// Which end of each edge a longest-path pass raises.
enum class PathDirection {
  /// P[Dst] >= P[Src] + w: earliest starts, K vectors.
  Forward,
  /// P[Src] >= P[Dst] + w: heights, the longest path onward from a node.
  Backward,
};

/// Least potentials P >= 0 with P[to] >= P[from] + w(E) on every edge E of
/// \p G, where "to" is E's end that \p Dir raises.  Bellman-Ford from
/// P = 0: edges are relaxed in G.edges() order, for at most N+1 passes,
/// stopping on the first pass without a change.  \p WeightOf maps each
/// edge (by reference into G.edges()) to its weight, of a type convertible
/// to std::optional<V>; std::nullopt means the edge imposes no constraint.
///
/// \returns true when the constraints contain a positive cycle: an edge
/// still improves on pass N.  \p P then holds the potentials after N
/// passes, and \p Cycle, when given, receives that cycle as edge indices,
/// walked back from the improving edge's raised end along the edges that
/// last raised each node: each listed edge's raised end is the previous
/// one's other end.  The walk can end at a node no pass raised; \p Cycle
/// then stays empty.
template <class V, class W>
bool longestPaths(const Ddg &G, W WeightOf, std::vector<V> &P,
                  PathDirection Dir, std::vector<int> *Cycle = nullptr) {
  const int N = G.numNodes();
  const std::vector<DdgEdge> &Edges = G.edges();
  const bool Fwd = Dir == PathDirection::Forward;
  auto from = [Fwd](const DdgEdge &E) { return Fwd ? E.Src : E.Dst; };
  auto to = [Fwd](const DdgEdge &E) { return Fwd ? E.Dst : E.Src; };
  P.assign(static_cast<std::size_t>(N), V(0));
  std::vector<int> PredEdge;
  if (Cycle) {
    Cycle->clear();
    PredEdge.assign(static_cast<std::size_t>(N), -1);
  }
  for (int Pass = 0; Pass <= N; ++Pass) {
    bool Changed = false;
    for (std::size_t EI = 0; EI < Edges.size(); ++EI) {
      const DdgEdge &E = Edges[EI];
      const std::optional<V> Wt = WeightOf(E);
      if (!Wt)
        continue;
      const std::size_t To = static_cast<std::size_t>(to(E));
      const V Cand = P[static_cast<std::size_t>(from(E))] + *Wt;
      if (Cand <= P[To])
        continue;
      if (Pass < N) {
        P[To] = Cand;
        if (Cycle)
          PredEdge[To] = static_cast<int>(EI);
        Changed = true;
        continue;
      }
      if (Cycle) {
        // Walk back along last-raising edges until a node repeats: from
        // there on the walk is a cycle, and every such cycle is positive.
        auto back = [&](std::size_t X) {
          return static_cast<std::size_t>(
              from(Edges[static_cast<std::size_t>(PredEdge[X])]));
        };
        std::vector<char> Seen(static_cast<std::size_t>(N), 0);
        std::size_t X = To;
        while (PredEdge[X] >= 0 && !Seen[X]) {
          Seen[X] = 1;
          X = back(X);
        }
        if (PredEdge[X] >= 0) {
          std::size_t Y = X;
          do {
            Cycle->push_back(PredEdge[Y]);
            Y = back(Y);
          } while (Y != X);
        }
      }
      return true;
    }
    if (!Changed)
      break;
  }
  return false;
}

/// Ceiling of \p A / \p B for \p B > 0.
inline int ceilDiv(int A, int B) {
  return A >= 0 ? (A + B - 1) / B : -((-A) / B);
}

/// The stage difference k_dst - k_src that dependence \p E demands at
/// period \p T once both ends have pattern offsets: t = k*T + o turns
/// t_dst - t_src >= lat + \p Rho - T*m into
/// k_dst - k_src >= ceil((lat + Rho - T*m + o_src - o_dst) / T).  \p Rho is
/// a topology's routing penalty for the placed ends (0 without one).
inline int kDifferenceWeight(const DdgEdge &E, int T, int SrcOffset,
                             int DstOffset, int Rho = 0) {
  return ceilDiv(E.Latency + Rho - T * E.Distance + SrcOffset - DstOffset, T);
}

/// \returns true when the graph with edge weights latency - T*distance has a
/// cycle of strictly positive weight (meaning no periodic schedule of
/// period \p T satisfies the recurrences).
bool hasPositiveCycle(const Ddg &G, int T);

/// \returns the smallest integer T >= 0 admitting the recurrences, i.e.
/// ceil(T_dep); 0 for acyclic graphs.
int recurrenceMii(const Ddg &G);

/// \returns the maximum cycle ratio (T_dep) as a double, 0 for acyclic
/// graphs; accurate to ~1e-9 (exact comparisons use recurrenceMii()).
double maxCycleRatio(const Ddg &G);

/// Tarjan SCCs; \returns one vector of node ids per component, components in
/// reverse topological order, ids ascending within a component.
std::vector<std::vector<int>> stronglyConnectedComponents(const Ddg &G);

/// \returns node ids on some critical cycle (a cycle whose ratio equals the
/// maximum); empty for acyclic graphs.  Used for reporting (the paper points
/// at the self-loop on i2 as the T_dep = 2 witness).
std::vector<int> criticalCycleNodes(const Ddg &G);

} // namespace swp

#endif // SWP_DDG_ANALYSIS_H
