//===- Analysis.cpp - DDG analyses ----------------------------------------===//

#include "swp/ddg/Analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>

using namespace swp;

namespace {

/// Edge weights \p LatScale * latency - \p DistScale * distance: a cycle is
/// positive under them iff its latency-to-distance ratio exceeds
/// DistScale / LatScale.
auto scaledWeights(std::int64_t LatScale, std::int64_t DistScale) {
  return [LatScale, DistScale](const DdgEdge &E) {
    return LatScale * E.Latency - DistScale * E.Distance;
  };
}

bool positiveCycleAt(const Ddg &G, std::int64_t LatScale,
                     std::int64_t DistScale) {
  std::vector<std::int64_t> P;
  return longestPaths(G, scaledWeights(LatScale, DistScale), P,
                      PathDirection::Forward);
}

} // namespace

bool swp::hasPositiveCycle(const Ddg &G, int T) {
  return positiveCycleAt(G, 1, T);
}

int swp::recurrenceMii(const Ddg &G) {
  // Upper bound: the sum of all latencies admits every cycle (each cycle has
  // distance >= 1 when well-formed).
  std::int64_t Hi = 0;
  for (const DdgEdge &E : G.edges())
    Hi += E.Latency;
  if (!hasPositiveCycle(G, 0))
    return 0;
  int Lo = 0, HiT = static_cast<int>(Hi);
  assert(!hasPositiveCycle(G, HiT) && "malformed DDG: zero-distance cycle?");
  // Invariant: positive cycle at Lo, none at HiT.
  while (HiT - Lo > 1) {
    int Mid = Lo + (HiT - Lo) / 2;
    if (hasPositiveCycle(G, Mid))
      Lo = Mid;
    else
      HiT = Mid;
  }
  return HiT;
}

double swp::maxCycleRatio(const Ddg &G) {
  if (!hasPositiveCycle(G, 0))
    return 0.0;
  // Binary search on the ratio with scaled integer tests: ratio > P/Q iff
  // weights Q*lat - P*dist contain a positive cycle.  Use a fixed scale.
  const std::int64_t Q = 1 << 20;
  std::int64_t Lo = 0, Hi = 0;
  for (const DdgEdge &E : G.edges())
    Hi += E.Latency;
  Hi *= Q;
  // Invariant: positive cycle at Lo/Q, none at Hi/Q.
  while (Hi - Lo > 1) {
    std::int64_t Mid = Lo + (Hi - Lo) / 2;
    if (positiveCycleAt(G, Q, Mid))
      Lo = Mid;
    else
      Hi = Mid;
  }
  return static_cast<double>(Hi) / static_cast<double>(Q);
}

std::vector<std::vector<int>> swp::stronglyConnectedComponents(const Ddg &G) {
  const int N = G.numNodes();
  std::vector<std::vector<int>> Succ(static_cast<size_t>(N));
  for (const DdgEdge &E : G.edges())
    Succ[static_cast<size_t>(E.Src)].push_back(E.Dst);

  std::vector<int> Index(static_cast<size_t>(N), -1);
  std::vector<int> Low(static_cast<size_t>(N), 0);
  std::vector<bool> OnStack(static_cast<size_t>(N), false);
  std::vector<int> Stack;
  std::vector<std::vector<int>> Components;
  int NextIndex = 0;

  std::function<void(int)> Strongconnect = [&](int V) {
    Index[static_cast<size_t>(V)] = Low[static_cast<size_t>(V)] = NextIndex++;
    Stack.push_back(V);
    OnStack[static_cast<size_t>(V)] = true;
    for (int W : Succ[static_cast<size_t>(V)]) {
      if (Index[static_cast<size_t>(W)] < 0) {
        Strongconnect(W);
        Low[static_cast<size_t>(V)] =
            std::min(Low[static_cast<size_t>(V)], Low[static_cast<size_t>(W)]);
      } else if (OnStack[static_cast<size_t>(W)]) {
        Low[static_cast<size_t>(V)] = std::min(Low[static_cast<size_t>(V)],
                                               Index[static_cast<size_t>(W)]);
      }
    }
    if (Low[static_cast<size_t>(V)] == Index[static_cast<size_t>(V)]) {
      std::vector<int> Component;
      while (true) {
        int W = Stack.back();
        Stack.pop_back();
        OnStack[static_cast<size_t>(W)] = false;
        Component.push_back(W);
        if (W == V)
          break;
      }
      std::sort(Component.begin(), Component.end());
      Components.push_back(std::move(Component));
    }
  };

  for (int V = 0; V < N; ++V)
    if (Index[static_cast<size_t>(V)] < 0)
      Strongconnect(V);
  return Components;
}

std::vector<int> swp::criticalCycleNodes(const Ddg &G) {
  if (!hasPositiveCycle(G, 0))
    return {};

  // The exact maximum ratio is SumLat/SumDist of some simple cycle, so its
  // denominator is at most the total distance D.  Snap the approximate
  // ratio onto the first fraction P/Q for which the scaled graph has no
  // positive cycle but does have a zero-weight cycle.
  double R = maxCycleRatio(G);
  std::int64_t D = 0;
  for (const DdgEdge &E : G.edges())
    D += E.Distance;
  for (std::int64_t Q = 1; Q <= std::max<std::int64_t>(D, 1); ++Q) {
    auto W = scaledWeights(Q, std::llround(R * static_cast<double>(Q)));
    std::vector<std::int64_t> H;
    if (longestPaths(G, W, H, PathDirection::Forward))
      continue;
    // Tight edges (h(src) + w == h(dst)) contain every zero-weight cycle.
    const int N = G.numNodes();
    std::vector<std::vector<int>> Tight(static_cast<size_t>(N));
    for (const DdgEdge &Edge : G.edges())
      if (H[static_cast<size_t>(Edge.Src)] + W(Edge) ==
          H[static_cast<size_t>(Edge.Dst)])
        Tight[static_cast<size_t>(Edge.Src)].push_back(Edge.Dst);
    // Find any cycle in the tight subgraph.
    std::vector<int> Color(static_cast<size_t>(N), 0);
    std::vector<int> Parent(static_cast<size_t>(N), -1);
    int CycleHead = -1, CycleTail = -1;
    std::function<bool(int)> Dfs = [&](int U) {
      Color[static_cast<size_t>(U)] = 1;
      for (int V : Tight[static_cast<size_t>(U)]) {
        if (Color[static_cast<size_t>(V)] == 1) {
          CycleHead = V;
          CycleTail = U;
          return true;
        }
        if (Color[static_cast<size_t>(V)] == 0) {
          Parent[static_cast<size_t>(V)] = U;
          if (Dfs(V))
            return true;
        }
      }
      Color[static_cast<size_t>(U)] = 2;
      return false;
    };
    for (int V = 0; V < N && CycleHead < 0; ++V)
      if (Color[static_cast<size_t>(V)] == 0)
        Dfs(V);
    if (CycleHead < 0)
      continue; // P/Q overshoots the true ratio; try the next denominator.
    std::vector<int> Cycle;
    for (int V = CycleTail; V != CycleHead; V = Parent[static_cast<size_t>(V)])
      Cycle.push_back(V);
    Cycle.push_back(CycleHead);
    std::reverse(Cycle.begin(), Cycle.end());
    return Cycle;
  }
  return {};
}
