//===- Ddg.cpp - Data dependence graphs -----------------------------------===//

#include "swp/ddg/Ddg.h"

using namespace swp;

std::vector<int> Ddg::nodesOfClass(int OpClass) const {
  std::vector<int> Result;
  for (int I = 0; I < numNodes(); ++I)
    if (Nodes[static_cast<size_t>(I)].OpClass == OpClass)
      Result.push_back(I);
  return Result;
}

bool Ddg::isWellFormed(int NumOpClasses) const {
  for (const DdgNode &N : Nodes)
    if (N.OpClass < 0 || N.OpClass >= NumOpClasses || N.Latency < 0)
      return false;
  for (const DdgEdge &E : Edges) {
    if (E.Src < 0 || E.Src >= numNodes() || E.Dst < 0 || E.Dst >= numNodes())
      return false;
    if (E.Distance < 0 || E.Latency < 0)
      return false;
  }

  // Reject cycles made purely of zero-distance edges: such a loop body has
  // no legal execution order at all.  Kahn's count over the zero-distance
  // subgraph (successors as offset arrays) retires every node exactly when
  // that subgraph is acyclic; it is iterative, so an untrusted
  // multi-megabyte chain cannot overflow a thread's stack.
  const size_t Count = Nodes.size();
  std::vector<int> SuccStart(Count + 1, 0), InDegree(Count, 0);
  for (const DdgEdge &E : Edges)
    if (E.Distance == 0) {
      ++SuccStart[static_cast<size_t>(E.Src) + 1];
      ++InDegree[static_cast<size_t>(E.Dst)];
    }
  for (size_t I = 0; I < Count; ++I)
    SuccStart[I + 1] += SuccStart[I];
  std::vector<int> Succ(static_cast<size_t>(SuccStart[Count]));
  std::vector<int> Fill(SuccStart.begin(), SuccStart.end() - 1);
  for (const DdgEdge &E : Edges)
    if (E.Distance == 0)
      Succ[static_cast<size_t>(Fill[static_cast<size_t>(E.Src)]++)] = E.Dst;

  std::vector<int> Ready;
  for (size_t I = 0; I < Count; ++I)
    if (InDegree[I] == 0)
      Ready.push_back(static_cast<int>(I));
  size_t Retired = 0;
  while (!Ready.empty()) {
    const size_t U = static_cast<size_t>(Ready.back());
    Ready.pop_back();
    ++Retired;
    for (int K = SuccStart[U]; K < SuccStart[U + 1]; ++K)
      if (--InDegree[static_cast<size_t>(Succ[static_cast<size_t>(K)])] == 0)
        Ready.push_back(Succ[static_cast<size_t>(K)]);
  }
  return Retired == Count;
}
