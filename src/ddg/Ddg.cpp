//===- Ddg.cpp - Data dependence graphs -----------------------------------===//

#include "swp/ddg/Ddg.h"

using namespace swp;

std::vector<int> Ddg::nodesOfClass(int OpClass) const {
  std::vector<int> Result;
  nodesOfClass(OpClass, Result);
  return Result;
}

void Ddg::nodesOfClass(int OpClass, std::vector<int> &Out) const {
  Out.clear();
  for (int I = 0; I < numNodes(); ++I)
    if (Nodes[static_cast<size_t>(I)].OpClass == OpClass)
      Out.push_back(I);
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
  // multi-megabyte chain cannot overflow a thread's stack.  One vector
  // holds the successor offsets, the in-degrees, the successors and the
  // ready stack (each node enters it at most once).
  const size_t Count = Nodes.size();
  size_t ZeroEdges = 0;
  for (const DdgEdge &E : Edges)
    ZeroEdges += E.Distance == 0 ? 1 : 0;
  std::vector<int> Work(3 * Count + 1 + ZeroEdges, 0);
  int *SuccStart = Work.data();
  int *InDegree = SuccStart + Count + 1;
  int *Succ = InDegree + Count;
  int *Ready = Succ + ZeroEdges;
  for (const DdgEdge &E : Edges)
    if (E.Distance == 0) {
      ++SuccStart[static_cast<size_t>(E.Src)];
      ++InDegree[static_cast<size_t>(E.Dst)];
    }
  // The prefix sum makes SuccStart[U] the end of U's successors; filling
  // them back to front moves it to their start.
  for (size_t I = 1; I <= Count; ++I)
    SuccStart[I] += SuccStart[I - 1];
  for (const DdgEdge &E : Edges)
    if (E.Distance == 0)
      Succ[--SuccStart[static_cast<size_t>(E.Src)]] = E.Dst;

  size_t ReadyTop = 0;
  for (size_t I = 0; I < Count; ++I)
    if (InDegree[I] == 0)
      Ready[ReadyTop++] = static_cast<int>(I);
  size_t Retired = 0;
  while (ReadyTop > 0) {
    const size_t U = static_cast<size_t>(Ready[--ReadyTop]);
    ++Retired;
    for (int K = SuccStart[U]; K < SuccStart[U + 1]; ++K)
      if (--InDegree[static_cast<size_t>(Succ[K])] == 0)
        Ready[ReadyTop++] = Succ[K];
  }
  return Retired == Count;
}
