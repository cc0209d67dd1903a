//===- swp/ddg/Ddg.h - Data dependence graphs -------------------*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data dependence graph (DDG) of a loop body, the input of every
/// scheduler in this project.
///
/// Nodes are instructions with an operation class (index of a function-unit
/// type in the target MachineModel) and a latency d_i.  Edges carry a
/// loop-carried dependence distance m_ij; an edge (i,j) constrains any
/// periodic schedule by t_j - t_i >= latency - T * m_ij (paper Eq. 4/8).
/// Per-edge latencies default to the producer's latency, matching the
/// paper's d_i convention.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_DDG_DDG_H
#define SWP_DDG_DDG_H

#include <cassert>
#include <string>
#include <vector>

namespace swp {

/// An instruction in the loop body.
struct DdgNode {
  std::string Name;
  /// Function-unit type index in the target machine (see MachineModel).
  int OpClass = 0;
  /// Cycles before a dependent instruction may start (paper's d_i).
  int Latency = 1;
  /// Reservation-table variant within the FU type (multi-function
  /// pipelines, paper Section 7 extension); 0 is the type's primary table.
  int Variant = 0;
};

/// A dependence from Src to Dst, possibly loop-carried.
struct DdgEdge {
  int Src = 0;
  int Dst = 0;
  /// Iteration distance m_ij (0 = same iteration).
  int Distance = 0;
  /// Required separation in cycles; defaults to the producer's latency.
  int Latency = 0;
};

/// A loop body's data dependence graph.
class Ddg {
public:
  Ddg() = default;
  explicit Ddg(std::string Name) : GraphName(std::move(Name)) {}

  /// Adds an instruction; \returns its node id.
  int addNode(std::string Name, int OpClass, int Latency) {
    assert(Latency >= 0 && "negative latency");
    Nodes.push_back({std::move(Name), OpClass, Latency, 0});
    return static_cast<int>(Nodes.size()) - 1;
  }

  /// Adds an instruction using reservation-table variant \p Variant of its
  /// FU type (multi-function pipelines); \returns its node id.
  int addNodeVariant(std::string Name, int OpClass, int Variant,
                     int Latency) {
    assert(Latency >= 0 && "negative latency");
    assert(Variant >= 0 && "negative variant");
    Nodes.push_back({std::move(Name), OpClass, Latency, Variant});
    return static_cast<int>(Nodes.size()) - 1;
  }

  /// Adds a dependence edge with the producer's latency.
  void addEdge(int Src, int Dst, int Distance) {
    addEdgeWithLatency(Src, Dst, Distance, Nodes[static_cast<size_t>(Src)].Latency);
  }

  /// Adds a dependence edge with an explicit latency.
  void addEdgeWithLatency(int Src, int Dst, int Distance, int Latency) {
    assert(Src >= 0 && Src < numNodes() && "bad source node");
    assert(Dst >= 0 && Dst < numNodes() && "bad destination node");
    assert(Distance >= 0 && "negative dependence distance");
    Edges.push_back({Src, Dst, Distance, Latency});
  }

  int numNodes() const { return static_cast<int>(Nodes.size()); }
  int numEdges() const { return static_cast<int>(Edges.size()); }
  const DdgNode &node(int I) const { return Nodes[static_cast<size_t>(I)]; }
  const std::vector<DdgNode> &nodes() const { return Nodes; }
  const std::vector<DdgEdge> &edges() const { return Edges; }
  const std::string &name() const { return GraphName; }
  void setName(std::string N) { GraphName = std::move(N); }

  /// Node ids whose OpClass equals \p OpClass, in id order.
  std::vector<int> nodesOfClass(int OpClass) const;
  /// The same ids, written into \p Out (its capacity kept).
  void nodesOfClass(int OpClass, std::vector<int> &Out) const;

  /// \returns true when every zero-distance cycle is absent (a loop body
  /// with a same-iteration dependence cycle is malformed) and all node /
  /// class indices are in range for \p NumOpClasses.
  bool isWellFormed(int NumOpClasses) const;

private:
  std::string GraphName;
  std::vector<DdgNode> Nodes;
  std::vector<DdgEdge> Edges;
};

} // namespace swp

#endif // SWP_DDG_DDG_H
