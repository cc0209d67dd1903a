//===- swp/machine/MachineModel.h - Target machine descriptions -*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A machine is a set of function-unit types; type r has R_r identical
/// physical units sharing one reservation table (the paper's simplifying
/// assumption in Section 5.1).  Instructions reference types through their
/// DDG OpClass.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_MACHINE_MACHINEMODEL_H
#define SWP_MACHINE_MACHINEMODEL_H

#include "swp/ddg/Ddg.h"
#include "swp/machine/ReservationTable.h"
#include "swp/machine/Topology.h"

#include <cassert>
#include <optional>
#include <string>
#include <vector>

namespace swp {

/// One function-unit type: a name, a unit count R_r, and the shared
/// reservation table.  Multi-function units carry extra reservation-table
/// variants (one per operation kind the unit executes); DDG nodes select a
/// variant via DdgNode::Variant.
struct FuType {
  std::string Name;
  int Count = 1;
  ReservationTable Table;
  std::vector<ReservationTable> ExtraVariants;

  int numVariants() const {
    return 1 + static_cast<int>(ExtraVariants.size());
  }

  const ReservationTable &variant(int V) const {
    assert(V >= 0 && V < numVariants() && "bad variant index");
    return V == 0 ? Table : ExtraVariants[static_cast<size_t>(V) - 1];
  }
};

/// A machine: the ordered list of FU types (order defines OpClass indices).
class MachineModel {
public:
  MachineModel() = default;
  explicit MachineModel(std::string Name) : ModelName(std::move(Name)) {}

  /// Adds a type; \returns its OpClass index.
  int addFuType(std::string Name, int Count, ReservationTable Table) {
    assert(Count >= 1 && "need at least one unit per type");
    Types.push_back({std::move(Name), Count, std::move(Table), {}});
    return static_cast<int>(Types.size()) - 1;
  }

  /// Adds a reservation-table variant to type \p R (multi-function
  /// pipelines); \returns the variant index for DdgNode::Variant.
  int addVariant(int R, ReservationTable Table) {
    assert(R >= 0 && R < numTypes() && "bad type index");
    Types[static_cast<size_t>(R)].ExtraVariants.push_back(std::move(Table));
    return Types[static_cast<size_t>(R)].numVariants() - 1;
  }

  /// The reservation table instruction \p Node occupies.
  const ReservationTable &tableFor(const DdgNode &Node) const {
    return Types[static_cast<size_t>(Node.OpClass)].variant(Node.Variant);
  }

  /// True when \p G is a loop this machine can schedule: well formed
  /// (Ddg::isWellFormed over this machine's op classes) and every node
  /// names a valid variant of its class.  The one input check of every
  /// scheduling entry point.
  bool acceptsDdg(const Ddg &G) const;

  int numTypes() const { return static_cast<int>(Types.size()); }
  const FuType &type(int R) const { return Types[static_cast<size_t>(R)]; }
  const std::vector<FuType> &types() const { return Types; }
  const std::string &name() const { return ModelName; }

  /// \returns the OpClass of the type named \p Name, or -1.
  int findType(const std::string &Name) const;

  /// Total number of physical units across all types.
  int totalUnits() const;

  /// Global physical-unit index of unit \p Unit (0-based) of type \p R;
  /// units are numbered type-major.
  int globalUnitIndex(int R, int Unit) const;

  /// Resource-constrained lower bound T_res on the initiation interval: for
  /// each type, the busiest stage must fit all its ops' usage within
  /// R_r * T cycles (generalizes ceil(N_r / R_r) to reservation tables).
  int resourceMii(const Ddg &G) const;

  /// True when every FU type *used by \p G* satisfies the modulo-scheduling
  /// constraint at period \p T (paper Section 2: offending T are skipped).
  bool moduloFeasible(const Ddg &G, int T) const;

  /// Attaches a placement topology over the machine's physical units
  /// (global type-major unit indices).  Call after every addFuType: the
  /// topology's unit count must equal totalUnits().
  void setTopology(Topology Topo) {
    assert(Topo.numUnits() == totalUnits() &&
           "topology unit count must match the machine's physical units");
    Topo.hops(0, 0); // Force the hop matrix now; keeps const accessors cheap.
    MaybeTopo = std::move(Topo);
  }

  /// The attached topology, or nullptr for the paper's flat machine.
  const Topology *topology() const {
    return MaybeTopo ? &*MaybeTopo : nullptr;
  }

  /// True when a topology is attached *and* actually restricts placement
  /// (some pair of units is not directly connected).  Every consumer keeps
  /// the exact pre-topology code path when this is false, so flat machines
  /// and vacuous (fully connected) topologies are bit-identical to the
  /// seed behavior.
  bool topologyConstrains() const {
    return MaybeTopo && MaybeTopo->constrains();
  }

private:
  std::string ModelName;
  std::vector<FuType> Types;
  std::optional<Topology> MaybeTopo;
};

} // namespace swp

#endif // SWP_MACHINE_MACHINEMODEL_H
