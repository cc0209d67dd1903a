//===- swp/core/CircularArcs.h - FU occupation as circular arcs -*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Section 4.2 insight: under a modulo schedule, the occupation
/// of a function-unit type by its instructions forms *circular arcs* on the
/// cycle [0, T), and fixed FU assignment is a circular-arc coloring problem
/// [10].  An instruction whose occupation wraps past T splits into two
/// same-colored fragments (the dotted arc of Figure 4).
///
/// This header exposes the overlap relation, a first-fit coloring heuristic
/// (used by the heuristic schedulers and as a fast upper bound), and a
/// Figure 4 style rendering.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_CORE_CIRCULARARCS_H
#define SWP_CORE_CIRCULARARCS_H

#include "swp/ddg/Ddg.h"
#include "swp/machine/MachineModel.h"

#include <string>
#include <vector>

namespace swp {

/// True when two instructions of one type, issued at pattern offsets
/// \p OffsetI and \p OffsetJ, would collide on a shared unit.
bool arcsOverlap(const ReservationTable &Table, int T, int OffsetI,
                 int OffsetJ);

/// Multi-function variant: the two instructions occupy the shared unit
/// with distinct reservation tables \p TableI / \p TableJ.
bool arcsOverlap(const ReservationTable &TableI,
                 const ReservationTable &TableJ, int T, int OffsetI,
                 int OffsetJ);

/// First-fit coloring of same-type instructions given their pattern
/// offsets; \returns 0-based colors (color == unit).  The result may use
/// more colors than an optimal circular-arc coloring — callers compare
/// max+1 against the unit count.  \p Offsets may contain duplicates (they
/// always overlap and get distinct colors).
std::vector<int> firstFitUnitColoring(const ReservationTable &Table, int T,
                                      const std::vector<int> &Offsets);

/// Multi-function variant: \p Tables[i] is instruction i's reservation
/// table (parallel to \p Offsets).
std::vector<int>
firstFitUnitColoring(const std::vector<const ReservationTable *> &Tables,
                     int T, const std::vector<int> &Offsets);

/// The multi-function variant into caller storage: the colors land in
/// \p Colors and \p Order is the coloring order's scratch, so a caller that
/// keeps both across calls allocates nothing once they have grown.
void firstFitUnitColoring(const std::vector<const ReservationTable *> &Tables,
                          int T, const std::vector<int> &Offsets,
                          std::vector<int> &Colors, std::vector<int> &Order);

/// Renders a Figure 4 style picture: one line per instruction of type
/// \p OpClass showing the pattern slots its unit occupation covers
/// ('#' busy, '.' free), plus the assigned color when \p Mapping is
/// non-empty.
std::string renderArcs(const Ddg &G, const MachineModel &Machine,
                       int OpClass, int T, const std::vector<int> &Offsets,
                       const std::vector<int> &Mapping);

} // namespace swp

#endif // SWP_CORE_CIRCULARARCS_H
