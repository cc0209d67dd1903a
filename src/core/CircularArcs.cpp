//===- CircularArcs.cpp - FU occupation as circular arcs ------------------===//

#include "swp/core/CircularArcs.h"

#include "swp/support/Format.h"

#include <algorithm>
#include <cassert>

using namespace swp;

bool swp::arcsOverlap(const ReservationTable &Table, int T, int OffsetI,
                      int OffsetJ) {
  int Delta = ((OffsetJ - OffsetI) % T + T) % T;
  return Table.conflictsAtOffset(Delta, T);
}

bool swp::arcsOverlap(const ReservationTable &TableI,
                      const ReservationTable &TableJ, int T, int OffsetI,
                      int OffsetJ) {
  int Delta = ((OffsetJ - OffsetI) % T + T) % T;
  return tablesConflictAtOffset(TableI, TableJ, Delta, T);
}

std::vector<int> swp::firstFitUnitColoring(
    const std::vector<const ReservationTable *> &Tables, int T,
    const std::vector<int> &Offsets) {
  std::vector<int> Colors, Order;
  firstFitUnitColoring(Tables, T, Offsets, Colors, Order);
  return Colors;
}

void swp::firstFitUnitColoring(
    const std::vector<const ReservationTable *> &Tables, int T,
    const std::vector<int> &Offsets, std::vector<int> &Colors,
    std::vector<int> &Order) {
  assert(Tables.size() == Offsets.size() && "tables must match offsets");
  const int N = static_cast<int>(Offsets.size());
  Colors.assign(static_cast<size_t>(N), -1);
  // Color in offset order (classic interval-graph heuristic adapted to the
  // circle): ties broken by index.
  Order.resize(static_cast<size_t>(N));
  for (int I = 0; I < N; ++I)
    Order[static_cast<size_t>(I)] = I;
  std::sort(Order.begin(), Order.end(), [&Offsets](int A, int B) {
    if (Offsets[static_cast<size_t>(A)] != Offsets[static_cast<size_t>(B)])
      return Offsets[static_cast<size_t>(A)] < Offsets[static_cast<size_t>(B)];
    return A < B;
  });
  for (int I : Order) {
    int Color = 0;
    while (true) {
      bool Clash = false;
      for (int J = 0; J < N; ++J) {
        if (Colors[static_cast<size_t>(J)] != Color)
          continue;
        if (arcsOverlap(*Tables[static_cast<size_t>(J)],
                        *Tables[static_cast<size_t>(I)], T,
                        Offsets[static_cast<size_t>(J)],
                        Offsets[static_cast<size_t>(I)])) {
          Clash = true;
          break;
        }
      }
      if (!Clash)
        break;
      ++Color;
    }
    Colors[static_cast<size_t>(I)] = Color;
  }
}

std::vector<int> swp::firstFitUnitColoring(const ReservationTable &Table,
                                           int T,
                                           const std::vector<int> &Offsets) {
  std::vector<const ReservationTable *> Tables(Offsets.size(), &Table);
  return firstFitUnitColoring(Tables, T, Offsets);
}

std::string swp::renderArcs(const Ddg &G, const MachineModel &Machine,
                            int OpClass, int T,
                            const std::vector<int> &Offsets,
                            const std::vector<int> &Mapping) {
  const FuType &Ty = Machine.type(OpClass);
  std::vector<int> Ops = G.nodesOfClass(OpClass);
  std::string Out =
      strFormat("%s occupation arcs on the cycle [0, %d):\n", Ty.Name.c_str(),
                T);
  for (size_t Ix = 0; Ix < Ops.size(); ++Ix) {
    int Op = Ops[Ix];
    const ReservationTable &Table = Machine.tableFor(G.node(Op));
    std::vector<bool> BusySlot(static_cast<size_t>(T), false);
    for (int S = 0; S < Table.numStages(); ++S)
      for (int L : Table.busyColumns(S))
        BusySlot[static_cast<size_t>((Offsets[Ix] + L) % T)] = true;
    std::string Line;
    for (int Slot = 0; Slot < T; ++Slot)
      Line += BusySlot[static_cast<size_t>(Slot)] ? '#' : '.';
    bool Wraps = false;
    for (int S = 0; S < Table.numStages() && !Wraps; ++S)
      for (int L : Table.busyColumns(S))
        if (Offsets[Ix] + L >= T) {
          Wraps = true;
          break;
        }
    Out += strFormat("  %-6s |%s|%s", G.node(Op).Name.c_str(), Line.c_str(),
                     Wraps ? "  (wraps: two same-colored fragments)" : "");
    if (!Mapping.empty())
      Out += strFormat("  -> unit %d", Mapping[Ix]);
    Out += '\n';
  }
  return Out;
}
