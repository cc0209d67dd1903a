//===- ReservationTable.cpp - Pipeline reservation tables -----------------===//

#include "swp/machine/ReservationTable.h"

#include "swp/support/Format.h"

#include <algorithm>
#include <cassert>

using namespace swp;

namespace {

/// Periods up to this many cycles fold a stage's busy columns into one
/// word of residue bits.
constexpr int MaskPeriod = 64;

/// True when stage \p S of an op using \p A and stage \p S of an op using
/// \p B issued \p Delta cycles later occupy one pattern step modulo \p T:
/// some busy columns l1 of A and l2 of B have l1 ≡ l2 + Delta (mod T).
/// Allocation-free and linear in the stage's busy columns.  Short periods
/// fold A's columns into a residue mask; longer ones probe A's row at the
/// columns congruent to l2 + Delta, of which there is at most one unless A
/// is wider than the period.
bool stageOverlaps(const ReservationTable &A, const ReservationTable &B,
                   int S, int Delta, int T) {
  if (T <= MaskPeriod) {
    std::uint64_t Slots = 0;
    for (int L : A.busyColumns(S))
      Slots |= std::uint64_t{1} << (L % T);
    for (int L : B.busyColumns(S))
      if ((Slots >> ((L + Delta) % T)) & 1)
        return true;
    return false;
  }
  for (int L : B.busyColumns(S))
    for (int L1 = (L + Delta) % T; L1 < A.execTime(); L1 += T)
      if (A.busy(S, L1))
        return true;
  return false;
}

} // namespace

ReservationTable::ReservationTable(
    std::vector<std::vector<std::uint8_t>> InRows)
    : Rows(std::move(InRows)) {
  assert(!Rows.empty() && "reservation table needs at least one stage");
  for ([[maybe_unused]] const auto &Row : Rows)
    assert(Row.size() == Rows.front().size() &&
           "all stages must cover the same number of cycles");
  assert(!Rows.front().empty() && "reservation table needs >= 1 column");
  Busy.resize(Rows.size());
  for (int S = 0; S < numStages(); ++S)
    for (int L = 0; L < execTime(); ++L)
      if (busy(S, L))
        Busy[static_cast<size_t>(S)].push_back(L);
}

ReservationTable ReservationTable::cleanPipelined(int ExecTime) {
  assert(ExecTime >= 1 && "execution time must be positive");
  std::vector<std::vector<std::uint8_t>> Rows(
      static_cast<size_t>(ExecTime),
      std::vector<std::uint8_t>(static_cast<size_t>(ExecTime), 0));
  for (int S = 0; S < ExecTime; ++S)
    Rows[static_cast<size_t>(S)][static_cast<size_t>(S)] = 1;
  return ReservationTable(std::move(Rows));
}

ReservationTable ReservationTable::nonPipelined(int ExecTime) {
  assert(ExecTime >= 1 && "execution time must be positive");
  std::vector<std::vector<std::uint8_t>> Rows(
      1, std::vector<std::uint8_t>(static_cast<size_t>(ExecTime), 1));
  return ReservationTable(std::move(Rows));
}

bool ReservationTable::satisfiesModuloConstraint(int T) const {
  assert(T >= 1 && "period must be positive");
  for (int S = 0; S < numStages(); ++S) {
    if (T <= MaskPeriod) {
      std::uint64_t Slots = 0;
      for (int L : busyColumns(S)) {
        const std::uint64_t Slot = std::uint64_t{1} << (L % T);
        if (Slots & Slot)
          return false;
        Slots |= Slot;
      }
      continue;
    }
    // Longer periods: probe the columns congruent to each busy one (none
    // when the table is no wider than the period).
    for (int L : busyColumns(S))
      for (int L2 = L + T; L2 < execTime(); L2 += T)
        if (busy(S, L2))
          return false;
  }
  return true;
}

bool ReservationTable::conflictsAtOffset(int DeltaMod, int T) const {
  return tablesConflictAtOffset(*this, *this, DeltaMod, T);
}

bool ReservationTable::isCleanPipelined() const {
  if (numStages() != execTime())
    return false;
  for (int S = 0; S < numStages(); ++S)
    for (int L = 0; L < execTime(); ++L)
      if (busy(S, L) != (S == L))
        return false;
  return true;
}

bool swp::tablesConflictAtOffset(const ReservationTable &A,
                                 const ReservationTable &B, int DeltaMod,
                                 int T) {
  assert(T >= 1 && DeltaMod >= 0 && DeltaMod < T && "bad offset delta");
  // Op X (table A) at offset p, op Y (table B) at offset p + Delta: stage
  // s collides iff there are busy columns l1 in A(s), l2 in B(s) with
  // l1 ≡ l2 + Delta (mod T).
  int Stages = std::min(A.numStages(), B.numStages());
  for (int S = 0; S < Stages; ++S)
    if (stageOverlaps(A, B, S, DeltaMod, T))
      return true;
  return false;
}

std::string ReservationTable::render() const {
  std::string Out = "        ";
  for (int L = 0; L < execTime(); ++L)
    Out += strFormat("%2d ", L);
  Out += '\n';
  for (int S = 0; S < numStages(); ++S) {
    Out += strFormat("Stage %d ", S + 1);
    for (int L = 0; L < execTime(); ++L)
      Out += strFormat("%2d ", busy(S, L) ? 1 : 0);
    Out += '\n';
  }
  return Out;
}
