//===- swp/machine/ReservationTable.h - Pipeline reservation tables -*- C++ -*-
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reservation tables (Kogge [15]) describing how an operation occupies the
/// stages of a function unit over time — the paper's representation of
/// structural hazards (Section 5).
///
/// A table has s stages and d columns (d = execution time); entry (s, l) is
/// 1 when stage s is busy l cycles after the operation starts.  A *clean*
/// pipeline busies a single dedicated stage for one cycle per stage; a
/// *non-pipelined* unit busies one stage for all d cycles; an *unclean*
/// pipeline has an arbitrary pattern (a stage used twice, or for several
/// cycles).
///
//===----------------------------------------------------------------------===//

#ifndef SWP_MACHINE_RESERVATIONTABLE_H
#define SWP_MACHINE_RESERVATIONTABLE_H

#include <cstdint>
#include <string>
#include <vector>

namespace swp {

/// Stage-by-cycle occupancy pattern of one operation on a function unit.
class ReservationTable {
public:
  ReservationTable() = default;

  /// Builds a table from explicit rows; each inner vector is one stage and
  /// entries are 0/1 busy flags.  All rows must have equal length >= 1.
  explicit ReservationTable(std::vector<std::vector<std::uint8_t>> Rows);

  /// Fully pipelined d-stage unit: stage k busy exactly at cycle k
  /// (no structural hazard; a new op can start every cycle).
  static ReservationTable cleanPipelined(int ExecTime);

  /// Non-pipelined unit: a single stage busy for all of cycles 0..d-1.
  static ReservationTable nonPipelined(int ExecTime);

  int numStages() const { return static_cast<int>(Rows.size()); }
  int execTime() const {
    return Rows.empty() ? 0 : static_cast<int>(Rows.front().size());
  }

  /// True when stage \p Stage is busy \p Cycle cycles after issue.
  bool busy(int Stage, int Cycle) const {
    return Rows[static_cast<size_t>(Stage)][static_cast<size_t>(Cycle)] != 0;
  }

  /// Column offsets at which \p Stage is busy, ascending (computed once,
  /// when the table is built).
  const std::vector<int> &busyColumns(int Stage) const {
    return Busy[static_cast<size_t>(Stage)];
  }

  /// The paper's modulo-scheduling precondition: at period \p T no stage of
  /// a *single* operation may occupy two columns congruent mod T (otherwise
  /// the op collides with itself and T must be skipped — Fig. 2(b)).
  /// Allocation-free, like the two conflict tests below.
  bool satisfiesModuloConstraint(int T) const;

  /// True when two operations issued on the *same* physical unit at pattern
  /// offsets p and q with (q - p) mod T == \p DeltaMod collide on some
  /// stage.  DeltaMod == 0 collides whenever the table is non-empty.
  bool conflictsAtOffset(int DeltaMod, int T) const;

  /// True when every stage is busy at most one cycle and stage k is busy
  /// only at cycle k (the clean-pipeline shape of [9]).
  bool isCleanPipelined() const;

  /// Renders the table as the paper's Figure 2 style grid ("Stage k ...").
  std::string render() const;

private:
  std::vector<std::vector<std::uint8_t>> Rows;
  /// Busy column offsets per stage, ascending.
  std::vector<std::vector<int>> Busy;
};

/// Multi-function pipelines (paper Section 7 extension): two operations of
/// *different* kinds sharing one physical unit, each with its own
/// reservation table over the unit's stages.  \returns true when an op
/// using \p A at pattern offset p and an op using \p B at offset
/// p + \p DeltaMod collide on some stage at period \p T.  Stage indices
/// refer to the same physical stages; the shorter table simply never uses
/// the extra stages.
bool tablesConflictAtOffset(const ReservationTable &A,
                            const ReservationTable &B, int DeltaMod, int T);

} // namespace swp

#endif // SWP_MACHINE_RESERVATIONTABLE_H
