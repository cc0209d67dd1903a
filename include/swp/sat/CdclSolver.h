//===- swp/sat/CdclSolver.h - Incremental CDCL SAT solver -------*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A self-contained conflict-driven clause-learning SAT solver in the
/// MiniSat lineage: two-watched-literal unit propagation, VSIDS-style
/// variable activities with a decision heap, first-UIP clause learning,
/// Luby restarts, phase saving, and incremental solving under assumption
/// literals.  The scheduling encoder (CnfEncoder) keeps one instance alive
/// across candidate initiation intervals so clauses learned at period T
/// keep pruning the search at T+1.
///
/// Literals are MiniSat-coded ints: variable v as 2*v (positive) or 2*v+1
/// (negated).  Variables are created with newVar()/newVars() and never
/// removed; the clause database only grows (scheduling instances are small
/// enough that clause-database reduction buys nothing).  Clauses live in
/// one literal pool and are named by index (DESIGN.md Section 10), so
/// adding one allocates nothing once the pool has grown.
///
/// The search cooperates with the rest of the failure domain: it polls a
/// CancellationToken, honours wall-clock and conflict budgets, and polls
/// FaultSite::SatConflict at every conflict so the fuzz harness can prove
/// an injected search death never turns into a fake infeasibility proof
/// (a faulted solve always reports Unknown/SatStop::Fault, never Unsat).
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SAT_CDCLSOLVER_H
#define SWP_SAT_CDCLSOLVER_H

#include "swp/support/Cancellation.h"

#include <cstdint>
#include <initializer_list>
#include <span>

namespace swp {

/// A MiniSat-coded literal: 2*var + (negated ? 1 : 0).
using SatLit = int;

inline SatLit mkLit(int Var, bool Neg = false) { return 2 * Var + (Neg ? 1 : 0); }
inline int litVar(SatLit L) { return L >> 1; }
inline bool litNeg(SatLit L) { return (L & 1) != 0; }
inline SatLit litNot(SatLit L) { return L ^ 1; }

/// Outcome of a solve() call.
enum class SatStatus {
  /// A model was found; read it back with modelValue().
  Sat,
  /// Proven unsatisfiable under the given assumptions.
  Unsat,
  /// A budget, cancellation, or injected fault stopped the search before a
  /// proof; lastStop() says which.
  Unknown,
};

/// Short lowercase name of \p S ("sat", "unsat", "unknown").
const char *satStatusName(SatStatus S);

/// Why a solve() returned Unknown (SatStop::None after Sat/Unsat).
enum class SatStop {
  None,
  TimeLimit,
  ConflictLimit,
  Cancelled,
  Fault,
};

/// Search budgets of one solve() call.
struct SatLimits {
  /// Wall-clock budget in seconds, checked when solve() is entered, every
  /// 64th conflict since the last restart, and at each restart.
  double TimeLimitSec = 1e18;
  /// Conflict budget for this call.
  std::int64_t ConflictLimit = INT64_MAX;
  /// Cooperative cancellation, checked wherever the time limit is.
  CancellationToken Cancel;
};

/// Lifetime counters (monotone across solve() calls; snapshot around a call
/// to get per-call numbers).
struct SatStats {
  std::int64_t Decisions = 0;
  std::int64_t Propagations = 0;
  std::int64_t Conflicts = 0;
  std::int64_t LearnedClauses = 0;
  std::int64_t LearnedLiterals = 0;
  std::int64_t Restarts = 0;
  std::int64_t InjectedFaults = 0;
};

/// The solver.  Not thread-safe; one instance per scheduling job.  Its
/// storage is recycled: a destroyed solver parks its store, reset, in a
/// per-thread slot, and the next solver built on that thread takes it
/// (swp/support/ThreadSpare.h; DESIGN.md Section 10, "Storage reuse").
class CdclSolver {
public:
  CdclSolver();
  ~CdclSolver();
  CdclSolver(const CdclSolver &) = delete;
  CdclSolver &operator=(const CdclSolver &) = delete;

  /// Creates a fresh variable; \returns its index.
  int newVar() { return newVars(1); }

  /// Creates \p Count fresh variables with consecutive indices; \returns
  /// the first.  Same numbering and decision order as \p Count newVar()
  /// calls.
  int newVars(int Count);

  int numVars() const { return NumVars; }
  int numClauses() const { return NumProblemClauses; }

  /// Adds a problem clause (empty clauses and level-0 conflicts make the
  /// instance globally unsat).  Duplicate and opposing literals are
  /// handled; \returns false when the database is already globally unsat.
  /// The literals are copied; \p Lits may be reused once this returns.
  bool addClause(std::span<const SatLit> Lits);
  bool addClause(std::initializer_list<SatLit> Lits) {
    return addClause(std::span<const SatLit>(Lits.begin(), Lits.size()));
  }

  /// True when no level-0 contradiction has been derived yet.
  bool ok() const { return Ok; }

  /// Solves under \p Assumptions (all assumed true for this call only).
  SatStatus solve(std::span<const SatLit> Assumptions,
                  const SatLimits &Limits = {});
  SatStatus solve(std::initializer_list<SatLit> Assumptions,
                  const SatLimits &Limits = {}) {
    return solve(
        std::span<const SatLit>(Assumptions.begin(), Assumptions.size()),
        Limits);
  }

  /// Model value of \p Var after a Sat answer.
  bool modelValue(int Var) const;

  /// What stopped the last solve() (SatStop::None unless it was Unknown).
  SatStop lastStop() const { return LastStop; }

  /// Suggests the first decision polarity of \p Var (phase saving seed).
  void setPolarity(int Var, bool Value);

  const SatStats &stats() const { return Stats; }

private:
  struct Impl;
  Impl *P;

  int NumVars = 0;
  int NumProblemClauses = 0;
  bool Ok = true;
  SatStop LastStop = SatStop::None;
  SatStats Stats;
};

} // namespace swp

#endif // SWP_SAT_CDCLSOLVER_H
