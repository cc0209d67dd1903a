//===- swp/solver/BranchAndBound.h - MILP search ----------------*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Depth-first branch-and-bound MILP solver over the simplex LP relaxation.
///
/// The scheduling driver mostly asks feasibility questions ("is there a
/// schedule+mapping at initiation interval T?"), so the solver supports
/// stopping at the first incumbent; full optimization (for the coloring
/// objective) prunes on the incumbent bound.  Time and node limits reproduce
/// the paper's censored solve-time reporting (its "10/30" note).
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SOLVER_BRANCHANDBOUND_H
#define SWP_SOLVER_BRANCHANDBOUND_H

#include "swp/solver/Model.h"
#include "swp/support/Cancellation.h"
#include "swp/support/Status.h"

#include <cstdint>
#include <vector>

namespace swp {

class SparseLp;

/// Outcome classification of a MILP solve.
enum class MilpStatus {
  /// An optimal integer solution was found and proven (or the first
  /// incumbent, when StopAtFirstIncumbent is set).
  Optimal,
  /// Proven to have no integer solution.
  Infeasible,
  /// A limit was hit after at least one incumbent was found.
  Feasible,
  /// A limit was hit before any incumbent was found; nothing is proven.
  Unknown,
  /// The solve could not run at all (malformed model, injected or real
  /// resource failure); MilpResult::Error carries the typed Status.
  Error,
};

/// Why a search stopped before completing its proof.  Complements
/// MilpStatus: a Feasible/Unknown status says *that* the proof was
/// censored, the stop reason says *by what*.
enum class SearchStop {
  /// The search ran to completion (proof finished, or it stopped at the
  /// first incumbent by request).
  None,
  /// The wall-clock limit expired.
  TimeLimit,
  /// The node limit was reached.
  NodeLimit,
  /// A cancellation token fired (explicit cancel or deadline).
  Cancelled,
  /// The LP relaxation failed to converge at some node, censoring every
  /// proof beneath it.
  LpStall,
  /// A fault (injected or real — node-expansion death, allocation failure,
  /// spurious LP answer) censored the search; nothing beneath it is
  /// trusted.
  Fault,
};

/// Short lowercase name of \p S ("time-limit", "cancelled", ...).
const char *searchStopName(SearchStop S);

/// Short lowercase name of \p S ("optimal", "infeasible", ...).
const char *milpStatusName(MilpStatus S);

/// Knobs for a branch-and-bound run.
struct MilpOptions {
  /// Wall-clock limit in seconds (checked per node).
  double TimeLimitSec = 1e18;
  /// Maximum number of explored nodes.
  std::int64_t NodeLimit = INT64_MAX;
  /// Return as soon as any integer-feasible point is found.
  bool StopAtFirstIncumbent = false;
  /// Optional warm-start assignment: when it is feasible for the model it
  /// becomes the initial incumbent, so a censored search can never return
  /// anything worse.  Ignored when infeasible or empty.
  std::vector<double> WarmStart;
  /// Cooperative cancellation: polled once per node alongside the time and
  /// node limits.  A default token never fires.
  CancellationToken Cancel;
};

/// Result of a branch-and-bound run.
struct MilpResult {
  MilpStatus Status = MilpStatus::Unknown;
  /// What cut the search short (SearchStop::None when nothing did).
  SearchStop StopReason = SearchStop::None;
  /// Typed error detail when Status == MilpStatus::Error.
  swp::Status Error;
  double Objective = 0.0;
  /// Incumbent assignment (empty when none was found).
  std::vector<double> X;
  std::int64_t Nodes = 0;

  bool hasSolution() const { return !X.empty(); }
  /// True when the reported status is a proof (optimal or infeasible),
  /// i.e. no limit censored the search.
  bool isProven() const {
    return Status == MilpStatus::Optimal || Status == MilpStatus::Infeasible;
  }
};

/// Solves \p M (minimization) by branch and bound.
MilpResult solveMilp(const MilpModel &M, const MilpOptions &Opts = {});

/// Same search over a caller-owned LP workspace bound to \p M.  The first
/// node reoptimizes from whatever basis \p Lp carries (a previous solve on
/// nearby bounds, or a seedBasis crash from another model), and each child
/// node dual-reoptimizes from its parent's basis instead of solving from
/// scratch.  The workspace keeps its final basis for the caller's next use.
MilpResult solveMilp(SparseLp &Lp, const MilpModel &M,
                     const MilpOptions &Opts = {});

} // namespace swp

#endif // SWP_SOLVER_BRANCHANDBOUND_H
