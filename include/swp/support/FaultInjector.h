//===- swp/support/FaultInjector.h - Deterministic fault injection -*- C++ -*-//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide fault-injection registry exercising the failure domain
/// end to end.  Injection points are threaded into the hot paths that can
/// fail in production — the simplex pivot loop, branch-and-bound node
/// expansion, thread-pool task dispatch, result-cache inserts, and the
/// service's per-job deadline arm — and each polls its FaultSite here.
/// When a site fires, the host code fails exactly the way the real fault
/// would (LP stall, spurious infeasibility, allocation failure, deadline
/// expiry, worker death), so tests and the fuzz harness can prove the
/// fallback ladder always degrades to a verified schedule or an explicit
/// Infeasible — never an abort, hang, or silent wrong answer.
///
/// Configuration is a comma-separated spec, programmatic or via the
/// SWP_FAULTS environment variable (read once, lazily):
///
///     SWP_FAULTS="lp-stall:p0.25,bnb-node:3,deadline:1"
///
/// `site:N` fires on the first N polls of that site; `site:pP` fires each
/// poll independently with probability P.  Probabilistic decisions hash
/// (seed, site, per-site poll index) — splitmix64, no shared RNG stream —
/// so the k-th poll of a site fires identically across runs and thread
/// interleavings (SWP_FAULTS_SEED overrides the default seed 0).
///
/// The disarmed fast path is one relaxed atomic load; production code pays
/// nothing when no spec is installed.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SUPPORT_FAULTINJECTOR_H
#define SWP_SUPPORT_FAULTINJECTOR_H

#include <atomic>
#include <cstdint>
#include <string>

namespace swp {

/// Every instrumented failure point.
enum class FaultSite {
  /// Simplex pivot loop: the LP reports IterLimit (a stall).
  LpStall,
  /// Simplex entry: the LP spuriously reports Infeasible.
  LpInfeasible,
  /// Branch-and-bound node expansion: the search dies with a typed error.
  BnbNode,
  /// Model/workspace allocation in scheduleAtT fails (ResourceExhausted).
  Alloc,
  /// Thread-pool dispatch: the worker "dies" before running the job; the
  /// pool requeues it (bounded), exercising the job-rescue path.
  Dispatch,
  /// ResultCache::insert drops the insert (cache write lost).
  CacheInsert,
  /// Service per-job watchdog: the job's deadline expires immediately.
  Deadline,
  /// CDCL conflict handling: the SAT search dies mid-proof; the solve
  /// reports Unknown (never a fake Unsat).
  SatConflict,
  /// Socket read in the swpd wire path: the read fails as a peer reset
  /// would (typed error, connection torn down, never a partial frame).
  SockRead,
  /// Socket write in the swpd wire path: the write fails mid-frame.
  SockWrite,
  /// Cache snapshot load: a shard file reads as corrupt; the loader must
  /// rebuild that shard from empty instead of trusting it.
  CacheLoad,
  /// Simplex basis refactorization: the factorization "fails" (singular /
  /// overflowing basis); the solve degrades to IterLimit, never a proof.
  LpRefactor,
};

inline constexpr int NumFaultSites = 12;

/// Short stable name of \p S ("lp-stall", "bnb-node", ...).
const char *faultSiteName(FaultSite S);

/// The process-wide injector.  All members are thread-safe.
class FaultInjector {
public:
  /// The singleton; first call applies SWP_FAULTS / SWP_FAULTS_SEED.
  static FaultInjector &instance();

  /// Installs \p Spec (see file comment), replacing any previous config.
  /// \returns false and sets \p Err on a malformed spec (state is then
  /// fully disarmed).  An empty spec disarms.
  bool configure(const std::string &Spec, std::uint64_t Seed = 0,
                 std::string *Err = nullptr);

  /// Disarms every site and zeroes counters.
  void reset();

  /// True when any site is armed.  One relaxed load — poll freely.
  bool armed() const { return Armed.load(std::memory_order_relaxed); }

  /// Polls \p S: \returns true when the site fires this time.  Counts both
  /// polls and fires.
  bool shouldFire(FaultSite S);

  /// Fires of \p S since the last configure/reset.
  std::uint64_t fired(FaultSite S) const;

  /// Total fires across all sites since the last configure/reset.
  std::uint64_t totalFired() const;

private:
  FaultInjector() = default;

  /// Polls read the configuration while configure() and reset() may
  /// rewrite it, so every field is atomic.
  struct SiteState {
    /// Fire the first Budget polls (-1 = unlimited / unused).
    std::atomic<std::int64_t> Budget{0};
    /// Independent fire probability (used when Budget == -1).
    std::atomic<double> Prob{0.0};
    std::atomic<std::uint64_t> Polls{0};
    std::atomic<std::uint64_t> Fires{0};
    std::atomic<bool> Enabled{false};
  };

  SiteState Sites[NumFaultSites];
  std::atomic<bool> Armed{false};
  std::atomic<std::uint64_t> Seed{0};
};

} // namespace swp

#endif // SWP_SUPPORT_FAULTINJECTOR_H
