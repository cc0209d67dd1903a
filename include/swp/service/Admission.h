//===- swp/service/Admission.h - Admission control & shedding ---*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Admission control in front of the SchedulerService: a bounded in-flight
/// budget with graceful degradation instead of a cliff.  As concurrent
/// load climbs through the thresholds, requests are first solved at
/// reduced exact-engine effort, then answered by the heuristic ladder
/// alone (slack-modulo -> iterative-modulo, still verified), and only when
/// the queue is truly full are they shed — with an explicit Shed response
/// naming the reason, never a hang or a silent drop.
///
///     in-flight < ReducedEffortAt   -> full effort
///     in-flight < HeuristicOnlyAt   -> reduced exact effort
///     in-flight < MaxInFlight      -> heuristic ladder only
///     otherwise                     -> shed
///
/// Per-tenant deadline budgets ride on top: each tenant owns a token
/// bucket of solve-seconds; an admitted request charges its deadline (or a
/// nominal cost when it has none) and the bucket refills continuously.  A
/// tenant that outruns its budget is shed individually while others keep
/// full service.  A refill rate of zero makes the bucket a hard quota,
/// which is what the deterministic tests use.
///
/// Degraded and shed results are never cached — the daemon consults the
/// decision's level before memoizing (a HeuristicOnly answer under load
/// must not mask the full-effort answer after load subsides).
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SERVICE_ADMISSION_H
#define SWP_SERVICE_ADMISSION_H

#include "swp/service/SchedulerService.h"

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace swp {

/// How much the admission controller degraded one request.
enum class DegradationLevel : std::uint8_t {
  /// Full service: the configured engine at configured effort.
  None,
  /// Exact engines still run, but with a reduced per-T time slice and a
  /// narrower candidate-T window.
  ReducedEffort,
  /// Only the heuristic ladder runs; no exact engine, no proofs beyond
  /// "sits on T_lb".
  HeuristicOnly,
  /// Not admitted at all; the response says so and why.
  Shed,
};

/// Short stable name of \p L ("none", "reduced-effort", ...).
const char *degradationLevelName(DegradationLevel L);

struct AdmissionOptions {
  /// Hard in-flight bound; requests beyond it are shed.
  int MaxInFlight = 64;
  /// In-flight depth at which exact effort is reduced.
  int ReducedEffortAt = 32;
  /// In-flight depth at which only the heuristic ladder runs.
  int HeuristicOnlyAt = 48;
  /// Per-T time limit applied at ReducedEffort (seconds).
  double ReducedTimeLimitPerT = 0.25;
  /// Candidate-T window cap applied at ReducedEffort.
  int ReducedMaxTSlack = 8;
  /// Per-tenant token bucket capacity in solve-seconds; 0 disables tenant
  /// budgets entirely.
  double TenantBudgetSeconds = 0.0;
  /// Bucket refill rate in solve-seconds per wall second; 0 never refills
  /// (a hard quota, used by deterministic tests).
  double TenantRefillPerSecond = 0.0;
  /// Budget charged by a request that carries no explicit deadline.
  double DefaultChargeSeconds = 1.0;
};

/// The verdict for one request.
struct AdmissionDecision {
  DegradationLevel Level = DegradationLevel::None;
  /// Human-readable cause for any non-None level (carried back to the
  /// client in its response).
  std::string Reason;

  bool admitted() const { return Level != DegradationLevel::Shed; }
};

struct AdmissionStats {
  std::uint64_t Admitted = 0;
  std::uint64_t ReducedEffort = 0;
  std::uint64_t HeuristicOnly = 0;
  std::uint64_t Shed = 0;
  /// Of Shed, how many were per-tenant budget rejections (the queue may
  /// have had room).
  std::uint64_t TenantShed = 0;
  int InFlight = 0;
  int InFlightHighWater = 0;
};

/// Thread-safe admission controller; one per daemon, in front of its
/// SchedulerService.
class AdmissionController {
public:
  explicit AdmissionController(AdmissionOptions Opts = {});

  /// Decides one request from \p Tenant that asks for \p DeadlineSeconds
  /// of solve budget (<= 0 means no explicit deadline).  Every admitted()
  /// decision must be paired with exactly one complete() when the request
  /// finishes, whatever its outcome.
  AdmissionDecision admit(const std::string &Tenant, double DeadlineSeconds);

  /// Releases the in-flight slot of one admitted request.
  void complete();

  /// Applies \p Level's effort reduction to \p Base (ReducedEffort tightens
  /// limits; other levels pass through — HeuristicOnly bypasses the exact
  /// engines entirely, so there is nothing to tighten).
  JobOptions degrade(const JobOptions &Base, DegradationLevel Level) const;

  AdmissionStats stats() const;
  const AdmissionOptions &options() const { return Opts; }

private:
  struct TenantBucket {
    double Tokens = 0.0;
    std::chrono::steady_clock::time_point LastRefill;
  };

  AdmissionOptions Opts;
  mutable std::mutex Mutex;
  AdmissionStats Counters;
  std::unordered_map<std::string, TenantBucket> Tenants;
};

} // namespace swp

#endif // SWP_SERVICE_ADMISSION_H
