//===- swp/service/ServiceStats.h - Service observability -------*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Observability counters of a SchedulerService: throughput, cache
/// effectiveness, cancellations, censored proofs, queue pressure, and a
/// log2-bucketed per-loop latency histogram.  render() prints the whole
/// thing as swp/support/TextTable tables.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SERVICE_SERVICESTATS_H
#define SWP_SERVICE_SERVICESTATS_H

#include <array>
#include <cstdint>
#include <string>

namespace swp {

/// Log2-bucketed latency histogram: bucket b counts latencies in
/// [2^b, 2^(b+1)) microseconds; the last bucket absorbs the overflow.
struct LatencyHistogram {
  static constexpr int NumBuckets = 24; // 1us .. ~8.4s, then overflow.

  std::array<std::uint64_t, NumBuckets> Buckets{};
  std::uint64_t Count = 0;
  double TotalSeconds = 0.0;
  double MaxSeconds = 0.0;

  void add(double Seconds);

  double meanSeconds() const {
    return Count == 0 ? 0.0 : TotalSeconds / static_cast<double>(Count);
  }

  /// Human label of bucket \p B's lower bound ("1us", "512us", "2.1s").
  static std::string bucketLabel(int B);
};

/// A consistent snapshot of a SchedulerService's counters.
struct ServiceStats {
  /// Worker threads in the pool.
  int Jobs = 0;
  /// Deepest the job queue has ever been.
  int QueueHighWater = 0;
  std::uint64_t Submitted = 0;
  std::uint64_t Completed = 0;
  std::uint64_t CacheHits = 0;
  std::uint64_t CacheMisses = 0;
  /// Entries currently memoized in the result cache ...
  std::uint64_t CacheSize = 0;
  /// ... and entries its LRU policy has evicted under capacity pressure.
  std::uint64_t CacheEvictions = 0;
  /// Loops whose search was cut short by a deadline or cancelAll().
  std::uint64_t Cancellations = 0;
  /// Loops with at least one attempt whose optimality/infeasibility proof
  /// was censored by a limit (the paper's "10/30" situation).
  std::uint64_t CensoredProofs = 0;
  /// Portfolio outcomes: loops settled by the heuristic leg alone (it hit
  /// T_lb, so the ILP leg was cancelled unstarted) ...
  std::uint64_t PortfolioHeuristicWins = 0;
  /// ... loops where the ILP leg beat or proved the heuristic incumbent ...
  std::uint64_t PortfolioIlpWins = 0;
  /// ... and loops that fell back to the heuristic incumbent after the ILP
  /// leg was cancelled or exhausted its window without a schedule.
  std::uint64_t PortfolioFallbacks = 0;
  /// Search effort of fresh solves: their TotalNodes summed (B&B nodes
  /// plus CDCL conflicts, whichever engines ran).
  std::uint64_t SearchNodes = 0;
  /// Failure-domain counters: loops whose solve saw at least one injected
  /// fault fire ...
  std::uint64_t FaultedJobs = 0;
  /// ... loops that finished with a typed (non-ok) Status attached ...
  std::uint64_t TypedErrors = 0;
  /// ... watchdog re-runs after a transient fault (sum over all jobs) ...
  std::uint64_t WatchdogRetries = 0;
  /// ... jobs the fallback ladder rescued with slack-modulo scheduling ...
  std::uint64_t FallbackSlackWins = 0;
  /// ... or with iterative-modulo scheduling ...
  std::uint64_t FallbackImsWins = 0;
  /// ... and jobs a dispatch fault bounced back to the queue.
  std::uint64_t DispatchFaults = 0;
  /// LP effort across every exact solve the service ran: simplex pivots
  /// (primal + dual) ...
  std::uint64_t LpPivots = 0;
  /// ... basis refactorizations (eta file rebuilt) ...
  std::uint64_t LpRefactorizations = 0;
  /// ... LP solves answered ...
  std::uint64_t LpSolves = 0;
  /// ... of which started from a carried/seeded basis (warm starts: B&B
  /// children off the parent basis, cross-T carries, probe-to-search).
  std::uint64_t LpWarmSolves = 0;
  /// Seconds pooled jobs spent queued before a worker took them, summed
  /// (a hit answered on the caller's thread waits for none).
  double QueueWaitSeconds = 0.0;
  LatencyHistogram Latency;

  /// Accumulates another service's counters into these: sums, with the
  /// worker count, the queue high-water mark and the latency maximum taken
  /// as maxima.  CacheSize and CacheEvictions describe a cache that
  /// services may share, so they are left for the caller to set.
  void merge(const ServiceStats &B);

  /// Renders counters and the latency histogram as aligned text tables.
  std::string render() const;
};

} // namespace swp

#endif // SWP_SERVICE_SERVICESTATS_H
