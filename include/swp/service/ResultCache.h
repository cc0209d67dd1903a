//===- swp/service/ResultCache.h - Memoized scheduling results --*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sharded, mutex-protected, capacity-bounded LRU map from job
/// fingerprints to finished SchedulerResults.  Sharding keeps lock
/// contention negligible when many worker threads look up concurrently;
/// the solver is deterministic, so a first-insert-wins policy on duplicate
/// keys returns results identical to a cold solve.
///
/// Every shard holds at most PerShardCapacity entries: inserting into a
/// full shard evicts the least-recently-used entry (lookups refresh
/// recency), so a long-lived daemon's cache cannot grow without bound.
/// Evictions are counted for ServiceStats.
///
/// The cache can be shared across SchedulerService instances (the swpd
/// daemon keys services by machine but pools their memoization), and its
/// contents can be snapshotted to disk and restored by swp/service's
/// CachePersist layer — restore() is the loader's entry point, bypassing
/// the fault-injection gating that guards live inserts.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SERVICE_RESULTCACHE_H
#define SWP_SERVICE_RESULTCACHE_H

#include "swp/core/Driver.h"
#include "swp/service/Fingerprint.h"

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace swp {

/// Thread-safe fingerprint -> SchedulerResult LRU cache.
class ResultCache {
public:
  /// Default per-shard bound: 16 shards x 4096 entries; at most ~65k
  /// memoized results before eviction starts.
  static constexpr std::size_t DefaultPerShardCapacity = 4096;

  explicit ResultCache(std::size_t NumShards = 16,
                       std::size_t PerShardCapacity = DefaultPerShardCapacity);

  /// \returns true and writes \p Out when \p Key is cached; a hit moves
  /// the entry to most-recently-used.
  bool lookup(const Fingerprint &Key, SchedulerResult &Out) const;

  /// Inserts \p Value under \p Key; the first insert wins on a duplicate
  /// key (concurrent solvers of identical jobs produce equal results).
  /// A full shard evicts its least-recently-used entry.
  void insert(const Fingerprint &Key, const SchedulerResult &Value);

  /// Loader path (snapshot restore): same first-insert-wins/eviction
  /// semantics as insert() but without the fault-injection gating — the
  /// persistence layer has already checksummed what it restores.
  void restore(const Fingerprint &Key, const SchedulerResult &Value);

  /// Number of cached entries (racy under concurrent inserts; exact when
  /// quiescent).
  std::size_t size() const;

  /// Entries evicted by capacity pressure since construction.
  std::uint64_t evictions() const;

  std::size_t numShards() const { return Shards.size(); }

  /// Copies shard \p S's entries, least-recently-used first (so replaying
  /// them through restore() reproduces the recency order).  Snapshot
  /// writers iterate shards to keep each lock hold short.
  std::vector<std::pair<Fingerprint, SchedulerResult>>
  shardEntries(std::size_t S) const;

  void clear();

private:
  struct Shard {
    mutable std::mutex Mutex;
    /// MRU at front, LRU at back.
    std::list<std::pair<Fingerprint, SchedulerResult>> Items;
    std::unordered_map<Fingerprint, decltype(Items)::iterator,
                       FingerprintHasher>
        Map;
    std::uint64_t Evictions = 0;
  };

  void insertLocked(Shard &S, const Fingerprint &Key,
                    const SchedulerResult &Value);

  Shard &shardFor(const Fingerprint &Key) const {
    return *Shards[static_cast<std::size_t>(FingerprintHasher()(Key)) %
                   Shards.size()];
  }

  std::vector<std::unique_ptr<Shard>> Shards;
  std::size_t Capacity;
};

} // namespace swp

#endif // SWP_SERVICE_RESULTCACHE_H
