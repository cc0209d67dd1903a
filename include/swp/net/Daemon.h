//===- swp/net/Daemon.h - The swpd scheduling daemon ------------*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The swpd daemon: a local-socket scheduling server in front of the
/// SchedulerService stack.  One accept thread hands each connection to its
/// own thread; connections speak the swp/net/Wire frame protocol and may
/// pipeline any number of requests.
///
/// Requests flow
///
///     frame -> machine table -> parse loop (textio) -> admission
///           -> the service -> response
///
/// The machine table holds parsed machines keyed by their canonical
/// printMachine text, MRU first: request bytes that match a key reuse its
/// model without a parse, and any other text is parsed (and entered under
/// its canonical text once a solve needs it).  The daemon's one
/// SchedulerService answers every (machine, loop, job) request: a cache
/// hit on the connection thread, a miss on its --jobs workers, whatever
/// the mix of machines and engines.
///
/// The AdmissionController degrades under load (reduced exact effort,
/// then heuristic-ladder-only, then shed) and keeps per-tenant deadline
/// budgets.  Every request gets a well-formed ScheduleResponse carrying
/// its outcome, degradation level, and — for solved/unsolved — the full
/// SchedulerResult with its stop chain; corrupt frames get an
/// ErrorResponse and a torn-down connection (a byte stream cannot resync).
///
/// The service's ResultCache persists to SnapshotDir via
/// swp/service/CachePersist at stop and, once SnapshotEvery completions
/// have accumulated, from the accept thread (never on a response path),
/// and loads (tolerating corrupt shards) at start — so a restarted daemon
/// serves warm hits identical to its pre-restart solves.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_NET_DAEMON_H
#define SWP_NET_DAEMON_H

#include "swp/net/Socket.h"
#include "swp/net/Wire.h"
#include "swp/service/Admission.h"
#include "swp/service/SchedulerService.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

namespace swp::net {

struct DaemonOptions {
  std::string SocketPath;
  /// The service's options (each request's scheduler name picks its
  /// engine).
  ServiceOptions Service;
  AdmissionOptions Admission;
  /// Cache snapshot directory; empty disables persistence.
  std::string SnapshotDir;
  /// Save a snapshot every N completed requests (0 = only at stop).  The
  /// accept thread runs a due save within its 0.1 s poll; saves that come
  /// due before it runs coalesce into one.
  std::uint64_t SnapshotEvery = 0;
  /// Per-connection frame read/write timeout in seconds.
  double IoTimeoutSeconds = 5.0;
  /// Parsed machines kept in the table; LRU beyond that.
  std::size_t MaxMachines = 8;
  std::size_t CacheShards = 16;
  std::size_t CachePerShardCapacity = ResultCache::DefaultPerShardCapacity;
};

struct DaemonStats {
  std::uint64_t Connections = 0;
  std::uint64_t Requests = 0;
  /// Frames rejected for corruption or undecodable payloads.
  std::uint64_t FrameErrors = 0;
  /// Connections lost to I/O timeouts or injected socket faults.
  std::uint64_t IoErrors = 0;
  std::uint64_t SnapshotSaves = 0;
  std::uint64_t SnapshotEntriesLoaded = 0;
  std::uint64_t SnapshotCorruptShards = 0;
  /// Requests whose machine text matched no key of the machine table, so
  /// the daemon parsed it.
  std::uint64_t MachineTextsParsed = 0;
  /// Connection threads not yet joined: the live connections plus any
  /// finished ones the accept loop has not reaped yet.
  std::uint64_t HeldConnectionThreads = 0;
  AdmissionStats Admission;
  ServiceStats Service;
};

/// The daemon.  start() spawns the accept thread; stop() (idempotent, also
/// run by the destructor) drains connections and snapshots the cache.
class Daemon {
public:
  explicit Daemon(DaemonOptions Opts);
  ~Daemon();

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Loads the cache snapshot, binds the socket, starts accepting.
  Status start();

  /// Stops accepting, joins every connection, saves the snapshot.
  void stop();

  bool running() const { return Running.load(); }

  /// Blocks until a client sent a Shutdown frame or \p TimeoutSeconds
  /// passed; \returns true when shutdown was requested.  The caller then
  /// runs stop() — a connection thread cannot join itself.
  bool waitShutdownRequested(double TimeoutSeconds);

  DaemonStats stats() const;
  /// Human-readable stats (the StatsRequest frame returns the same text).
  std::string statsText() const;

  /// Explicit snapshot save (also used by the periodic cadence).
  Status saveSnapshot();

private:
  /// Directly answers one already-decoded request (exposed to the
  /// connection loop; also the unit the daemon tests drive in-process).
  ScheduleResponseMsg handleSchedule(const ScheduleRequestMsg &Req);

  /// The table's machine whose canonical text is \p MachineText byte for
  /// byte.  When there is none, a new entry takes over *\p MakeFrom (whose
  /// printMachine text \p MachineText must be), or with \p MakeFrom null
  /// the result is null.
  std::shared_ptr<const MachineModel>
  machineFor(const std::string &MachineText, MachineModel *MakeFrom);
  void acceptLoop();
  /// Runs a periodic snapshot save once SnapshotEvery completions have
  /// accumulated since the last one.
  void saveSnapshotIfDue();
  /// Joins the connection threads whose connection has ended.
  void reapFinishedConnections();
  void handleConnection(Socket Conn);
  void noteCompletion();
  void bumpCounter(std::uint64_t DaemonStats::*Field);

  DaemonOptions Opts;
  std::shared_ptr<ResultCache> Cache;
  SchedulerService Service;
  AdmissionController Admission;
  ListenSocket Listener;

  std::atomic<bool> Running{false};
  std::atomic<bool> StopFlag{false};
  std::thread AcceptThread;

  /// One connection's thread; Done is set as its last action.
  struct ConnThread {
    std::thread Thread;
    std::atomic<bool> Done{false};
  };
  mutable std::mutex ConnMutex;
  std::list<ConnThread> ConnThreads;

  /// Parsed machines keyed by printMachine text, MRU first.  The text is
  /// a parse fixed point, so a request carrying these bytes parses to this
  /// model too.  A request holds its machine's pointer, so eviction never
  /// frees a machine in use.
  std::mutex MachinesMutex;
  std::list<std::pair<std::string, std::shared_ptr<const MachineModel>>>
      Machines;

  mutable std::mutex StatsMutex;
  DaemonStats Counters;
  std::uint64_t CompletionsSinceSnapshot = 0;

  std::mutex ShutdownMutex;
  std::condition_variable ShutdownCv;
  bool ShutdownRequested = false;

  std::mutex SnapshotMutex;
};

} // namespace swp::net

#endif // SWP_NET_DAEMON_H
