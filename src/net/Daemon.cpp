//===- Daemon.cpp - The swpd scheduling daemon ----------------------------===//

#include "swp/net/Daemon.h"

#include "swp/service/CachePersist.h"
#include "swp/support/Format.h"
#include "swp/support/TextTable.h"
#include "swp/textio/Parser.h"

#include <algorithm>
#include <iterator>
#include <optional>

using namespace swp;
using namespace swp::net;

namespace {

/// Pairs one admitted request with its complete() on every exit path.
class AdmitGuard {
public:
  explicit AdmitGuard(AdmissionController &C) : Ctrl(C) {}
  ~AdmitGuard() { Ctrl.complete(); }
  AdmitGuard(const AdmitGuard &) = delete;
  AdmitGuard &operator=(const AdmitGuard &) = delete;

private:
  AdmissionController &Ctrl;
};

} // namespace

Daemon::Daemon(DaemonOptions O)
    : Opts(std::move(O)),
      Cache(std::make_shared<ResultCache>(Opts.CacheShards,
                                          Opts.CachePerShardCapacity)),
      Service(Opts.Service, Cache), Admission(Opts.Admission) {}

Daemon::~Daemon() { stop(); }

Status Daemon::start() {
  if (Running.load())
    return Status(StatusCode::InvalidInput, "daemon already running")
        .withPhase("daemon-start");
  if (!Opts.SnapshotDir.empty()) {
    Expected<SnapshotLoadStats> Loaded =
        loadCacheSnapshot(*Cache, Opts.SnapshotDir);
    if (!Loaded.ok())
      return Loaded.status();
    std::lock_guard<std::mutex> Lock(StatsMutex);
    Counters.SnapshotEntriesLoaded += Loaded->Entries;
    Counters.SnapshotCorruptShards += Loaded->CorruptShards;
  }
  Expected<ListenSocket> L = ListenSocket::listenUnix(Opts.SocketPath);
  if (!L.ok())
    return L.status();
  Listener = std::move(*L);
  StopFlag.store(false);
  Running.store(true);
  AcceptThread = std::thread([this] { acceptLoop(); });
  return Status::ok();
}

void Daemon::stop() {
  if (!Running.exchange(false))
    return;
  StopFlag.store(true);
  if (AcceptThread.joinable())
    AcceptThread.join();
  Listener.close();
  // The accept thread is gone, so no connection thread starts after this.
  std::list<ConnThread> Open;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Open.splice(Open.end(), ConnThreads);
  }
  for (ConnThread &C : Open)
    C.Thread.join();
  if (!Opts.SnapshotDir.empty())
    (void)saveSnapshot();
}

bool Daemon::waitShutdownRequested(double TimeoutSeconds) {
  std::unique_lock<std::mutex> Lock(ShutdownMutex);
  return ShutdownCv.wait_for(Lock,
                             std::chrono::duration<double>(TimeoutSeconds),
                             [this] { return ShutdownRequested; });
}

Status Daemon::saveSnapshot() {
  std::lock_guard<std::mutex> Lock(SnapshotMutex);
  Expected<SnapshotSaveStats> Saved =
      saveCacheSnapshot(*Cache, Opts.SnapshotDir);
  if (!Saved.ok())
    return Saved.status();
  std::lock_guard<std::mutex> SLock(StatsMutex);
  ++Counters.SnapshotSaves;
  return Status::ok();
}

DaemonStats Daemon::stats() const {
  DaemonStats S;
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    S = Counters;
  }
  S.Admission = Admission.stats();
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    S.HeldConnectionThreads = ConnThreads.size();
  }
  S.Service = Service.stats();
  return S;
}

std::string Daemon::statsText() const {
  DaemonStats S = stats();
  TextTable D;
  D.setHeader({"Daemon", "Value"});
  D.addRow({"connections", std::to_string(S.Connections)});
  D.addRow({"requests", std::to_string(S.Requests)});
  D.addRow({"frame errors", std::to_string(S.FrameErrors)});
  D.addRow({"io errors", std::to_string(S.IoErrors)});
  D.addRow({"snapshot saves", std::to_string(S.SnapshotSaves)});
  D.addRow({"snapshot entries loaded",
            std::to_string(S.SnapshotEntriesLoaded)});
  D.addRow({"snapshot corrupt shards",
            std::to_string(S.SnapshotCorruptShards)});
  D.addRow({"machine texts parsed", std::to_string(S.MachineTextsParsed)});
  D.addRow({"connection threads held",
            std::to_string(S.HeldConnectionThreads)});
  TextTable A;
  A.setHeader({"Admission", "Value"});
  A.addRow({"admitted", std::to_string(S.Admission.Admitted)});
  A.addRow({"reduced effort", std::to_string(S.Admission.ReducedEffort)});
  A.addRow({"heuristic only", std::to_string(S.Admission.HeuristicOnly)});
  A.addRow({"shed", std::to_string(S.Admission.Shed)});
  A.addRow({"tenant shed", std::to_string(S.Admission.TenantShed)});
  A.addRow({"in flight", std::to_string(S.Admission.InFlight)});
  A.addRow({"in-flight high-water",
            std::to_string(S.Admission.InFlightHighWater)});
  return D.render() + "\n" + A.render() + "\n" + S.Service.render();
}

std::shared_ptr<const MachineModel>
Daemon::machineFor(const std::string &MachineText, MachineModel *MakeFrom) {
  std::lock_guard<std::mutex> Lock(MachinesMutex);
  for (auto It = Machines.begin(); It != Machines.end(); ++It) {
    if (It->first == MachineText) {
      Machines.splice(Machines.begin(), Machines, It);
      return It->second;
    }
  }
  if (!MakeFrom)
    return nullptr;
  auto Model = std::make_shared<const MachineModel>(std::move(*MakeFrom));
  Machines.emplace_front(MachineText, Model);
  if (Machines.size() > std::max<std::size_t>(Opts.MaxMachines, 1))
    Machines.pop_back(); // A request using it still holds its pointer.
  return Model;
}

ScheduleResponseMsg Daemon::handleSchedule(const ScheduleRequestMsg &Req) {
  bumpCounter(&DaemonStats::Requests);
  ScheduleResponseMsg Resp;

  JobOptions Job;
  if (!parseSchedulerName(Req.Scheduler, Job.Engine, Job.Portfolio)) {
    Resp.Outcome = ResponseOutcome::Error;
    Resp.Reason = "unknown scheduler '" + Req.Scheduler + "'";
    return Resp;
  }
  // Machine bytes equal to a table key reuse its model; any other text is
  // parsed here and canonicalized only if a solve has to keep it.
  std::shared_ptr<const MachineModel> Kept =
      machineFor(Req.MachineText, nullptr);
  std::optional<MachineModel> Parsed;
  if (!Kept) {
    bumpCounter(&DaemonStats::MachineTextsParsed);
    Expected<MachineModel> Machine = parseMachineText(Req.MachineText);
    if (!Machine.ok()) {
      Resp.Outcome = ResponseOutcome::Error;
      Resp.Reason = "machine: " + Machine.status().str();
      return Resp;
    }
    Parsed.emplace(std::move(*Machine));
  }
  const MachineModel &Machine = Kept ? *Kept : *Parsed;
  Expected<Ddg> Loop = parseLoopText(Req.LoopText, Machine);
  if (!Loop.ok()) {
    Resp.Outcome = ResponseOutcome::Error;
    Resp.Reason = "loop: " + Loop.status().str();
    return Resp;
  }

  AdmissionDecision D = Admission.admit(
      Req.Tenant.empty() ? "default" : Req.Tenant, Req.DeadlineSeconds);
  Resp.Degradation = D.Level;
  Resp.Reason = D.Reason;
  if (!D.admitted()) {
    // Shed: no solve ran, nothing is cached, the response says why.
    Resp.Outcome = ResponseOutcome::Shed;
    return Resp;
  }
  AdmitGuard Guard(Admission);

  SchedulerResult R;
  if (D.Level == DegradationLevel::HeuristicOnly) {
    // Saturated: the heuristic ladder answers directly, bypassing the
    // service so the degraded result can never be memoized as the
    // full-effort answer.
    R = runHeuristicLadder(*Loop, Machine, Opts.Service.Sched.MaxTSlack);
  } else {
    if (Req.DeadlineSeconds > 0)
      Job.DeadlineSeconds = Req.DeadlineSeconds;
    Job = Admission.degrade(Job, D.Level);
    // Canonical machine text keys the table: two requests whose machine
    // sections parse to the same model share one entry however they were
    // formatted.
    if (!Kept)
      Kept = machineFor(printMachine(*Parsed), &*Parsed);
    R = Service.schedule(*Kept, std::move(*Loop), Job);
  }

  Resp.HasResult = true;
  Resp.Result = std::move(R);
  if (!Resp.Result.Error.isOk() &&
      Resp.Result.Error.code() == StatusCode::InvalidInput) {
    Resp.Outcome = ResponseOutcome::Error;
    Resp.Reason = Resp.Result.Error.str();
  } else {
    Resp.Outcome = Resp.Result.found() ? ResponseOutcome::Solved
                                       : ResponseOutcome::Unsolved;
  }
  noteCompletion();
  return Resp;
}

void Daemon::noteCompletion() {
  std::lock_guard<std::mutex> Lock(StatsMutex);
  ++CompletionsSinceSnapshot;
}

void Daemon::saveSnapshotIfDue() {
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    if (Opts.SnapshotEvery == 0 || Opts.SnapshotDir.empty() ||
        CompletionsSinceSnapshot < Opts.SnapshotEvery)
      return;
    CompletionsSinceSnapshot = 0;
  }
  (void)saveSnapshot();
}

void Daemon::bumpCounter(std::uint64_t DaemonStats::*Field) {
  std::lock_guard<std::mutex> Lock(StatsMutex);
  ++(Counters.*Field);
}

void Daemon::reapFinishedConnections() {
  std::list<ConnThread> Finished;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (auto It = ConnThreads.begin(); It != ConnThreads.end();) {
      auto Next = std::next(It);
      if (It->Done.load())
        Finished.splice(Finished.end(), ConnThreads, It);
      It = Next;
    }
  }
  for (ConnThread &C : Finished)
    C.Thread.join();
}

void Daemon::acceptLoop() {
  while (!StopFlag.load()) {
    // A finished connection's thread keeps its stack mapped until joined.
    reapFinishedConnections();
    // Periodic saves run here, so no response waits for a save's fsyncs.
    saveSnapshotIfDue();
    Expected<Socket> Conn = Listener.accept(0.1);
    if (!Conn.ok())
      continue; // Timeout slice (or transient accept error): poll StopFlag.
    bumpCounter(&DaemonStats::Connections);
    std::lock_guard<std::mutex> Lock(ConnMutex);
    ConnThread &C = ConnThreads.emplace_back();
    C.Thread = std::thread(
        [this, &Done = C.Done,
         Sock = std::make_shared<Socket>(std::move(*Conn))]() mutable {
          handleConnection(std::move(*Sock));
          Done.store(true);
        });
  }
}

void Daemon::handleConnection(Socket Conn) {
  auto SendError = [&](const std::string &Reason) {
    ByteWriter W;
    W.str(Reason);
    (void)Conn.sendFrame(MessageType::ErrorResponse, W.data(),
                         Opts.IoTimeoutSeconds);
  };

  while (!StopFlag.load()) {
    // Idle in short slices so stop() is never blocked on a quiet client;
    // once bytes arrive the full I/O timeout governs the frame.
    Status Ready = Conn.waitReadable(0.1);
    if (!Ready.isOk()) {
      if (Ready.code() == StatusCode::ResourceExhausted)
        continue;
      bumpCounter(&DaemonStats::IoErrors);
      return;
    }
    MessageType Type;
    std::vector<std::uint8_t> Payload;
    Status St = Conn.recvFrame(Type, Payload, Opts.IoTimeoutSeconds);
    if (!St.isOk()) {
      if (St.code() == StatusCode::Cancelled)
        return; // Peer hung up: the normal end of a connection.
      if (St.code() == StatusCode::InvalidInput) {
        // Corrupt frame: answer with the reason, then tear down — the
        // stream has no resync point after corruption.
        bumpCounter(&DaemonStats::FrameErrors);
        SendError(St.str());
        return;
      }
      bumpCounter(&DaemonStats::IoErrors);
      return;
    }

    switch (Type) {
    case MessageType::ScheduleRequest: {
      ScheduleRequestMsg Req;
      ByteReader R(Payload);
      ScheduleResponseMsg Resp;
      if (!decodeScheduleRequest(R, Req) || !R.done()) {
        // The frame passed its CRC, so the stream is intact; the payload
        // is semantically bad.  A well-formed Error response, connection
        // kept.
        bumpCounter(&DaemonStats::FrameErrors);
        Resp.Outcome = ResponseOutcome::Error;
        Resp.Reason = "malformed schedule request payload";
      } else {
        Resp = handleSchedule(Req);
      }
      ByteWriter W;
      encodeScheduleResponse(W, Resp);
      if (Status SendSt = Conn.sendFrame(MessageType::ScheduleResponse,
                                         W.data(), Opts.IoTimeoutSeconds);
          !SendSt.isOk()) {
        bumpCounter(&DaemonStats::IoErrors);
        return;
      }
      break;
    }
    case MessageType::StatsRequest: {
      ByteWriter W;
      W.str(statsText());
      if (Status SendSt = Conn.sendFrame(MessageType::StatsResponse,
                                         W.data(), Opts.IoTimeoutSeconds);
          !SendSt.isOk()) {
        bumpCounter(&DaemonStats::IoErrors);
        return;
      }
      break;
    }
    case MessageType::Shutdown: {
      (void)Conn.sendFrame(MessageType::ShutdownAck, {},
                           Opts.IoTimeoutSeconds);
      {
        std::lock_guard<std::mutex> Lock(ShutdownMutex);
        ShutdownRequested = true;
      }
      ShutdownCv.notify_all();
      return;
    }
    default:
      SendError(strFormat("unsupported message type %u",
                          static_cast<unsigned>(Type)));
      break;
    }
  }
}
