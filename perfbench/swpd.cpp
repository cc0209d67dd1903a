//===- swpd.cpp - The swpd-mixed workload ---------------------------------===//
//
// An in-process Daemon over AF_UNIX, restarted from a prepared cache
// snapshot and fed by DaemonClients in the same process.  One seeded
// request mix drives an open-loop phase at a fixed rate well under
// capacity and then closed-loop phases; every phase starts from a pristine
// copy of the same snapshot, so hits and misses repeat exactly.
//
// The mix: repeats of loops already in the snapshot (hits) beside fresh
// loops (misses that solve and insert; distinct from each other and from
// the snapshot, so the hit ratio never depends on completion order);
// ppc604 loops under "ilp" and "portfolio" beside CGRA loops under "sat";
// snapshot saves at a fixed completion cadence.
//
// The mix's shares, its offered rate and its loop-size caps are assumptions
// chosen to make every daemon layer do work, not figures taken from a
// recorded request trace; see the constants below.
//
// Traced run: the open-loop phase for round trips and generator lag, then
// an in-process replay of each request through the layers' public calls
// (wire codecs, parsing, admission, fingerprint, cache, solve, response
// encode, snapshot save), once with spans off and once with spans on.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "swp/core/Verifier.h"
#include "swp/heuristics/IterativeModulo.h"
#include "swp/heuristics/SlackModulo.h"
#include "swp/machine/Catalog.h"
#include "swp/net/Client.h"
#include "swp/net/Daemon.h"
#include "swp/service/CachePersist.h"
#include "swp/service/Fingerprint.h"
#include "swp/service/ResultCodec.h"
#include "swp/sim/DynamicSimulator.h"
#include "swp/support/Rng.h"
#include "swp/textio/Parser.h"
#include "swp/workload/Corpus.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <unistd.h>

using namespace swp;
using namespace swp::net;
namespace fs = std::filesystem;

namespace perfbench {
namespace {

// The request mix.  Assumed, not measured: the only request statistics the
// project has are a cold pass over one corpus (37 of 1066 loops repeat an
// earlier fingerprint) and a restart replaying it (nearly all hits).  A
// 75% hit share lets hits and misses each carry a large part of the work.
// 2000 requests make an open-loop phase two seconds long, so that a run
// repeats every phase many times and each request's minimum has many
// repetitions to come from.
constexpr int Requests = 2000;
constexpr double HitShare = 0.75;
constexpr double CgraShare = 0.15;
constexpr double PortfolioShare = 0.3;
const char *const CgraGrids[] = {"cgra-mesh-2x2", "cgra-mesh-3x3"};
// Loop pools per machine (before duplicates are removed) and how many of
// each go into the snapshot.  Fresh loops must outnumber the misses drawn.
constexpr int PpcPool = 3500;
constexpr int PpcSnapshot = 1000;
constexpr int CgraPool = 500;
constexpr int CgraSnapshot = 150;
// Loop-size caps and per-T budgets keep one solve near the cost of the
// daemon's own per-request work, so that solving does not set the mix's
// cost alone.
constexpr int PpcMaxNodes = 12;
constexpr int CgraMaxNodes = 8;
constexpr std::int64_t BudgetPerT = 30;
constexpr int MaxTSlack = 3;
// Open loop: two connections at a fixed rate, about a tenth of the
// one-client closed-loop rate each run measures (its
// arithmetic_requests_per_s note).
constexpr double Rate = 1000.0;
constexpr int Connections = 2;
// Service workers per keyed service; far below AdmissionOptions'
// ReducedEffortAt, which would swap in a wall-clock limit.
constexpr int Workers = 2;
constexpr std::uint64_t SnapshotEvery = 1000;
constexpr double IoTimeoutSeconds = 120.0;
// Open-loop repetitions made even when the time budget is spent sooner,
// and closed-loop phases per open-loop one.  A closed phase lasts a sixth
// of an open one; running two, each on another CPU, lets each request's
// minimum round trip escape one CPU's contention.
constexpr int MinReps = 3;
constexpr int ClosedPerOpen = 2;

void recordKnobs(Report &Rep) {
  Rep.knob("requests", Requests);
  Rep.knob("hit_share", HitShare);
  Rep.knob("cgra_share", CgraShare);
  Rep.knob("portfolio_share", PortfolioShare);
  std::string Grids;
  for (const char *G : CgraGrids)
    Grids += (Grids.empty() ? "" : ",") + std::string(G);
  Rep.knob("cgra_grids", Grids);
  Rep.knob("ppc_pool", PpcPool);
  Rep.knob("ppc_snapshot", PpcSnapshot);
  Rep.knob("ppc_max_nodes", PpcMaxNodes);
  Rep.knob("cgra_pool", CgraPool);
  Rep.knob("cgra_snapshot", CgraSnapshot);
  Rep.knob("cgra_max_nodes", CgraMaxNodes);
  Rep.knob("budget_per_t", BudgetPerT);
  Rep.knob("max_t_slack", MaxTSlack);
  Rep.knob("rate", Rate);
  Rep.knob("connections", Connections);
  Rep.knob("workers", Workers);
  Rep.knob("snapshot_every", SnapshotEvery);
  Rep.knob("io_timeout_s", IoTimeoutSeconds);
  Rep.knob("min_reps", MinReps);
  Rep.knob("closed_per_open", ClosedPerOpen);
  Rep.knob("time_limit_per_t", TimeLimitPerT);
  Rep.knob("replay_iterations", ReplayIterations);
  Rep.knob("setup_burst", SetupBurst);
  Rep.knob("tail_percentile", TailPercentile);
}

/// One distinct (machine, scheduler, loop) job.
struct Job {
  int Machine = 0;
  std::string Scheduler;
  std::string LoopText;
  Ddg Loop;
  bool InSnapshot = false;
  /// Canonical bytes of the benchmark's own cold solve (snapshot jobs).
  std::vector<std::uint8_t> ColdBytes;
};

struct Mix {
  std::vector<MachineModel> Machines;
  std::vector<std::string> MachineTexts;
  std::vector<Job> Jobs;
  /// Request sequence: job index per request.
  std::vector<int> Requests;
  std::size_t SnapshotJobs = 0;
};

ScheduleRequestMsg requestFor(const Mix &X, int JobIndex) {
  const Job &J = X.Jobs[static_cast<std::size_t>(JobIndex)];
  ScheduleRequestMsg R;
  R.Tenant = "bench";
  R.Scheduler = J.Scheduler;
  R.DeadlineSeconds = 0.0; // No wall clock in any solve.
  R.MachineText = X.MachineTexts[static_cast<std::size_t>(J.Machine)];
  R.LoopText = J.LoopText;
  return R;
}

/// Distinct loops of \p Corpus (by structural fingerprint), in order.
std::vector<Ddg> distinctLoops(std::vector<Ddg> Corpus) {
  std::vector<Ddg> Out;
  std::set<std::pair<std::uint64_t, std::uint64_t>> Seen;
  for (Ddg &G : Corpus) {
    Fingerprint F = fingerprintDdg(G);
    if (Seen.insert({F.Hi, F.Lo}).second)
      Out.push_back(std::move(G));
  }
  return Out;
}

Mix buildMix(const RunContext &Ctx) {
  Mix X;
  Rng R(static_cast<std::uint64_t>(Ctx.Seed) * 0x9e3779b97f4a7c15ULL + 1);

  // Machine 0 is the ppc604; the CGRA grids follow.
  X.Machines.push_back(ppc604Like());
  for (const char *Name : CgraGrids) {
    MachineModel Grid;
    if (!buildCatalogMachine(Name, Grid))
      throw std::runtime_error(std::string("unknown catalog machine ") + Name);
    X.Machines.push_back(std::move(Grid));
  }
  for (const MachineModel &M : X.Machines)
    X.MachineTexts.push_back(printMachine(M));

  // Pools per machine: distinct loops, the first ones go to the snapshot.
  std::vector<std::vector<int>> Snap(X.Machines.size()),
      Fresh(X.Machines.size());
  for (std::size_t M = 0; M < X.Machines.size(); ++M) {
    std::vector<Ddg> Loops;
    int SnapCount;
    if (M == 0) {
      CorpusOptions CO;
      CO.NumLoops = PpcPool;
      CO.MaxNodes = PpcMaxNodes;
      CO.Seed = static_cast<std::uint64_t>(Ctx.Seed);
      Loops = distinctLoops(generateCorpus(X.Machines[M], CO));
      SnapCount = PpcSnapshot;
    } else {
      CgraCorpusOptions CO;
      CO.NumLoops = CgraPool;
      CO.MaxNodes = CgraMaxNodes;
      CO.Seed = static_cast<std::uint64_t>(Ctx.Seed) + M;
      Loops = distinctLoops(generateCgraCorpus(X.Machines[M], CO));
      SnapCount = CgraSnapshot;
    }
    for (std::size_t I = 0; I < Loops.size(); ++I) {
      Job J;
      J.Machine = static_cast<int>(M);
      // Every job whose index crosses a multiple of 1 / PortfolioShare is a
      // portfolio job, so the share is exact.
      const bool Portfolio =
          static_cast<int>(static_cast<double>(I + 1) * PortfolioShare) >
          static_cast<int>(static_cast<double>(I) * PortfolioShare);
      J.Scheduler = M == 0 ? (Portfolio ? "portfolio" : "ilp") : "sat";
      J.LoopText = printLoop(Loops[I], X.Machines[M]);
      J.Loop = std::move(Loops[I]);
      J.InSnapshot = static_cast<int>(I) < SnapCount;
      (J.InSnapshot ? Snap : Fresh)[M].push_back(
          static_cast<int>(X.Jobs.size()));
      X.SnapshotJobs += J.InSnapshot ? 1 : 0;
      X.Jobs.push_back(std::move(J));
    }
    if (Snap[M].empty())
      throw std::runtime_error("snapshot pool of machine " +
                               X.Machines[M].name() + " is empty");
  }

  // Exact shares in seeded order: every seed's mix has the same number of
  // hits and misses per machine; only its loops and their order change.
  struct Kind {
    std::size_t Machine;
    bool Hit;
  };
  std::vector<Kind> Kinds;
  const int NumCgra = static_cast<int>(X.Machines.size()) - 1;
  const int PerGrid =
      NumCgra ? static_cast<int>(CgraShare * Requests / NumCgra + 0.5) : 0;
  for (std::size_t M = 0; M < X.Machines.size(); ++M) {
    const int Count = M == 0 ? Requests - PerGrid * NumCgra : PerGrid;
    const int Hits = static_cast<int>(HitShare * Count + 0.5);
    for (int I = 0; I < Count; ++I)
      Kinds.push_back({M, I < Hits});
  }
  for (std::size_t I = Kinds.size(); I > 1; --I)
    std::swap(Kinds[I - 1], Kinds[static_cast<std::size_t>(
                                R.intIn(0, static_cast<int>(I) - 1))]);

  std::vector<std::size_t> NextFresh(X.Machines.size(), 0);
  for (const Kind &Kd : Kinds) {
    const std::size_t M = Kd.Machine;
    if (Kd.Hit) {
      X.Requests.push_back(
          Snap[M][static_cast<std::size_t>(
              R.intIn(0, static_cast<int>(Snap[M].size()) - 1))]);
    } else {
      if (NextFresh[M] >= Fresh[M].size())
        throw std::runtime_error("fresh pool of machine " +
                                 X.Machines[M].name() +
                                 " exhausted; raise PpcPool/CgraPool");
      X.Requests.push_back(Fresh[M][NextFresh[M]++]);
    }
  }
  return X;
}

DaemonOptions daemonOptions(const std::string &SnapshotDir) {
  DaemonOptions O;
  O.SocketPath = "swpd.sock";
  O.SnapshotDir = SnapshotDir;
  O.SnapshotEvery = SnapshotEvery;
  O.Service.Jobs = Workers;
  O.Service.Sched.NodeLimitPerT = BudgetPerT;
  O.Service.Sched.MaxTSlack = MaxTSlack;
  O.Service.Sched.TimeLimitPerT = TimeLimitPerT;
  O.IoTimeoutSeconds = IoTimeoutSeconds;
  return O;
}

/// The solve result with its wall-clock fields cleared, so two solves of
/// one request compare byte for byte.
std::vector<std::uint8_t> timelessBytes(SchedulerResult R) {
  R.TotalSeconds = 0.0;
  for (TAttempt &A : R.Attempts)
    A.Seconds = 0.0;
  R.CacheHit = false;
  return schedulerResultBytes(R);
}

/// What one request saw.
struct Sample {
  double Due = 0.0;
  double Sent = 0.0;
  double Done = 0.0;
  bool Transport = false;
  ScheduleResponseMsg Resp;
};

/// A daemon restarted from a pristine copy of the prepared snapshot.  With
/// \p PeriodicSaves false it saves only when it stops.
class PhaseDaemon {
public:
  PhaseDaemon(const std::string &Prepared, const std::string &Dir,
              bool PeriodicSaves = true)
      : Dir(Dir) {
    fs::remove_all(Dir);
    fs::copy(Prepared, Dir, fs::copy_options::recursive);
    DaemonOptions O = daemonOptions(Dir);
    if (!PeriodicSaves)
      O.SnapshotEvery = 0;
    D.emplace(std::move(O));
  }
  ~PhaseDaemon() {
    D.reset(); // stop(): joins connections, saves the snapshot.
    fs::remove_all(Dir);
  }
  PhaseDaemon(const PhaseDaemon &) = delete;
  PhaseDaemon &operator=(const PhaseDaemon &) = delete;
  Daemon &operator*() { return *D; }
  Daemon *operator->() { return &*D; }

private:
  std::string Dir;
  std::optional<Daemon> D;
};

/// Sends every request of \p X over \p Clients connections, each taking
/// the next unsent request as soon as it is free.  With \p Rate > 0 request
/// i is due at Start + i / Rate and is not sent before then (open loop;
/// latency counts from the due time, so a stalled connection shows as
/// lateness of the requests behind it); with Rate == 0 requests go out as
/// fast as replies come back (closed loop).
std::vector<Sample> drive(const Mix &X, int Clients, double Rate,
                          double &Start, double &End) {
  const std::size_t N = X.Requests.size();
  std::vector<Sample> Out(N);
  std::atomic<std::size_t> Next{0};
  Start = nowSeconds() + 0.01;
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C) {
    Threads.emplace_back([&] {
      Expected<DaemonClient> Client =
          DaemonClient::connect("swpd.sock", IoTimeoutSeconds);
      for (std::size_t I = Next++; I < N; I = Next++) {
        Sample &S = Out[I];
        S.Due = Rate > 0 ? Start + static_cast<double>(I) / Rate : Start;
        double Wait = S.Due - nowSeconds();
        if (Wait > 0)
          std::this_thread::sleep_for(std::chrono::duration<double>(Wait));
        S.Sent = nowSeconds();
        if (Rate <= 0)
          S.Due = S.Sent;
        if (!Client.ok()) {
          S.Transport = true;
          S.Done = nowSeconds();
          continue;
        }
        Expected<ScheduleResponseMsg> R =
            Client->schedule(requestFor(X, X.Requests[I]));
        S.Done = nowSeconds();
        if (R.ok())
          S.Resp = std::move(*R);
        else
          S.Transport = true;
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  End = Start;
  for (const Sample &S : Out)
    End = std::max(End, S.Done);
  return Out;
}

/// Independent checks of one phase's responses; fills \p Timeless with each
/// request's result bytes (wall-clock fields cleared) for cross-phase
/// comparison.  \returns per request whether it carries a schedule every
/// check accepted.
std::vector<char> checkPhase(const Mix &X, const std::vector<Sample> &Samples,
                             const std::string &Phase, Report &Rep,
                             std::vector<std::vector<std::uint8_t>> &Timeless) {
  Timeless.assign(Samples.size(), {});
  std::vector<char> Verified(Samples.size(), 0);
  for (std::size_t I = 0; I < Samples.size(); ++I) {
    const Sample &S = Samples[I];
    const Job &J = X.Jobs[static_cast<std::size_t>(X.Requests[I])];
    std::string Where = Phase + " request " + std::to_string(I);
    if (S.Transport) {
      Rep.fail(Where + ": transport error");
      continue;
    }
    const ScheduleResponseMsg &R = S.Resp;
    if (R.Outcome == ResponseOutcome::Shed ||
        R.Outcome == ResponseOutcome::Error || !R.HasResult) {
      Rep.fail(Where + ": " + responseOutcomeName(R.Outcome) + " " + R.Reason);
      continue;
    }
    if (R.Degradation != DegradationLevel::None)
      Rep.fail(Where + ": degraded to " + degradationLevelName(R.Degradation));
    if (R.Result.CacheHit != J.InSnapshot) {
      Rep.fail(Where + (J.InSnapshot ? ": snapshot loop missed the cache"
                                     : ": fresh loop hit the cache"));
      continue;
    }
    if (J.InSnapshot) {
      SchedulerResult Copy = R.Result;
      Copy.CacheHit = false;
      if (schedulerResultBytes(Copy) != J.ColdBytes)
        Rep.fail(Where + ": hit differs from the cold solve");
    }
    Timeless[I] = timelessBytes(R.Result);
    if (R.Result.found()) {
      const MachineModel &M = X.Machines[static_cast<std::size_t>(J.Machine)];
      VerifyResult V = verifySchedule(J.Loop, M, R.Result.Schedule);
      std::string SimErr;
      if (!V.Ok)
        Rep.fail(Where + ": verifySchedule: " + V.Error);
      else if (!replaySchedule(J.Loop, M, R.Result.Schedule, ReplayIterations,
                               &SimErr))
        Rep.fail(Where + ": replaySchedule: " + SimErr);
      else
        Verified[I] = 1;
    }
  }
  return Verified;
}

/// Solves the snapshot jobs cold through a daemon and saves the snapshot
/// every phase restarts from.
void prepareSnapshot(Mix &X, const std::string &Dir, Report &Rep) {
  fs::remove_all(Dir);
  DaemonOptions O = daemonOptions(Dir);
  O.SnapshotEvery = 0;
  Daemon D(O);
  if (Status St = D.start(); !St.isOk()) {
    Rep.fail("prepare: daemon start: " + St.str());
    return;
  }
  {
    Expected<DaemonClient> C =
        DaemonClient::connect(O.SocketPath, IoTimeoutSeconds);
    if (!C.ok()) {
      Rep.fail("prepare: connect: " + C.status().str());
      return;
    }
    for (std::size_t I = 0; I < X.Jobs.size(); ++I) {
      Job &J = X.Jobs[I];
      if (!J.InSnapshot)
        continue;
      Expected<ScheduleResponseMsg> R =
          C->schedule(requestFor(X, static_cast<int>(I)));
      if (!R.ok() || !R->HasResult || R->Result.CacheHit) {
        Rep.fail("prepare: job " + std::to_string(I) + " did not solve cold");
        continue;
      }
      J.ColdBytes = schedulerResultBytes(R->Result);
      if (R->Result.found()) {
        const MachineModel &M = X.Machines[static_cast<std::size_t>(J.Machine)];
        if (!verifySchedule(J.Loop, M, R->Result.Schedule).Ok ||
            !replaySchedule(J.Loop, M, R->Result.Schedule, ReplayIterations))
          Rep.fail("prepare: job " + std::to_string(I) +
                   " returned a schedule the checks reject");
      }
    }
  }
  D.stop();
}

/// Per-request layer costs of the in-process replay.
struct ReplayLayers {
  double Parse = 0, MachineBuild = 0, Print = 0, Admission = 0,
         Fingerprint = 0, Lookup = 0, Insert = 0, Solve = 0, Heuristics = 0,
         Encode = 0, Decode = 0, Load = 0, Save = 0;
  std::int64_t Inserts = 0, Hits = 0, Saves = 0, HeurRuns = 0, HeurFound = 0;
  std::size_t TextBytes = 0, BytesIn = 0, BytesOut = 0, ResultBytes = 0,
              SnapshotBytes = 0;
  std::uint64_t Evictions = 0;
  double Wall = 0;
};

/// Replays every request of \p X through the daemon's layers in-process,
/// in the daemon's order, from a pristine copy of the snapshot.  Fills
/// \p Timeless with each request's result bytes for comparison with the
/// untraced phase.
ReplayLayers replay(const Mix &X, const std::string &Prepared,
                    const std::string &Dir, Tracer &Tr,
                    std::vector<std::vector<std::uint8_t>> &Timeless,
                    Report &Rep) {
  ReplayLayers L;
  fs::remove_all(Dir);
  fs::copy(Prepared, Dir, fs::copy_options::recursive);
  DaemonOptions O = daemonOptions(Dir);
  ResultCache Cache(O.CacheShards, O.CachePerShardCapacity);
  AdmissionController Admission(O.Admission);
  Timeless.assign(X.Requests.size(), {});
  const double Start = nowSeconds();
  {
    Tracer::Scope S(Tr, "service.persist_load");
    if (!loadCacheSnapshot(Cache, Dir).ok())
      Rep.fail("replay: snapshot load failed");
    L.Load += S.elapsed();
  }
  std::uint64_t Completions = 0;
  for (std::size_t I = 0; I < X.Requests.size(); ++I) {
    Tracer::Scope Req(Tr, "request", static_cast<int>(I));
    std::vector<std::uint8_t> Frame;
    {
      Tracer::Scope S(Tr, "net.encode");
      ByteWriter W;
      encodeScheduleRequest(W, requestFor(X, X.Requests[I]));
      Frame = encodeFrame(MessageType::ScheduleRequest, W.data());
      L.Encode += S.elapsed();
    }
    L.BytesIn += Frame.size();
    ScheduleRequestMsg Msg;
    {
      Tracer::Scope S(Tr, "net.decode");
      FrameHeader H;
      std::span<const std::uint8_t> All(Frame);
      ByteReader R(All.subspan(FrameHeaderSize));
      if (decodeFrameHeader(All.first(FrameHeaderSize), H) !=
              FrameError::None ||
          verifyFramePayload(H, All.subspan(FrameHeaderSize)) !=
              FrameError::None ||
          !decodeScheduleRequest(R, Msg) || !R.done())
        Rep.fail("replay: request frame did not decode");
      L.Decode += S.elapsed();
    }
    L.TextBytes += Msg.MachineText.size() + Msg.LoopText.size();
    std::optional<MachineModel> Machine;
    std::optional<Ddg> Loop;
    {
      // A machine text with a topology builds its hop matrix while it
      // parses; that part is the machine layer's.
      const Job &J = X.Jobs[static_cast<std::size_t>(X.Requests[I])];
      const bool Topo =
          X.Machines[static_cast<std::size_t>(J.Machine)].topology() != nullptr;
      Tracer::Scope S(Tr, Topo ? "machine.build" : "textio.parse");
      Expected<MachineModel> M = parseMachineText(Msg.MachineText);
      if (M.ok())
        Machine.emplace(std::move(*M));
      (Topo ? L.MachineBuild : L.Parse) += S.elapsed();
    }
    if (Machine) {
      Tracer::Scope S(Tr, "textio.parse");
      Expected<Ddg> G = parseLoopText(Msg.LoopText, *Machine);
      if (G.ok())
        Loop.emplace(std::move(*G));
      L.Parse += S.elapsed();
    }
    if (!Loop) {
      Rep.fail("replay: request " + std::to_string(I) + " did not parse");
      continue;
    }
    {
      Tracer::Scope S(Tr, "service.admission");
      AdmissionDecision D = Admission.admit(Msg.Tenant, Msg.DeadlineSeconds);
      if (D.Level != DegradationLevel::None)
        Rep.fail("replay: request " + std::to_string(I) + " degraded");
      Admission.complete();
      L.Admission += S.elapsed();
    }
    const bool Portfolio = Msg.Scheduler == "portfolio";
    const ExactEngine Engine =
        Msg.Scheduler == "sat" ? ExactEngine::Sat : ExactEngine::Ilp;
    {
      Tracer::Scope S(Tr, "textio.print");
      std::string Key = printMachine(*Machine);
      L.Print += S.elapsed();
    }
    Fingerprint Key;
    {
      Tracer::Scope S(Tr, "service.fingerprint");
      Key = fingerprintJob(*Loop, *Machine, O.Service.Sched, Portfolio, 0.0,
                           static_cast<int>(Engine));
      L.Fingerprint += S.elapsed();
    }
    SchedulerResult Result;
    bool Hit;
    {
      Tracer::Scope S(Tr, "service.cache_lookup");
      Hit = Cache.lookup(Key, Result);
      L.Lookup += S.elapsed();
    }
    if (Hit != X.Jobs[static_cast<std::size_t>(X.Requests[I])].InSnapshot)
      Rep.fail("replay request " + std::to_string(I) +
               (Hit ? ": fresh loop hit the cache"
                    : ": snapshot loop missed the cache"));
    if (Hit) {
      ++L.Hits;
    } else {
      if (Portfolio) {
        Tracer::Scope S(Tr, "heuristics");
        ImsOptions IO;
        IO.MaxTSlack = O.Service.Sched.MaxTSlack;
        SlackOptions SO;
        SO.MaxTSlack = O.Service.Sched.MaxTSlack;
        bool Found = iterativeModuloSchedule(*Loop, *Machine, IO).found();
        Found = slackModuloSchedule(*Loop, *Machine, SO).found() || Found;
        ++L.HeurRuns;
        L.HeurFound += Found ? 1 : 0;
        L.Heuristics += S.elapsed();
      }
      {
        Tracer::Scope S(Tr, "service.solve");
        Result = Portfolio
                     ? portfolioSchedule(*Loop, *Machine, O.Service.Sched,
                                         nullptr, Engine)
                     : exactSchedule(*Loop, *Machine, O.Service.Sched, Engine);
        // The service's fallback ladder, for answers without a clean proof.
        bool CleanProof = Result.Error.isOk() && !Result.Cancelled;
        for (const TAttempt &A : Result.Attempts)
          CleanProof = CleanProof && A.StopReason == SearchStop::None;
        if (!Result.found() && !CleanProof) {
          SchedulerResult Rung =
              runHeuristicLadder(*Loop, *Machine, O.Service.Sched.MaxTSlack);
          if (Rung.found()) {
            Result.Schedule = Rung.Schedule;
            Result.Fallback = Rung.Fallback;
            Result.ProvenRateOptimal = Result.TLowerBound > 0 &&
                                       Result.Schedule.T == Result.TLowerBound;
          }
        }
        L.Solve += S.elapsed();
      }
      Tracer::Scope S(Tr, "service.cache_insert");
      Cache.insert(Key, Result);
      ++L.Inserts;
      L.Insert += S.elapsed();
    }
    Result.CacheHit = Hit;
    Timeless[I] = timelessBytes(Result);
    L.ResultBytes += schedulerResultBytes(Result).size();
    ScheduleResponseMsg Resp;
    Resp.Outcome = Result.found() ? ResponseOutcome::Solved
                                  : ResponseOutcome::Unsolved;
    Resp.HasResult = true;
    Resp.Result = std::move(Result);
    {
      Tracer::Scope S(Tr, "net.encode");
      ByteWriter W;
      encodeScheduleResponse(W, Resp);
      Frame = encodeFrame(MessageType::ScheduleResponse, W.data());
      L.Encode += S.elapsed();
    }
    L.BytesOut += Frame.size();
    {
      Tracer::Scope S(Tr, "net.decode");
      std::span<const std::uint8_t> All(Frame);
      FrameHeader H;
      ScheduleResponseMsg Back;
      ByteReader R(All.subspan(FrameHeaderSize));
      if (decodeFrameHeader(All.first(FrameHeaderSize), H) !=
              FrameError::None ||
          verifyFramePayload(H, All.subspan(FrameHeaderSize)) !=
              FrameError::None ||
          !decodeScheduleResponse(R, Back))
        Rep.fail("replay: response frame did not decode");
      L.Decode += S.elapsed();
    }
    if (O.SnapshotEvery > 0 && ++Completions % O.SnapshotEvery == 0) {
      Tracer::Scope S(Tr, "service.persist_save");
      Expected<SnapshotSaveStats> Saved = saveCacheSnapshot(Cache, Dir);
      if (Saved.ok())
        L.SnapshotBytes = Saved->Bytes;
      else
        Rep.fail("replay: snapshot save failed");
      ++L.Saves;
      L.Save += S.elapsed();
    }
  }
  L.Wall = nowSeconds() - Start;
  L.Evictions = Cache.evictions();
  fs::remove_all(Dir);
  return L;
}

void addOutcomes(const Mix &X, const std::vector<Sample> &Samples,
                 const std::vector<char> &Verified, Report &Rep) {
  double IiSum = 0.0, Nodes = 0.0;
  int Found = 0, Proven = 0, Hits = 0;
  for (std::size_t I = 0; I < Samples.size(); ++I) {
    const Sample &S = Samples[I];
    if (S.Transport || !S.Resp.HasResult)
      continue;
    const SchedulerResult &R = S.Resp.Result;
    Nodes += static_cast<double>(R.TotalNodes);
    Hits += R.CacheHit ? 1 : 0;
    Proven += R.ProvenRateOptimal ? 1 : 0;
    if (Verified[I]) {
      ++Found;
      IiSum += R.Schedule.T;
    }
  }
  const double N = static_cast<double>(Samples.size());
  Rep.Outcomes["requests"] = N;
  Rep.Outcomes["snapshot_jobs"] = static_cast<double>(X.SnapshotJobs);
  Rep.Outcomes["mean_ii"] = Found ? IiSum / Found : 0.0;
  Rep.Outcomes["proven_ratio"] = Proven / N;
  Rep.Outcomes["scheduled_ratio"] = Found / N;
  Rep.Outcomes["cache_hit_ratio"] = Hits / N;
  Rep.Outcomes["nodes_and_conflicts"] = Nodes;
}

} // namespace

Report runSwpdWorkload(const RunContext &Ctx) {
  Report Rep;
  recordKnobs(Rep);
  fs::create_directories(Ctx.WorkDir);
  // Relative paths keep the AF_UNIX socket path short however deep the
  // checkout sits.
  if (::chdir(Ctx.WorkDir.c_str()) != 0)
    throw std::runtime_error("cannot enter work directory " + Ctx.WorkDir);
  const std::string Prepared = "snapshot";

  Mix X = buildMix(Ctx);
  prepareSnapshot(X, Prepared, Rep);
  if (!Rep.CheckFailures.empty())
    return Rep;
  Rep.Notes["snapshot_jobs"] = std::to_string(X.SnapshotJobs);
  Rep.Notes["distinct_jobs"] = std::to_string(X.Jobs.size());

  // Set-up: bursts of Daemon::start() from a fresh copy of the snapshot.
  std::vector<double> Setup;
  auto SetupRepetitions = [&] {
    for (int Rp = 0; Rp < SetupBurst; ++Rp) {
      PhaseDaemon D(Prepared, "setup");
      double T0 = nowSeconds();
      Status St = D->start();
      Setup.push_back(nowSeconds() - T0);
      if (!St.isOk()) {
        Rep.fail("setup: daemon start: " + St.str());
        return false;
      }
      if (D->stats().SnapshotEntriesLoaded != X.SnapshotJobs)
        Rep.fail("setup: snapshot restored " +
                 std::to_string(D->stats().SnapshotEntriesLoaded) + " of " +
                 std::to_string(X.SnapshotJobs) + " entries");
    }
    return true;
  };
  if (!SetupRepetitions())
    return Rep;

  // Open loop at a fixed rate; each repetition restarts from the snapshot.
  struct OpenPhase {
    std::vector<Sample> Samples;
    double Cpu = 0.0, Start = 0.0, End = 0.0;
    DaemonStats Stats;
  };
  auto RunOpen = [&](OpenPhase &P) {
    PhaseDaemon D(Prepared, "open");
    if (Status St = D->start(); !St.isOk()) {
      Rep.fail("open: daemon start: " + St.str());
      return false;
    }
    const double Cpu0 = processCpuSeconds();
    P.Samples = drive(X, Connections, Rate, P.Start, P.End);
    P.Cpu = processCpuSeconds() - Cpu0;
    P.Stats = D->stats();
    return true;
  };
  OpenPhase Open;
  if (!RunOpen(Open))
    return Rep;
  // Peak memory of the fixed work (preparation, set-up, one open-loop
  // phase); the repetitions that follow depend on the time budget.
  const double Rss = peakRssMb();
  std::vector<std::vector<std::uint8_t>> OpenBytes;
  addOutcomes(X, Open.Samples,
              checkPhase(X, Open.Samples, "open", Rep, OpenBytes),
              Rep);
  Rep.Attempted += static_cast<std::int64_t>(Open.Samples.size());
  const DaemonStats &OpenStats = Open.Stats;
  std::vector<double> Lag, RoundTrip;
  std::map<std::string, std::vector<double>> ByKind;
  for (std::size_t I = 0; I < Open.Samples.size(); ++I) {
    const Sample &S = Open.Samples[I];
    Lag.push_back(S.Sent - S.Due);
    RoundTrip.push_back(S.Done - S.Sent);
    const Job &J = X.Jobs[static_cast<std::size_t>(X.Requests[I])];
    ByKind[J.Scheduler + (J.InSnapshot ? "-hit" : "-miss")].push_back(
        S.Done - S.Sent);
  }
  // Round trips per request kind, to read which part of the mix moved.
  for (const auto &[Kind, V] : ByKind) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "n=%zu p50=%.3fms p90=%.3fms max=%.3fms",
                  V.size(), median(V) * 1e3, percentileOf(V, 90) * 1e3,
                  *std::max_element(V.begin(), V.end()) * 1e3);
    Rep.Notes["round_trip." + Kind] = Buf;
  }

  if (!Ctx.Trace) {
    const std::size_t N = Open.Samples.size();
    // An open-loop repetition and ClosedPerOpen closed-loop ones alternate
    // until the time budget is spent, each from a pristine snapshot copy
    // and each replaying the same requests.  Every request's latency (open
    // loop, from its due time) and round trip (closed loop) is taken as its
    // minimum over the repetitions: delay the program causes recurs in
    // every repetition, while a stall of the machine, which a loop of
    // requests turns into waiting for the requests behind it, rarely hits
    // the same request in all of them.  Percentiles are taken over the
    // minima; throughput is the inverse of the geometric-mean minimal round
    // trip of one client sending back to back, with the client and the
    // daemon on one CPU (a second client would add the two requests'
    // contention for the machine's cores to every round trip).
    std::vector<std::vector<double>> PerRequest(N), ClosedRtt(N);
    std::vector<double> CpuPerRequest, Throughput;
    SpeedScale Speed;
    Speed.sample();
    auto Record = [&](const OpenPhase &P) {
      for (std::size_t I = 0; I < N; ++I)
        PerRequest[I].push_back(P.Samples[I].Done - P.Samples[I].Due);
      CpuPerRequest.push_back(P.Cpu / static_cast<double>(N));
    };
    auto RunClosed = [&](int Phase) {
      std::vector<Sample> Closed;
      double Start = 0.0, End = 0.0;
      {
        // No periodic saves here: with one client the same requests would
        // trigger them in every repetition, so each minimum would keep an
        // fsync time that depends on the disk's other users.  Saves stay in
        // the open-loop phases and the traced replay.
        OneCpu Pin(Phase);
        Rep.Notes["closed_loop_cpus"] +=
            (Phase ? " " : "") + std::to_string(Pin.cpu());
        PhaseDaemon D(Prepared, "closed", /*PeriodicSaves=*/false);
        if (Status St = D->start(); !St.isOk()) {
          Rep.fail("closed: daemon start: " + St.str());
          return false;
        }
        Closed = drive(X, 1, 0.0, Start, End);
      }
      std::vector<std::vector<std::uint8_t>> ClosedBytes;
      (void)checkPhase(X, Closed, "closed", Rep, ClosedBytes);
      for (std::size_t I = 0; I < Closed.size(); ++I)
        if (ClosedBytes[I] != OpenBytes[I])
          Rep.fail("closed request " + std::to_string(I) +
                   ": result differs from the open-loop phase");
      Rep.Attempted += static_cast<std::int64_t>(Closed.size());
      Throughput.push_back(static_cast<double>(Closed.size()) / (End - Start));
      for (std::size_t I = 0; I < N; ++I)
        ClosedRtt[I].push_back(Closed[I].Done - Closed[I].Sent);
      return true;
    };
    Record(Open);
    const double First = nowSeconds() - (Open.End - Open.Start);
    for (;;) {
      for (int C = 0; C < ClosedPerOpen; ++C) {
        if (!RunClosed(static_cast<int>(Throughput.size())))
          return Rep;
        Speed.sample();
      }
      if (!SetupRepetitions())
        return Rep;
      Speed.sample();
      const double Elapsed = nowSeconds() - First;
      const int Reps = static_cast<int>(CpuPerRequest.size());
      if (Reps >= MinReps &&
          Elapsed + Elapsed / Reps > Ctx.Seconds)
        break;
      OpenPhase P;
      if (!RunOpen(P))
        return Rep;
      std::vector<std::vector<std::uint8_t>> Bytes;
      (void)checkPhase(X, P.Samples, "open", Rep, Bytes);
      if (Bytes != OpenBytes)
        Rep.fail("open-loop repetition " + std::to_string(Reps + 1) +
                 ": results differ from the first");
      Rep.Attempted += static_cast<std::int64_t>(N);
      Record(P);
    }
    char TailNote[64];
    std::snprintf(
        TailNote, sizeof(TailNote), "p%g, %zu requests beyond", TailPercentile,
        static_cast<std::size_t>(N * (100.0 - TailPercentile) / 100.0));
    std::vector<double> Best;
    for (const std::vector<double> &V : PerRequest)
      Best.push_back(*std::min_element(V.begin(), V.end()));
    std::vector<double> BestRtt;
    double BestRttSum = 0.0;
    for (const std::vector<double> &V : ClosedRtt) {
      BestRtt.push_back(*std::min_element(V.begin(), V.end()));
      BestRttSum += BestRtt.back();
    }
    const std::size_t Reps = CpuPerRequest.size();
    const std::string OpenNote =
        "open loop, from due time, per-request minimum of " +
        std::to_string(Reps) + " phases of " + std::to_string(N) + " requests";
    // The geometric mean, as on the library workloads: a few misses whose
    // search runs into its budget (up to ~100 ms against ~0.1 ms for a hit)
    // would otherwise set the rate, and which loops those are changes with
    // the seed.  The arithmetic rate is kept in the notes.
    Rep.set("loops_per_s", 1.0 / geometricMean(BestRtt), "1/s", N,
            "closed loop, one client, 1 / geometric-mean per-request "
            "minimal round trip over " +
                std::to_string(Throughput.size()) + " phases");
    Rep.Notes["arithmetic_requests_per_s"] =
        std::to_string(static_cast<double>(N) / BestRttSum);
    std::string PhaseRates;
    for (double T : Throughput)
      PhaseRates += (PhaseRates.empty() ? "" : " ") + std::to_string(T);
    Rep.Notes["closed_phase_requests_per_s"] = PhaseRates;
    Rep.set("latency_p50_ms", median(Best) * 1e3, "ms", N, OpenNote);
    Rep.set("latency_tail_ms", percentileOf(Best, TailPercentile) * 1e3, "ms",
            N, std::string(TailNote) + ", " + OpenNote);
    Rep.set("cpu_ms_per_loop",
            *std::min_element(CpuPerRequest.begin(), CpuPerRequest.end()) * 1e3,
            "ms", N * Reps, "open loop, all threads, best of phases");
    Rep.set("mean_ii", Rep.Outcomes["mean_ii"], "cycles",
            static_cast<std::size_t>(Rep.Outcomes["scheduled_ratio"] * N +
                                     0.5));
    Rep.set("proven_ratio", Rep.Outcomes["proven_ratio"], "ratio", N);
    Rep.set("scheduled_ratio", Rep.Outcomes["scheduled_ratio"], "ratio", N);
    Rep.set("setup_s", median(Setup), "s", Setup.size(),
            "median of Daemon::start() from the snapshot");
    Rep.set("peak_rss_mb", Rss, "MB", 1);
    Rep.Notes["tail_percentile"] = TailNote;
    scaleTimings(Rep, Speed);
    Rep.Notes["generator_lag_max_ms"] =
        std::to_string(*std::max_element(Lag.begin(), Lag.end()) * 1e3);
    Rep.Notes["open_phase_s"] = std::to_string(Open.End - Open.Start);
  } else {
    // Replay with spans on, then off; the difference is the tracing cost.
    Tracer Off(false), On(true);
    std::vector<std::vector<std::uint8_t>> OffBytes, OnBytes;
    ReplayLayers L = replay(X, Prepared, "replay", On, OnBytes, Rep);
    ReplayLayers LOff = replay(X, Prepared, "replay", Off, OffBytes, Rep);
    for (std::size_t I = 0; I < OnBytes.size(); ++I)
      if (OnBytes[I] != OpenBytes[I])
        Rep.fail("replay request " + std::to_string(I) +
                 ": counters differ from the untraced open-loop phase");
    Rep.Attempted += static_cast<std::int64_t>(OnBytes.size()) * 2;
    const double N = static_cast<double>(X.Requests.size());
    const std::size_t NS = X.Requests.size();
    auto Us = [N](double S) { return S * 1e6 / N; };
    auto Ms = [](double S) { return S * 1e3; };
    const double PerRequest = L.Encode + L.Decode + L.Parse + L.MachineBuild +
                              L.Admission +
                              L.Print + L.Fingerprint + L.Lookup + L.Insert +
                              L.Solve + L.Heuristics + L.Save;
    double Rtt = 0.0;
    for (double R : RoundTrip)
      Rtt += R;
    Rep.set("textio.parse_ms", Ms(L.Parse), "ms", NS);
    Rep.set("textio.print_us", Us(L.Print), "us", NS,
            "printMachine service key");
    Rep.set("textio.bytes", static_cast<double>(L.TextBytes), "bytes", NS);
    Rep.set("machine.build_ms", Ms(L.MachineBuild), "ms", NS,
            "parsing machine texts that carry a topology");
    Rep.set("machine.modulo_skips", 0.0, "count", 0, "inside service.solve");
    for (const char *Name :
         {"ddg.tlb_ms", "core.formulation_ms", "core.model_rows",
          "core.model_cols", "core.model_nnz", "solver.presolve_ms",
          "solver.presolve_decided", "solver.root_lp_ms", "solver.pivots",
          "solver.refactorizations", "solver.warm_solve_ratio", "solver.bnb_ms",
          "solver.bnb_nodes", "solver.censored_t", "sat.encode_ms", "sat.vars",
          "sat.clauses", "sat.cdcl_ms", "sat.solve_calls", "sat.conflicts",
          "sat.decisions", "sat.propagations", "sat.cycle_blocks",
          "sat.decode_ratio", "core.verify_ms", "core.verify_rejects"})
      Rep.set(Name, 0.0, "", 0,
              "inside service.solve; measured on the library workloads");
    Rep.set("service.solve_ms", Ms(L.Solve), "ms",
            static_cast<std::size_t>(L.Inserts),
            "exact/portfolio solve of misses");
    Rep.set("heuristics.ms", Ms(L.Heuristics), "ms",
            static_cast<std::size_t>(L.HeurRuns), "portfolio misses");
    Rep.set("heuristics.found_ratio",
            L.HeurRuns ? static_cast<double>(L.HeurFound) / L.HeurRuns : 0.0,
            "ratio", static_cast<std::size_t>(L.HeurRuns));
    Rep.set("service.fingerprint_us", Us(L.Fingerprint), "us", NS);
    Rep.set("service.cache_lookup_us", Us(L.Lookup), "us", NS);
    Rep.set("service.cache_insert_us",
            L.Inserts ? L.Insert * 1e6 / static_cast<double>(L.Inserts) : 0.0,
            "us", static_cast<std::size_t>(L.Inserts), "per insert");
    Rep.set("service.cache_hit_ratio", static_cast<double>(L.Hits) / N, "ratio",
            NS);
    Rep.set("service.cache_evictions",
            static_cast<double>(L.Evictions + OpenStats.Service.CacheEvictions),
            "count", NS);
    Rep.set("service.admission_us", Us(L.Admission), "us", NS);
    Rep.set("service.degraded",
            static_cast<double>(OpenStats.Admission.ReducedEffort +
                                OpenStats.Admission.HeuristicOnly +
                                OpenStats.Admission.Shed),
            "count", NS, "must stay 0");
    Rep.set("service.queue_high_water",
            static_cast<double>(OpenStats.Service.QueueHighWater), "count", NS,
            "open-loop phase");
    Rep.set("service.result_bytes", static_cast<double>(L.ResultBytes) / N,
            "bytes", NS, "per response");
    Rep.set("service.persist_load_ms", Ms(L.Load), "ms", 1);
    Rep.set("service.persist_save_ms", Ms(L.Save), "ms",
            static_cast<std::size_t>(L.Saves));
    Rep.set("service.snapshot_bytes", static_cast<double>(L.SnapshotBytes),
            "bytes", static_cast<std::size_t>(L.Saves), "last save");
    Rep.set("net.decode_us", Us(L.Decode), "us", NS, "request + response");
    Rep.set("net.encode_us", Us(L.Encode), "us", NS, "request + response");
    Rep.set("net.bytes_in", static_cast<double>(L.BytesIn), "bytes", NS);
    Rep.set("net.bytes_out", static_cast<double>(L.BytesOut), "bytes", NS);
    Rep.set("net.frame_errors", static_cast<double>(OpenStats.FrameErrors),
            "count", NS);
    Rep.set("net.unattributed_us", std::max(0.0, Us(Rtt - PerRequest)), "us",
            NS, "round trip minus replayed layers: socket, hand-off, queue");
    Rep.set("bench.generator_lag_ms", percentileOf(Lag, 99) * 1e3, "ms", NS,
            "p99 of send time minus due time");
    Rep.set("bench.coverage", Rtt > 0 ? std::min(1.0, PerRequest / Rtt) : 0.0,
            "ratio", NS, "replayed layer time over client round trips");
    Rep.set("bench.trace_overhead",
            LOff.Wall > 0 ? L.Wall / LOff.Wall - 1.0 : 0.0,
            "ratio", NS, "replay with spans over replay without, minus 1");
    Rep.Outcomes["snapshot_bytes"] = static_cast<double>(L.SnapshotBytes);

    std::printf("layer shares of the mean round trip (%.1f us):\n", Us(Rtt));
    auto Share = [&](const char *Name, double S) {
      std::printf("  %-22s %9.2f us  %6.2f%%\n", Name, Us(S),
                  Rtt > 0 ? 100.0 * S / Rtt : 0.0);
    };
    Share("net.decode", L.Decode);
    Share("net.encode", L.Encode);
    Share("textio.parse", L.Parse);
    Share("textio.print", L.Print);
    Share("machine.build", L.MachineBuild);
    Share("service.admission", L.Admission);
    Share("service.fingerprint", L.Fingerprint);
    Share("service.cache_lookup", L.Lookup);
    Share("service.cache_insert", L.Insert);
    Share("heuristics", L.Heuristics);
    Share("service.solve", L.Solve);
    Share("service.persist_save", L.Save);
    Share("unattributed", std::max(0.0, Rtt - PerRequest));
    std::string Path =
        "trace-swpd-mixed-seed" + std::to_string(Ctx.Seed) + ".json";
    if (!On.writeJson(Path, Ctx.Workload, Ctx.Seed))
      Rep.fail("could not write " + Path);
    Rep.Notes["spans"] = std::to_string(On.spans().size());
    std::printf("bench.trace_overhead %.4f  bench.coverage %.4f  (%zu spans)\n",
                Rep.Metrics["bench.trace_overhead"].Value,
                Rep.Metrics["bench.coverage"].Value, On.spans().size());
  }
  fs::remove_all(Prepared);
  return Rep;
}

} // namespace perfbench
