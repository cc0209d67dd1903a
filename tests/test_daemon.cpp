//===- test_daemon.cpp - swpd daemon integration tests --------------------===//
//
// In-process Daemon + DaemonClient over a real AF_UNIX socket: solve
// parity with a local service, warm-restart cache identity through the
// snapshot layer, load shedding and degradation levels on the wire,
// malformed-input error responses that keep the connection alive, corrupt
// frames that tear it down, injected socket faults, the shutdown
// handshake, a saturated admission window under concurrent clients, the
// joining of finished connection threads, the two fast paths (cache hits
// answered on the connection thread, machine texts matched to a live
// service without a parse), and periodic snapshot saves.  Every daemon
// runs on its own socket path and the solves are node-limited, so the
// suite is deterministic and fast.
//
//===----------------------------------------------------------------------===//

#include "swp/machine/Catalog.h"
#include "swp/net/Client.h"
#include "swp/net/Daemon.h"
#include "swp/service/ResultCodec.h"
#include "swp/support/FaultInjector.h"
#include "swp/textio/Parser.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace swp;
using namespace swp::net;
namespace fs = std::filesystem;

namespace {

/// Per-test socket path, short enough for sockaddr_un.
std::string socketPathFor(const char *Name) {
  return "/tmp/swpd-ut-" + std::to_string(::getpid()) + "-" + Name + ".sock";
}

/// Small loop over the ppc604-like machine: load -> \p Adds chained adds ->
/// store, with one loop-carried edge.  ILP-solvable in milliseconds; each
/// \p Adds gives a structurally distinct loop.
Ddg smallLoop(int Adds = 2) {
  Ddg G;
  G.setName("daemon-loop-" + std::to_string(Adds));
  const int Ld = G.addNode("ld", 3, 2);
  int Prev = Ld;
  for (int I = 1; I <= Adds; ++I) {
    const int Add = G.addNode("add" + std::to_string(I), 0, 1);
    G.addEdge(Prev, Add, 0);
    Prev = Add;
  }
  const int St = G.addNode("st", 3, 2);
  G.addEdge(Prev, St, 0);
  G.addEdge(St, Ld, 1);
  return G;
}

/// Polls \p D until it has saved \p Saves snapshots; false after 2 s.
bool waitForSnapshotSaves(const Daemon &D, std::uint64_t Saves) {
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (D.stats().SnapshotSaves < Saves) {
    if (std::chrono::steady_clock::now() >= Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

/// Deterministic solver knobs: only the node limit may censor.
ServiceOptions fastService() {
  ServiceOptions SO;
  SO.Jobs = 2;
  SO.Sched.TimeLimitPerT = 1e9;
  SO.Sched.NodeLimitPerT = 2000;
  SO.Sched.MaxTSlack = 4;
  return SO;
}

DaemonOptions daemonOptions(const char *Name) {
  DaemonOptions O;
  O.SocketPath = socketPathFor(Name);
  O.Service = fastService();
  O.IoTimeoutSeconds = 10.0;
  return O;
}

ScheduleRequestMsg requestFor(const MachineModel &M, const Ddg &G) {
  ScheduleRequestMsg Req;
  Req.Tenant = "test";
  Req.Scheduler = "ilp";
  Req.MachineText = printMachine(M);
  Req.LoopText = printLoop(G, M);
  return Req;
}

class DaemonTest : public ::testing::Test {
protected:
  void SetUp() override { FaultInjector::instance().reset(); }
  void TearDown() override { FaultInjector::instance().reset(); }
};

} // namespace

TEST_F(DaemonTest, SolvesMatchALocalService) {
  MachineModel M = ppc604Like();
  Ddg G = smallLoop();
  DaemonOptions O = daemonOptions("parity");
  Daemon D(O);
  ASSERT_TRUE(D.start().isOk());

  Expected<DaemonClient> C = DaemonClient::connect(O.SocketPath, 10.0);
  ASSERT_TRUE(C.ok()) << C.status().str();
  Expected<ScheduleResponseMsg> Resp = C->schedule(requestFor(M, G));
  ASSERT_TRUE(Resp.ok()) << Resp.status().str();
  EXPECT_EQ(Resp->Outcome, ResponseOutcome::Solved);
  EXPECT_EQ(Resp->Degradation, DegradationLevel::None);
  ASSERT_TRUE(Resp->HasResult);
  EXPECT_FALSE(Resp->Result.CacheHit);

  SchedulerService Local(M, fastService());
  SchedulerResult Want = Local.schedule(G);
  ASSERT_TRUE(Want.found());
  EXPECT_EQ(Resp->Result.Schedule.T, Want.Schedule.T);
  EXPECT_EQ(Resp->Result.Schedule.StartTime, Want.Schedule.StartTime);
  EXPECT_EQ(Resp->Result.Schedule.Mapping, Want.Schedule.Mapping);
  EXPECT_EQ(Resp->Result.ProvenRateOptimal, Want.ProvenRateOptimal);

  DaemonStats S = D.stats();
  EXPECT_EQ(S.Requests, 1u);
  EXPECT_EQ(S.Connections, 1u);
  // The daemon's totals carry its services' LP effort, so --daemon-stats
  // shows the same "lp" rows as an in-process batch.
  ServiceStats L = Local.stats();
  EXPECT_GT(L.LpSolves, 0u);
  EXPECT_EQ(S.Service.LpPivots, L.LpPivots);
  EXPECT_EQ(S.Service.LpRefactorizations, L.LpRefactorizations);
  EXPECT_EQ(S.Service.LpSolves, L.LpSolves);
  EXPECT_EQ(S.Service.LpWarmSolves, L.LpWarmSolves);
  EXPECT_NE(D.statsText().find("lp solves"), std::string::npos);
  D.stop();
}

TEST_F(DaemonTest, RestartServesWarmHitsIdenticalToColdSolves) {
  MachineModel M = ppc604Like();
  DaemonOptions O = daemonOptions("restart");
  O.SnapshotDir = "/tmp/swpd-ut-" + std::to_string(::getpid()) + "-snap";
  fs::remove_all(O.SnapshotDir);
  constexpr int N = 4;

  std::vector<ScheduleResponseMsg> Cold;
  {
    Daemon D(O);
    ASSERT_TRUE(D.start().isOk());
    Expected<DaemonClient> C = DaemonClient::connect(O.SocketPath, 10.0);
    ASSERT_TRUE(C.ok());
    for (int I = 1; I <= N; ++I) {
      Expected<ScheduleResponseMsg> R =
          C->schedule(requestFor(M, smallLoop(I)));
      ASSERT_TRUE(R.ok()) << R.status().str();
      ASSERT_EQ(R->Outcome, ResponseOutcome::Solved);
      EXPECT_FALSE(R->Result.CacheHit);
      Cold.push_back(*R);
    }
    D.stop(); // Saves the snapshot.
  }

  Daemon D2(O);
  ASSERT_TRUE(D2.start().isOk());
  EXPECT_EQ(D2.stats().SnapshotEntriesLoaded, static_cast<std::uint64_t>(N));
  Expected<DaemonClient> C2 = DaemonClient::connect(O.SocketPath, 10.0);
  ASSERT_TRUE(C2.ok());
  for (int I = 1; I <= N; ++I) {
    Expected<ScheduleResponseMsg> Warm =
        C2->schedule(requestFor(M, smallLoop(I)));
    ASSERT_TRUE(Warm.ok()) << Warm.status().str();
    ASSERT_EQ(Warm->Outcome, ResponseOutcome::Solved);
    EXPECT_TRUE(Warm->Result.CacheHit);
    // Identical to the pre-restart cold solve, bit for bit, modulo the
    // hit marker itself.
    SchedulerResult A = Cold[static_cast<std::size_t>(I - 1)].Result;
    SchedulerResult B = Warm->Result;
    A.CacheHit = B.CacheHit = false;
    EXPECT_EQ(schedulerResultBytes(A), schedulerResultBytes(B)) << I;
  }
  // The connection thread answered every hit: nothing ever queued.
  ServiceStats S = D2.stats().Service;
  EXPECT_EQ(S.QueueHighWater, 0);
  EXPECT_EQ(S.CacheHits, static_cast<std::uint64_t>(N));
  EXPECT_EQ(S.Completed, static_cast<std::uint64_t>(N));
  EXPECT_EQ(S.Submitted, static_cast<std::uint64_t>(N));

  // A miss still runs on the pool.
  Expected<ScheduleResponseMsg> Miss =
      C2->schedule(requestFor(M, smallLoop(N + 1)));
  ASSERT_TRUE(Miss.ok()) << Miss.status().str();
  EXPECT_EQ(Miss->Outcome, ResponseOutcome::Solved);
  EXPECT_FALSE(Miss->Result.CacheHit);
  S = D2.stats().Service;
  EXPECT_EQ(S.QueueHighWater, 1);
  EXPECT_EQ(S.CacheMisses, 1u);
  EXPECT_EQ(S.Completed, static_cast<std::uint64_t>(N + 1));
  D2.stop();
  fs::remove_all(O.SnapshotDir);
}

TEST_F(DaemonTest, CanonicalMachineTextSkipsTheMachineParse) {
  MachineModel M = ppc604Like();
  Ddg G = smallLoop();
  DaemonOptions O = daemonOptions("machinetext");
  // One live service: a request keyed any other way would retire it.
  O.MaxServices = 1;
  Daemon D(O);
  ASSERT_TRUE(D.start().isOk());
  Expected<DaemonClient> C = DaemonClient::connect(O.SocketPath, 10.0);
  ASSERT_TRUE(C.ok());

  // printMachine text: only the first request parses it.
  for (int I = 0; I < 5; ++I) {
    Expected<ScheduleResponseMsg> R = C->schedule(requestFor(M, G));
    ASSERT_TRUE(R.ok()) << R.status().str();
    EXPECT_EQ(R->Outcome, ResponseOutcome::Solved);
    EXPECT_EQ(R->Result.CacheHit, I > 0);
  }
  EXPECT_EQ(D.stats().MachineTextsParsed, 1u);

  // The same machine with a comment line: parsed every time, and answered
  // by the same service from the same cache entry.
  ScheduleRequestMsg Commented = requestFor(M, G);
  Commented.MachineText = "# not canonical\n" + Commented.MachineText;
  for (int I = 0; I < 5; ++I) {
    Expected<ScheduleResponseMsg> R = C->schedule(Commented);
    ASSERT_TRUE(R.ok()) << R.status().str();
    EXPECT_EQ(R->Outcome, ResponseOutcome::Solved);
    EXPECT_TRUE(R->Result.CacheHit);
  }
  EXPECT_EQ(D.stats().MachineTextsParsed, 6u);
  // The live service is still the canonical text's: its bytes still route
  // without a parse.
  Expected<ScheduleResponseMsg> Again = C->schedule(requestFor(M, G));
  ASSERT_TRUE(Again.ok());
  EXPECT_TRUE(Again->Result.CacheHit);
  EXPECT_EQ(D.stats().MachineTextsParsed, 6u);

  // A malformed machine text after good ones still gets an Error.
  ScheduleRequestMsg Bad = requestFor(M, G);
  Bad.MachineText = "not a machine\n";
  Expected<ScheduleResponseMsg> R = C->schedule(Bad);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R->Outcome, ResponseOutcome::Error);
  EXPECT_NE(R->Reason.find("machine"), std::string::npos);
  EXPECT_EQ(D.stats().MachineTextsParsed, 7u);
  EXPECT_NE(D.statsText().find("machine texts parsed"), std::string::npos);
  D.stop();
}

TEST_F(DaemonTest, PeriodicSnapshotsSaveOffTheResponsePath) {
  MachineModel M = ppc604Like();
  DaemonOptions O = daemonOptions("periodic");
  const std::string Base =
      "/tmp/swpd-ut-" + std::to_string(::getpid()) + "-periodic";
  O.SnapshotDir = Base;
  O.SnapshotEvery = 2;
  fs::remove_all(Base);
  fs::remove_all(Base + "-copy");
  {
    Daemon D(O);
    ASSERT_TRUE(D.start().isOk());
    Expected<DaemonClient> C = DaemonClient::connect(O.SocketPath, 10.0);
    ASSERT_TRUE(C.ok());
    for (int I = 1; I <= 4; ++I) {
      Expected<ScheduleResponseMsg> R =
          C->schedule(requestFor(M, smallLoop(I)));
      ASSERT_TRUE(R.ok()) << R.status().str();
      ASSERT_EQ(R->Outcome, ResponseOutcome::Solved);
      // Every second completion makes a save due; the accept thread runs
      // it.  Waiting keeps the two saves from coalescing.
      if (I % 2 == 0) {
        ASSERT_TRUE(waitForSnapshotSaves(D, static_cast<std::uint64_t>(I / 2)))
            << "no periodic save after " << I << " completions";
      }
    }
    // The second periodic save came due after all four completions.  Copy
    // what it wrote before stop() saves again.
    fs::copy(Base, Base + "-copy", fs::copy_options::recursive);
    D.stop();
  }
  DaemonOptions O2 = daemonOptions("periodic2");
  O2.SnapshotDir = Base + "-copy";
  Daemon D2(O2);
  ASSERT_TRUE(D2.start().isOk());
  EXPECT_EQ(D2.stats().SnapshotEntriesLoaded, 4u);
  D2.stop();
  fs::remove_all(Base);
  fs::remove_all(Base + "-copy");
}

TEST_F(DaemonTest, SaturationShedsWithAWellFormedResponse) {
  MachineModel M = ppc604Like();
  Ddg G = smallLoop();
  DaemonOptions O = daemonOptions("shed");
  O.Admission.MaxInFlight = 0; // Everything sheds.
  Daemon D(O);
  ASSERT_TRUE(D.start().isOk());

  Expected<DaemonClient> C = DaemonClient::connect(O.SocketPath, 10.0);
  ASSERT_TRUE(C.ok());
  Expected<ScheduleResponseMsg> R = C->schedule(requestFor(M, G));
  ASSERT_TRUE(R.ok()) << "a shed must still be a well-formed response";
  EXPECT_EQ(R->Outcome, ResponseOutcome::Shed);
  EXPECT_EQ(R->Degradation, DegradationLevel::Shed);
  EXPECT_FALSE(R->HasResult);
  EXPECT_FALSE(R->Reason.empty());

  DaemonStats S = D.stats();
  EXPECT_EQ(S.Admission.Shed, 1u);
  EXPECT_EQ(S.Service.CacheSize, 0u) << "shed requests must never be cached";
  D.stop();
}

TEST_F(DaemonTest, SaturatedWindowAnswersEveryRequestInProtocol) {
  // A one-slot admission window under three concurrent clients: every
  // request gets a well-formed answer, solved or shed with a reason, and
  // none is lost to the transport.
  MachineModel M = ppc604Like();
  Ddg G = smallLoop();
  DaemonOptions O = daemonOptions("saturated");
  O.Service.UseCache = false; // Every admitted request is a real solve.
  O.Admission.MaxInFlight = 1;
  Daemon D(O);
  ASSERT_TRUE(D.start().isOk());

  constexpr int Clients = 3, PerClient = 4;
  std::atomic<int> Solved{0}, Shed{0}, ShedWithoutReason{0}, Other{0},
      TransportErrors{0};
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&] {
      Expected<DaemonClient> Conn = DaemonClient::connect(O.SocketPath, 10.0);
      for (int I = 0; I < PerClient; ++I) {
        if (!Conn.ok()) {
          ++TransportErrors;
          continue;
        }
        Expected<ScheduleResponseMsg> R = Conn->schedule(requestFor(M, G));
        if (!R.ok())
          ++TransportErrors;
        else if (R->Outcome == ResponseOutcome::Solved)
          ++Solved;
        else if (R->Outcome == ResponseOutcome::Shed)
          ++(R->Reason.empty() ? ShedWithoutReason : Shed);
        else
          ++Other;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(TransportErrors.load(), 0);
  EXPECT_EQ(Other.load(), 0);
  EXPECT_EQ(ShedWithoutReason.load(), 0);
  EXPECT_EQ(Solved.load() + Shed.load(), Clients * PerClient);
  D.stop();
}

TEST_F(DaemonTest, FinishedConnectionThreadsAreJoined) {
  DaemonOptions O = daemonOptions("reap");
  Daemon D(O);
  ASSERT_TRUE(D.start().isOk());
  for (int I = 0; I < 50; ++I) {
    Expected<DaemonClient> C = DaemonClient::connect(O.SocketPath, 10.0);
    ASSERT_TRUE(C.ok());
    ASSERT_TRUE(C->statsText().ok());
  } // Each client closes its connection here.

  // The accept loop joins a finished connection's thread within one of
  // its 0.1 s polls; nothing else may keep holding them.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  DaemonStats S = D.stats();
  while (S.HeldConnectionThreads > 0 &&
         std::chrono::steady_clock::now() < Deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    S = D.stats();
  }
  EXPECT_EQ(S.Connections, 50u);
  EXPECT_EQ(S.HeldConnectionThreads, 0u);
  EXPECT_NE(D.statsText().find("connection threads held"), std::string::npos);
  D.stop();
}

TEST_F(DaemonTest, HeuristicOnlyDegradationCarriesFallbackRung) {
  MachineModel M = ppc604Like();
  Ddg G = smallLoop();
  DaemonOptions O = daemonOptions("heur");
  O.Admission.ReducedEffortAt = 0;
  O.Admission.HeuristicOnlyAt = 0;
  O.Admission.MaxInFlight = 4;
  Daemon D(O);
  ASSERT_TRUE(D.start().isOk());

  Expected<DaemonClient> C = DaemonClient::connect(O.SocketPath, 10.0);
  ASSERT_TRUE(C.ok());
  Expected<ScheduleResponseMsg> R = C->schedule(requestFor(M, G));
  ASSERT_TRUE(R.ok()) << R.status().str();
  EXPECT_EQ(R->Outcome, ResponseOutcome::Solved);
  EXPECT_EQ(R->Degradation, DegradationLevel::HeuristicOnly);
  EXPECT_FALSE(R->Reason.empty());
  ASSERT_TRUE(R->HasResult);
  EXPECT_NE(R->Result.Fallback, FallbackRung::None)
      << "a heuristic-only answer must name its rung";
  EXPECT_EQ(D.stats().Service.CacheSize, 0u)
      << "degraded answers must never be memoized as full-effort results";
  D.stop();
}

TEST_F(DaemonTest, ReducedEffortStillSolvesAndCachesUnderItsOwnKey) {
  MachineModel M = ppc604Like();
  Ddg G = smallLoop();
  DaemonOptions O = daemonOptions("reduced");
  O.Admission.ReducedEffortAt = 0;
  O.Admission.HeuristicOnlyAt = 4;
  O.Admission.MaxInFlight = 4;
  Daemon D(O);
  ASSERT_TRUE(D.start().isOk());

  Expected<DaemonClient> C = DaemonClient::connect(O.SocketPath, 10.0);
  ASSERT_TRUE(C.ok());
  Expected<ScheduleResponseMsg> R1 = C->schedule(requestFor(M, G));
  ASSERT_TRUE(R1.ok());
  EXPECT_EQ(R1->Outcome, ResponseOutcome::Solved);
  EXPECT_EQ(R1->Degradation, DegradationLevel::ReducedEffort);
  EXPECT_FALSE(R1->Result.CacheHit);

  // The same degraded request hits the degraded entry (same JobOptions
  // fold into the fingerprint).
  Expected<ScheduleResponseMsg> R2 = C->schedule(requestFor(M, G));
  ASSERT_TRUE(R2.ok());
  EXPECT_TRUE(R2->Result.CacheHit);
  EXPECT_EQ(R2->Result.Schedule.T, R1->Result.Schedule.T);
  D.stop();
}

TEST_F(DaemonTest, TenantBudgetShedsOneTenantNotOthers) {
  MachineModel M = ppc604Like();
  Ddg G = smallLoop();
  DaemonOptions O = daemonOptions("tenant");
  O.Admission.TenantBudgetSeconds = 1.0;
  O.Admission.TenantRefillPerSecond = 0.0; // Hard quota.
  O.Admission.DefaultChargeSeconds = 1.0;
  Daemon D(O);
  ASSERT_TRUE(D.start().isOk());

  Expected<DaemonClient> C = DaemonClient::connect(O.SocketPath, 10.0);
  ASSERT_TRUE(C.ok());
  ScheduleRequestMsg Req = requestFor(M, G);
  Req.Tenant = "greedy";
  Expected<ScheduleResponseMsg> R1 = C->schedule(Req);
  ASSERT_TRUE(R1.ok());
  EXPECT_EQ(R1->Outcome, ResponseOutcome::Solved);

  Expected<ScheduleResponseMsg> R2 = C->schedule(Req);
  ASSERT_TRUE(R2.ok());
  EXPECT_EQ(R2->Outcome, ResponseOutcome::Shed);
  EXPECT_NE(R2->Reason.find("budget"), std::string::npos);

  Req.Tenant = "patient";
  Expected<ScheduleResponseMsg> R3 = C->schedule(Req);
  ASSERT_TRUE(R3.ok());
  EXPECT_EQ(R3->Outcome, ResponseOutcome::Solved);
  EXPECT_EQ(D.stats().Admission.TenantShed, 1u);
  D.stop();
}

TEST_F(DaemonTest, MalformedInputsGetErrorResponsesAndKeepTheConnection) {
  MachineModel M = ppc604Like();
  Ddg G = smallLoop();
  DaemonOptions O = daemonOptions("badinput");
  Daemon D(O);
  ASSERT_TRUE(D.start().isOk());

  Expected<DaemonClient> C = DaemonClient::connect(O.SocketPath, 10.0);
  ASSERT_TRUE(C.ok());

  ScheduleRequestMsg Bad = requestFor(M, G);
  Bad.MachineText = "not a machine\n";
  Expected<ScheduleResponseMsg> R1 = C->schedule(Bad);
  ASSERT_TRUE(R1.ok());
  EXPECT_EQ(R1->Outcome, ResponseOutcome::Error);
  EXPECT_NE(R1->Reason.find("machine"), std::string::npos);

  Bad = requestFor(M, G);
  Bad.LoopText = "node x class NOPE latency 1\n";
  Expected<ScheduleResponseMsg> R2 = C->schedule(Bad);
  ASSERT_TRUE(R2.ok());
  EXPECT_EQ(R2->Outcome, ResponseOutcome::Error);
  EXPECT_NE(R2->Reason.find("loop"), std::string::npos);

  Bad = requestFor(M, G);
  Bad.Scheduler = "quantum-annealer";
  Expected<ScheduleResponseMsg> R3 = C->schedule(Bad);
  ASSERT_TRUE(R3.ok());
  EXPECT_EQ(R3->Outcome, ResponseOutcome::Error);
  EXPECT_NE(R3->Reason.find("unknown scheduler"), std::string::npos);

  // The connection survived three malformed requests; a good one works.
  Expected<ScheduleResponseMsg> R4 = C->schedule(requestFor(M, G));
  ASSERT_TRUE(R4.ok());
  EXPECT_EQ(R4->Outcome, ResponseOutcome::Solved);
  D.stop();
}

TEST_F(DaemonTest, CorruptFrameGetsErrorResponseThenTeardown) {
  DaemonOptions O = daemonOptions("corrupt");
  Daemon D(O);
  ASSERT_TRUE(D.start().isOk());

  // A raw client: valid frame with one payload byte flipped after the
  // CRCs were computed.
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, O.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  std::vector<std::uint8_t> Payload{1, 2, 3, 4, 5};
  std::vector<std::uint8_t> Frame =
      encodeFrame(MessageType::StatsRequest, Payload);
  Frame[FrameHeaderSize + 2] ^= 0x10;
  ASSERT_EQ(::write(Fd, Frame.data(), Frame.size()),
            static_cast<ssize_t>(Frame.size()));

  Socket Raw(Fd); // Adopt the fd to read the daemon's reply.
  MessageType Type;
  std::vector<std::uint8_t> Reply;
  Status St = Raw.recvFrame(Type, Reply, 10.0);
  ASSERT_TRUE(St.isOk()) << St.str();
  EXPECT_EQ(Type, MessageType::ErrorResponse);

  // After the error the daemon tears the connection down.
  Status St2 = Raw.recvFrame(Type, Reply, 10.0);
  EXPECT_FALSE(St2.isOk());
  EXPECT_EQ(D.stats().FrameErrors, 1u);
  D.stop();
}

TEST_F(DaemonTest, InjectedSocketFaultsFailTypedAndRecover) {
  MachineModel M = ppc604Like();
  Ddg G = smallLoop();
  DaemonOptions O = daemonOptions("sockfault");
  Daemon D(O);
  ASSERT_TRUE(D.start().isOk());

  // sock-read fires in the daemon's receive path: the connection dies,
  // the client sees a typed transport failure, never a hang.
  {
    Expected<DaemonClient> C = DaemonClient::connect(O.SocketPath, 10.0);
    ASSERT_TRUE(C.ok());
    std::string Err;
    ASSERT_TRUE(
        FaultInjector::instance().configure("sock-read:1", 0, &Err))
        << Err;
    Expected<ScheduleResponseMsg> R = C->schedule(requestFor(M, G));
    EXPECT_FALSE(R.ok());
    FaultInjector::instance().reset();
  }

  // sock-write fires in the client's send path: same typed discipline.
  {
    Expected<DaemonClient> C = DaemonClient::connect(O.SocketPath, 10.0);
    ASSERT_TRUE(C.ok());
    std::string Err;
    ASSERT_TRUE(
        FaultInjector::instance().configure("sock-write:1", 0, &Err))
        << Err;
    Expected<ScheduleResponseMsg> R = C->schedule(requestFor(M, G));
    EXPECT_FALSE(R.ok());
    EXPECT_EQ(R.status().code(), StatusCode::FaultInjected);
    FaultInjector::instance().reset();
  }

  // Recovery: a fresh connection serves normally.
  Expected<DaemonClient> C = DaemonClient::connect(O.SocketPath, 10.0);
  ASSERT_TRUE(C.ok());
  Expected<ScheduleResponseMsg> R = C->schedule(requestFor(M, G));
  ASSERT_TRUE(R.ok()) << R.status().str();
  EXPECT_EQ(R->Outcome, ResponseOutcome::Solved);
  D.stop();
}

TEST_F(DaemonTest, StatsRequestReturnsRenderedText) {
  DaemonOptions O = daemonOptions("stats");
  Daemon D(O);
  ASSERT_TRUE(D.start().isOk());
  Expected<DaemonClient> C = DaemonClient::connect(O.SocketPath, 10.0);
  ASSERT_TRUE(C.ok());
  Expected<std::string> Text = C->statsText();
  ASSERT_TRUE(Text.ok()) << Text.status().str();
  EXPECT_NE(Text->find("requests"), std::string::npos);
  EXPECT_NE(Text->find("Admission"), std::string::npos);
  D.stop();
}

TEST_F(DaemonTest, ShutdownFrameStopsTheDaemon) {
  DaemonOptions O = daemonOptions("shutdown");
  Daemon D(O);
  ASSERT_TRUE(D.start().isOk());
  Expected<DaemonClient> C = DaemonClient::connect(O.SocketPath, 10.0);
  ASSERT_TRUE(C.ok());
  ASSERT_TRUE(C->requestShutdown().isOk());
  EXPECT_TRUE(D.waitShutdownRequested(10.0));
  D.stop();
  EXPECT_FALSE(D.running());
}
