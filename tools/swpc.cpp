//===- swpc.cpp - Command-line software pipeliner -------------------------===//
//
// swpc: schedule a loop from text files on a machine description.
//
//   swpc --machine M.machine --loop L.loop [options]
//   swpc --machine M.machine --batch DIR [--jobs N] [options]
//
// --machine also accepts a built-in catalog name (--list-machines), e.g.
// --machine cgra-mesh-4x4.
//
// Options:
//   --scheduler ilp|sat|race|portfolio[-sat|-race]|ims|slack|enum
//                                    algorithm (default ilp); sat is the
//                                    CDCL backend with incremental per-T
//                                    re-solving, race asks sat about each
//                                    T ilp leaves censored (sat first on
//                                    constraining topologies), and the
//                                    portfolio anchors on the ILP, SAT or
//                                    the race
//   --mapping fixed|runtime          mapping discipline (default fixed)
//   --min-buffers                    buffer-minimal schedule (ILP legs)
//   --time-limit SECONDS             per-T MILP/search limit (default 10)
//   --deadline SECONDS               per-loop wall-clock deadline
//   --batch DIR                      schedule every *.loop file in DIR
//   --jobs N                         worker threads in batch mode (default
//                                    hardware concurrency)
//   --format text|json               summary format; json emits one object
//                                    per loop (T, T_lb, proven, seconds,
//                                    nodes) on stdout
//   --iterations N                   iterations in kernel listings (4)
//   --print WHAT[,WHAT...]           tka, kernel, usage, arcs, lifetimes,
//                                    dot, loop, machine (default summary)
//
// A solve flag the run would ignore is a usage error (exit 2): ims, slack
// and enum take no --deadline, --mapping or --min-buffers (ims and slack
// no --time-limit either), sat and portfolio-sat no --min-buffers, and
// --connect sends only the scheduler name and --deadline.
//
// Batch mode feeds the loops through the SchedulerService thread pool
// (service statistics go to stderr so a json stdout stream stays clean).
// A single --loop with an exact scheduler goes through a one-worker
// service too, so --deadline, the watchdog and the fallback ladder act on
// it as on a batch; ims, slack and enum run their sweeps directly.
// --save-cache/--load-cache persist the service's result cache around a
// batch run, pre-baking warm capacity for the daemon.
//
// Client mode talks to a running swpd daemon instead of solving locally:
//
//   swpc --connect SOCKET --machine M --loop L [--tenant NAME] [options]
//   swpc --connect SOCKET --machine M --batch DIR [...]
//   swpc --connect SOCKET --daemon-stats
//   swpc --connect SOCKET --shutdown
//
// Exit codes in client mode: 0 all solved, 3 some requests shed by load
// control (none failed), 1 anything unsolved/errored or transport failure.
//
//===----------------------------------------------------------------------===//

#include "swp/core/CircularArcs.h"
#include "swp/core/Driver.h"
#include "swp/core/KernelExpander.h"
#include "swp/core/Registers.h"
#include "swp/core/Verifier.h"
#include "swp/ddg/Analysis.h"
#include "swp/ddg/Dot.h"
#include "swp/heuristics/Enumerative.h"
#include "swp/heuristics/IterativeModulo.h"
#include "swp/heuristics/SlackModulo.h"
#include "swp/machine/Catalog.h"
#include "swp/net/Client.h"
#include "swp/service/CachePersist.h"
#include "swp/service/SchedulerService.h"
#include "swp/service/ServiceStats.h"
#include "swp/support/Format.h"
#include "swp/support/Stopwatch.h"
#include "swp/textio/Parser.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace swp;

namespace {

/// --list-machines: the built-in catalog, one line per machine with its
/// FU layout and (when present) topology summary.
int listMachines() {
  for (const CatalogEntry &E : machineCatalog()) {
    MachineModel M = E.Build();
    std::string Fus;
    for (int R = 0; R < M.numTypes(); ++R) {
      if (!Fus.empty())
        Fus += ", ";
      const FuType &Ty = M.type(R);
      Fus += strFormat("%s x%d", Ty.Name.c_str(), Ty.Count);
      if (Ty.numVariants() > 1)
        Fus += strFormat(" (%d variants)", Ty.numVariants());
    }
    std::printf("%-22s %s", E.Name.c_str(), Fus.c_str());
    if (const Topology *Topo = M.topology()) {
      std::printf("  [topology: %d units, %d edges, hoplat %d, maxhops ",
                  Topo->numUnits(), static_cast<int>(Topo->edges().size()),
                  Topo->hopLatency());
      if (Topo->maxHops() < 0)
        std::printf("inf]");
      else
        std::printf("%d]", Topo->maxHops());
    }
    std::printf("\n");
  }
  return 0;
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --machine FILE|NAME (--loop FILE | --batch DIR)\n"
               "       [--scheduler ilp|sat|race|portfolio[-sat|-race]|"
               "ims|slack|enum]\n"
               "       [--mapping fixed|runtime] [--min-buffers] "
               "[--time-limit S]\n"
               "       [--deadline S] [--jobs N] [--format text|json]\n"
               "       [--iterations N] [--print tka,kernel,usage,arcs,"
               "lifetimes,dot,loop,machine]\n"
               "       [--save-cache DIR] [--load-cache DIR]\n"
               "   or: %s --connect SOCKET (--machine FILE (--loop FILE |"
               " --batch DIR)\n"
               "        [--tenant NAME] | --daemon-stats | --shutdown)\n"
               "   or: %s --list-machines\n",
               Argv0, Argv0, Argv0);
  return 2;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

/// --machine accepts a file path or a catalog name (see --list-machines).
/// Both become canonical printMachine text, the form swpd recognizes
/// without parsing; a file that does not parse is passed on raw, so the
/// parser that reads it reports the error.
bool readMachineSpec(const std::string &Spec, std::string &Out) {
  if (readFile(Spec, Out)) {
    if (Expected<MachineModel> M = parseMachineText(Out); M.ok())
      Out = printMachine(*M);
    return true;
  }
  MachineModel M(Spec);
  if (!buildCatalogMachine(Spec, M))
    return false;
  Out = printMachine(M);
  return true;
}

/// Why this run would ignore one of the solve flags \p Given (the first
/// such flag), or empty when it uses them all.  ims, slack and enum take no
/// deadline, mapping or buffer objective, and ims and slack no time limit;
/// the SAT engine minimizes no buffers; and a wire request carries only
/// the scheduler name and the deadline.
std::string ignoredFlag(const std::vector<std::string> &Given,
                        const std::string &Scheduler, bool Connect) {
  const bool Sweep = Scheduler == "ims" || Scheduler == "slack";
  const bool Heuristic = Sweep || Scheduler == "enum";
  const bool Sat = Scheduler == "sat" || Scheduler == "portfolio-sat";
  for (const std::string &F : Given) {
    if (Connect && F != "--deadline")
      return F + " does not reach the daemon with --connect";
    if ((Heuristic && F != "--time-limit") || Sweep ||
        (Sat && F == "--min-buffers"))
      return F + " has no effect with --scheduler " + Scheduler;
  }
  return "";
}

bool wantArtifact(const std::string &Prints, const char *What) {
  size_t Pos = 0;
  while (Pos < Prints.size()) {
    size_t Comma = Prints.find(',', Pos);
    std::string Item = Prints.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    if (Item == What)
      return true;
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  return false;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out.push_back('\\');
    if (static_cast<unsigned char>(C) < 0x20) {
      Out += strFormat("\\u%04x", C);
      continue;
    }
    Out.push_back(C);
  }
  return Out;
}

/// One summary object per loop: the ISSUE's (T, T_lb, proven, seconds,
/// nodes) plus the loop name and the flags a batch consumer needs to
/// triage failures.
std::string resultJson(const std::string &Name, const SchedulerResult &R) {
  return strFormat("{\"loop\":\"%s\",\"T\":%d,\"T_lb\":%d,\"proven\":%s,"
                   "\"seconds\":%.6f,\"nodes\":%lld,\"cancelled\":%s,"
                   "\"verify_failed\":%s}",
                   jsonEscape(Name).c_str(), R.Schedule.T, R.TLowerBound,
                   R.ProvenRateOptimal ? "true" : "false", R.TotalSeconds,
                   static_cast<long long>(R.TotalNodes),
                   R.Cancelled ? "true" : "false",
                   R.VerifyFailed ? "true" : "false");
}

std::string resultText(const std::string &Name, const SchedulerResult &R) {
  if (!R.found())
    return strFormat("%s: no schedule (T_lb %d)%s", Name.c_str(),
                     R.TLowerBound, R.Cancelled ? ", cancelled" : "");
  return strFormat("%s: II = %d (T_lb %d)%s, %.3fs, %lld nodes",
                   Name.c_str(), R.Schedule.T, R.TLowerBound,
                   R.ProvenRateOptimal ? ", proven rate-optimal" : "",
                   R.TotalSeconds, static_cast<long long>(R.TotalNodes));
}

std::string connectResultJson(const std::string &Name,
                              const net::ScheduleResponseMsg &Resp) {
  const SchedulerResult &R = Resp.Result;
  return strFormat(
      "{\"loop\":\"%s\",\"outcome\":\"%s\",\"degradation\":\"%s\","
      "\"cache_hit\":%s,\"fallback\":\"%s\",\"T\":%d,\"T_lb\":%d,"
      "\"proven\":%s,\"seconds\":%.6f,\"reason\":\"%s\"}",
      jsonEscape(Name).c_str(), net::responseOutcomeName(Resp.Outcome),
      degradationLevelName(Resp.Degradation),
      R.CacheHit ? "true" : "false", fallbackRungName(R.Fallback),
      R.Schedule.T, R.TLowerBound, R.ProvenRateOptimal ? "true" : "false",
      R.TotalSeconds, jsonEscape(Resp.Reason).c_str());
}

std::string connectResultText(const std::string &Name,
                              const net::ScheduleResponseMsg &Resp) {
  if (Resp.Outcome == net::ResponseOutcome::Shed)
    return strFormat("%s: shed (%s)", Name.c_str(), Resp.Reason.c_str());
  if (Resp.Outcome == net::ResponseOutcome::Error)
    return strFormat("%s: error (%s)", Name.c_str(), Resp.Reason.c_str());
  std::string Line = resultText(Name, Resp.Result);
  if (Resp.Result.CacheHit)
    Line += " [cache hit]";
  if (Resp.Degradation != DegradationLevel::None)
    Line += strFormat(" [degraded: %s]",
                      degradationLevelName(Resp.Degradation));
  if (Resp.Result.Fallback != FallbackRung::None)
    Line += strFormat(" [fallback: %s]",
                      fallbackRungName(Resp.Result.Fallback));
  return Line;
}

/// Client mode: send every loop to the daemon over one connection.
int runConnect(const std::string &SocketPath, const std::string &Tenant,
               const std::string &Scheduler, double Deadline,
               const std::string &MachineText,
               const std::vector<std::pair<std::string, std::string>> &Loops,
               const std::string &Format, bool WantStats, bool WantShutdown) {
  Expected<net::DaemonClient> Client = net::DaemonClient::connect(SocketPath);
  if (!Client.ok()) {
    std::fprintf(stderr, "error: %s\n", Client.status().str().c_str());
    return 1;
  }

  bool AnyBad = false, AnyShed = false;
  for (const auto &[Name, LoopText] : Loops) {
    net::ScheduleRequestMsg Req;
    Req.Tenant = Tenant;
    Req.Scheduler = Scheduler;
    Req.DeadlineSeconds = Deadline;
    Req.MachineText = MachineText;
    Req.LoopText = LoopText;
    Expected<net::ScheduleResponseMsg> Resp = Client->schedule(Req);
    if (!Resp.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", Name.c_str(),
                   Resp.status().str().c_str());
      return 1;
    }
    std::printf("%s\n", Format == "json"
                            ? connectResultJson(Name, *Resp).c_str()
                            : connectResultText(Name, *Resp).c_str());
    switch (Resp->Outcome) {
    case net::ResponseOutcome::Solved:
      break;
    case net::ResponseOutcome::Shed:
      AnyShed = true;
      break;
    case net::ResponseOutcome::Unsolved:
    case net::ResponseOutcome::Error:
      AnyBad = true;
      break;
    }
  }

  if (WantStats) {
    Expected<std::string> Stats = Client->statsText();
    if (!Stats.ok()) {
      std::fprintf(stderr, "error: %s\n", Stats.status().str().c_str());
      return 1;
    }
    std::fprintf(stderr, "%s\n", Stats->c_str());
  }
  if (WantShutdown) {
    if (Status St = Client->requestShutdown(); !St.isOk()) {
      std::fprintf(stderr, "error: %s\n", St.str().c_str());
      return 1;
    }
  }
  return AnyBad ? 1 : AnyShed ? 3 : 0;
}

/// The *.loop files of \p Dir, sorted into \p Files; false, with the
/// error printed, when \p Dir cannot be scanned or holds none.
bool listLoopFiles(const std::string &Dir,
                   std::vector<std::filesystem::path> &Files) {
  namespace fs = std::filesystem;
  std::error_code Ec;
  for (fs::directory_iterator It(Dir, Ec), End; !Ec && It != End;
       It.increment(Ec))
    if (It->is_regular_file() && It->path().extension() == ".loop")
      Files.push_back(It->path());
  if (Ec) {
    std::fprintf(stderr, "error: cannot scan %s: %s\n", Dir.c_str(),
                 Ec.message().c_str());
    return false;
  }
  if (Files.empty()) {
    std::fprintf(stderr, "error: no *.loop files in %s\n", Dir.c_str());
    return false;
  }
  std::sort(Files.begin(), Files.end());
  return true;
}

int runBatch(const std::string &BatchDir, const MachineModel &Machine,
             const ServiceOptions &SvcOpts, const JobOptions &Job,
             const std::string &Format,
             const std::string &LoadCacheDir,
             const std::string &SaveCacheDir) {
  std::vector<std::filesystem::path> Files;
  if (!listLoopFiles(BatchDir, Files))
    return 1;

  std::vector<Ddg> Loops;
  std::vector<std::string> Names;
  for (const std::filesystem::path &P : Files) {
    std::string Text, Err;
    if (!readFile(P.string(), Text)) {
      std::fprintf(stderr, "error: cannot read loop file %s\n",
                   P.string().c_str());
      return 1;
    }
    Ddg Loop;
    if (!parseLoop(Text, Machine, Loop, Err)) {
      std::fprintf(stderr, "error: %s: %s\n", P.string().c_str(),
                   Err.c_str());
      return 1;
    }
    Names.push_back(Loop.name().empty() ? P.stem().string() : Loop.name());
    Loops.push_back(std::move(Loop));
  }

  auto Cache = std::make_shared<ResultCache>();
  if (!LoadCacheDir.empty()) {
    Expected<SnapshotLoadStats> Loaded = loadCacheSnapshot(*Cache,
                                                           LoadCacheDir);
    if (!Loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", Loaded.status().str().c_str());
      return 1;
    }
    std::fprintf(stderr, "loaded %zu cached results (%zu corrupt shards "
                         "discarded)\n",
                 Loaded->Entries, Loaded->CorruptShards);
  }
  SchedulerService Svc(SvcOpts, Cache);
  Stopwatch Wall;
  std::vector<SchedulerResult> Results = Svc.scheduleAll(Machine, Loops, Job);
  double WallSeconds = Wall.seconds();

  if (!SaveCacheDir.empty()) {
    Expected<SnapshotSaveStats> Saved = saveCacheSnapshot(*Cache,
                                                          SaveCacheDir);
    if (!Saved.ok()) {
      std::fprintf(stderr, "error: %s\n", Saved.status().str().c_str());
      return 1;
    }
    std::fprintf(stderr, "saved %zu cached results (%zu bytes)\n",
                 Saved->Entries, Saved->Bytes);
  }

  bool AnyMissing = false;
  for (size_t I = 0; I < Results.size(); ++I) {
    const SchedulerResult &R = Results[I];
    AnyMissing |= !R.found();
    std::printf("%s\n", Format == "json"
                            ? resultJson(Names[I], R).c_str()
                            : resultText(Names[I], R).c_str());
  }

  ServiceStats Stats = Svc.stats();
  std::fprintf(stderr, "\n%zu loops in %.3fs wall (%d worker threads)\n\n%s",
               Results.size(), WallSeconds, Stats.Jobs,
               Stats.render().c_str());
  return AnyMissing ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string MachinePath, LoopPath, BatchDir, Scheduler = "ilp";
  std::string Mapping = "fixed", Format = "text", Prints;
  std::string ConnectPath, Tenant = "default";
  std::string SaveCacheDir, LoadCacheDir;
  bool MinBuffers = false, DaemonStats = false, Shutdown = false;
  double TimeLimit = 10.0, Deadline = 0.0;
  int Iterations = 4, Jobs = 0;
  std::vector<std::string> SolveFlags;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--deadline" || Arg == "--time-limit" || Arg == "--mapping" ||
        Arg == "--min-buffers")
      SolveFlags.push_back(Arg);
    auto Next = [&](std::string &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = Argv[++I];
      return true;
    };
    std::string Val;
    if (Arg == "--machine" && Next(Val))
      MachinePath = Val;
    else if (Arg == "--loop" && Next(Val))
      LoopPath = Val;
    else if (Arg == "--batch" && Next(Val))
      BatchDir = Val;
    else if (Arg == "--jobs" && Next(Val))
      Jobs = std::atoi(Val.c_str());
    else if (Arg == "--scheduler" && Next(Val))
      Scheduler = Val;
    else if (Arg == "--mapping" && Next(Val))
      Mapping = Val;
    else if (Arg == "--min-buffers")
      MinBuffers = true;
    else if (Arg == "--time-limit" && Next(Val))
      TimeLimit = std::atof(Val.c_str());
    else if (Arg == "--deadline" && Next(Val))
      Deadline = std::atof(Val.c_str());
    else if (Arg == "--format" && Next(Val))
      Format = Val;
    else if (Arg == "--iterations" && Next(Val))
      Iterations = std::atoi(Val.c_str());
    else if (Arg == "--print" && Next(Val))
      Prints = Val;
    else if (Arg == "--connect" && Next(Val))
      ConnectPath = Val;
    else if (Arg == "--tenant" && Next(Val))
      Tenant = Val;
    else if (Arg == "--daemon-stats")
      DaemonStats = true;
    else if (Arg == "--shutdown")
      Shutdown = true;
    else if (Arg == "--save-cache" && Next(Val))
      SaveCacheDir = Val;
    else if (Arg == "--load-cache" && Next(Val))
      LoadCacheDir = Val;
    else if (Arg == "--list-machines")
      return listMachines();
    else
      return usage(Argv[0]);
  }
  if (const std::string Why =
          ignoredFlag(SolveFlags, Scheduler, !ConnectPath.empty());
      !Why.empty()) {
    std::fprintf(stderr, "error: %s\n", Why.c_str());
    return usage(Argv[0]);
  }
  if (!ConnectPath.empty()) {
    // Client mode: loops are optional when only stats/shutdown is wanted.
    bool HasWork = !LoopPath.empty() || !BatchDir.empty();
    if (HasWork && (MachinePath.empty() || !LoopPath.empty() == !BatchDir.empty()))
      return usage(Argv[0]);
    if (!HasWork && !DaemonStats && !Shutdown)
      return usage(Argv[0]);
    if (Format != "text" && Format != "json")
      return usage(Argv[0]);

    std::string MachineText;
    std::vector<std::pair<std::string, std::string>> Loops;
    if (HasWork) {
      if (!readMachineSpec(MachinePath, MachineText)) {
        std::fprintf(stderr,
                     "error: %s is neither a readable machine file nor a "
                     "catalog name (see --list-machines)\n",
                     MachinePath.c_str());
        return 1;
      }
      if (!LoopPath.empty()) {
        std::string Text;
        if (!readFile(LoopPath, Text)) {
          std::fprintf(stderr, "error: cannot read loop file %s\n",
                       LoopPath.c_str());
          return 1;
        }
        Loops.emplace_back(std::filesystem::path(LoopPath).stem().string(),
                           std::move(Text));
      } else {
        std::vector<std::filesystem::path> Files;
        if (!listLoopFiles(BatchDir, Files))
          return 1;
        for (const std::filesystem::path &P : Files) {
          std::string Text;
          if (!readFile(P.string(), Text)) {
            std::fprintf(stderr, "error: cannot read loop file %s\n",
                         P.string().c_str());
            return 1;
          }
          Loops.emplace_back(P.stem().string(), std::move(Text));
        }
      }
    }
    return runConnect(ConnectPath, Tenant, Scheduler, Deadline, MachineText,
                      Loops, Format, DaemonStats, Shutdown);
  }
  if (MachinePath.empty() || (LoopPath.empty() == BatchDir.empty()))
    return usage(Argv[0]);
  if (Mapping != "fixed" && Mapping != "runtime")
    return usage(Argv[0]);
  if (Format != "text" && Format != "json")
    return usage(Argv[0]);

  std::string MachineText, Err;
  if (!readMachineSpec(MachinePath, MachineText)) {
    std::fprintf(stderr,
                 "error: %s is neither a readable machine file nor a "
                 "catalog name (see --list-machines)\n",
                 MachinePath.c_str());
    return 1;
  }
  MachineModel Machine;
  if (!parseMachine(MachineText, Machine, Err)) {
    std::fprintf(stderr, "error: %s: %s\n", MachinePath.c_str(), Err.c_str());
    return 1;
  }

  // The exact engines answer through the service for one loop too.
  ServiceOptions SvcOpts;
  SvcOpts.Jobs = BatchDir.empty() ? 1 : Jobs;
  SvcOpts.Sched.TimeLimitPerT = TimeLimit;
  SvcOpts.Sched.Mapping = Mapping == "fixed" ? MappingKind::Fixed
                                             : MappingKind::RunTime;
  SvcOpts.Sched.MinimizeBuffers = MinBuffers;
  SvcOpts.DeadlinePerLoop = Deadline;
  JobOptions Job;
  const bool Exact = parseSchedulerName(Scheduler, Job.Engine, Job.Portfolio);
  if (!BatchDir.empty()) {
    if (!Exact) {
      std::fprintf(stderr, "error: --batch supports --scheduler "
                           "ilp|sat|race|portfolio[-sat|-race]\n");
      return 2;
    }
    return runBatch(BatchDir, Machine, SvcOpts, Job, Format, LoadCacheDir,
                    SaveCacheDir);
  }

  std::string LoopText;
  if (!readFile(LoopPath, LoopText)) {
    std::fprintf(stderr, "error: cannot read loop file %s\n",
                 LoopPath.c_str());
    return 1;
  }
  Ddg Loop;
  if (!parseLoop(LoopText, Machine, Loop, Err)) {
    std::fprintf(stderr, "error: %s: %s\n", LoopPath.c_str(), Err.c_str());
    return 1;
  }

  if (wantArtifact(Prints, "machine"))
    std::printf("%s\n", printMachine(Machine).c_str());
  if (wantArtifact(Prints, "loop"))
    std::printf("%s\n", printLoop(Loop, Machine).c_str());
  if (wantArtifact(Prints, "dot"))
    std::printf("%s\n", toDot(Loop).c_str());

  // Every scheduler is a step of the shared sweep and answers as one
  // SchedulerResult.
  SchedulerResult R;
  if (Exact) {
    R = SchedulerService(SvcOpts).schedule(Machine, Loop, Job);
  } else if (Scheduler == "ims") {
    R = iterativeModuloSchedule(Loop, Machine);
  } else if (Scheduler == "slack") {
    R = slackModuloSchedule(Loop, Machine);
  } else if (Scheduler == "enum") {
    EnumOptions Opts;
    Opts.TimeLimitPerT = TimeLimit;
    R = enumerativeSchedule(Loop, Machine, Opts);
  } else {
    return usage(Argv[0]);
  }
  const ModuloSchedule &Schedule = R.Schedule;

  if (Format == "json") {
    std::printf("%s\n", resultJson(Loop.name(), R).c_str());
    if (!R.found())
      return 1;
    VerifyResult V = verifySchedule(Loop, Machine, Schedule);
    return V.Ok ? 0 : 1;
  }

  if (!R.found()) {
    std::fprintf(stderr, "no schedule found (T_lb = %d)\n", R.TLowerBound);
    return 1;
  }
  VerifyResult V = verifySchedule(Loop, Machine, Schedule);
  if (!V.Ok) {
    std::fprintf(stderr, "internal error: schedule fails verification: %s\n",
                 V.Error.c_str());
    return 1;
  }

  std::printf("loop %s on machine %s: II = %d (T_dep %d, T_res %d)%s\n",
              Loop.name().c_str(), Machine.name().c_str(), Schedule.T,
              recurrenceMii(Loop), Machine.resourceMii(Loop),
              R.ProvenRateOptimal ? ", proven rate-optimal" : "");
  if (Schedule.hasMapping()) {
    std::printf("mapping:");
    for (int I = 0; I < Loop.numNodes(); ++I)
      std::printf(" %s->%s#%d", Loop.node(I).Name.c_str(),
                  Machine.type(Loop.node(I).OpClass).Name.c_str(),
                  Schedule.Mapping[static_cast<size_t>(I)]);
    std::printf("\n");
  }
  std::printf("buffers = %d, maxlive = %d\n", totalBuffers(Loop, Schedule),
              maxLive(Loop, Schedule));

  if (wantArtifact(Prints, "tka"))
    std::printf("\n%s", Schedule.renderTka().c_str());
  if (wantArtifact(Prints, "kernel"))
    std::printf("\n%s",
                renderOverlappedIterations(Loop, Schedule, Iterations)
                    .c_str());
  if (wantArtifact(Prints, "usage"))
    std::printf("\n%s", Schedule.renderPatternUsage(Loop, Machine).c_str());
  if (wantArtifact(Prints, "lifetimes"))
    std::printf("\n%s", renderLifetimes(Loop, Schedule).c_str());
  if (wantArtifact(Prints, "arcs")) {
    for (int R = 0; R < Machine.numTypes(); ++R) {
      std::vector<int> Ops = Loop.nodesOfClass(R);
      if (Ops.size() < 2)
        continue;
      std::vector<int> Offsets, Colors;
      for (int Op : Ops) {
        Offsets.push_back(Schedule.offset(Op));
        Colors.push_back(Schedule.hasMapping()
                             ? Schedule.Mapping[static_cast<size_t>(Op)]
                             : 0);
      }
      std::printf("\n%s", renderArcs(Loop, Machine, R, Schedule.T, Offsets,
                                     Colors)
                              .c_str());
    }
  }
  return 0;
}
