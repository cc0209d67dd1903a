//===- swpd.cpp - The scheduling daemon -----------------------------------===//
//
// swpd: serve scheduling requests over a local socket.
//
//   swpd --socket PATH [options]
//
// Options:
//   --socket PATH          AF_UNIX socket path (required)
//   --jobs N               worker threads of the daemon (default:
//                          hardware concurrency)
//   --time-limit S         per-T exact-engine limit (default 10)
//   --snapshot-dir DIR     persist the result cache under DIR (loaded at
//                          start, saved at stop and every --snapshot-every
//                          completions)
//   --snapshot-every N     snapshot cadence in completed requests (0 =
//                          only at stop); the accept thread runs a due
//                          save, so no response waits for it
//   --cache-capacity N     per-shard LRU capacity of the result cache
//   --max-in-flight N      admission: shed beyond N concurrent requests
//   --reduced-at N         admission: reduced exact effort from N in flight
//   --heuristic-at N       admission: heuristic-ladder-only from N
//   --tenant-budget S      per-tenant token bucket capacity in seconds
//                          (0 disables tenant budgets)
//   --tenant-refill R      bucket refill rate in seconds/second
//   --io-timeout S         per-connection frame read/write timeout
//   --run-for S            exit after S seconds (tests/CI; 0 = until
//                          signal or client Shutdown frame)
//
// The daemon exits cleanly on SIGINT/SIGTERM or a client's Shutdown frame,
// saving a final cache snapshot; final stats go to stderr.
//
//===----------------------------------------------------------------------===//

#include "swp/net/Daemon.h"
#include "swp/support/Stopwatch.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace swp;
using namespace swp::net;

namespace {

volatile std::sig_atomic_t SignalSeen = 0;

void onSignal(int) { SignalSeen = 1; }

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--jobs N] [--time-limit S]\n"
               "       [--snapshot-dir DIR] [--snapshot-every N] "
               "[--cache-capacity N]\n"
               "       [--max-in-flight N] [--reduced-at N] "
               "[--heuristic-at N]\n"
               "       [--tenant-budget S] [--tenant-refill R] "
               "[--io-timeout S] [--run-for S]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  DaemonOptions Opts;
  double RunFor = 0.0;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&](std::string &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = Argv[++I];
      return true;
    };
    std::string Val;
    if (Arg == "--socket" && Next(Val))
      Opts.SocketPath = Val;
    else if (Arg == "--jobs" && Next(Val))
      Opts.Service.Jobs = std::atoi(Val.c_str());
    else if (Arg == "--time-limit" && Next(Val))
      Opts.Service.Sched.TimeLimitPerT = std::atof(Val.c_str());
    else if (Arg == "--snapshot-dir" && Next(Val))
      Opts.SnapshotDir = Val;
    else if (Arg == "--snapshot-every" && Next(Val))
      Opts.SnapshotEvery = static_cast<std::uint64_t>(
          std::strtoull(Val.c_str(), nullptr, 10));
    else if (Arg == "--cache-capacity" && Next(Val))
      Opts.CachePerShardCapacity = static_cast<std::size_t>(
          std::strtoull(Val.c_str(), nullptr, 10));
    else if (Arg == "--max-in-flight" && Next(Val))
      Opts.Admission.MaxInFlight = std::atoi(Val.c_str());
    else if (Arg == "--reduced-at" && Next(Val))
      Opts.Admission.ReducedEffortAt = std::atoi(Val.c_str());
    else if (Arg == "--heuristic-at" && Next(Val))
      Opts.Admission.HeuristicOnlyAt = std::atoi(Val.c_str());
    else if (Arg == "--tenant-budget" && Next(Val))
      Opts.Admission.TenantBudgetSeconds = std::atof(Val.c_str());
    else if (Arg == "--tenant-refill" && Next(Val))
      Opts.Admission.TenantRefillPerSecond = std::atof(Val.c_str());
    else if (Arg == "--io-timeout" && Next(Val))
      Opts.IoTimeoutSeconds = std::atof(Val.c_str());
    else if (Arg == "--run-for" && Next(Val))
      RunFor = std::atof(Val.c_str());
    else
      return usage(Argv[0]);
  }
  if (Opts.SocketPath.empty())
    return usage(Argv[0]);

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  Daemon D(Opts);
  if (Status St = D.start(); !St.isOk()) {
    std::fprintf(stderr, "swpd: %s\n", St.str().c_str());
    return 1;
  }
  std::fprintf(stderr, "swpd: listening on %s\n", Opts.SocketPath.c_str());

  Stopwatch Up;
  for (;;) {
    if (D.waitShutdownRequested(0.2))
      break;
    if (SignalSeen)
      break;
    if (RunFor > 0 && Up.seconds() >= RunFor)
      break;
  }
  D.stop();
  std::fprintf(stderr, "swpd: stopped after %.1fs\n\n%s\n", Up.seconds(),
               D.statsText().c_str());
  return 0;
}
