//===- main.cpp - Repository benchmark entry point ------------------------===//
//
// Runs one workload and prints its report.  run.py builds this binary and
// turns the report into the result line:
//
//   swp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --workdir DIR
//
// Each workload's parameters are constants of library.cpp and swpd.cpp,
// recorded in the report's "knobs".
//
// Output on stdout: a human-readable metric table, then one line
// "PERFBENCH-REPORT {json}" holding metrics (value, unit, sample count),
// deterministic outcomes, knobs, notes and failed checks.  Exit code 0 when
// every independent check passed, 1 when one failed, 2 on bad arguments or
// an error that stopped the run.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <map>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string num(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string str(const std::string &S) { return "\"" + jsonEscape(S) + "\""; }

void printReport(const RunContext &Ctx, const Report &R) {
  std::printf("%-28s %16s  %-7s %8s  %s\n", "metric", "value", "unit",
              "samples", "note");
  for (const auto &[Name, M] : R.Metrics)
    std::printf("%-28s %16.6g  %-7s %8zu  %s\n", Name.c_str(), M.Value,
                M.Unit.c_str(), M.Samples, M.Note.c_str());
  for (const std::string &F : R.CheckFailures)
    std::printf("CHECK FAILED: %s\n", F.c_str());

  std::string J = "{";
  J += "\"workload\": " + str(Ctx.Workload);
  J += ", \"seed\": " + std::to_string(Ctx.Seed);
  J += ", \"trace\": " + std::string(Ctx.Trace ? "true" : "false");
  J += ", \"env\": {\"build_type\": " + str(SWP_BENCH_BUILD_TYPE) +
       ", \"compiler\": " + str(SWP_BENCH_COMPILER) +
       ", \"hardware_threads\": " +
       std::to_string(std::thread::hardware_concurrency()) + "}";
  J += ", \"knobs\": {";
  bool First = true;
  for (const auto &[K, V] : R.Knobs) {
    J += (First ? "" : ", ") + str(K) + ": " + str(V);
    First = false;
  }
  J += "}, \"metrics\": {";
  First = true;
  for (const auto &[Name, M] : R.Metrics) {
    J += (First ? "" : ", ") + str(Name) + ": {\"value\": " + num(M.Value) +
         ", \"unit\": " + str(M.Unit) +
         ", \"samples\": " + std::to_string(M.Samples) +
         ", \"note\": " + str(M.Note) + "}";
    First = false;
  }
  J += "}, \"outcomes\": {";
  First = true;
  for (const auto &[Name, V] : R.Outcomes) {
    J += (First ? "" : ", ") + str(Name) + ": " + num(V);
    First = false;
  }
  J += "}, \"notes\": {";
  First = true;
  for (const auto &[Name, V] : R.Notes) {
    J += (First ? "" : ", ") + str(Name) + ": " + str(V);
    First = false;
  }
  J += "}, \"check_failures\": [";
  for (std::size_t I = 0; I < R.CheckFailures.size(); ++I)
    J += (I ? ", " : "") + str(R.CheckFailures[I]);
  J += "], \"attempted\": " + std::to_string(R.Attempted) +
       ", \"failed\": " + std::to_string(R.Failed) + "}";
  std::printf("PERFBENCH-REPORT %s\n", J.c_str());
  std::fflush(stdout);
}

/// Parses "--key value" pairs into \p Args; only the run's arguments are
/// accepted.
bool parseArgs(int Argc, char **Argv, std::map<std::string, std::string> &Args,
               std::string &Err) {
  static const char *const Keys[] = {"workload", "seed", "seconds", "trace",
                                     "workdir"};
  for (int I = 1; I < Argc; I += 2) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--", 0) != 0 || I + 1 >= Argc) {
      Err = "expected '--key value', got '" + Arg + "'";
      return false;
    }
    Args[Arg.substr(2)] = Argv[I + 1];
  }
  for (const char *Key : Keys)
    if (!Args.count(Key)) {
      Err = std::string("missing --") + Key;
      return false;
    }
  if (Args.size() != std::size(Keys)) {
    Err = "unknown argument";
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  std::map<std::string, std::string> Args;
  std::string Err;
  if (!parseArgs(Argc, Argv, Args, Err)) {
    std::fprintf(stderr, "swp_perfbench: %s\n", Err.c_str());
    return 2;
  }
  RunContext Ctx;
  Ctx.Workload = Args["workload"];
  Ctx.Seed = std::strtoll(Args["seed"].c_str(), nullptr, 10);
  Ctx.Seconds = std::strtod(Args["seconds"].c_str(), nullptr);
  Ctx.Trace = Args["trace"] != "0";
  Ctx.WorkDir = Args["workdir"];
  try {
    Report R;
    if (Ctx.Workload == "swpd-mixed")
      R = runSwpdWorkload(Ctx);
    else if (Ctx.Workload == "corpus-ilp" || Ctx.Workload == "corpus-sat")
      R = runLibraryWorkload(Ctx);
    else {
      std::fprintf(stderr, "swp_perfbench: unknown workload '%s'\n",
                   Ctx.Workload.c_str());
      return 2;
    }
    printReport(Ctx, R);
    return R.Failed == 0 && R.CheckFailures.empty() ? 0 : 1;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "swp_perfbench: %s\n", E.what());
    return 2;
  }
}
