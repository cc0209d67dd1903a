//===- bench_cgra_mapping.cpp - CGRA mapping workload ---------------------===//
//
// Extension artifact: the topology-aware resource model turns the scheduler
// into a CGRA modulo mapper (place operations on PE instances, route values
// over the interconnect).  This bench sweeps mesh/torus grids over the CGRA
// dataflow corpus and records, per array size, the mapping success rate and
// the achieved II for every engine — the exact ILP, the CDCL SAT backend
// (raced against the same instances and cross-checked on the proven II),
// and both modulo heuristics.  The shape to look for: success rate rises
// and II falls as the array grows, and the exact engines agree everywhere
// both prove optimality.
//
// Emits BENCH_mapping.json (override with SWP_BENCH_JSON).
//
// With SWP_PERF_SMOKE set the binary runs the CI regression gate instead:
// a pinned tiny configuration (2x2 and 3x3 meshes, deterministic node
// limits, no wall-clock dependence) is compared against the checked-in
// reference bench/mapping_smoke_ref.json (override via SWP_MAPPING_REF).
// Fewer mapped/proven/agreeing loops than the reference fails; >3x the
// reference's B&B-node or pivot effort fails.  SWP_PERF_SMOKE=write
// regenerates the reference after an intentional change.
//
// Env: SWP_CORPUS_SIZE (default 40 loops per grid), SWP_TIME_LIMIT
//      (default 2 s per candidate T), SWP_BENCH_JSON (output path).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "swp/core/Driver.h"
#include "swp/core/Verifier.h"
#include "swp/heuristics/IterativeModulo.h"
#include "swp/heuristics/SlackModulo.h"
#include "swp/machine/Catalog.h"
#include "swp/sat/SatScheduler.h"
#include "swp/support/Format.h"
#include "swp/support/TextTable.h"
#include "swp/workload/Corpus.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace swp;

namespace {

struct EngineStats {
  int Found = 0;
  int Proven = 0;
  long long IiSum = 0;
  double Seconds = 0.0;
  long long Effort = 0; // B&B nodes or CDCL conflicts.
  long long Pivots = 0;

  void add(const SchedulerResult &R) {
    Seconds += R.TotalSeconds;
    Effort += R.TotalNodes;
    Pivots += R.TotalLp.Pivots;
    if (R.found()) {
      ++Found;
      IiSum += R.Schedule.T;
    }
    if (R.ProvenRateOptimal)
      ++Proven;
  }

  double meanIi() const {
    return Found == 0 ? 0.0
                      : static_cast<double>(IiSum) / static_cast<double>(Found);
  }
};

struct HeurStats {
  int Found = 0;
  long long IiSum = 0;
  double meanIi() const {
    return Found == 0 ? 0.0
                      : static_cast<double>(IiSum) / static_cast<double>(Found);
  }
};

/// Everything measured for one grid over the corpus.
struct GridStats {
  std::string Name;
  int Units = 0;
  int Loops = 0;
  EngineStats Ilp, Sat;
  HeurStats Ims, Slack;
  /// The race winner: a loop is mapped when either exact engine maps it,
  /// at the better of the two IIs.
  HeurStats Raced;
  int Agree = 0;     // Both engines proved the same optimal II.
  int Disagree = 0;  // Both proved, IIs differ — a solver bug.
  int VerifyFail = 0;
};

/// Runs every engine on one (grid, loop) pair and cross-checks results.
void runLoop(const Ddg &G, const MachineModel &M, const SchedulerOptions &Opts,
             GridStats &S) {
  ++S.Loops;
  SchedulerResult Ilp = scheduleLoop(G, M, Opts);
  SchedulerResult Sat = satScheduleLoop(G, M, Opts);
  S.Ilp.add(Ilp);
  S.Sat.add(Sat);

  auto Check = [&](const SchedulerResult &R) {
    if (R.found() && !verifySchedule(G, M, R.Schedule).Ok)
      ++S.VerifyFail;
  };
  Check(Ilp);
  Check(Sat);

  if (Ilp.found() || Sat.found()) {
    ++S.Raced.Found;
    int Best = Ilp.found() && Sat.found()
                   ? std::min(Ilp.Schedule.T, Sat.Schedule.T)
                   : (Ilp.found() ? Ilp.Schedule.T : Sat.Schedule.T);
    S.Raced.IiSum += Best;
  }

  if (Ilp.ProvenRateOptimal && Sat.ProvenRateOptimal && Ilp.found() &&
      Sat.found()) {
    if (Ilp.Schedule.T == Sat.Schedule.T)
      ++S.Agree;
    else
      ++S.Disagree;
  }

  SchedulerResult Ims = iterativeModuloSchedule(G, M);
  if (Ims.found() && verifySchedule(G, M, Ims.Schedule).Ok) {
    ++S.Ims.Found;
    S.Ims.IiSum += Ims.Schedule.T;
  }
  SchedulerResult Sl = slackModuloSchedule(G, M);
  if (Sl.found() && verifySchedule(G, M, Sl.Schedule).Ok) {
    ++S.Slack.Found;
    S.Slack.IiSum += Sl.Schedule.T;
  }
}

GridStats runGrid(const MachineModel &M, const std::vector<Ddg> &Corpus,
                  const SchedulerOptions &Opts) {
  GridStats S;
  S.Name = M.name();
  S.Units = M.totalUnits();
  for (const Ddg &G : Corpus)
    runLoop(G, M, Opts, S);
  return S;
}

std::string gridJson(const GridStats &S) {
  auto Rate = [&](int N) {
    return S.Loops ? static_cast<double>(N) / S.Loops : 0.0;
  };
  return strFormat(
      "    {\"grid\":\"%s\",\"units\":%d,\"loops\":%d,"
      "\"ilp\":{\"found\":%d,\"proven\":%d,\"success_rate\":%.3f,"
      "\"mean_ii\":%.3f,\"seconds\":%.3f,\"nodes\":%lld,\"pivots\":%lld},"
      "\"sat\":{\"found\":%d,\"proven\":%d,\"success_rate\":%.3f,"
      "\"mean_ii\":%.3f,\"seconds\":%.3f,\"conflicts\":%lld},"
      "\"ims\":{\"found\":%d,\"success_rate\":%.3f,\"mean_ii\":%.3f},"
      "\"slack\":{\"found\":%d,\"success_rate\":%.3f,\"mean_ii\":%.3f},"
      "\"raced\":{\"found\":%d,\"success_rate\":%.3f,\"mean_ii\":%.3f},"
      "\"cross_check\":{\"agree\":%d,\"disagree\":%d,\"verify_fail\":%d}}",
      S.Name.c_str(), S.Units, S.Loops, S.Ilp.Found, S.Ilp.Proven,
      Rate(S.Ilp.Found), S.Ilp.meanIi(), S.Ilp.Seconds, S.Ilp.Effort,
      S.Ilp.Pivots, S.Sat.Found, S.Sat.Proven, Rate(S.Sat.Found),
      S.Sat.meanIi(), S.Sat.Seconds, S.Sat.Effort, S.Ims.Found,
      Rate(S.Ims.Found), S.Ims.meanIi(), S.Slack.Found, Rate(S.Slack.Found),
      S.Slack.meanIi(), S.Raced.Found, Rate(S.Raced.Found), S.Raced.meanIi(),
      S.Agree, S.Disagree, S.VerifyFail);
}

//===----------------------------------------------------------------------===//
// CI smoke gate (SWP_PERF_SMOKE)
//===----------------------------------------------------------------------===//

std::string smokeJson(const GridStats &A, const GridStats &B) {
  return strFormat("{\n  \"mapped\": %d,\n  \"proven\": %d,\n"
                   "  \"agree\": %d,\n  \"disagree\": %d,\n"
                   "  \"verify_fail\": %d,\n  \"nodes\": %lld,\n"
                   "  \"pivots\": %lld,\n  \"heur_mapped\": %d\n}\n",
                   A.Ilp.Found + B.Ilp.Found, A.Ilp.Proven + B.Ilp.Proven,
                   A.Agree + B.Agree, A.Disagree + B.Disagree,
                   A.VerifyFail + B.VerifyFail, A.Ilp.Effort + B.Ilp.Effort,
                   A.Ilp.Pivots + B.Ilp.Pivots,
                   A.Ims.Found + A.Slack.Found + B.Ims.Found + B.Slack.Found);
}

long long refField(const std::string &Json, const char *Key) {
  std::string Needle = std::string("\"") + Key + "\":";
  std::size_t At = Json.find(Needle);
  if (At == std::string::npos)
    return -1;
  return std::atoll(Json.c_str() + At + Needle.size());
}

int mappingSmoke(bool WriteRef) {
  const char *RefEnv = std::getenv("SWP_MAPPING_REF");
  std::string RefPath = RefEnv ? RefEnv : "bench/mapping_smoke_ref.json";

  // Deterministic limits only: node budgets bound a runaway regression
  // without making the counters depend on runner speed.
  SchedulerOptions Opts;
  Opts.TimeLimitPerT = 1e9;
  Opts.NodeLimitPerT = 5000;
  Opts.MaxTSlack = 6;

  CgraCorpusOptions COpts;
  COpts.NumLoops = 16;
  COpts.MaxNodes = 10;

  MachineModel M2 = cgraGrid(2, 2);
  MachineModel M3 = cgraGrid(3, 3);
  GridStats A = runGrid(M2, generateCgraCorpus(M2, COpts), Opts);
  GridStats B = runGrid(M3, generateCgraCorpus(M3, COpts), Opts);
  std::printf("mapping-smoke totals (2x2 + 3x3 mesh, 16-loop pinned "
              "corpus each):\n%s",
              smokeJson(A, B).c_str());

  if (WriteRef) {
    std::FILE *Out = std::fopen(RefPath.c_str(), "w");
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", RefPath.c_str());
      return 1;
    }
    std::fputs(smokeJson(A, B).c_str(), Out);
    std::fclose(Out);
    std::printf("wrote reference %s\n", RefPath.c_str());
    return 0;
  }

  std::FILE *In = std::fopen(RefPath.c_str(), "r");
  if (!In) {
    std::fprintf(stderr, "error: reference %s not found (run with "
                         "SWP_PERF_SMOKE=write to create it)\n",
                 RefPath.c_str());
    return 1;
  }
  std::string Ref;
  char Buf[256];
  while (std::size_t Got = std::fread(Buf, 1, sizeof(Buf), In))
    Ref.append(Buf, Got);
  std::fclose(In);

  int Failures = 0;
  auto GateFloor = [&](const char *Key, long long Have) {
    long long Want = refField(Ref, Key);
    if (Want < 0) {
      std::fprintf(stderr, "FAIL %s: missing from reference\n", Key);
      ++Failures;
      return;
    }
    std::printf("  %-12s %8lld vs ref %8lld (floor) %s\n", Key, Have, Want,
                Have < Want ? "FAIL" : "ok");
    if (Have < Want)
      ++Failures;
  };
  auto GateCeiling = [&](const char *Key, long long Have) {
    long long Want = refField(Ref, Key);
    if (Want < 0) {
      std::fprintf(stderr, "FAIL %s: missing from reference\n", Key);
      ++Failures;
      return;
    }
    long long Limit = 3 * (Want < 1 ? 1 : Want);
    std::printf("  %-12s %8lld vs ref %8lld (limit %lld) %s\n", Key, Have,
                Want, Limit, Have > Limit ? "FAIL" : "ok");
    if (Have > Limit)
      ++Failures;
  };
  std::printf("gate (fewer mapped/proven/agreeing fails; >3x effort "
              "fails; any disagree/verify-fail fails):\n");
  GateFloor("mapped", A.Ilp.Found + B.Ilp.Found);
  GateFloor("proven", A.Ilp.Proven + B.Ilp.Proven);
  GateFloor("agree", A.Agree + B.Agree);
  GateFloor("heur_mapped",
            A.Ims.Found + A.Slack.Found + B.Ims.Found + B.Slack.Found);
  GateCeiling("nodes", A.Ilp.Effort + B.Ilp.Effort);
  GateCeiling("pivots", A.Ilp.Pivots + B.Ilp.Pivots);
  if (A.Disagree + B.Disagree) {
    std::fprintf(stderr, "FAIL: %d proven-optimal II disagreements\n",
                 A.Disagree + B.Disagree);
    ++Failures;
  }
  if (A.VerifyFail + B.VerifyFail) {
    std::fprintf(stderr, "FAIL: %d schedules failed verification\n",
                 A.VerifyFail + B.VerifyFail);
    ++Failures;
  }
  if (Failures) {
    std::fprintf(stderr, "mapping-smoke: %d gate failure(s)\n", Failures);
    return 1;
  }
  std::printf("mapping-smoke: ok\n");
  return 0;
}

} // namespace

int main() {
  if (const char *Mode = std::getenv("SWP_PERF_SMOKE"))
    return mappingSmoke(std::strcmp(Mode, "write") == 0);

  benchutil::banner("Extension: CGRA modulo mapping",
                    "Mapping success rate and II vs array size, "
                    "exact engines raced and cross-checked");

  SchedulerOptions Opts;
  Opts.TimeLimitPerT = benchutil::envDouble("SWP_TIME_LIMIT", 2.0);
  Opts.MaxTSlack = 8;

  CgraCorpusOptions COpts;
  COpts.NumLoops = benchutil::envInt("SWP_CORPUS_SIZE", 40);

  struct GridSpec {
    int Rows, Cols;
    bool Torus;
  };
  const GridSpec Grids[] = {
      {2, 2, false}, {3, 3, false}, {4, 4, false}, {5, 5, false},
      {3, 3, true},
  };

  std::vector<GridStats> All;
  for (const GridSpec &Spec : Grids) {
    MachineModel M = cgraGrid(Spec.Rows, Spec.Cols, Spec.Torus);
    // One corpus per grid seed-pinned by the default options: identical
    // loops across grids, so the II-vs-size curve is apples-to-apples.
    All.push_back(runGrid(M, generateCgraCorpus(M, COpts), Opts));
    std::printf("  %-16s done (%d loops)\n", All.back().Name.c_str(),
                All.back().Loops);
  }

  TextTable Table;
  Table.setHeader({"Grid", "PEs", "ILP map%", "ILP II", "SAT map%", "SAT II",
                   "IMS map%", "Slack map%", "Agree", "Bad"});
  for (const GridStats &S : All) {
    auto Pct = [&](int N) {
      return strFormat("%.0f%%", S.Loops ? 100.0 * N / S.Loops : 0.0);
    };
    Table.addRow({S.Name, std::to_string(S.Units), Pct(S.Ilp.Found),
                  strFormat("%.2f", S.Ilp.meanIi()), Pct(S.Sat.Found),
                  strFormat("%.2f", S.Sat.meanIi()), Pct(S.Ims.Found),
                  Pct(S.Slack.Found), std::to_string(S.Agree),
                  std::to_string(S.Disagree + S.VerifyFail)});
  }
  std::printf("\n%s\n", Table.render().c_str());

  int TotalBad = 0;
  for (const GridStats &S : All)
    TotalBad += S.Disagree + S.VerifyFail;
  std::printf("cross-check: exact engines agree on every doubly-proven II "
              "and all schedules verify -> %s\n",
              TotalBad == 0 ? "REPRODUCED" : "MISMATCH");
  const GridStats &Small = All.front();
  const GridStats &Large = All[3];
  std::printf("shape check: the raced portfolio maps no fewer loops as the "
              "array grows\n  (%d on %s vs %d on %s) -> %s\n",
              Small.Raced.Found, Small.Name.c_str(), Large.Raced.Found,
              Large.Name.c_str(),
              Large.Raced.Found >= Small.Raced.Found ? "REPRODUCED"
                                                     : "MISMATCH");

  std::string Json =
      "{\n  \"bench\": \"cgra_mapping\",\n  \"corpus_size\": " +
      std::to_string(COpts.NumLoops) + ",\n  \"time_limit_per_t\": " +
      strFormat("%.3f", Opts.TimeLimitPerT) + ",\n  \"grids\": [\n";
  for (size_t I = 0; I < All.size(); ++I)
    Json += gridJson(All[I]) + (I + 1 < All.size() ? ",\n" : "\n");
  Json += "  ]\n}\n";

  const char *JsonPathEnv = std::getenv("SWP_BENCH_JSON");
  std::string JsonPath = JsonPathEnv ? JsonPathEnv : "BENCH_mapping.json";
  if (std::FILE *Out = std::fopen(JsonPath.c_str(), "w")) {
    std::fputs(Json.c_str(), Out);
    std::fclose(Out);
    std::printf("wrote %s\n", JsonPath.c_str());
  } else {
    std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
    return 1;
  }
  return TotalBad == 0 ? 0 : 1;
}
