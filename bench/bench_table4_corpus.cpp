//===- bench_table4_corpus.cpp - Paper Table 4 ----------------------------===//
//
// Table 4: "Scheduling Performance for Schedules Found" — schedule the loop
// corpus (standing in for the paper's 1066 SPEC92/NAS/linpack/livermore
// loops; see DESIGN.md) with the unified ILP on the PPC604-like machine and
// report, per achieved II relative to the lower bound T_lb, the number of
// loops and the mean DDG size.  Paper row shape: 735 loops at T = T_lb with
// mean 6 nodes; the stragglers (T_lb+2, T_lb+4, ...) are markedly larger
// loops; a small fraction is censored by the time limit (the paper's
// "10/30" note).
//
// Env: SWP_CORPUS_SIZE (default 1066), SWP_TIME_LIMIT seconds per T
// (default 2), SWP_JOBS (default 0 = serial only; > 0 additionally runs
// the corpus through the SchedulerService thread pool, checks the parallel
// results match the serial baseline loop for loop, and reports the
// speedup plus service statistics).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "swp/core/Driver.h"
#include "swp/machine/Catalog.h"
#include "swp/service/SchedulerService.h"
#include "swp/service/ServiceStats.h"
#include "swp/support/Format.h"
#include "swp/support/Statistics.h"
#include "swp/support/Stopwatch.h"
#include "swp/support/TextTable.h"
#include "swp/workload/Corpus.h"

#include <cstdio>
#include <map>

using namespace swp;

int main() {
  benchutil::banner("Table 4 (scheduling performance over the loop corpus)",
                    "Loops achieving T_lb, T_lb+1, ... with mean DDG sizes");
  MachineModel Machine = ppc604Like();
  CorpusOptions COpts;
  COpts.NumLoops = benchutil::envInt("SWP_CORPUS_SIZE", 1066);
  std::vector<Ddg> Corpus = generateCorpus(Machine, COpts);

  SchedulerOptions SOpts;
  SOpts.TimeLimitPerT = benchutil::envDouble("SWP_TIME_LIMIT", 2.0);
  SOpts.MaxTSlack = 12;

  std::map<int, std::vector<double>> SizesBySlack; // II - T_lb -> DDG sizes.
  std::vector<double> UnscheduledSizes;
  struct LoopSummary {
    int T = 0;
    bool Proven = false;
  };
  std::vector<LoopSummary> Serial(Corpus.size());
  int Censored = 0, Scheduled = 0;
  Stopwatch Total;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    const Ddg &G = Corpus[I];
    SchedulerResult R = scheduleLoop(G, Machine, SOpts);
    Serial[I] = {R.Schedule.T, R.ProvenRateOptimal};
    if (R.found()) {
      ++Scheduled;
      SizesBySlack[R.Schedule.T - R.TLowerBound].push_back(G.numNodes());
      if (!R.ProvenRateOptimal)
        ++Censored;
    } else {
      UnscheduledSizes.push_back(G.numNodes());
    }
    if ((I + 1) % 100 == 0)
      std::fprintf(stderr, "  ... %zu/%zu loops (%.1fs)\n", I + 1,
                   Corpus.size(), Total.seconds());
  }
  double SerialSeconds = Total.seconds();

  TextTable Table;
  Table.setHeader({"Number of Loops", "Initiation Interval",
                   "Mean # Nodes in DDG"});
  for (const auto &[Slack, Sizes] : SizesBySlack) {
    std::string Label = Slack == 0
                            ? "T = T_lb"
                            : strFormat("T = T_lb + %d", Slack);
    Table.addRow({std::to_string(Sizes.size()), Label,
                  strFormat("%.1f", mean(Sizes))});
  }
  if (!UnscheduledSizes.empty())
    Table.addRow({std::to_string(UnscheduledSizes.size()),
                  "none found (limit)",
                  strFormat("%.1f", mean(UnscheduledSizes))});
  std::printf("%s\n", Table.render().c_str());

  int AtLb = SizesBySlack.count(0)
                 ? static_cast<int>(SizesBySlack[0].size())
                 : 0;
  double FracAtLb =
      Corpus.empty() ? 0.0
                     : static_cast<double>(AtLb) /
                           static_cast<double>(Corpus.size());
  double MeanAtLb = SizesBySlack.count(0) ? mean(SizesBySlack[0]) : 0.0;
  double MeanAbove = 0.0;
  std::vector<double> Above;
  for (const auto &[Slack, Sizes] : SizesBySlack)
    if (Slack > 0)
      Above.insert(Above.end(), Sizes.begin(), Sizes.end());
  for (double S : UnscheduledSizes)
    Above.push_back(S);
  MeanAbove = mean(Above);

  std::printf("scheduled %d/%zu loops (%d censored by the %.1fs/T limit), "
              "total %.1fs\n\n",
              Scheduled, Corpus.size(), Censored, SOpts.TimeLimitPerT,
              Total.seconds());
  std::printf("paper-shape checks (paper: 735/766 at T_lb, mean 6 nodes; "
              "stragglers larger):\n");
  std::printf("  fraction at T_lb          = %.1f%%  (expect the large "
              "majority, ~90%%+) -> %s\n",
              100.0 * FracAtLb, FracAtLb > 0.85 ? "REPRODUCED" : "MISMATCH");
  std::printf("  mean nodes at T_lb        = %.1f   (paper: 6)\n", MeanAtLb);
  if (!Above.empty())
    std::printf("  mean nodes above T_lb     = %.1f   (paper: 16-17, i.e. "
                "bigger than at T_lb) -> %s\n",
                MeanAbove, MeanAbove > MeanAtLb ? "REPRODUCED" : "MISMATCH");

  int Jobs = benchutil::envInt("SWP_JOBS", 0);
  if (Jobs > 0) {
    std::printf("\nparallel path (SchedulerService, --jobs %d):\n", Jobs);
    ServiceOptions SvcOpts;
    SvcOpts.Jobs = Jobs;
    SvcOpts.Sched = SOpts;
    // The serial baseline re-solves every loop, so the speedup comparison
    // must too: with the cache on, duplicate corpus fingerprints become
    // hits and the reported speedup would conflate memoization with
    // thread-pool parallelism.
    SvcOpts.UseCache = false;
    SchedulerService Svc(SvcOpts);
    Stopwatch ParWall;
    std::vector<SchedulerResult> Par = Svc.scheduleAll(Machine, Corpus);
    double ParSeconds = ParWall.seconds();

    int Mismatches = 0;
    for (size_t I = 0; I < Corpus.size(); ++I)
      if (Par[I].Schedule.T != Serial[I].T ||
          Par[I].ProvenRateOptimal != Serial[I].Proven)
        ++Mismatches;
    std::printf("  serial %.1fs, parallel %.1fs -> speedup %.2fx, "
                "%d/%zu result mismatches (expect 0; time-limit censoring "
                "can perturb loads near the limit)\n",
                SerialSeconds, ParSeconds,
                ParSeconds > 0 ? SerialSeconds / ParSeconds : 0.0,
                Mismatches, Corpus.size());
    std::printf("\n%s", Svc.stats().render().c_str());
  }
  return 0;
}
