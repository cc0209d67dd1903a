//===- corpus_explorer.cpp - Inspect the synthetic loop corpus ------------===//
//
// Generates the 1066-loop corpus, prints its size/recurrence statistics,
// and schedules a small sample end to end (ILP vs heuristic).
//
// Run:  ./corpus_explorer [num-loops-to-schedule]
//
//===----------------------------------------------------------------------===//

#include "swp/core/Driver.h"
#include "swp/ddg/Analysis.h"
#include "swp/heuristics/IterativeModulo.h"
#include "swp/machine/Catalog.h"
#include "swp/support/TextTable.h"
#include "swp/workload/Corpus.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace swp;

int main(int Argc, char **Argv) {
  MachineModel Machine = ppc604Like();
  std::vector<Ddg> Corpus = generateCorpus(Machine);

  int SizeHist[32] = {};
  int WithRecurrence = 0;
  int MaxNodes = 0;
  for (const Ddg &G : Corpus) {
    ++SizeHist[std::min(G.numNodes(), 31)];
    MaxNodes = std::max(MaxNodes, G.numNodes());
    if (recurrenceMii(G) > 0)
      ++WithRecurrence;
  }
  std::printf("corpus: %zu loops, max %d nodes, %d with recurrences\n\n",
              Corpus.size(), MaxNodes, WithRecurrence);
  std::printf("size histogram (nodes: count):\n");
  for (int N = 0; N <= MaxNodes; ++N)
    if (SizeHist[N] > 0)
      std::printf("  %2d: %4d %s\n", N, SizeHist[N],
                  std::string(static_cast<size_t>(SizeHist[N] / 4), '#')
                      .c_str());

  int Sample = Argc > 1 ? std::atoi(Argv[1]) : 10;
  Sample = std::min<int>(Sample, static_cast<int>(Corpus.size()));
  std::printf("\nscheduling the first %d loops:\n", Sample);
  TextTable Table;
  Table.setHeader({"loop", "N", "T_lb", "II(ILP)", "II(IMS)"});
  for (int I = 0; I < Sample; ++I) {
    const Ddg &G = Corpus[static_cast<size_t>(I)];
    SchedulerResult Ilp = scheduleLoop(G, Machine);
    SchedulerResult Ims = iterativeModuloSchedule(G, Machine);
    Table.addRow({G.name(), std::to_string(G.numNodes()),
                  std::to_string(Ilp.TLowerBound),
                  Ilp.found() ? std::to_string(Ilp.Schedule.T) : "-",
                  Ims.found() ? std::to_string(Ims.Schedule.T) : "-"});
  }
  std::printf("%s", Table.render().c_str());
  return 0;
}
