//===- ppc604_kernels.cpp - Classic kernels on the PPC604-like machine ----===//
//
// Schedules every classic kernel (livermore / linpack style) on the
// PPC604-like machine, comparing the rate-optimal ILP against the IMS
// heuristic, and prints one software pipeline in full.
//
// Run:  ./ppc604_kernels [kernel-name]
//
//===----------------------------------------------------------------------===//

#include "swp/core/Driver.h"
#include "swp/core/KernelExpander.h"
#include "swp/heuristics/IterativeModulo.h"
#include "swp/machine/Catalog.h"
#include "swp/support/TextTable.h"
#include "swp/workload/Kernels.h"

#include <cstdio>
#include <cstring>

using namespace swp;

int main(int Argc, char **Argv) {
  MachineModel Machine = ppc604Like();
  const char *Pick = Argc > 1 ? Argv[1] : "liv5-tridiag";

  TextTable Table;
  Table.setHeader({"kernel", "N", "T_dep", "T_res", "II(ILP)", "II(IMS)",
                   "optimal?"});
  for (const Ddg &G : classicKernels()) {
    SchedulerResult Ilp = scheduleLoop(G, Machine);
    SchedulerResult Ims = iterativeModuloSchedule(G, Machine);
    Table.addRow({G.name(), std::to_string(G.numNodes()),
                  std::to_string(Ilp.TDep), std::to_string(Ilp.TRes),
                  Ilp.found() ? std::to_string(Ilp.Schedule.T) : "-",
                  Ims.found() ? std::to_string(Ims.Schedule.T) : "-",
                  Ilp.ProvenRateOptimal ? "proven" : "censored"});
  }
  std::printf("%s\n", Table.render().c_str());

  for (const Ddg &G : classicKernels()) {
    if (std::strcmp(G.name().c_str(), Pick) != 0)
      continue;
    SchedulerResult R = scheduleLoop(G, Machine);
    if (!R.found())
      break;
    std::printf("=== %s: software pipeline at II = %d ===\n",
                G.name().c_str(), R.Schedule.T);
    std::printf("%s\n", R.Schedule.renderTka().c_str());
    std::printf("%s\n",
                renderOverlappedIterations(G, R.Schedule, 4).c_str());
  }
  return 0;
}
