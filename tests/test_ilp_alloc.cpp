//===- test_ilp_alloc.cpp - ILP storage reuse: allocation budget ----------===//
//
// Heap allocations of the ILP's per-T work.  The model, its LP workspace,
// the branch-and-bound search and the step's scratch each park their
// storage in a per-thread slot when they die, and the next one on the
// thread takes it (DESIGN.md Section 12), so a second pass over the same
// loops allocates little beyond the results it returns; a store above the
// retention bound is freed instead; and thread exit frees what is parked.
// This is its own executable because it replaces the global operator new
// and operator delete with counting versions.
//
//===----------------------------------------------------------------------===//

#include "swp/core/Driver.h"
#include "swp/machine/Catalog.h"
#include "swp/solver/Model.h"
#include "swp/workload/Corpus.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <vector>

using namespace swp;

namespace {

std::atomic<long long> Allocations{0};
std::atomic<long long> Live{0};

} // namespace

void *operator new(std::size_t Size) {
  if (void *P = std::malloc(Size ? Size : 1)) {
    Allocations.fetch_add(1, std::memory_order_relaxed);
    Live.fetch_add(1, std::memory_order_relaxed);
    return P;
  }
  throw std::bad_alloc();
}

void operator delete(void *P) noexcept {
  if (!P)
    return;
  Live.fetch_sub(1, std::memory_order_relaxed);
  std::free(P);
}

void operator delete(void *P, std::size_t) noexcept { ::operator delete(P); }

namespace {

/// The ILP benchmark workload's settings: 100 nodes per T, six T above
/// the bound, no wall-clock limit.
SchedulerOptions corpusIlpOptions() {
  SchedulerOptions Opts;
  Opts.NodeLimitPerT = 100;
  Opts.MaxTSlack = 6;
  Opts.TimeLimitPerT = 1e9;
  return Opts;
}

} // namespace

TEST(IlpAlloc, SecondPassStaysUnderTheBudget) {
  // 64 loops of the ppc604 corpus.  The budget counts every allocation of
  // a scheduleLoop call, the returned result's attempts and schedule
  // included; with the stores rebuilt per T a loop made over 1,100, and
  // with a fresh coloring per FU type and rounding attempt 41.95.  A
  // second pass now makes 31.95 per loop.
  constexpr double BudgetPerLoop = 35.0;
  const MachineModel M = ppc604Like();
  CorpusOptions CO;
  CO.NumLoops = 64;
  const std::vector<Ddg> Loops = generateCorpus(M, CO);
  const SchedulerOptions Opts = corpusIlpOptions();
  for (const Ddg &G : Loops) // Grows every store to fit the slice.
    scheduleLoop(G, M, Opts);
  const long long Before = Allocations.load();
  int Found = 0;
  for (const Ddg &G : Loops)
    Found += scheduleLoop(G, M, Opts).found() ? 1 : 0;
  const double PerLoop = static_cast<double>(Allocations.load() - Before) /
                         static_cast<double>(Loops.size());
  EXPECT_EQ(Found, static_cast<int>(Loops.size()));
  EXPECT_LE(PerLoop, BudgetPerLoop);
  RecordProperty("allocations_per_loop", std::to_string(PerLoop));
}

TEST(IlpAlloc, ModelStoreAboveTheRetentionBoundIsFreedNotParked) {
  // A small model's store is parked and taken by the next model: no
  // allocation.
  {
    MilpModel Small;
    for (int I = 0; I < 64; ++I)
      Small.addBinary();
  }
  long long Before = Allocations.load();
  {
    MilpModel Next;
    Next.addBinary();
    EXPECT_EQ(Allocations.load() - Before, 0);
  }
  // 2^16 variables keep 2 MB of variable storage, twice the bound,
  // so this store is freed and the next model builds a fresh one: one
  // allocation, its empty store.
  {
    MilpModel Big;
    for (int I = 0; I < (1 << 16); ++I)
      Big.addBinary();
  }
  Before = Allocations.load();
  MilpModel Next;
  EXPECT_EQ(Allocations.load() - Before, 1);
}

TEST(IlpAlloc, ThreadExitFreesParkedAndLateStores) {
  // On a new thread, Late's holder is a thread_local constructed before
  // the thread's first park, so it is destroyed after the slots are freed:
  // its store must be freed, not parked in a slot nobody frees.  The
  // scheduleLoop calls park a model, an LP workspace, a search and the
  // step's scratch, freed at thread exit.  Nothing may stay live once the
  // thread is joined.
  const MachineModel M = ppc604Like();
  CorpusOptions CO;
  CO.NumLoops = 8;
  const std::vector<Ddg> Loops = generateCorpus(M, CO);
  // Process-wide statics the solve touches are built here, not on the
  // worker, so they do not count as live.
  scheduleLoop(Loops[0], M, corpusIlpOptions());
  const long long Before = Live.load();
  std::thread Worker([&] {
    thread_local std::unique_ptr<MilpModel> Late;
    Late = std::make_unique<MilpModel>();
    Late->addBinary();
    for (const Ddg &G : Loops)
      scheduleLoop(G, M, corpusIlpOptions());
  });
  Worker.join();
  EXPECT_EQ(Live.load(), Before);
}
