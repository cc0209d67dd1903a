//===- test_sat_alloc.cpp - CDCL storage reuse: allocation budget ---------===//
//
// Heap allocations of CdclSolver lifetimes.  A destroyed solver parks its
// store in a per-thread slot and the next solver on the thread takes it
// (DESIGN.md Section 10, "Storage reuse"), so a repeated lifetime over the
// same instance allocates nothing; a store above the retention bound is
// freed instead; and thread exit frees what is parked.  This is its own
// executable because it replaces the global operator new and operator
// delete with counting versions.
//
//===----------------------------------------------------------------------===//

#include "swp/sat/CdclSolver.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>

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

/// One solver lifetime over a fixed instance, building no container of its
/// own: PHP(5,4) guarded by a selector is refuted under it (learned
/// clauses, restarts), then solved without it (a model), then made
/// globally unsat.
void pigeonholeLifetime() {
  constexpr int Pigeons = 5, Holes = 4;
  CdclSolver S;
  const int Sel = S.newVar();
  const int First = S.newVars(Pigeons * Holes);
  auto var = [&](int I, int J) { return First + I * Holes + J; };
  for (int I = 0; I < Pigeons; ++I) {
    std::array<SatLit, Holes + 1> Row;
    Row[0] = mkLit(Sel, true);
    for (int J = 0; J < Holes; ++J)
      Row[static_cast<std::size_t>(J) + 1] = mkLit(var(I, J));
    S.addClause(Row);
  }
  for (int J = 0; J < Holes; ++J)
    for (int I = 0; I < Pigeons; ++I)
      for (int K = I + 1; K < Pigeons; ++K)
        S.addClause({mkLit(var(I, J), true), mkLit(var(K, J), true)});
  EXPECT_EQ(S.solve({mkLit(Sel)}), SatStatus::Unsat);
  EXPECT_GT(S.stats().LearnedClauses, 0);
  EXPECT_EQ(S.solve({}), SatStatus::Sat);
  EXPECT_FALSE(S.modelValue(Sel));
  S.addClause({mkLit(Sel)});
  EXPECT_EQ(S.solve({}), SatStatus::Unsat);
  EXPECT_FALSE(S.ok());
}

} // namespace

TEST(CdclAlloc, SecondLifetimeOverTheSameInstanceAllocatesNothing) {
  pigeonholeLifetime(); // Grows the parked store to fit the instance.
  const long long Before = Allocations.load();
  pigeonholeLifetime();
  EXPECT_EQ(Allocations.load() - Before, 0);
}

TEST(CdclAlloc, StoreAboveTheRetentionBoundIsFreedNotParked) {
  // A small store is parked and taken by the next solver: no allocation.
  {
    CdclSolver Small;
    Small.newVars(64);
  }
  long long Before = Allocations.load();
  {
    CdclSolver Next;
    EXPECT_EQ(Allocations.load() - Before, 0);
  }
  // 2^16 variables keep about 5 MB of per-variable storage, several times
  // the bound, so this store is freed and the next solver builds a fresh
  // one: one allocation, its empty store.
  {
    CdclSolver Big;
    Big.newVars(1 << 16);
  }
  Before = Allocations.load();
  CdclSolver Next;
  EXPECT_EQ(Allocations.load() - Before, 1);
}

TEST(CdclAlloc, ThreadExitFreesParkedAndLateStores) {
  // On a new thread, Late's holder is a thread_local constructed before
  // the thread's first park, so it is destroyed after the slot is freed:
  // its store must be freed, not parked in a slot nobody frees.  The other
  // solver's store is parked and freed at thread exit.  Nothing may stay
  // live once the thread is joined.
  const long long Before = Live.load();
  std::thread Worker([] {
    thread_local std::unique_ptr<CdclSolver> Late;
    Late = std::make_unique<CdclSolver>();
    Late->newVars(8);
    {
      CdclSolver Parked;
      Parked.newVars(8);
      Parked.addClause({mkLit(0), mkLit(1)});
    }
  });
  Worker.join();
  EXPECT_EQ(Live.load(), Before);
}
