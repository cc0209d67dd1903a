//===- FaultInjector.cpp - Deterministic fault injection ------------------===//

#include "swp/support/FaultInjector.h"

#include <cstdlib>
#include <mutex>

using namespace swp;

namespace {

/// splitmix64: the same finalizer Rng uses for seeding; good avalanche, so
/// (seed, site, poll-index) -> uniform bits without a shared stream.
std::uint64_t mix(std::uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

std::mutex ConfigMutex;

} // namespace

const char *swp::faultSiteName(FaultSite S) {
  switch (S) {
  case FaultSite::LpStall:
    return "lp-stall";
  case FaultSite::LpInfeasible:
    return "lp-infeasible";
  case FaultSite::BnbNode:
    return "bnb-node";
  case FaultSite::Alloc:
    return "alloc";
  case FaultSite::Dispatch:
    return "dispatch";
  case FaultSite::CacheInsert:
    return "cache-insert";
  case FaultSite::Deadline:
    return "deadline";
  case FaultSite::SatConflict:
    return "sat-conflict";
  case FaultSite::SockRead:
    return "sock-read";
  case FaultSite::SockWrite:
    return "sock-write";
  case FaultSite::CacheLoad:
    return "cache-load";
  case FaultSite::LpRefactor:
    return "lp-refactor";
  }
  return "?";
}

FaultInjector &FaultInjector::instance() {
  static FaultInjector Singleton;
  static std::once_flag EnvOnce;
  std::call_once(EnvOnce, [] {
    const char *Spec = std::getenv("SWP_FAULTS");
    if (!Spec || !*Spec)
      return;
    std::uint64_t Seed = 0;
    if (const char *SeedStr = std::getenv("SWP_FAULTS_SEED"))
      Seed = std::strtoull(SeedStr, nullptr, 10);
    Singleton.configure(Spec, Seed);
  });
  return Singleton;
}

void FaultInjector::reset() {
  std::lock_guard<std::mutex> Lock(ConfigMutex);
  Armed.store(false, std::memory_order_relaxed);
  for (SiteState &S : Sites) {
    S.Enabled.store(false, std::memory_order_relaxed);
    S.Prob.store(0.0, std::memory_order_relaxed);
    S.Budget.store(0, std::memory_order_relaxed);
    S.Polls.store(0, std::memory_order_relaxed);
    S.Fires.store(0, std::memory_order_relaxed);
  }
}

bool FaultInjector::configure(const std::string &Spec, std::uint64_t NewSeed,
                              std::string *Err) {
  reset();
  Seed.store(NewSeed, std::memory_order_relaxed);
  auto Fail = [&](const std::string &Msg) {
    reset();
    if (Err)
      *Err = Msg;
    return false;
  };

  bool Any = false;
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t End = Spec.find(',', Pos);
    if (End == std::string::npos)
      End = Spec.size();
    std::string Entry = Spec.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Entry.empty())
      continue;

    size_t Colon = Entry.find(':');
    if (Colon == std::string::npos)
      return Fail("fault entry '" + Entry + "' missing ':'");
    std::string Name = Entry.substr(0, Colon);
    std::string Value = Entry.substr(Colon + 1);

    int SiteIx = -1;
    for (int I = 0; I < NumFaultSites; ++I)
      if (Name == faultSiteName(static_cast<FaultSite>(I))) {
        SiteIx = I;
        break;
      }
    if (SiteIx < 0)
      return Fail("unknown fault site '" + Name + "'");
    if (Value.empty())
      return Fail("fault entry '" + Entry + "' has empty value");

    // Validate before taking ConfigMutex: Fail() calls reset(), which
    // locks it too (non-recursive).
    char *ValEnd = nullptr;
    double Prob = 0.0;
    long long Count = 0;
    bool Probabilistic = Value[0] == 'p';
    if (Probabilistic) {
      Prob = std::strtod(Value.c_str() + 1, &ValEnd);
      if (ValEnd != Value.c_str() + Value.size() || Prob < 0.0 || Prob > 1.0)
        return Fail("bad probability in '" + Entry + "'");
    } else {
      Count = std::strtoll(Value.c_str(), &ValEnd, 10);
      if (ValEnd != Value.c_str() + Value.size() || Count < 0)
        return Fail("bad count in '" + Entry + "'");
    }

    std::lock_guard<std::mutex> Lock(ConfigMutex);
    SiteState &S = Sites[SiteIx];
    if (Probabilistic) {
      S.Prob.store(Prob, std::memory_order_relaxed);
      S.Budget.store(-1, std::memory_order_relaxed);
    } else {
      S.Budget.store(Count, std::memory_order_relaxed);
    }
    S.Enabled.store(true, std::memory_order_relaxed);
    Any = true;
  }

  if (Any)
    Armed.store(true, std::memory_order_relaxed);
  return true;
}

bool FaultInjector::shouldFire(FaultSite Site) {
  if (!armed())
    return false;
  SiteState &S = Sites[static_cast<int>(Site)];
  if (!S.Enabled.load(std::memory_order_relaxed))
    return false;
  std::uint64_t Poll = S.Polls.fetch_add(1, std::memory_order_relaxed);

  bool Fire;
  std::int64_t Budget = S.Budget.load(std::memory_order_relaxed);
  if (Budget >= 0) {
    // Count mode: fire the first Budget polls.  Decrement-and-test keeps
    // the total exact under concurrent polls.
    Fire = Budget > 0 &&
           S.Budget.fetch_sub(1, std::memory_order_relaxed) > 0;
  } else {
    // Probability mode: deterministic per (seed, site, poll index).
    const std::uint64_t SitePoll =
        (static_cast<std::uint64_t>(static_cast<int>(Site)) << 32) ^ Poll;
    std::uint64_t H = mix(Seed.load(std::memory_order_relaxed) ^ mix(SitePoll));
    Fire = (H >> 11) * (1.0 / 9007199254740992.0) <
           S.Prob.load(std::memory_order_relaxed);
  }
  if (Fire)
    S.Fires.fetch_add(1, std::memory_order_relaxed);
  return Fire;
}

std::uint64_t FaultInjector::fired(FaultSite Site) const {
  return Sites[static_cast<int>(Site)].Fires.load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::totalFired() const {
  std::uint64_t Total = 0;
  for (const SiteState &S : Sites)
    Total += S.Fires.load(std::memory_order_relaxed);
  return Total;
}
