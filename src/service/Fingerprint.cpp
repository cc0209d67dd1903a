//===- Fingerprint.cpp - Canonical job fingerprints -----------------------===//

#include "swp/service/Fingerprint.h"

#include <cstring>

using namespace swp;

FingerprintBuilder &FingerprintBuilder::add(std::uint64_t V) {
  // Two independently seeded FNV-1a-style lanes with a splitmix finalizer
  // mix per word; cheap, deterministic across platforms, and 128 bits of
  // state make corpus-scale collisions implausible.
  auto Mix = [](std::uint64_t H) {
    H ^= H >> 30;
    H *= 0xbf58476d1ce4e5b9ULL;
    H ^= H >> 27;
    H *= 0x94d049bb133111ebULL;
    H ^= H >> 31;
    return H;
  };
  Hi = Mix((Hi ^ V) * 0x100000001b3ULL);
  Lo = Mix((Lo ^ V) * 0xc6a4a7935bd1e995ULL);
  return *this;
}

FingerprintBuilder &FingerprintBuilder::addDouble(double V) {
  std::uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V));
  std::memcpy(&Bits, &V, sizeof(Bits));
  return add(Bits);
}

Fingerprint swp::fingerprintDdg(const Ddg &G) {
  FingerprintBuilder B;
  B.add(std::uint64_t{0x44444447}); // Domain tag.
  B.add(G.numNodes()).add(G.numEdges());
  for (const DdgNode &N : G.nodes())
    B.add(N.OpClass).add(N.Latency).add(N.Variant);
  for (const DdgEdge &E : G.edges())
    B.add(E.Src).add(E.Dst).add(E.Distance).add(E.Latency);
  return B.finish();
}

Fingerprint swp::fingerprintMachine(const MachineModel &M) {
  FingerprintBuilder B;
  B.add(std::uint64_t{0x4d414348}); // Domain tag.
  B.add(M.numTypes());
  for (const FuType &T : M.types()) {
    B.add(T.Count).add(T.numVariants());
    for (int V = 0; V < T.numVariants(); ++V) {
      const ReservationTable &RT = T.variant(V);
      B.add(RT.numStages()).add(RT.execTime());
      for (int S = 0; S < RT.numStages(); ++S)
        for (int C = 0; C < RT.execTime(); ++C)
          B.add(RT.busy(S, C) ? 1 : 0);
    }
  }
  // Topology words only when one is attached, so every pre-topology
  // machine keeps its exact historical byte stream (and cache entries).
  // Instance names are ignored like every other name.
  if (const Topology *Topo = M.topology()) {
    B.add(std::uint64_t{0x544f504fULL}); // "TOPO" sub-tag.
    B.add(Topo->numUnits());
    B.add(Topo->hopLatency());
    B.add(Topo->maxHops());
    B.add(static_cast<int>(Topo->edges().size()));
    for (const std::pair<int, int> &E : Topo->edges())
      B.add(E.first).add(E.second);
  }
  return B.finish();
}

Fingerprint swp::fingerprintOptions(const SchedulerOptions &Opts) {
  FingerprintBuilder B;
  B.add(std::uint64_t{0x4f505453}); // Domain tag.
  B.add(static_cast<int>(Opts.Mapping));
  B.addDouble(Opts.TimeLimitPerT);
  B.add(static_cast<std::uint64_t>(Opts.NodeLimitPerT));
  B.add(Opts.MaxTSlack);
  B.add(Opts.ColoringObjective ? 1 : 0);
  B.add(Opts.MinimizeBuffers ? 1 : 0);
  B.add(1); // Every sweep verifies; the constant keeps stored keys valid.
  B.add(Opts.LpRoundingProbe ? 1 : 0);
  // Warm starts never change feasibility answers, but a degenerate LP can
  // surface a different (equally valid) vertex, so the flag is part of the
  // cache identity to keep warm hits byte-identical to their cold solves.
  B.add(Opts.WarmStartAcrossT ? 1 : 0);
  return B.finish();
}

Fingerprint swp::fingerprintJob(const Ddg &G, const MachineModel &M,
                                const SchedulerOptions &Opts, bool Portfolio,
                                double DeadlineSeconds, int EngineTag) {
  Fingerprint FG = fingerprintDdg(G);
  Fingerprint FM = fingerprintMachine(M);
  Fingerprint FO = fingerprintOptions(Opts);
  FingerprintBuilder B;
  B.add(FG.Hi).add(FG.Lo);
  B.add(FM.Hi).add(FM.Lo);
  B.add(FO.Hi).add(FO.Lo);
  B.add(Portfolio ? 1 : 0);
  B.addDouble(DeadlineSeconds);
  B.add(EngineTag);
  return B.finish();
}
