//===- test_topology.cpp - Placement topology, text format, verifier ------===//

#include "swp/core/CircularArcs.h"
#include "swp/core/PlacementRules.h"
#include "swp/core/Verifier.h"
#include "swp/machine/Catalog.h"
#include "swp/machine/MachineModel.h"
#include "swp/machine/Topology.h"
#include "swp/service/Fingerprint.h"
#include "swp/sim/DynamicSimulator.h"
#include "swp/support/Rng.h"
#include "swp/textio/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

using namespace swp;

namespace {

/// Directed line u0 -> u1 -> u2.
Topology lineTopo() {
  Topology T(3);
  T.addEdge(0, 1);
  T.addEdge(1, 2);
  return T;
}

/// Single-type 3-unit machine over a directed line.
MachineModel lineMachine() {
  MachineModel M("line");
  M.addFuType("PE", 3, ReservationTable::cleanPipelined(1));
  M.setTopology(lineTopo());
  return M;
}

} // namespace

//===----------------------------------------------------------------------===//
// Topology core
//===----------------------------------------------------------------------===//

TEST(Topology, HopsAlongDirectedLine) {
  Topology T = lineTopo();
  EXPECT_EQ(T.hops(0, 0), 0);
  EXPECT_EQ(T.hops(0, 1), 1);
  EXPECT_EQ(T.hops(0, 2), 2);
  EXPECT_EQ(T.hops(2, 0), -1) << "edges are directed";
  EXPECT_TRUE(T.feedAllowed(0, 2));
  EXPECT_FALSE(T.feedAllowed(2, 0));
}

TEST(Topology, MaxHopsBoundsFeeding) {
  Topology T = lineTopo();
  T.setMaxHops(1);
  EXPECT_TRUE(T.feedAllowed(0, 1));
  EXPECT_FALSE(T.feedAllowed(0, 2));
  T.setMaxHops(-1);
  EXPECT_TRUE(T.feedAllowed(0, 2));
}

TEST(Topology, RoutePenaltyChargesIntermediateHops) {
  Topology T = lineTopo();
  T.setHopLatency(2);
  EXPECT_EQ(T.routePenalty(0, 0), 0);
  EXPECT_EQ(T.routePenalty(0, 1), 0) << "the final hop is the operand "
                                        "forward already paid for";
  EXPECT_EQ(T.routePenalty(0, 2), 2);
  EXPECT_EQ(T.maxRoutePenalty(), 2);
}

TEST(Topology, AddEdgeRejectsBadEdges) {
  Topology T(2);
  EXPECT_TRUE(T.addEdge(0, 1));
  EXPECT_FALSE(T.addEdge(0, 1)) << "duplicate";
  EXPECT_FALSE(T.addEdge(0, 0)) << "self-loop";
  EXPECT_FALSE(T.addEdge(0, 2)) << "out of range";
  EXPECT_FALSE(T.addEdge(-1, 1)) << "out of range";
  EXPECT_EQ(T.edges().size(), 1u);
}

TEST(Topology, FullyConnectedDoesNotConstrain) {
  Topology T(3);
  for (int U = 0; U < 3; ++U)
    for (int V = 0; V < 3; ++V)
      if (U != V)
        T.addEdge(U, V);
  EXPECT_FALSE(T.constrains());
  EXPECT_EQ(T.maxRoutePenalty(), 0);
  EXPECT_TRUE(lineTopo().constrains());
}

TEST(Topology, InterchangeClassesLineMirror) {
  // Bidirectional line 0 - 1 - 2: the endpoints are interchangeable, the
  // middle unit is alone.
  Topology T(3);
  T.addEdge(0, 1);
  T.addEdge(1, 0);
  T.addEdge(1, 2);
  T.addEdge(2, 1);
  std::vector<std::vector<int>> Classes = T.interchangeClasses(0, 3);
  ASSERT_EQ(Classes.size(), 2u);
  EXPECT_EQ(Classes[0], (std::vector<int>{0, 2}));
  EXPECT_EQ(Classes[1], (std::vector<int>{1}));
}

TEST(Topology, InterchangeClassesDirectedLineAllSingletons) {
  std::vector<std::vector<int>> Classes = lineTopo().interchangeClasses(0, 3);
  EXPECT_EQ(Classes.size(), 3u) << "source/middle/sink play distinct roles";
}

TEST(Topology, RouteColumns) {
  EXPECT_TRUE(Topology::routeColumns(1, 0, 1).empty());
  EXPECT_TRUE(Topology::routeColumns(1, 1, 1).empty());
  EXPECT_EQ(Topology::routeColumns(1, 2, 1), (std::vector<int>{1}));
  EXPECT_EQ(Topology::routeColumns(2, 3, 2), (std::vector<int>{2, 4}));
}

TEST(Topology, NamesResolve) {
  Topology T(2);
  EXPECT_EQ(T.unitName(0), "u0");
  T.setName(0, "north");
  EXPECT_EQ(T.findUnit("north"), 0);
  EXPECT_EQ(T.findUnit("u0"), -1) << "renamed away";
  EXPECT_EQ(T.findUnit("u1"), 1);
}

TEST(MachineModel, TopologyConstrainsGate) {
  MachineModel Flat = exampleCleanMachine();
  EXPECT_EQ(Flat.topology(), nullptr);
  EXPECT_FALSE(Flat.topologyConstrains());
  EXPECT_TRUE(lineMachine().topologyConstrains());
  // A vacuous (fully connected) topology attaches but does not constrain.
  MachineModel M("m");
  M.addFuType("PE", 2, ReservationTable::cleanPipelined(1));
  Topology T(2);
  T.addEdge(0, 1);
  T.addEdge(1, 0);
  M.setTopology(std::move(T));
  EXPECT_NE(M.topology(), nullptr);
  EXPECT_FALSE(M.topologyConstrains());
}

//===----------------------------------------------------------------------===//
// Text format
//===----------------------------------------------------------------------===//

TEST(ParserTopology, GridExpandsToMesh) {
  Expected<MachineModel> M = parseMachineText("machine g\n"
                                              "futype PE count 6\n"
                                              "table 1\n"
                                              "grid 2 3 mesh\n"
                                              "maxhops 2\n");
  ASSERT_TRUE(M.ok()) << M.status().message();
  const Topology *T = M.value().topology();
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->numUnits(), 6);
  // 2x3 mesh: 4 horizontal + 3 vertical undirected links, both directions.
  EXPECT_EQ(T->edges().size(), 14u);
  EXPECT_EQ(T->findUnit("pe_1_2"), 5);
  EXPECT_EQ(T->maxHops(), 2);
  EXPECT_TRUE(T->constrains());
}

TEST(ParserTopology, TorusWrapsAround) {
  Expected<MachineModel> M = parseMachineText("machine g\n"
                                              "futype PE count 9\n"
                                              "table 1\n"
                                              "grid 3 3 torus\n");
  ASSERT_TRUE(M.ok()) << M.status().message();
  const Topology *T = M.value().topology();
  ASSERT_NE(T, nullptr);
  // Every unit has out-degree 4 on a 3x3 torus.
  EXPECT_EQ(T->edges().size(), 36u);
  EXPECT_TRUE(T->hasEdge(T->findUnit("pe_0_0"), T->findUnit("pe_0_2")));
  EXPECT_TRUE(T->hasEdge(T->findUnit("pe_0_0"), T->findUnit("pe_2_0")));
}

TEST(ParserTopology, ExplicitEdgesAndNames) {
  Expected<MachineModel> M = parseMachineText("machine m\n"
                                              "futype PE count 2\n"
                                              "table 1\n"
                                              "instname 0 left\n"
                                              "instname 1 right\n"
                                              "hoplatency 2\n"
                                              "edge left right\n"
                                              "edge 1 0\n");
  ASSERT_TRUE(M.ok()) << M.status().message();
  const Topology *T = M.value().topology();
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->hopLatency(), 2);
  EXPECT_TRUE(T->hasEdge(0, 1));
  EXPECT_TRUE(T->hasEdge(1, 0));
}

TEST(ParserTopology, PrintedMachineRoundTrips) {
  MachineModel M = cgraGrid(3, 3, /*Torus=*/false, /*MaxHops=*/2);
  std::string Text = printMachine(M);
  Expected<MachineModel> Back = parseMachineText(Text);
  ASSERT_TRUE(Back.ok()) << Back.status().message();
  EXPECT_EQ(fingerprintMachine(M), fingerprintMachine(Back.value()));
  EXPECT_EQ(printMachine(Back.value()), Text) << "print is a fixed point";
  ASSERT_NE(Back.value().topology(), nullptr);
  EXPECT_EQ(Back.value().topology()->unitName(4), "pe_1_1");
}

TEST(ParserTopology, LineNumberedErrors) {
  MachineModel Out;
  std::string Err;

  // Grid size mismatch, with the line number of the offending directive.
  EXPECT_FALSE(parseMachine("machine m\nfutype PE count 2\ntable 1\n"
                            "grid 2 2\n",
                            Out, Err));
  EXPECT_NE(Err.find("line 4"), std::string::npos) << Err;
  EXPECT_NE(Err.find("needs 4 units"), std::string::npos) << Err;

  // Duplicate edge.
  EXPECT_FALSE(parseMachine("machine m\nfutype PE count 2\ntable 1\n"
                            "edge 0 1\nedge 0 1\n",
                            Out, Err));
  EXPECT_NE(Err.find("line 5"), std::string::npos) << Err;
  EXPECT_NE(Err.find("duplicate topology edge"), std::string::npos) << Err;

  // Out-of-range instance index.
  EXPECT_FALSE(parseMachine("machine m\nfutype PE count 2\ntable 1\n"
                            "edge 0 7\n",
                            Out, Err));
  EXPECT_NE(Err.find("line 4"), std::string::npos) << Err;
  EXPECT_NE(Err.find("unknown unit '7'"), std::string::npos) << Err;

  // Self-loop.
  EXPECT_FALSE(parseMachine("machine m\nfutype PE count 2\ntable 1\n"
                            "edge 1 1\n",
                            Out, Err));
  EXPECT_NE(Err.find("self-loop"), std::string::npos) << Err;

  // futype after a topology directive would invalidate unit indices.
  EXPECT_FALSE(parseMachine("machine m\nfutype PE count 2\ntable 1\n"
                            "edge 0 1\nfutype X count 1\ntable 1\n",
                            Out, Err));
  EXPECT_NE(Err.find("line 5"), std::string::npos) << Err;
  EXPECT_NE(Err.find("futype after topology"), std::string::npos) << Err;

  // grid must come before hand-written topology directives.
  EXPECT_FALSE(parseMachine("machine m\nfutype PE count 4\ntable 1\n"
                            "edge 0 1\ngrid 2 2\n",
                            Out, Err));
  EXPECT_NE(Err.find("line 5"), std::string::npos) << Err;
  EXPECT_NE(Err.find("first topology directive"), std::string::npos) << Err;

  // Bad scalar directives.
  EXPECT_FALSE(parseMachine("machine m\nfutype PE count 2\ntable 1\n"
                            "hoplatency 0\n",
                            Out, Err));
  EXPECT_NE(Err.find("hoplatency"), std::string::npos) << Err;
  EXPECT_FALSE(parseMachine("machine m\nfutype PE count 2\ntable 1\n"
                            "maxhops -2\n",
                            Out, Err));
  EXPECT_NE(Err.find("maxhops"), std::string::npos) << Err;

  // instname clash and out-of-range unit.
  EXPECT_FALSE(parseMachine("machine m\nfutype PE count 2\ntable 1\n"
                            "instname 0 a\ninstname 1 a\n",
                            Out, Err));
  EXPECT_NE(Err.find("line 5"), std::string::npos) << Err;
  EXPECT_FALSE(parseMachine("machine m\nfutype PE count 2\ntable 1\n"
                            "instname 9 far\n",
                            Out, Err));
  EXPECT_NE(Err.find("line 4"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Verifier and simulator
//===----------------------------------------------------------------------===//

TEST(VerifierTopology, AcceptsRoutedSchedule) {
  MachineModel M = lineMachine();
  Ddg G("g");
  G.addNode("a", 0, 1);
  G.addNode("b", 0, 1);
  G.addEdge(0, 1, 0);
  ModuloSchedule S;
  S.T = 3;
  S.StartTime = {0, 2};    // rho(2 hops) = 1, so b must start >= 0 + 1 + 1.
  S.Mapping = {0, 2};      // a on u0, b on u2: 2 hops.
  VerifyResult V = verifySchedule(G, M, S);
  EXPECT_TRUE(V.Ok) << V.Error;
  std::string SimErr;
  EXPECT_TRUE(replaySchedule(G, M, S, 4, &SimErr)) << SimErr;
}

TEST(VerifierTopology, RejectsUnreachablePlacement) {
  MachineModel M = lineMachine();
  Ddg G("g");
  G.addNode("a", 0, 1);
  G.addNode("b", 0, 1);
  G.addEdge(0, 1, 0);
  ModuloSchedule S;
  S.T = 3;
  S.StartTime = {0, 2};
  S.Mapping = {2, 0}; // u2 cannot reach u0 on the directed line.
  VerifyResult V = verifySchedule(G, M, S);
  EXPECT_FALSE(V.Ok);
  EXPECT_NE(V.Error.find("topology forbids"), std::string::npos) << V.Error;
}

TEST(VerifierTopology, RejectsMissingRoutePenalty) {
  MachineModel M = lineMachine();
  Ddg G("g");
  G.addNode("a", 0, 1);
  G.addNode("b", 0, 1);
  G.addEdge(0, 1, 0);
  ModuloSchedule S;
  S.T = 3;
  S.StartTime = {0, 1}; // Satisfies L = 1 but not L + rho = 2.
  S.Mapping = {0, 2};
  VerifyResult V = verifySchedule(G, M, S);
  EXPECT_FALSE(V.Ok);
  EXPECT_NE(V.Error.find("routed dependence"), std::string::npos) << V.Error;
}

TEST(VerifierTopology, RejectsMaxHopsViolation) {
  MachineModel M("line");
  M.addFuType("PE", 3, ReservationTable::cleanPipelined(1));
  Topology T = lineTopo();
  T.setMaxHops(1);
  M.setTopology(std::move(T));
  Ddg G("g");
  G.addNode("a", 0, 1);
  G.addNode("b", 0, 1);
  G.addEdge(0, 1, 0);
  ModuloSchedule S;
  S.T = 3;
  S.StartTime = {0, 2};
  S.Mapping = {0, 2};
  EXPECT_FALSE(verifySchedule(G, M, S).Ok);
}

TEST(VerifierTopology, RejectsRouteCellCollision) {
  // Fork: u0 -> u1, then u1 -> {u2, u3}.  Two 2-hop values leaving the
  // same producer occupy the same ROUTE cell on its unit.
  MachineModel M("fork");
  M.addFuType("PE", 4, ReservationTable::cleanPipelined(1));
  Topology T(4);
  T.addEdge(0, 1);
  T.addEdge(1, 2);
  T.addEdge(1, 3);
  M.setTopology(std::move(T));
  Ddg G("g");
  G.addNode("a", 0, 1);
  G.addNode("x", 0, 1);
  G.addNode("y", 0, 1);
  G.addEdge(0, 1, 0);
  G.addEdge(0, 2, 0);
  ModuloSchedule S;
  S.T = 4;
  S.StartTime = {0, 2, 2};
  S.Mapping = {0, 2, 3};
  VerifyResult V = verifySchedule(G, M, S);
  EXPECT_FALSE(V.Ok);
  EXPECT_NE(V.Error.find("route cells collide"), std::string::npos)
      << V.Error;
}

//===----------------------------------------------------------------------===//
// Fingerprint stability
//===----------------------------------------------------------------------===//

TEST(FingerprintTopology, LegacyMachinesBitIdentical) {
  // Pinned pre-topology fingerprints: the topology generalization must not
  // perturb any existing machine's byte stream (cache keys survive).
  struct Pin {
    const char *Name;
    std::uint64_t Hi, Lo;
  };
  const Pin Pins[] = {
      {"example-clean", 0x2cf54cac275e0a7dULL, 0x92594df53b13e35fULL},
      {"example-nonpipelined", 0x7c9d7f10d32a2c95ULL, 0x023d27fd344e10f5ULL},
      {"example-two-fp", 0x7c9d7f10d32a2c95ULL, 0x023d27fd344e10f5ULL},
      {"example-hazard", 0xa658e1681b517690ULL, 0x3b8fc891fdf89eecULL},
      {"ppc604-like", 0x8fb776ff929e3ab6ULL, 0x82170c6250a1cd08ULL},
      {"clean-vliw", 0xdc0a3c8e4776c88fULL, 0x5bdb1686061fe511ULL},
      {"ppc604-multifunction", 0x4e1b3ffb35881efcULL, 0x5558eb16222d39c5ULL},
  };
  for (const Pin &P : Pins) {
    MachineModel M("x");
    ASSERT_TRUE(buildCatalogMachine(P.Name, M)) << P.Name;
    Fingerprint F = fingerprintMachine(M);
    EXPECT_EQ(F.Hi, P.Hi) << P.Name;
    EXPECT_EQ(F.Lo, P.Lo) << P.Name;
  }
}

TEST(FingerprintTopology, TopologyChangesFingerprint) {
  MachineModel Flat("m");
  Flat.addFuType("PE", 4, ReservationTable::cleanPipelined(1));
  MachineModel WithTopo = Flat;
  Topology T(4);
  T.addEdge(0, 1);
  WithTopo.setTopology(std::move(T));
  EXPECT_NE(fingerprintMachine(Flat), fingerprintMachine(WithTopo));
  // Different interconnects hash differently too.  (2x2 would not do:
  // a width-2 torus wrap reaches the same neighbor as the mesh link.)
  EXPECT_NE(fingerprintMachine(cgraGrid(3, 3, false)),
            fingerprintMachine(cgraGrid(3, 3, true)));
}

//===----------------------------------------------------------------------===//
// PlacementRules against brute force
//===----------------------------------------------------------------------===//

namespace {

/// A random reservation table: 1-3 stages, 1-4 columns, every stage busy
/// somewhere.
ReservationTable randomTable(Rng &R) {
  const int Stages = R.intIn(1, 3), Cols = R.intIn(1, 4);
  std::vector<std::vector<std::uint8_t>> Rows(
      static_cast<size_t>(Stages), std::vector<std::uint8_t>(Cols, 0));
  for (std::vector<std::uint8_t> &Row : Rows) {
    for (std::uint8_t &Cell : Row)
      Cell = R.chance(0.4) ? 1 : 0;
    Row[static_cast<size_t>(R.intIn(0, Cols - 1))] = 1;
  }
  return ReservationTable(std::move(Rows));
}

/// A random machine of one or two types (two table variants each) over a
/// random directed topology, most of which constrain placement, with a
/// random loop.
struct RandomInstance {
  MachineModel M;
  Ddg G;
};

RandomInstance randomInstance(std::uint64_t Seed) {
  Rng R(Seed);
  RandomInstance I{MachineModel("random"), Ddg("random")};
  const int Types = R.intIn(1, 2);
  for (int Ty = 0; Ty < Types; ++Ty) {
    I.M.addFuType("T" + std::to_string(Ty), R.intIn(1, 4), randomTable(R));
    I.M.addVariant(Ty, randomTable(R));
  }
  const int Units = I.M.totalUnits();
  Topology Topo(Units);
  for (int U = 0; U < Units; ++U)
    for (int V = 0; V < Units; ++V)
      if (U != V && R.chance(0.35))
        Topo.addEdge(U, V);
  Topo.setHopLatency(R.intIn(1, 2));
  Topo.setMaxHops(R.intIn(-1, 3));
  I.M.setTopology(std::move(Topo));

  const int N = R.intIn(2, 6);
  for (int Node = 0; Node < N; ++Node)
    I.G.addNodeVariant("n" + std::to_string(Node), R.intIn(0, Types - 1),
                       R.intIn(0, 1), R.intIn(1, 4));
  for (int Node = 1; Node < N; ++Node)
    I.G.addEdge(R.intIn(0, Node - 1), Node, 0);
  I.G.addEdge(R.intIn(0, N - 1), R.intIn(0, N - 1), R.intIn(1, 2));
  return I;
}

} // namespace

TEST(PlacementRules, RoutesAndFeedsMatchBruteForce) {
  int Checked = 0;
  for (std::uint64_t Seed = 1; Seed <= 300; ++Seed) {
    const RandomInstance I = randomInstance(Seed);
    const Topology &Topo = *I.M.topology();
    PlacementRules Rules;
    Rules.derive(I.G, I.M, MappingKind::RunTime);
    EXPECT_FALSE(Rules.topoPath()) << "run-time mapping ignores topology";
    Rules.derive(I.G, I.M, MappingKind::Fixed);
    ASSERT_EQ(Rules.topoPath(), I.M.topologyConstrains()) << Seed;
    if (!Rules.topoPath())
      continue;
    ++Checked;

    // Every (edge, producer unit, consumer unit) over every unit pair:
    // the feed visitor's rho, and which route a multi-hop pair activates.
    using RouteKey = std::tuple<int, int, int>; // Edge, producer unit, hops.
    std::set<std::tuple<int, int, int, int>> Expected, Routed;
    std::vector<std::tuple<int, int, int, int>> Feeds;
    for (std::size_t EIx = 0; EIx < I.G.edges().size(); ++EIx) {
      const DdgEdge &E = I.G.edges()[EIx];
      if (E.Src == E.Dst)
        continue;
      const int Ri = I.G.node(E.Src).OpClass, Rj = I.G.node(E.Dst).OpClass;
      for (int U = 0; U < I.M.type(Ri).Count; ++U)
        for (int V = 0; V < I.M.type(Rj).Count; ++V) {
          const int GU = I.M.globalUnitIndex(Ri, U);
          const int GV = I.M.globalUnitIndex(Rj, V);
          const bool Allowed = Topo.feedAllowed(GU, GV);
          Feeds.emplace_back(static_cast<int>(EIx), U, V,
                             Allowed ? Topo.routePenalty(GU, GV) : -1);
          if (Allowed && Topo.hops(GU, GV) >= 2)
            Expected.emplace(static_cast<int>(EIx), U, Topo.hops(GU, GV), V);
        }
    }
    std::vector<std::tuple<int, int, int, int>> Visited;
    Rules.forEachFeed([&](const DdgEdge &E, int U, int V, int Rho) {
      Visited.emplace_back(static_cast<int>(&E - I.G.edges().data()), U, V,
                           Rho);
    });
    EXPECT_EQ(Visited, Feeds) << Seed;

    std::set<RouteKey> Keys;
    for (const PlacementRules::Route &Rt : Rules.routes()) {
      const DdgEdge &E = I.G.edges()[static_cast<size_t>(Rt.Edge)];
      EXPECT_TRUE(Keys.emplace(Rt.Edge, Rt.ProducerUnit, Rt.Hops).second)
          << "one route per (edge, unit, hops); seed " << Seed;
      EXPECT_EQ(Rt.Producer, E.Src);
      EXPECT_EQ(Rt.Unit,
                I.M.globalUnitIndex(I.G.node(E.Src).OpClass, Rt.ProducerUnit));
      EXPECT_FALSE(Rules.consumers(Rt).empty());
      for (int V : Rules.consumers(Rt))
        Routed.emplace(Rt.Edge, Rt.ProducerUnit, Rt.Hops, V);
      const std::vector<int> Cols =
          Topology::routeColumns(E.Latency, Rt.Hops, Topo.hopLatency());
      EXPECT_TRUE(std::equal(Cols.begin(), Cols.end(),
                             Rules.columns(Rt).begin(),
                             Rules.columns(Rt).end()));
      for (int T = 1; T <= 6; ++T) {
        bool Folds = false;
        for (size_t A = 0; A < Cols.size(); ++A)
          for (size_t B = A + 1; B < Cols.size(); ++B)
            Folds = Folds || (Cols[A] - Cols[B]) % T == 0;
        EXPECT_EQ(Rules.routeSelfCollides(Rt, T), Folds);
      }
    }
    EXPECT_EQ(Routed, Expected) << Seed;
  }
  EXPECT_GT(Checked, 100);
}

TEST(PlacementRules, CollisionsMatchArcOverlap) {
  for (std::uint64_t Seed = 1; Seed <= 200; ++Seed) {
    const RandomInstance I = randomInstance(Seed);
    PlacementRules Rules;
    Rules.derive(I.G, I.M, MappingKind::Fixed);
    for (int T = 1; T <= 7; ++T) {
      for (int R = 0; R < I.M.numTypes(); ++R) {
        const std::span<const int> Ops = Rules.ops(R);
        for (size_t A = 0; A < Ops.size(); ++A)
          for (size_t B = A + 1; B < Ops.size(); ++B) {
            const ReservationTable &TI = I.M.tableFor(I.G.node(Ops[A]));
            const ReservationTable &TJ = I.M.tableFor(I.G.node(Ops[B]));
            // Brute force over every offset pair: the arcs overlap, and
            // some shared stage holds both ops on one pattern step.
            std::vector<std::vector<int>> Want(static_cast<size_t>(T));
            for (int P = 0; P < T; ++P)
              for (int Q = 0; Q < T; ++Q) {
                bool Shared = false;
                for (int S = 0; S < std::min(TI.numStages(), TJ.numStages());
                     ++S)
                  for (int LI : TI.busyColumns(S))
                    for (int LJ : TJ.busyColumns(S))
                      Shared = Shared || (P + LI - Q - LJ) % T == 0;
                ASSERT_EQ(arcsOverlap(TI, TJ, T, P, Q), Shared);
                if (Shared)
                  Want[static_cast<size_t>(P)].push_back(Q);
              }
            const bool Any = std::any_of(
                Want.begin(), Want.end(),
                [](const std::vector<int> &Qs) { return !Qs.empty(); });
            std::vector<std::vector<int>> Got(static_cast<size_t>(T));
            int Calls = 0;
            Rules.forEachCollision(
                Ops[A], Ops[B], T, [&](int P, std::span<const int> Qs) {
                  ++Calls;
                  Got[static_cast<size_t>(P)].assign(Qs.begin(), Qs.end());
                });
            EXPECT_EQ(Got, Want) << "seed " << Seed << " T " << T;
            EXPECT_EQ(Calls, Any ? T : 0) << "seed " << Seed << " T " << T;
          }
      }
    }
  }
}

TEST(PlacementRules, UsageCellsMatchBusyColumns) {
  for (std::uint64_t Seed = 1; Seed <= 100; ++Seed) {
    const RandomInstance I = randomInstance(Seed);
    PlacementRules Rules;
    Rules.derive(I.G, I.M, MappingKind::RunTime);
    for (int T = 1; T <= 5; ++T)
      for (int R = 0; R < I.M.numTypes(); ++R)
        for (int Stage = 0; Stage < Rules.maxStages(R); ++Stage)
          for (int Slot = 0; Slot < T; ++Slot) {
            // An op initiating at Row holds Stage at Row + l for each busy
            // column l, so it covers Slot from every Row = Slot - l.
            std::multiset<std::pair<int, int>> Want, Got;
            for (int Op : Rules.ops(R)) {
              const ReservationTable &Tab = I.M.tableFor(I.G.node(Op));
              for (int Row = 0; Row < T; ++Row)
                for (int L = 0; Stage < Tab.numStages() && L < Tab.execTime();
                     ++L)
                  if (Tab.busy(Stage, L) && (Row + L - Slot) % T == 0)
                    Want.emplace(Op, Row);
            }
            Rules.forEachUsageCell(
                R, Stage, Slot, T,
                [&](int Op, int Row) { Got.emplace(Op, Row); });
            EXPECT_EQ(Got, Want) << "seed " << Seed;
          }
  }
}
