//===- test_ddg.cpp - DDG and analyses tests ------------------------------===//

#include "swp/ddg/Analysis.h"
#include "swp/ddg/Ddg.h"
#include "swp/ddg/Dot.h"
#include "swp/support/Rng.h"
#include "swp/workload/Kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <thread>

using namespace swp;

namespace {

/// Chain a -> b -> c with a back edge c -> a (distance BackDistance).
Ddg makeCycle(int LatA, int LatB, int LatC, int BackDistance) {
  Ddg G("cycle");
  int A = G.addNode("a", 0, LatA);
  int B = G.addNode("b", 0, LatB);
  int C = G.addNode("c", 0, LatC);
  G.addEdge(A, B, 0);
  G.addEdge(B, C, 0);
  G.addEdge(C, A, BackDistance);
  return G;
}

} // namespace

TEST(Ddg, AddNodesAndEdges) {
  Ddg G("g");
  int A = G.addNode("a", 0, 2);
  int B = G.addNode("b", 1, 3);
  G.addEdge(A, B, 0);
  G.addEdgeWithLatency(B, A, 1, 7);
  EXPECT_EQ(G.numNodes(), 2);
  EXPECT_EQ(G.numEdges(), 2);
  EXPECT_EQ(G.edges()[0].Latency, 2) << "edge latency defaults to producer";
  EXPECT_EQ(G.edges()[1].Latency, 7);
  EXPECT_EQ(G.node(B).OpClass, 1);
}

TEST(Ddg, NodesOfClass) {
  Ddg G("g");
  G.addNode("a", 0, 1);
  G.addNode("b", 1, 1);
  G.addNode("c", 0, 1);
  std::vector<int> Zero = G.nodesOfClass(0);
  ASSERT_EQ(Zero.size(), 2u);
  EXPECT_EQ(Zero[0], 0);
  EXPECT_EQ(Zero[1], 2);
  EXPECT_TRUE(G.nodesOfClass(5).empty());
}

TEST(Ddg, WellFormedAcceptsLoopCarriedCycles) {
  Ddg G = makeCycle(1, 1, 1, 1);
  EXPECT_TRUE(G.isWellFormed(1));
}

TEST(Ddg, WellFormedRejectsZeroDistanceCycles) {
  Ddg G = makeCycle(1, 1, 1, 0);
  EXPECT_FALSE(G.isWellFormed(1));
}

TEST(Ddg, WellFormedHandlesLongZeroDistanceChainsOnAThread) {
  // A 200,000-node same-iteration chain is a legal loop body; closed into
  // a cycle it is not.  Checked on a std::thread (a daemon connection
  // thread's stack), which a recursive walk of the chain would overflow.
  constexpr int Length = 200000;
  Ddg Chain("chain");
  for (int I = 0; I < Length; ++I)
    Chain.addNode("n", 0, 1);
  for (int I = 0; I + 1 < Length; ++I)
    Chain.addEdge(I, I + 1, 0);
  Ddg Cycle = Chain;
  Cycle.addEdge(Length - 1, 0, 0);

  bool ChainOk = false, CycleOk = true;
  std::thread Worker([&] {
    ChainOk = Chain.isWellFormed(1);
    CycleOk = Cycle.isWellFormed(1);
  });
  Worker.join();
  EXPECT_TRUE(ChainOk);
  EXPECT_FALSE(CycleOk);
}

TEST(Ddg, WellFormedMatchesTransitiveClosureOnRandomGraphs) {
  // The zero-distance cycle check against Warshall's closure of the
  // zero-distance edges, on small random graphs with self-loops, parallel
  // edges and loop-carried edges mixed in.
  Rng R(19950618);
  int Cyclic = 0;
  for (int Instance = 0; Instance < 2000; ++Instance) {
    const int N = R.intIn(1, 8);
    Ddg G("g");
    for (int I = 0; I < N; ++I)
      G.addNode("n", 0, 1);
    bool Reach[8][8] = {};
    for (int K = R.intIn(0, 2 * N); K > 0; --K) {
      const int Src = R.intIn(0, N - 1), Dst = R.intIn(0, N - 1);
      const int Distance = R.chance(0.6) ? 0 : R.intIn(1, 2);
      G.addEdge(Src, Dst, Distance);
      Reach[Src][Dst] |= Distance == 0;
    }
    for (int K = 0; K < N; ++K)
      for (int I = 0; I < N; ++I)
        for (int J = 0; J < N; ++J)
          Reach[I][J] |= Reach[I][K] && Reach[K][J];
    bool HasCycle = false;
    for (int I = 0; I < N; ++I)
      HasCycle |= Reach[I][I];
    EXPECT_EQ(G.isWellFormed(1), !HasCycle) << "instance " << Instance;
    Cyclic += HasCycle ? 1 : 0;
  }
  // Both verdicts must be common.
  EXPECT_GT(Cyclic, 400);
  EXPECT_LT(Cyclic, 1600);
}

TEST(Ddg, WellFormedRejectsBadClass) {
  Ddg G("g");
  G.addNode("a", 3, 1);
  EXPECT_FALSE(G.isWellFormed(2));
  EXPECT_TRUE(G.isWellFormed(4));
}

TEST(Analysis, AcyclicHasZeroMii) {
  Ddg G("chain");
  int A = G.addNode("a", 0, 5);
  int B = G.addNode("b", 0, 5);
  G.addEdge(A, B, 0);
  EXPECT_FALSE(hasPositiveCycle(G, 0));
  EXPECT_EQ(recurrenceMii(G), 0);
  EXPECT_DOUBLE_EQ(maxCycleRatio(G), 0.0);
  EXPECT_TRUE(criticalCycleNodes(G).empty());
}

TEST(Analysis, EmptyGraphHasNoCycle) {
  // No nodes: the first pass changes nothing, so no T sees a cycle.
  Ddg G("empty");
  for (int T : {0, 1, 7})
    EXPECT_FALSE(hasPositiveCycle(G, T)) << "T=" << T;
  EXPECT_EQ(recurrenceMii(G), 0);
  EXPECT_DOUBLE_EQ(maxCycleRatio(G), 0.0);
  EXPECT_TRUE(criticalCycleNodes(G).empty());
}

TEST(Analysis, LongestPathsMatchMaxPlusClosure) {
  // longestPaths against Floyd-Warshall's max-plus closure on small random
  // graphs with self-loops, parallel edges, weights of both signs and
  // edges that impose no constraint, in both directions.
  constexpr std::int64_t None = std::numeric_limits<std::int64_t>::min();
  Rng R(20260807);
  int Cyclic = 0, Witnesses = 0;
  for (int Instance = 0; Instance < 3000; ++Instance) {
    const int N = R.intIn(0, 7);
    Ddg G("g");
    for (int I = 0; I < N; ++I)
      G.addNode("n", 0, 1);
    std::vector<char> Active;
    for (int K = N == 0 ? 0 : R.intIn(0, 2 * N); K > 0; --K) {
      const int Src = R.intIn(0, N - 1), Dst = R.intIn(0, N - 1);
      G.addEdgeWithLatency(Src, Dst, R.intIn(0, 2), R.intIn(0, 6));
      Active.push_back(R.chance(0.9));
    }
    const int T = R.intIn(0, 4);
    auto Weight = [&](const DdgEdge &E) -> std::optional<int> {
      if (!Active[static_cast<size_t>(&E - G.edges().data())])
        return std::nullopt;
      return E.Latency - T * E.Distance;
    };

    // Best[I][J]: the heaviest walk I -> J of at least one active edge.
    std::int64_t Best[7][7];
    for (auto &Row : Best)
      std::fill(std::begin(Row), std::end(Row), None);
    for (const DdgEdge &E : G.edges())
      if (std::optional<int> W = Weight(E))
        Best[E.Src][E.Dst] = std::max<std::int64_t>(Best[E.Src][E.Dst], *W);
    for (int K = 0; K < N; ++K)
      for (int I = 0; I < N; ++I)
        for (int J = 0; J < N; ++J)
          if (Best[I][K] != None && Best[K][J] != None)
            Best[I][J] = std::max(Best[I][J], Best[I][K] + Best[K][J]);
    bool HasCycle = false;
    for (int I = 0; I < N; ++I)
      HasCycle |= Best[I][I] != None && Best[I][I] > 0;
    Cyclic += HasCycle ? 1 : 0;

    for (PathDirection Dir : {PathDirection::Forward, PathDirection::Backward}) {
      const bool Fwd = Dir == PathDirection::Forward;
      std::vector<int> P, Cycle;
      ASSERT_EQ(longestPaths(G, Weight, P, Dir, &Cycle), HasCycle)
          << "instance " << Instance << (Fwd ? " forward" : " backward");
      if (!HasCycle) {
        EXPECT_TRUE(Cycle.empty());
        for (int V = 0; V < N; ++V) {
          std::int64_t Want = 0;
          for (int U = 0; U < N; ++U)
            Want = std::max(Want, Fwd ? Best[U][V] : Best[V][U]);
          EXPECT_EQ(P[static_cast<size_t>(V)], Want)
              << "instance " << Instance << " node " << V;
        }
        continue;
      }
      // The witness, when the walk found one, is a cycle of active edges
      // with positive weight: each edge's raised end is the previous one's
      // other end.
      if (Cycle.empty())
        continue;
      ++Witnesses;
      auto from = [&](int EI) {
        const DdgEdge &E = G.edges()[static_cast<size_t>(EI)];
        return Fwd ? E.Src : E.Dst;
      };
      auto to = [&](int EI) {
        const DdgEdge &E = G.edges()[static_cast<size_t>(EI)];
        return Fwd ? E.Dst : E.Src;
      };
      int Sum = 0;
      for (size_t I = 0; I < Cycle.size(); ++I) {
        std::optional<int> W =
            Weight(G.edges()[static_cast<size_t>(Cycle[I])]);
        ASSERT_TRUE(W.has_value()) << "instance " << Instance;
        Sum += *W;
        EXPECT_EQ(to(Cycle[(I + 1) % Cycle.size()]), from(Cycle[I]))
            << "instance " << Instance;
      }
      EXPECT_GT(Sum, 0) << "instance " << Instance;
    }
  }
  // Both verdicts are common, and the walk rarely ends without a witness.
  EXPECT_GT(Cyclic, 600);
  EXPECT_LT(Cyclic, 2400);
  EXPECT_GT(Witnesses, Cyclic * 2 * 9 / 10);
}

TEST(Analysis, SelfLoopMii) {
  Ddg G("self");
  int A = G.addNode("a", 0, 2);
  G.addEdge(A, A, 1);
  EXPECT_EQ(recurrenceMii(G), 2);
  EXPECT_NEAR(maxCycleRatio(G), 2.0, 1e-6);
}

TEST(Analysis, CycleRatioRoundsUp) {
  // Cycle latency 5 over distance 2: T_dep = 2.5 -> recurrenceMii = 3.
  Ddg G = makeCycle(2, 2, 1, 2);
  EXPECT_EQ(recurrenceMii(G), 3);
  EXPECT_NEAR(maxCycleRatio(G), 2.5, 1e-6);
  EXPECT_TRUE(hasPositiveCycle(G, 2));
  EXPECT_FALSE(hasPositiveCycle(G, 3));
}

TEST(Analysis, MaxOverMultipleCycles) {
  // Two cycles: ratio 3/1 and ratio 5/2 -> T_dep = 3.
  Ddg G("two-cycles");
  int A = G.addNode("a", 0, 3);
  int B = G.addNode("b", 0, 2);
  int C = G.addNode("c", 0, 3);
  G.addEdge(A, A, 1); // 3/1.
  G.addEdge(B, C, 0); // 2 + 3 over distance 2.
  G.addEdge(C, B, 2);
  EXPECT_EQ(recurrenceMii(G), 3);
  EXPECT_NEAR(maxCycleRatio(G), 3.0, 1e-6);
}

TEST(Analysis, CriticalCycleIdentified) {
  Ddg G("two-cycles");
  int A = G.addNode("a", 0, 3);
  int B = G.addNode("b", 0, 2);
  int C = G.addNode("c", 0, 3);
  G.addEdge(A, A, 1);
  G.addEdge(B, C, 0);
  G.addEdge(C, B, 2);
  std::vector<int> Crit = criticalCycleNodes(G);
  ASSERT_EQ(Crit.size(), 1u) << "the self loop on a is the critical cycle";
  EXPECT_EQ(Crit[0], A);
}

TEST(Analysis, CriticalCycleFractionalRatio) {
  Ddg G = makeCycle(2, 2, 1, 2); // Ratio 5/2.
  std::vector<int> Crit = criticalCycleNodes(G);
  std::sort(Crit.begin(), Crit.end());
  EXPECT_EQ(Crit, (std::vector<int>{0, 1, 2}));
}

TEST(Analysis, MotivatingLoopTDepIsTwo) {
  Ddg G = motivatingLoop();
  EXPECT_EQ(recurrenceMii(G), 2);
  std::vector<int> Crit = criticalCycleNodes(G);
  ASSERT_EQ(Crit.size(), 1u);
  EXPECT_EQ(G.node(Crit[0]).Name, "i2");
}

TEST(Analysis, SccComponents) {
  Ddg G("scc");
  int A = G.addNode("a", 0, 1);
  int B = G.addNode("b", 0, 1);
  int C = G.addNode("c", 0, 1);
  int D = G.addNode("d", 0, 1);
  G.addEdge(A, B, 0);
  G.addEdge(B, A, 1);
  G.addEdge(B, C, 0);
  G.addEdge(C, D, 0);
  auto Comps = stronglyConnectedComponents(G);
  ASSERT_EQ(Comps.size(), 3u);
  bool FoundAB = false;
  for (const auto &Comp : Comps)
    if (Comp == std::vector<int>{A, B})
      FoundAB = true;
  EXPECT_TRUE(FoundAB);
}

TEST(Analysis, SccAllOneComponent) {
  Ddg G = makeCycle(1, 1, 1, 1);
  auto Comps = stronglyConnectedComponents(G);
  ASSERT_EQ(Comps.size(), 1u);
  EXPECT_EQ(Comps[0].size(), 3u);
}

TEST(Dot, RendersNodesAndEdges) {
  Ddg G = motivatingLoop();
  std::string Out = toDot(G);
  EXPECT_NE(Out.find("digraph"), std::string::npos);
  EXPECT_NE(Out.find("i2"), std::string::npos);
  EXPECT_NE(Out.find("style=dashed"), std::string::npos)
      << "loop-carried edges are dashed";
}

//===----------------------------------------------------------------------===//
// Properties on random cyclic graphs.
//===----------------------------------------------------------------------===//

namespace {

Ddg randomCyclicDdg(std::uint64_t Seed) {
  Rng R(Seed);
  int N = R.intIn(2, 8);
  Ddg G("rand");
  for (int I = 0; I < N; ++I)
    G.addNode("n" + std::to_string(I), 0, R.intIn(1, 6));
  for (int I = 1; I < N; ++I)
    G.addEdge(R.intIn(0, I - 1), I, 0);
  int Back = R.intIn(1, 3);
  for (int K = 0; K < Back; ++K) {
    int To = R.intIn(0, N - 1);
    int From = R.intIn(To, N - 1);
    G.addEdge(From, To, R.intIn(1, 2));
  }
  return G;
}

} // namespace

class DdgPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DdgPropertyTest, MiiMatchesCeilOfRatio) {
  Ddg G = randomCyclicDdg(static_cast<std::uint64_t>(GetParam()) * 31337 + 5);
  int Mii = recurrenceMii(G);
  double Ratio = maxCycleRatio(G);
  EXPECT_EQ(Mii, static_cast<int>(std::ceil(Ratio - 1e-7)));
  if (Mii > 0) {
    EXPECT_TRUE(hasPositiveCycle(G, Mii - 1));
    EXPECT_FALSE(hasPositiveCycle(G, Mii));
    EXPECT_FALSE(hasPositiveCycle(G, Mii + 3)) << "monotone in T";
  }
}

TEST_P(DdgPropertyTest, CriticalCycleFound) {
  Ddg G = randomCyclicDdg(static_cast<std::uint64_t>(GetParam()) * 999983 + 7);
  if (recurrenceMii(G) == 0)
    return;
  EXPECT_FALSE(criticalCycleNodes(G).empty());
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DdgPropertyTest,
                         ::testing::Range(0, 40));
