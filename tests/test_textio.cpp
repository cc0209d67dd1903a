//===- test_textio.cpp - Machine / loop text-format tests -----------------===//

#include "swp/core/Driver.h"
#include "swp/core/Verifier.h"
#include "swp/machine/Catalog.h"
#include "swp/textio/Parser.h"
#include "swp/workload/Kernels.h"

#include <gtest/gtest.h>

using namespace swp;

namespace {

const char *MachineText = R"(
# A comment.
machine demo
futype FP count 2
table 10 01
futype LS count 1
table 100 010 001
variant 111 000 000
)";

const char *LoopText = R"(
loop sample
node ld class LS latency 2
node f0 class FP latency 2
node blk class LS latency 3 variant 1
edge ld -> f0 distance 0
edge f0 -> f0 distance 1 latency 2
edge f0 -> blk distance 0
)";

} // namespace

TEST(MachineParser, ParsesTypesCountsTables) {
  MachineModel M;
  std::string Err;
  ASSERT_TRUE(parseMachine(MachineText, M, Err)) << Err;
  EXPECT_EQ(M.name(), "demo");
  ASSERT_EQ(M.numTypes(), 2);
  EXPECT_EQ(M.type(0).Name, "FP");
  EXPECT_EQ(M.type(0).Count, 2);
  EXPECT_EQ(M.type(0).Table.numStages(), 2);
  EXPECT_EQ(M.type(0).Table.execTime(), 2);
  EXPECT_EQ(M.type(1).numVariants(), 2);
  EXPECT_TRUE(M.type(1).variant(1).busy(0, 2));
}

TEST(MachineParser, RoundTripsCatalogMachines) {
  for (const MachineModel &Orig :
       {ppc604Like(), exampleHazardMachine(), ppc604MultiFunction()}) {
    std::string Text = printMachine(Orig);
    MachineModel Parsed;
    std::string Err;
    ASSERT_TRUE(parseMachine(Text, Parsed, Err)) << Orig.name() << ": " << Err;
    // swpd routes a request whose machine bytes equal a live service's
    // printMachine text without parsing it, which relies on this.
    EXPECT_EQ(printMachine(Parsed), Text) << "print is a fixed point";
    ASSERT_EQ(Parsed.numTypes(), Orig.numTypes());
    for (int R = 0; R < Orig.numTypes(); ++R) {
      EXPECT_EQ(Parsed.type(R).Name, Orig.type(R).Name);
      EXPECT_EQ(Parsed.type(R).Count, Orig.type(R).Count);
      EXPECT_EQ(Parsed.type(R).numVariants(), Orig.type(R).numVariants());
      for (int V = 0; V < Orig.type(R).numVariants(); ++V) {
        const ReservationTable &A = Orig.type(R).variant(V);
        const ReservationTable &B = Parsed.type(R).variant(V);
        ASSERT_EQ(A.numStages(), B.numStages());
        ASSERT_EQ(A.execTime(), B.execTime());
        for (int S = 0; S < A.numStages(); ++S)
          for (int L = 0; L < A.execTime(); ++L)
            EXPECT_EQ(A.busy(S, L), B.busy(S, L));
      }
    }
  }
}

TEST(MachineParser, RejectsMalformedInput) {
  MachineModel M;
  std::string Err;
  EXPECT_FALSE(parseMachine("futype X\n", M, Err));
  EXPECT_NE(Err.find("line 1"), std::string::npos);
  EXPECT_FALSE(parseMachine("table 101\n", M, Err)) << "table before futype";
  EXPECT_FALSE(parseMachine("machine m\nfutype X count 0\ntable 1\n", M, Err));
  EXPECT_FALSE(parseMachine("machine m\nfutype X count 1\ntable 1 11\n", M,
                            Err))
      << "ragged stage rows";
  EXPECT_FALSE(parseMachine("machine m\nfutype X count 1\ntable 1x1\n", M,
                            Err));
  EXPECT_FALSE(parseMachine("machine m\nfutype X count 1\n", M, Err))
      << "missing table";
  EXPECT_FALSE(parseMachine("", M, Err)) << "no types";
  EXPECT_FALSE(parseMachine("bogus\n", M, Err));
  EXPECT_FALSE(parseMachine(
      "machine m\nfutype X count 1\nvariant 1\ntable 1\n", M, Err))
      << "variant before table";
}

TEST(LoopParser, ParsesNodesEdgesVariants) {
  MachineModel M;
  std::string Err;
  ASSERT_TRUE(parseMachine(MachineText, M, Err)) << Err;
  Ddg G;
  ASSERT_TRUE(parseLoop(LoopText, M, G, Err)) << Err;
  EXPECT_EQ(G.name(), "sample");
  ASSERT_EQ(G.numNodes(), 3);
  EXPECT_EQ(G.node(0).Name, "ld");
  EXPECT_EQ(G.node(0).OpClass, 1);
  EXPECT_EQ(G.node(2).Variant, 1);
  ASSERT_EQ(G.numEdges(), 3);
  EXPECT_EQ(G.edges()[0].Latency, 2) << "defaults to producer latency";
  EXPECT_EQ(G.edges()[1].Distance, 1);
}

TEST(LoopParser, AcceptsNumericClass) {
  MachineModel M;
  std::string Err;
  ASSERT_TRUE(parseMachine(MachineText, M, Err)) << Err;
  Ddg G;
  ASSERT_TRUE(parseLoop("loop g\nnode a class 0 latency 1\n", M, G, Err))
      << Err;
  EXPECT_EQ(G.node(0).OpClass, 0);
}

TEST(LoopParser, RejectsMalformedInput) {
  MachineModel M;
  std::string Err;
  ASSERT_TRUE(parseMachine(MachineText, M, Err)) << Err;
  Ddg G;
  EXPECT_FALSE(parseLoop("", M, G, Err)) << "empty loop";
  EXPECT_FALSE(parseLoop("node a class NOPE latency 1\n", M, G, Err));
  EXPECT_FALSE(parseLoop("node a class FP latency -2\n", M, G, Err));
  EXPECT_FALSE(parseLoop("node a class FP latency 1 variant 9\n", M, G, Err));
  EXPECT_FALSE(parseLoop(
      "node a class FP latency 1\nnode a class FP latency 1\n", M, G, Err))
      << "duplicate node";
  EXPECT_FALSE(parseLoop(
      "node a class FP latency 1\nedge a -> b distance 0\n", M, G, Err))
      << "unknown edge endpoint";
  EXPECT_FALSE(parseLoop(
      "node a class FP latency 1\nnode b class FP latency 1\n"
      "edge a -> b distance 0\nedge b -> a distance 0\n",
      M, G, Err))
      << "zero-distance cycle";
}

TEST(LoopParser, RoundTripsKernels) {
  MachineModel M = ppc604Like();
  for (const Ddg &Orig : classicKernels()) {
    std::string Text = printLoop(Orig, M);
    Ddg Parsed;
    std::string Err;
    ASSERT_TRUE(parseLoop(Text, M, Parsed, Err)) << Orig.name() << ": " << Err;
    ASSERT_EQ(Parsed.numNodes(), Orig.numNodes());
    ASSERT_EQ(Parsed.numEdges(), Orig.numEdges());
    for (int I = 0; I < Orig.numNodes(); ++I) {
      EXPECT_EQ(Parsed.node(I).Name, Orig.node(I).Name);
      EXPECT_EQ(Parsed.node(I).OpClass, Orig.node(I).OpClass);
      EXPECT_EQ(Parsed.node(I).Latency, Orig.node(I).Latency);
    }
    for (int E = 0; E < Orig.numEdges(); ++E) {
      EXPECT_EQ(Parsed.edges()[static_cast<size_t>(E)].Src,
                Orig.edges()[static_cast<size_t>(E)].Src);
      EXPECT_EQ(Parsed.edges()[static_cast<size_t>(E)].Latency,
                Orig.edges()[static_cast<size_t>(E)].Latency);
    }
  }
}

TEST(MachineParser, RejectsOutOfRangeAndDuplicates) {
  MachineModel M;
  std::string Err;
  // Duplicate futype names would make loop-format class references
  // ambiguous.
  EXPECT_FALSE(parseMachine(
      "machine m\nfutype X count 1\ntable 1\nfutype X count 2\ntable 1\n", M,
      Err));
  EXPECT_NE(Err.find("duplicate futype"), std::string::npos);
  EXPECT_NE(Err.find("line 4"), std::string::npos);
  // Counts beyond MaxParsedMagnitude overflow downstream arithmetic even
  // though they fit an int; counts beyond long just fail to parse.
  EXPECT_FALSE(parseMachine("machine m\nfutype X count 2000000\ntable 1\n",
                            M, Err));
  EXPECT_NE(Err.find("out-of-range"), std::string::npos);
  EXPECT_FALSE(parseMachine(
      "machine m\nfutype X count 99999999999999999999\ntable 1\n", M, Err));
  // A bare "table" directive has zero stage rows.
  EXPECT_FALSE(parseMachine("machine m\nfutype X count 1\ntable\n", M, Err));
  EXPECT_NE(Err.find("at least one stage row"), std::string::npos);
  // EOF-detected problems still carry a line number.
  EXPECT_FALSE(parseMachine("# only a comment\n", M, Err));
  EXPECT_NE(Err.find("line"), std::string::npos);
}

TEST(LoopParser, RejectsOverflowingValues) {
  MachineModel M;
  std::string Err;
  ASSERT_TRUE(parseMachine(MachineText, M, Err)) << Err;
  Ddg G;
  EXPECT_FALSE(parseLoop("node a class FP latency 2000000\n", M, G, Err));
  EXPECT_NE(Err.find("out-of-range latency"), std::string::npos);
  EXPECT_FALSE(parseLoop("node a class FP latency 99999999999999999999\n", M,
                         G, Err));
  EXPECT_FALSE(parseLoop(
      "node a class FP latency 1\nedge a -> a distance 2000000\n", M, G,
      Err));
  EXPECT_NE(Err.find("out-of-range distance"), std::string::npos);
  EXPECT_FALSE(parseLoop(
      "node a class FP latency 1\nedge a -> a distance 1 latency -3\n", M, G,
      Err));
  EXPECT_FALSE(parseLoop("node a class 99 latency 1\n", M, G, Err))
      << "numeric class out of range";
  EXPECT_NE(Err.find("line 1"), std::string::npos);
}

TEST(TextIo, ExpectedWrappersCarryTypedErrors) {
  Expected<MachineModel> M = parseMachineText(MachineText);
  ASSERT_TRUE(M.ok()) << M.status().str();
  EXPECT_EQ(M->numTypes(), 2);

  Expected<MachineModel> BadM = parseMachineText("bogus\n");
  ASSERT_FALSE(BadM.ok());
  EXPECT_EQ(BadM.status().code(), StatusCode::ParseError);
  EXPECT_EQ(BadM.status().phase(), "parse-machine");
  EXPECT_NE(BadM.status().message().find("line 1"), std::string::npos);

  Expected<Ddg> G = parseLoopText(LoopText, *M);
  ASSERT_TRUE(G.ok()) << G.status().str();
  EXPECT_EQ(G->numNodes(), 3);

  Expected<Ddg> BadG = parseLoopText("node a class NOPE latency 1\n", *M);
  ASSERT_FALSE(BadG.ok());
  EXPECT_EQ(BadG.status().code(), StatusCode::ParseError);
  EXPECT_EQ(BadG.status().phase(), "parse-loop");
  EXPECT_NE(BadG.status().str().find("parse-error"), std::string::npos);
}

TEST(TextIo, ParsedInputsScheduleEndToEnd) {
  MachineModel M;
  std::string Err;
  ASSERT_TRUE(parseMachine(MachineText, M, Err)) << Err;
  Ddg G;
  ASSERT_TRUE(parseLoop(LoopText, M, G, Err)) << Err;
  SchedulerResult R = scheduleLoop(G, M);
  ASSERT_TRUE(R.found());
  EXPECT_TRUE(verifySchedule(G, M, R.Schedule).Ok);
}
