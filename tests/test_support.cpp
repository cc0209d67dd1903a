//===- test_support.cpp - Support library unit tests ----------------------===//

#include "swp/support/Format.h"
#include "swp/support/Rng.h"
#include "swp/support/Statistics.h"
#include "swp/support/Stopwatch.h"
#include "swp/support/TextTable.h"

#include <gtest/gtest.h>

using namespace swp;

TEST(Rng, Deterministic) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  bool AnyDiff = false;
  for (int I = 0; I < 10; ++I)
    AnyDiff |= (A.next() != B.next());
  EXPECT_TRUE(AnyDiff);
}

TEST(Rng, IntInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    int V = R.intIn(3, 9);
    EXPECT_GE(V, 3);
    EXPECT_LE(V, 9);
  }
  // Degenerate range.
  EXPECT_EQ(R.intIn(5, 5), 5);
}

TEST(Rng, UnitInHalfOpenInterval) {
  Rng R(11);
  for (int I = 0; I < 1000; ++I) {
    double V = R.unit();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng R(13);
  for (int I = 0; I < 50; ++I) {
    EXPECT_FALSE(R.chance(0.0));
    EXPECT_TRUE(R.chance(1.0));
  }
}

TEST(Format, BasicFormatting) {
  EXPECT_EQ(strFormat("x=%d y=%s", 5, "ok"), "x=5 y=ok");
  EXPECT_EQ(strFormat("%.2f", 1.5), "1.50");
  EXPECT_EQ(strFormat("plain"), "plain");
}

TEST(TextTable, AlignsColumns) {
  TextTable T;
  T.setHeader({"A", "Blongheader"});
  T.addRow({"xx", "y"});
  T.addRow({"z", "wwww"});
  std::string Out = T.render();
  // Every rendered line (header, separator, rows) present.
  EXPECT_NE(Out.find("A"), std::string::npos);
  EXPECT_NE(Out.find("Blongheader"), std::string::npos);
  EXPECT_NE(Out.find("xx"), std::string::npos);
  EXPECT_NE(Out.find("----"), std::string::npos);
  // Rows align: the second column starts at the same index in both rows.
  size_t R1 = Out.find("y");
  size_t R2 = Out.find("wwww");
  size_t L1 = Out.rfind('\n', R1);
  size_t L2 = Out.rfind('\n', R2);
  EXPECT_EQ(R1 - L1, R2 - L2);
}

TEST(TextTable, HandlesRaggedRows) {
  TextTable T;
  T.addRow({"a"});
  T.addRow({"b", "c", "d"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("d"), std::string::npos);
}

TEST(Statistics, MeanAndPercentile) {
  std::vector<double> V = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(V), 3.0);
  EXPECT_DOUBLE_EQ(percentile(V, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(V, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(V, 50), 3.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch W;
  double S1 = W.seconds();
  EXPECT_GE(S1, 0.0);
  W.reset();
  EXPECT_GE(W.seconds(), 0.0);
}
