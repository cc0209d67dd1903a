//===- test_machine.cpp - Reservation tables and machine models -----------===//

#include "swp/machine/Catalog.h"
#include "swp/machine/MachineModel.h"
#include "swp/machine/ReservationTable.h"
#include "swp/support/Rng.h"
#include "swp/workload/Kernels.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace swp;

TEST(ReservationTable, CleanPipelinedShape) {
  ReservationTable T = ReservationTable::cleanPipelined(3);
  EXPECT_EQ(T.numStages(), 3);
  EXPECT_EQ(T.execTime(), 3);
  EXPECT_TRUE(T.isCleanPipelined());
  EXPECT_TRUE(T.busy(0, 0));
  EXPECT_FALSE(T.busy(0, 1));
  EXPECT_TRUE(T.busy(2, 2));
}

TEST(ReservationTable, NonPipelinedShape) {
  ReservationTable T = ReservationTable::nonPipelined(4);
  EXPECT_EQ(T.numStages(), 1);
  EXPECT_EQ(T.execTime(), 4);
  EXPECT_FALSE(T.isCleanPipelined());
  for (int L = 0; L < 4; ++L)
    EXPECT_TRUE(T.busy(0, L));
}

TEST(ReservationTable, BusyColumns) {
  ReservationTable T = exampleHazardMachine().type(0).Table;
  // FP: stage1 @ {0}, stage2 @ {1}, stage3 @ {1,2}.
  EXPECT_EQ(T.busyColumns(0), (std::vector<int>{0}));
  EXPECT_EQ(T.busyColumns(1), (std::vector<int>{1}));
  EXPECT_EQ(T.busyColumns(2), (std::vector<int>{1, 2}));
}

TEST(ReservationTable, ModuloConstraint) {
  // Stage busy at columns 1 and 3 collides with itself at T = 2.
  ReservationTable T = moduloViolationTable();
  EXPECT_FALSE(T.satisfiesModuloConstraint(2));
  EXPECT_TRUE(T.satisfiesModuloConstraint(3));
  EXPECT_TRUE(T.satisfiesModuloConstraint(4));
  EXPECT_FALSE(T.satisfiesModuloConstraint(1));
}

TEST(ReservationTable, CleanAlwaysSatisfiesModulo) {
  ReservationTable T = ReservationTable::cleanPipelined(5);
  for (int Period = 1; Period <= 8; ++Period)
    EXPECT_TRUE(T.satisfiesModuloConstraint(Period));
}

TEST(ReservationTable, ConflictsAtOffsetClean) {
  // Clean pipeline: two ops on one unit conflict only at equal offsets.
  ReservationTable T = ReservationTable::cleanPipelined(3);
  int Period = 4;
  EXPECT_TRUE(T.conflictsAtOffset(0, Period));
  for (int D = 1; D < Period; ++D)
    EXPECT_FALSE(T.conflictsAtOffset(D, Period));
}

TEST(ReservationTable, ConflictsAtOffsetNonPipelined) {
  // Non-pipelined exec 2 at T = 4: offsets within +-1 (mod 4) conflict.
  ReservationTable T = ReservationTable::nonPipelined(2);
  EXPECT_TRUE(T.conflictsAtOffset(0, 4));
  EXPECT_TRUE(T.conflictsAtOffset(1, 4));
  EXPECT_FALSE(T.conflictsAtOffset(2, 4));
  EXPECT_TRUE(T.conflictsAtOffset(3, 4));
}

TEST(ReservationTable, ConflictSymmetry) {
  ReservationTable T = exampleHazardMachine().type(0).Table;
  for (int Period = 3; Period <= 8; ++Period)
    for (int D = 0; D < Period; ++D)
      EXPECT_EQ(T.conflictsAtOffset(D, Period),
                T.conflictsAtOffset((Period - D) % Period, Period))
          << "delta " << D << " period " << Period;
}

TEST(ReservationTable, RenderShowsGrid) {
  std::string Out = ReservationTable::nonPipelined(2).render();
  EXPECT_NE(Out.find("Stage 1"), std::string::npos);
  EXPECT_NE(Out.find("1"), std::string::npos);
}

TEST(MachineModel, FindTypeAndUnits) {
  MachineModel M = ppc604Like();
  EXPECT_EQ(M.numTypes(), 5);
  EXPECT_EQ(M.findType("FPU"), 2);
  EXPECT_EQ(M.findType("nope"), -1);
  EXPECT_EQ(M.totalUnits(), 6);
  EXPECT_EQ(M.globalUnitIndex(0, 1), 1);
  EXPECT_EQ(M.globalUnitIndex(1, 0), 2);
  EXPECT_EQ(M.globalUnitIndex(4, 0), 5);
}

TEST(MachineModel, ResourceMiiCleanPipeline) {
  // 3 FP ops on 1 clean FP unit: one issue slot each -> T_res = 3.
  MachineModel M = exampleCleanMachine();
  Ddg G("g");
  for (int I = 0; I < 3; ++I)
    G.addNode("f" + std::to_string(I), 0, 2);
  EXPECT_EQ(M.resourceMii(G), 3);
}

TEST(MachineModel, ResourceMiiNonPipelined) {
  // 3 FP ops, exec 2, on 2 non-pipelined units: ceil(6/2) = 3.
  MachineModel M = exampleNonPipelinedMachine();
  Ddg G("g");
  for (int I = 0; I < 3; ++I)
    G.addNode("f" + std::to_string(I), 0, 2);
  EXPECT_EQ(M.resourceMii(G), 3);
}

TEST(MachineModel, ResourceMiiHazardStage) {
  // Hazard FP: stage 3 busy 2 cycles/op; 3 ops on 1 unit -> ceil(6/1) = 6.
  MachineModel M = exampleHazardMachine();
  Ddg G("g");
  for (int I = 0; I < 3; ++I)
    G.addNode("f" + std::to_string(I), 0, 2);
  EXPECT_EQ(M.resourceMii(G), 6);
}

TEST(MachineModel, ResourceMiiTakesMaxOverTypes) {
  MachineModel M = exampleCleanMachine();
  Ddg G("g");
  G.addNode("f", 0, 2);
  for (int I = 0; I < 4; ++I)
    G.addNode("m" + std::to_string(I), 1, 1);
  EXPECT_EQ(M.resourceMii(G), 4) << "4 LS ops on 1 LS unit dominate";
}

TEST(MachineModel, ResourceMiiIgnoresUnusedTypes) {
  MachineModel M = exampleHazardMachine();
  Ddg G("g");
  G.addNode("ls", 1, 1);
  EXPECT_EQ(M.resourceMii(G), 2) << "LS stage 1 is busy 2 cycles per op";
}

TEST(MachineModel, ModuloFeasibleChecksOnlyUsedTypes) {
  MachineModel M("m");
  M.addFuType("BAD", 1, moduloViolationTable());
  M.addFuType("OK", 1, ReservationTable::cleanPipelined(2));
  Ddg OnlyOk("g");
  OnlyOk.addNode("x", 1, 1);
  EXPECT_TRUE(M.moduloFeasible(OnlyOk, 2));
  Ddg UsesBad("g2");
  UsesBad.addNode("y", 0, 1);
  EXPECT_FALSE(M.moduloFeasible(UsesBad, 2));
  EXPECT_TRUE(M.moduloFeasible(UsesBad, 4));
}

TEST(Catalog, MachineShapes) {
  EXPECT_EQ(exampleCleanMachine().numTypes(), 2);
  EXPECT_TRUE(exampleCleanMachine().type(0).Table.isCleanPipelined());
  EXPECT_FALSE(exampleNonPipelinedMachine().type(0).Table.isCleanPipelined());
  EXPECT_EQ(exampleNonPipelinedMachine().type(0).Count, 2);
  EXPECT_EQ(exampleHazardMachine().type(0).Table.numStages(), 3);
  EXPECT_EQ(ppc604Like().findType("FDIV"), 4);
  EXPECT_EQ(cleanVliw().numTypes(), ppc604Like().numTypes());
  for (int R = 0; R < cleanVliw().numTypes(); ++R)
    EXPECT_TRUE(cleanVliw().type(R).Table.isCleanPipelined());
}

TEST(Catalog, KernelsWellFormedForPpc604) {
  MachineModel M = ppc604Like();
  for (const Ddg &G : classicKernels())
    EXPECT_TRUE(G.isWellFormed(M.numTypes())) << G.name();
}

TEST(MachineModel, VariantAccessors) {
  MachineModel M = ppc604MultiFunction();
  EXPECT_EQ(M.type(2).numVariants(), 2);
  EXPECT_EQ(M.type(0).numVariants(), 1);
  Ddg G("g");
  int Div = G.addNodeVariant("d", 2, 1, 8);
  int Mul = G.addNode("m", 2, 4);
  EXPECT_EQ(M.tableFor(G.node(Div)).execTime(), 8);
  EXPECT_EQ(M.tableFor(G.node(Mul)).execTime(), 4);
}

TEST(MachineModel, ModuloFeasibleChecksVariants) {
  MachineModel M("m");
  int R = M.addFuType("X", 1, ReservationTable::cleanPipelined(2));
  M.addVariant(R, moduloViolationTable()); // Self-conflicts at T = 2.
  Ddg UsesPrimary("a");
  UsesPrimary.addNode("p", 0, 1);
  EXPECT_TRUE(M.moduloFeasible(UsesPrimary, 2));
  Ddg UsesVariant("b");
  UsesVariant.addNodeVariant("v", 0, 1, 1);
  EXPECT_FALSE(M.moduloFeasible(UsesVariant, 2));
  EXPECT_TRUE(M.moduloFeasible(UsesVariant, 4));
}

TEST(MachineModel, AcceptsDdgRejections) {
  MachineModel M = ppc604MultiFunction();
  Ddg Fits("ok");
  Fits.addNode("a", 0, 1);
  Fits.addNodeVariant("b", 2, 1, 8);
  EXPECT_TRUE(M.acceptsDdg(Fits));

  Ddg ClassHigh("bad-class");
  ClassHigh.addNode("x", M.numTypes(), 1);
  EXPECT_FALSE(M.acceptsDdg(ClassHigh));

  Ddg ClassNeg("neg-class");
  ClassNeg.addNode("x", -1, 1);
  EXPECT_FALSE(M.acceptsDdg(ClassNeg));

  Ddg VariantHigh("bad-variant");
  VariantHigh.addNodeVariant("x", 2, M.type(2).numVariants(), 1);
  EXPECT_FALSE(M.acceptsDdg(VariantHigh));

  Ddg VariantOnPlainType("variant-on-plain");
  VariantOnPlainType.addNodeVariant("x", 0, 1, 1);
  EXPECT_FALSE(M.acceptsDdg(VariantOnPlainType))
      << "type 0 has only the primary table";

  Ddg VariantNeg("neg-variant");
  VariantNeg.addNodeVariant("x", 2, -1, 1);
  EXPECT_FALSE(M.acceptsDdg(VariantNeg));
}

TEST(MachineModel, TableForSelectsVariantPerNode) {
  MachineModel M("m");
  int R = M.addFuType("X", 1, ReservationTable::cleanPipelined(3));
  int V1 = M.addVariant(R, ReservationTable::nonPipelined(2));
  int V2 = M.addVariant(R, ReservationTable::nonPipelined(5));
  ASSERT_EQ(V1, 1);
  ASSERT_EQ(V2, 2);
  EXPECT_EQ(M.type(R).numVariants(), 3);

  Ddg G("g");
  int Primary = G.addNode("p", R, 3);
  int Mid = G.addNodeVariant("m", R, V1, 2);
  int Slow = G.addNodeVariant("s", R, V2, 5);
  EXPECT_TRUE(M.tableFor(G.node(Primary)).isCleanPipelined());
  EXPECT_EQ(M.tableFor(G.node(Primary)).execTime(), 3);
  EXPECT_EQ(M.tableFor(G.node(Mid)).execTime(), 2);
  EXPECT_FALSE(M.tableFor(G.node(Mid)).isCleanPipelined());
  EXPECT_EQ(M.tableFor(G.node(Slow)).execTime(), 5);
}

TEST(ReservationTable, CrossTableConflictWithUnequalStageCounts) {
  // A 1-stage table only collides with the other table's stage 1.
  ReservationTable OneStage = ReservationTable::nonPipelined(2);
  ReservationTable ThreeStage = ReservationTable::cleanPipelined(3);
  // OneStage busy stage1 @ {0,1}; ThreeStage busy stage1 @ {0} only.
  EXPECT_TRUE(tablesConflictAtOffset(OneStage, ThreeStage, 0, 6));
  EXPECT_TRUE(tablesConflictAtOffset(OneStage, ThreeStage, 1, 6));
  EXPECT_FALSE(tablesConflictAtOffset(OneStage, ThreeStage, 2, 6))
      << "stages 2-3 of the clean pipe do not exist on the 1-stage table";
}

namespace {

/// Modulo reservation table of one unit at period T: Cells[S * T + Slot]
/// marks stage S busy at pattern step Slot.
struct ModuloGrid {
  int T;
  std::vector<int> Cells;
  ModuloGrid(int Stages, int Period)
      : T(Period), Cells(static_cast<size_t>(Stages * Period), 0) {}
  int &at(int S, int Slot) { return Cells[static_cast<size_t>(S * T + Slot)]; }
};

/// Overlays \p Table issued at pattern step \p Offset onto \p Grid.
void overlay(ModuloGrid &Grid, const ReservationTable &Table, int Offset) {
  for (int S = 0; S < Table.numStages(); ++S)
    for (int L = 0; L < Table.execTime(); ++L)
      if (Table.busy(S, L))
        ++Grid.at(S, (Offset + L) % Grid.T);
}

/// Brute-force satisfiesModuloConstraint: one op alone never fills a cell
/// of the modulo reservation table twice.
bool referenceModuloOk(const ReservationTable &Table, int T) {
  ModuloGrid Grid(Table.numStages(), T);
  overlay(Grid, Table, 0);
  return std::all_of(Grid.Cells.begin(), Grid.Cells.end(),
                     [](int C) { return C <= 1; });
}

/// Brute-force tablesConflictAtOffset: an op using \p A at step 0 and one
/// using \p B at step \p Delta, overlaid on one unit's modulo reservation
/// table, share a cell.
bool referenceConflict(const ReservationTable &A, const ReservationTable &B,
                       int Delta, int T) {
  const int Stages = std::max(A.numStages(), B.numStages());
  ModuloGrid GridA(Stages, T), GridB(Stages, T);
  overlay(GridA, A, 0);
  overlay(GridB, B, Delta);
  for (size_t I = 0; I < GridA.Cells.size(); ++I)
    if (GridA.Cells[I] > 0 && GridB.Cells[I] > 0)
      return true;
  return false;
}

/// Every table and variant of the catalog's ppc604, multi-function ppc604,
/// clean VLIW and CGRA machines.
std::vector<ReservationTable> catalogTables() {
  std::vector<ReservationTable> Tables;
  for (const MachineModel &M : {ppc604Like(), ppc604MultiFunction(),
                                cleanVliw(), cgraGrid(2, 2)})
    for (int R = 0; R < M.numTypes(); ++R)
      for (int V = 0; V < M.type(R).numVariants(); ++V)
        Tables.push_back(M.type(R).variant(V));
  return Tables;
}

/// Seeded random tables of 1-4 stages and 1-\p MaxWidth columns.
std::vector<ReservationTable> randomTables(std::uint64_t Seed, int Count,
                                           int MaxWidth) {
  Rng R(Seed);
  std::vector<ReservationTable> Tables;
  for (int K = 0; K < Count; ++K) {
    const int Width = R.intIn(1, MaxWidth);
    const double Density = 0.05 + 0.5 * R.unit();
    std::vector<std::vector<std::uint8_t>> Rows(
        static_cast<size_t>(R.intIn(1, 4)),
        std::vector<std::uint8_t>(static_cast<size_t>(Width), 0));
    for (auto &Row : Rows)
      for (auto &Cell : Row)
        Cell = R.chance(Density) ? 1 : 0;
    Tables.emplace_back(std::move(Rows));
  }
  return Tables;
}

/// Checks the three conflict tests against the brute-force overlay for
/// every pair of \p Tables, every period in \p Periods and every delta.
void expectMatchesReference(const std::vector<ReservationTable> &Tables,
                            const std::vector<int> &Periods) {
  for (int T : Periods) {
    for (size_t I = 0; I < Tables.size(); ++I) {
      const ReservationTable &A = Tables[I];
      ASSERT_EQ(A.satisfiesModuloConstraint(T), referenceModuloOk(A, T))
          << "table " << I << " T=" << T << "\n" << A.render();
      for (int Delta = 0; Delta < T; ++Delta)
        ASSERT_EQ(A.conflictsAtOffset(Delta, T),
                  referenceConflict(A, A, Delta, T))
            << "table " << I << " T=" << T << " delta=" << Delta << "\n"
            << A.render();
      for (size_t J = 0; J < Tables.size(); ++J)
        for (int Delta = 0; Delta < T; ++Delta)
          ASSERT_EQ(tablesConflictAtOffset(A, Tables[J], Delta, T),
                    referenceConflict(A, Tables[J], Delta, T))
              << "tables " << I << "," << J << " T=" << T
              << " delta=" << Delta << "\n"
              << A.render() << Tables[J].render();
    }
  }
}

std::vector<int> periodsUpTo(int Max) {
  std::vector<int> Periods;
  for (int T = 1; T <= Max; ++T)
    Periods.push_back(T);
  return Periods;
}

} // namespace

TEST(ReservationTable, CatalogConflictsMatchBruteForceOverlay) {
  std::vector<ReservationTable> Tables = catalogTables();
  ASSERT_EQ(Tables.size(), 17u);
  expectMatchesReference(Tables, periodsUpTo(16));
}

TEST(ReservationTable, RandomConflictsMatchBruteForceOverlay) {
  std::vector<ReservationTable> Tables = catalogTables();
  for (const ReservationTable &Table : randomTables(19950618, 24, 10))
    Tables.push_back(Table);
  expectMatchesReference(Tables, periodsUpTo(16));
}

TEST(ReservationTable, LongPeriodConflictsMatchBruteForceOverlay) {
  // Periods past one 64-bit word of residues, on tables both narrower and
  // wider than the period.
  std::vector<ReservationTable> Tables = randomTables(20260807, 8, 150);
  for (const ReservationTable &Table : catalogTables())
    Tables.push_back(Table);
  expectMatchesReference(Tables, {31, 63, 64, 65, 97, 140});
}
