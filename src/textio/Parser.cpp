//===- Parser.cpp - Text formats for machines and loops -------------------===//

#include "swp/textio/Parser.h"

#include "swp/support/Format.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

using namespace swp;

namespace {

/// Splits \p Line into whitespace-separated tokens, dropping '#' comments.
std::vector<std::string> tokenize(const std::string &Line) {
  std::vector<std::string> Tokens;
  std::string Current;
  for (char C : Line) {
    if (C == '#')
      break;
    if (std::isspace(static_cast<unsigned char>(C))) {
      if (!Current.empty()) {
        Tokens.push_back(Current);
        Current.clear();
      }
      continue;
    }
    Current += C;
  }
  if (!Current.empty())
    Tokens.push_back(Current);
  return Tokens;
}

bool parseInt(const std::string &Tok, int &Out) {
  if (Tok.empty())
    return false;
  char *End = nullptr;
  errno = 0;
  long V = std::strtol(Tok.c_str(), &End, 10);
  if (errno != 0 || End != Tok.c_str() + Tok.size() || V < INT_MIN ||
      V > INT_MAX)
    return false;
  Out = static_cast<int>(V);
  return true;
}

/// parseInt plus the MaxParsedMagnitude cap: values that fit an int but
/// overflow downstream T-range / buffer arithmetic are rejected here.
bool parseBounded(const std::string &Tok, int &Out) {
  return parseInt(Tok, Out) && Out <= MaxParsedMagnitude &&
         Out >= -MaxParsedMagnitude;
}

/// Parses 0/1 strings (one per stage) into a reservation table.
bool parseTable(const std::vector<std::string> &Rows, ReservationTable &Out,
                std::string &Err) {
  if (Rows.empty()) {
    Err = "reservation table needs at least one stage row";
    return false;
  }
  std::vector<std::vector<std::uint8_t>> Data;
  for (const std::string &Row : Rows) {
    std::vector<std::uint8_t> Stage;
    for (char C : Row) {
      if (C != '0' && C != '1') {
        Err = "reservation rows must be 0/1 strings, got '" + Row + "'";
        return false;
      }
      Stage.push_back(C == '1' ? 1 : 0);
    }
    if (!Data.empty() && Stage.size() != Data.front().size()) {
      Err = "all stage rows must have equal length";
      return false;
    }
    Data.push_back(std::move(Stage));
  }
  if (Data.front().empty()) {
    Err = "reservation rows must be non-empty";
    return false;
  }
  Out = ReservationTable(std::move(Data));
  return true;
}

std::string lineError(int LineNo, const std::string &Msg) {
  return strFormat("line %d: %s", LineNo, Msg.c_str());
}

} // namespace

bool swp::parseMachine(const std::string &Text, MachineModel &Out,
                       std::string &Err) {
  std::istringstream In(Text);
  std::string Line;
  int LineNo = 0;
  std::string MachineName = "machine";
  struct PendingType {
    std::string Name;
    int Count = 1;
    bool HasTable = false;
    ReservationTable Table;
    std::vector<ReservationTable> Variants;
  };
  std::vector<PendingType> Types;

  // Topology directives (grid / edge / instname / hoplatency / maxhops)
  // come after every futype: the unit space must be final before units can
  // be named or connected.
  std::optional<Topology> Topo;
  bool TopoHasDirectives = false;
  auto EnsureTopo = [&]() -> Topology & {
    if (!Topo) {
      int Total = 0;
      for (const PendingType &P : Types)
        Total += P.Count;
      Topo.emplace(Total);
    }
    return *Topo;
  };
  // Resolves a topology unit reference: an instance name or a global
  // (type-major) unit index.  \returns -1 when unknown / out of range.
  auto ResolveUnit = [&](const std::string &Ref) {
    int U = EnsureTopo().findUnit(Ref);
    if (U < 0 && parseInt(Ref, U) &&
        (U < 0 || U >= EnsureTopo().numUnits()))
      U = -1;
    return U;
  };

  while (std::getline(In, Line)) {
    ++LineNo;
    std::vector<std::string> Tok = tokenize(Line);
    if (Tok.empty())
      continue;
    if (Tok[0] == "machine") {
      if (Tok.size() != 2) {
        Err = lineError(LineNo, "expected: machine <name>");
        return false;
      }
      MachineName = Tok[1];
      continue;
    }
    if (Tok[0] == "futype") {
      if (Topo) {
        Err = lineError(LineNo, "futype after topology directives");
        return false;
      }
      if (Tok.size() != 4 || Tok[2] != "count") {
        Err = lineError(LineNo, "expected: futype <name> count <n>");
        return false;
      }
      PendingType P;
      P.Name = Tok[1];
      for (const PendingType &Existing : Types) {
        if (Existing.Name == P.Name) {
          Err = lineError(LineNo, "duplicate futype '" + P.Name + "'");
          return false;
        }
      }
      if (!parseBounded(Tok[3], P.Count) || P.Count < 1) {
        Err = lineError(LineNo,
                        "bad or out-of-range unit count '" + Tok[3] + "'");
        return false;
      }
      Types.push_back(std::move(P));
      continue;
    }
    if (Tok[0] == "table" || Tok[0] == "variant") {
      if (Types.empty()) {
        Err = lineError(LineNo, Tok[0] + " before any futype");
        return false;
      }
      ReservationTable Table;
      std::string TableErr;
      if (!parseTable({Tok.begin() + 1, Tok.end()}, Table, TableErr)) {
        Err = lineError(LineNo, TableErr);
        return false;
      }
      if (Tok[0] == "table") {
        if (Types.back().HasTable) {
          Err = lineError(LineNo, "duplicate table for futype " +
                                      Types.back().Name);
          return false;
        }
        Types.back().Table = std::move(Table);
        Types.back().HasTable = true;
      } else {
        if (!Types.back().HasTable) {
          Err = lineError(LineNo, "variant before table for futype " +
                                      Types.back().Name);
          return false;
        }
        Types.back().Variants.push_back(std::move(Table));
      }
      continue;
    }
    if (Tok[0] == "grid") {
      // grid <rows> <cols> [mesh|torus] — 4-neighbor connectivity over all
      // physical units in row-major order, named pe_<r>_<c>.
      if (TopoHasDirectives) {
        Err = lineError(LineNo, "grid must be the first topology directive");
        return false;
      }
      if (Tok.size() != 3 && Tok.size() != 4) {
        Err = lineError(LineNo, "expected: grid <rows> <cols> [mesh|torus]");
        return false;
      }
      bool Torus = false;
      if (Tok.size() == 4) {
        if (Tok[3] != "mesh" && Tok[3] != "torus") {
          Err = lineError(LineNo, "grid style must be mesh or torus, got '" +
                                      Tok[3] + "'");
          return false;
        }
        Torus = Tok[3] == "torus";
      }
      int Rows = 0, Cols = 0;
      if (!parseBounded(Tok[1], Rows) || !parseBounded(Tok[2], Cols) ||
          Rows < 1 || Cols < 1) {
        Err = lineError(LineNo, "bad grid dimensions");
        return false;
      }
      Topology &Tp = EnsureTopo();
      if (static_cast<long long>(Rows) * Cols != Tp.numUnits()) {
        Err = lineError(
            LineNo,
            strFormat("grid %d x %d needs %lld units, machine has %d", Rows,
                      Cols, static_cast<long long>(Rows) * Cols,
                      Tp.numUnits()));
        return false;
      }
      for (int Rr = 0; Rr < Rows; ++Rr)
        for (int Cc = 0; Cc < Cols; ++Cc)
          Tp.setName(Rr * Cols + Cc, strFormat("pe_%d_%d", Rr, Cc));
      auto Link = [&Tp](int A, int B) {
        // Duplicates are expected on wrap-around of 2-wide tori.
        Tp.addEdge(A, B);
        Tp.addEdge(B, A);
      };
      for (int Rr = 0; Rr < Rows; ++Rr)
        for (int Cc = 0; Cc < Cols; ++Cc) {
          int U = Rr * Cols + Cc;
          if (Cc + 1 < Cols)
            Link(U, U + 1);
          else if (Torus && Cols > 1)
            Link(U, Rr * Cols);
          if (Rr + 1 < Rows)
            Link(U, U + Cols);
          else if (Torus && Rows > 1)
            Link(U, Cc);
        }
      TopoHasDirectives = true;
      continue;
    }
    if (Tok[0] == "edge") {
      if (Tok.size() != 3) {
        Err = lineError(LineNo, "expected: edge <from> <to>");
        return false;
      }
      int From = ResolveUnit(Tok[1]);
      int To = ResolveUnit(Tok[2]);
      if (From < 0 || To < 0) {
        Err = lineError(LineNo, "edge references unknown unit '" +
                                    (From < 0 ? Tok[1] : Tok[2]) + "'");
        return false;
      }
      if (From == To) {
        Err = lineError(LineNo, "topology edge must not be a self-loop");
        return false;
      }
      if (!EnsureTopo().addEdge(From, To)) {
        Err = lineError(LineNo, "duplicate topology edge '" + Tok[1] +
                                    " -> " + Tok[2] + "'");
        return false;
      }
      TopoHasDirectives = true;
      continue;
    }
    if (Tok[0] == "instname") {
      if (Tok.size() != 3) {
        Err = lineError(LineNo, "expected: instname <unit> <name>");
        return false;
      }
      int U = ResolveUnit(Tok[1]);
      if (U < 0) {
        Err = lineError(LineNo, "instname references unknown unit '" +
                                    Tok[1] + "'");
        return false;
      }
      int Clash = EnsureTopo().findUnit(Tok[2]);
      if (Clash >= 0 && Clash != U) {
        Err = lineError(LineNo, "instance name '" + Tok[2] +
                                    "' already in use");
        return false;
      }
      EnsureTopo().setName(U, Tok[2]);
      TopoHasDirectives = true;
      continue;
    }
    if (Tok[0] == "hoplatency") {
      int L = 0;
      if (Tok.size() != 2 || !parseBounded(Tok[1], L) || L < 1) {
        Err = lineError(LineNo, "expected: hoplatency <n >= 1>");
        return false;
      }
      EnsureTopo().setHopLatency(L);
      TopoHasDirectives = true;
      continue;
    }
    if (Tok[0] == "maxhops") {
      int H = 0;
      if (Tok.size() != 2 || !parseBounded(Tok[1], H) || H < -1) {
        Err = lineError(LineNo, "expected: maxhops <n> (-1 = unlimited)");
        return false;
      }
      EnsureTopo().setMaxHops(H);
      TopoHasDirectives = true;
      continue;
    }
    Err = lineError(LineNo, "unknown directive '" + Tok[0] + "'");
    return false;
  }

  if (Types.empty()) {
    Err = lineError(LineNo, "no futype declared");
    return false;
  }
  MachineModel M(MachineName);
  for (PendingType &P : Types) {
    if (!P.HasTable) {
      Err = lineError(LineNo, "futype " + P.Name + " has no table");
      return false;
    }
    int R = M.addFuType(P.Name, P.Count, std::move(P.Table));
    for (ReservationTable &V : P.Variants)
      M.addVariant(R, std::move(V));
  }
  if (Topo)
    M.setTopology(std::move(*Topo));
  Out = std::move(M);
  return true;
}

bool swp::parseLoop(const std::string &Text, const MachineModel &Machine,
                    Ddg &Out, std::string &Err) {
  std::istringstream In(Text);
  std::string Line;
  int LineNo = 0;
  Ddg G;
  std::map<std::string, int> NodeByName;

  while (std::getline(In, Line)) {
    ++LineNo;
    std::vector<std::string> Tok = tokenize(Line);
    if (Tok.empty())
      continue;
    if (Tok[0] == "loop") {
      if (Tok.size() != 2) {
        Err = lineError(LineNo, "expected: loop <name>");
        return false;
      }
      G.setName(Tok[1]);
      continue;
    }
    if (Tok[0] == "node") {
      // node <name> class <cls> latency <n> [variant <v>]
      if (Tok.size() != 6 && Tok.size() != 8) {
        Err = lineError(
            LineNo, "expected: node <name> class <cls> latency <n> "
                    "[variant <v>]");
        return false;
      }
      if (Tok[2] != "class" || Tok[4] != "latency" ||
          (Tok.size() == 8 && Tok[6] != "variant")) {
        Err = lineError(LineNo, "malformed node directive");
        return false;
      }
      if (NodeByName.count(Tok[1])) {
        Err = lineError(LineNo, "duplicate node '" + Tok[1] + "'");
        return false;
      }
      int Class = Machine.findType(Tok[3]);
      if (Class < 0 && !parseInt(Tok[3], Class)) {
        Err = lineError(LineNo, "unknown class '" + Tok[3] + "'");
        return false;
      }
      if (Class < 0 || Class >= Machine.numTypes()) {
        Err = lineError(LineNo, "class out of range: " + Tok[3]);
        return false;
      }
      int Latency = 0;
      if (!parseBounded(Tok[5], Latency) || Latency < 0) {
        Err = lineError(LineNo,
                        "bad or out-of-range latency '" + Tok[5] + "'");
        return false;
      }
      int Variant = 0;
      if (Tok.size() == 8 &&
          (!parseInt(Tok[7], Variant) || Variant < 0 ||
           Variant >= Machine.type(Class).numVariants())) {
        Err = lineError(LineNo, "bad variant '" + Tok[7] + "'");
        return false;
      }
      NodeByName[Tok[1]] =
          G.addNodeVariant(Tok[1], Class, Variant, Latency);
      continue;
    }
    if (Tok[0] == "edge") {
      // edge <src> -> <dst> distance <m> [latency <d>]
      if ((Tok.size() != 6 && Tok.size() != 8) || Tok[2] != "->" ||
          Tok[4] != "distance" || (Tok.size() == 8 && Tok[6] != "latency")) {
        Err = lineError(LineNo, "expected: edge <src> -> <dst> distance <m> "
                                "[latency <d>]");
        return false;
      }
      auto SrcIt = NodeByName.find(Tok[1]);
      auto DstIt = NodeByName.find(Tok[3]);
      if (SrcIt == NodeByName.end() || DstIt == NodeByName.end()) {
        Err = lineError(LineNo, "edge references unknown node");
        return false;
      }
      int Distance = 0;
      if (!parseBounded(Tok[5], Distance) || Distance < 0) {
        Err = lineError(LineNo,
                        "bad or out-of-range distance '" + Tok[5] + "'");
        return false;
      }
      if (Tok.size() == 8) {
        int Latency = 0;
        if (!parseBounded(Tok[7], Latency) || Latency < 0) {
          Err = lineError(LineNo,
                          "bad or out-of-range latency '" + Tok[7] + "'");
          return false;
        }
        G.addEdgeWithLatency(SrcIt->second, DstIt->second, Distance, Latency);
      } else {
        G.addEdge(SrcIt->second, DstIt->second, Distance);
      }
      continue;
    }
    Err = lineError(LineNo, "unknown directive '" + Tok[0] + "'");
    return false;
  }

  if (G.numNodes() == 0) {
    Err = lineError(LineNo, "loop has no nodes");
    return false;
  }
  if (!Machine.acceptsDdg(G)) {
    Err = lineError(LineNo,
                    "loop is malformed for this machine (zero-distance "
                    "cycle?)");
    return false;
  }
  Out = std::move(G);
  return true;
}

Expected<MachineModel> swp::parseMachineText(const std::string &Text) {
  MachineModel M("machine");
  std::string Err;
  if (!parseMachine(Text, M, Err))
    return Status(StatusCode::ParseError, Err).withPhase("parse-machine");
  return M;
}

Expected<Ddg> swp::parseLoopText(const std::string &Text,
                                 const MachineModel &Machine) {
  Ddg G;
  std::string Err;
  if (!parseLoop(Text, Machine, G, Err))
    return Status(StatusCode::ParseError, Err).withPhase("parse-loop");
  return G;
}

namespace {

std::string tableRows(const ReservationTable &Table) {
  std::string Out;
  for (int S = 0; S < Table.numStages(); ++S) {
    Out += ' ';
    for (int L = 0; L < Table.execTime(); ++L)
      Out += Table.busy(S, L) ? '1' : '0';
  }
  return Out;
}

} // namespace

std::string swp::printMachine(const MachineModel &M) {
  std::string Out = "machine " + M.name() + "\n";
  for (int R = 0; R < M.numTypes(); ++R) {
    const FuType &Ty = M.type(R);
    Out += strFormat("futype %s count %d\n", Ty.Name.c_str(), Ty.Count);
    Out += "table" + tableRows(Ty.Table) + "\n";
    for (int V = 1; V < Ty.numVariants(); ++V)
      Out += "variant" + tableRows(Ty.variant(V)) + "\n";
  }
  if (const Topology *Topo = M.topology()) {
    // Names first so edges can refer to them; grids round-trip as their
    // expanded instname/edge form.
    if (Topo->hopLatency() != 1)
      Out += strFormat("hoplatency %d\n", Topo->hopLatency());
    if (Topo->maxHops() >= 0)
      Out += strFormat("maxhops %d\n", Topo->maxHops());
    for (int U = 0; U < Topo->numUnits(); ++U)
      if (Topo->unitName(U) != strFormat("u%d", U))
        Out += strFormat("instname %d %s\n", U, Topo->unitName(U).c_str());
    for (const std::pair<int, int> &E : Topo->edges())
      Out += strFormat("edge %s %s\n", Topo->unitName(E.first).c_str(),
                       Topo->unitName(E.second).c_str());
  }
  return Out;
}

std::string swp::printLoop(const Ddg &G, const MachineModel &Machine) {
  std::string Out = "loop " + G.name() + "\n";
  for (int I = 0; I < G.numNodes(); ++I) {
    const DdgNode &N = G.node(I);
    Out += strFormat("node %s class %s latency %d", N.Name.c_str(),
                     Machine.type(N.OpClass).Name.c_str(), N.Latency);
    if (N.Variant != 0)
      Out += strFormat(" variant %d", N.Variant);
    Out += '\n';
  }
  for (const DdgEdge &E : G.edges())
    Out += strFormat("edge %s -> %s distance %d latency %d\n",
                     G.node(E.Src).Name.c_str(), G.node(E.Dst).Name.c_str(),
                     E.Distance, E.Latency);
  return Out;
}
