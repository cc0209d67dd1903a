//===- CdclSolver.cpp - Incremental CDCL SAT solver -----------------------===//

#include "swp/sat/CdclSolver.h"

#include "swp/support/FaultInjector.h"
#include "swp/support/Stopwatch.h"
#include "swp/support/ThreadSpare.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

using namespace swp;

namespace {

/// Finite Luby sequence value: the i-th term of the 1,1,2,1,1,2,4,... series
/// scaled by powers of \p Y (the classic restart schedule).
double luby(double Y, int X) {
  int Size = 1, Seq = 0;
  while (Size < X + 1) {
    ++Seq;
    Size = 2 * Size + 1;
  }
  while (Size - 1 != X) {
    Size = (Size - 1) >> 1;
    --Seq;
    X = X % Size;
  }
  return std::pow(Y, Seq);
}

} // namespace

struct CdclSolver::Impl {
  /// A clause is Size literals at Lits[Begin, Begin + Size) of the pool.
  /// Propagation reorders them in place (the two watches sit in front).
  struct Clause {
    std::uint32_t Begin;
    std::uint32_t Size;
    bool Learnt;
  };
  /// Index into Clauses; NoClause for "none" (decisions, level-0 units).
  using ClauseRef = int;
  static constexpr ClauseRef NoClause = -1;

  std::vector<Clause> Clauses;
  /// Literals of every clause, problem and learned, in creation order.  An
  /// append may reallocate it, so no pointer into it outlives one.
  std::vector<SatLit> Lits;

  /// 1 = true, -1 = false, 0 = unassigned (per variable).
  std::vector<std::int8_t> Assign;
  /// Decision level of each assigned variable.
  std::vector<int> Level;
  /// Antecedent clause of each propagated variable (NoClause for decisions).
  std::vector<ClauseRef> Reason;
  /// Saved phase per variable (phase saving).
  std::vector<std::int8_t> Phase;
  /// VSIDS activity per variable.
  std::vector<double> Activity;
  double VarInc = 1.0;
  static constexpr double VarDecay = 0.95;

  /// Watch[L] = clauses to inspect when literal L becomes true (they watch
  /// the negation of L).  Only the first NumWatches lists (two per
  /// variable) are in use; the lists past them are empty and keep the
  /// capacity a recycled store brought along.
  std::vector<std::vector<ClauseRef>> Watches;
  std::size_t NumWatches = 0;
  /// Heap bytes of the idle lists Watches[NumWatches, size()), kept as a
  /// running sum so that capacityBytes() walks only the lists in use.
  std::size_t IdleWatchBytes = 0;

  /// Assignment trail and per-level boundaries.
  std::vector<SatLit> Trail;
  std::vector<int> TrailLim;
  std::size_t QHead = 0;

  /// Activity-ordered max-heap of decision candidates.
  std::vector<int> Heap;
  std::vector<int> HeapPos;

  /// Scratch for conflict analysis.
  std::vector<std::int8_t> Seen;
  /// addClause's sorted, filtered copy of its input.
  std::vector<SatLit> AddBuf;
  /// The clause analyze() learns.
  std::vector<SatLit> LearntBuf;
  /// Assignment of the last Sat answer.
  std::vector<std::int8_t> Model;

  // -- Storage reuse (ThreadSpare, DESIGN.md Sections 10 and 12) ----------

  /// Heap bytes the store's vectors hold, in use or not.
  std::size_t capacityBytes() const {
    std::size_t Sum =
        heapBytes(Clauses) + heapBytes(Lits) + heapBytes(Assign) +
        heapBytes(Level) + heapBytes(Reason) + heapBytes(Phase) +
        heapBytes(Activity) + heapBytes(Watches) + heapBytes(Trail) +
        heapBytes(TrailLim) + heapBytes(Heap) + heapBytes(HeapPos) +
        heapBytes(Seen) + heapBytes(AddBuf) + heapBytes(LearntBuf) +
        heapBytes(Model) + IdleWatchBytes;
    for (std::size_t L = 0; L < NumWatches; ++L)
      Sum += heapBytes(Watches[L]);
    return Sum;
  }

  /// Returns the store to the state `new Impl` builds, keeping every
  /// vector's capacity (each watch list's included).
  void reset() {
    Clauses.clear();
    Lits.clear();
    Assign.clear();
    Level.clear();
    Reason.clear();
    Phase.clear();
    Activity.clear();
    VarInc = 1.0;
    for (std::size_t L = 0; L < NumWatches; ++L) {
      Watches[L].clear();
      IdleWatchBytes += heapBytes(Watches[L]);
    }
    NumWatches = 0;
    Trail.clear();
    TrailLim.clear();
    QHead = 0;
    Heap.clear();
    HeapPos.clear();
    Seen.clear();
    AddBuf.clear();
    LearntBuf.clear();
    Model.clear();
  }

  SatLit *lits(ClauseRef C) {
    return Lits.data() + Clauses[static_cast<std::size_t>(C)].Begin;
  }

  int decisionLevel() const { return static_cast<int>(TrailLim.size()); }

  int val(SatLit L) const {
    std::int8_t A = Assign[static_cast<std::size_t>(litVar(L))];
    return litNeg(L) ? -A : A;
  }

  // -- Decision heap ------------------------------------------------------

  bool heapLess(int A, int B) const { return Activity[static_cast<std::size_t>(A)] < Activity[static_cast<std::size_t>(B)]; }

  void heapSwap(std::size_t I, std::size_t J) {
    std::swap(Heap[I], Heap[J]);
    HeapPos[static_cast<std::size_t>(Heap[I])] = static_cast<int>(I);
    HeapPos[static_cast<std::size_t>(Heap[J])] = static_cast<int>(J);
  }

  void percolateUp(std::size_t I) {
    while (I > 0) {
      std::size_t Parent = (I - 1) / 2;
      if (!heapLess(Heap[Parent], Heap[I]))
        break;
      heapSwap(Parent, I);
      I = Parent;
    }
  }

  void percolateDown(std::size_t I) {
    for (;;) {
      std::size_t L = 2 * I + 1, R = 2 * I + 2, Best = I;
      if (L < Heap.size() && heapLess(Heap[Best], Heap[L]))
        Best = L;
      if (R < Heap.size() && heapLess(Heap[Best], Heap[R]))
        Best = R;
      if (Best == I)
        break;
      heapSwap(I, Best);
      I = Best;
    }
  }

  void heapInsert(int Var) {
    if (HeapPos[static_cast<std::size_t>(Var)] >= 0)
      return;
    HeapPos[static_cast<std::size_t>(Var)] = static_cast<int>(Heap.size());
    Heap.push_back(Var);
    percolateUp(Heap.size() - 1);
  }

  int heapPop() {
    int Top = Heap.front();
    heapSwap(0, Heap.size() - 1);
    Heap.pop_back();
    HeapPos[static_cast<std::size_t>(Top)] = -1;
    if (!Heap.empty())
      percolateDown(0);
    return Top;
  }

  void bumpActivity(int Var) {
    double &A = Activity[static_cast<std::size_t>(Var)];
    A += VarInc;
    if (A > 1e100) {
      for (double &X : Activity)
        X *= 1e-100;
      VarInc *= 1e-100;
    }
    int Pos = HeapPos[static_cast<std::size_t>(Var)];
    if (Pos >= 0)
      percolateUp(static_cast<std::size_t>(Pos));
  }

  // -- Trail --------------------------------------------------------------

  void uncheckedEnqueue(SatLit L, ClauseRef From) {
    std::size_t V = static_cast<std::size_t>(litVar(L));
    Assign[V] = litNeg(L) ? -1 : 1;
    Level[V] = decisionLevel();
    Reason[V] = From;
    Trail.push_back(L);
  }

  void cancelUntil(int LevelTo) {
    if (decisionLevel() <= LevelTo)
      return;
    std::size_t Bound =
        static_cast<std::size_t>(TrailLim[static_cast<std::size_t>(LevelTo)]);
    for (std::size_t I = Trail.size(); I > Bound; --I) {
      SatLit L = Trail[I - 1];
      std::size_t V = static_cast<std::size_t>(litVar(L));
      Phase[V] = Assign[V];
      Assign[V] = 0;
      Reason[V] = NoClause;
      heapInsert(static_cast<int>(V));
    }
    Trail.resize(Bound);
    TrailLim.resize(static_cast<std::size_t>(LevelTo));
    QHead = Trail.size();
  }

  // -- Propagation --------------------------------------------------------

  /// Appends \p Src (at least two literals, none in the pool) as a new
  /// clause watching its first two literals; \returns its reference.
  ClauseRef store(const std::vector<SatLit> &Src, bool IsLearnt) {
    const ClauseRef C = static_cast<ClauseRef>(Clauses.size());
    Clauses.push_back({static_cast<std::uint32_t>(Lits.size()),
                       static_cast<std::uint32_t>(Src.size()), IsLearnt});
    Lits.insert(Lits.end(), Src.begin(), Src.end());
    Watches[static_cast<std::size_t>(litNot(Src[0]))].push_back(C);
    Watches[static_cast<std::size_t>(litNot(Src[1]))].push_back(C);
    return C;
  }

  ClauseRef propagate(std::int64_t &Propagations) {
    while (QHead < Trail.size()) {
      SatLit P = Trail[QHead++];
      ++Propagations;
      std::vector<ClauseRef> &WL = Watches[static_cast<std::size_t>(P)];
      std::size_t I = 0, J = 0;
      while (I < WL.size()) {
        ClauseRef C = WL[I++];
        SatLit *Ls = lits(C);
        const std::size_t Size = Clauses[static_cast<std::size_t>(C)].Size;
        // Normalize: the literal falsified by P sits at position 1.
        if (Ls[0] == litNot(P))
          std::swap(Ls[0], Ls[1]);
        if (val(Ls[0]) == 1) { // Clause already satisfied.
          WL[J++] = C;
          continue;
        }
        bool Rewatched = false;
        for (std::size_t K = 2; K < Size; ++K) {
          if (val(Ls[K]) != -1) {
            std::swap(Ls[1], Ls[K]);
            Watches[static_cast<std::size_t>(litNot(Ls[1]))].push_back(C);
            Rewatched = true;
            break;
          }
        }
        if (Rewatched)
          continue;
        WL[J++] = C;
        if (val(Ls[0]) == -1) { // All literals false: conflict.
          while (I < WL.size())
            WL[J++] = WL[I++];
          WL.resize(J);
          QHead = Trail.size();
          return C;
        }
        uncheckedEnqueue(Ls[0], C);
      }
      WL.resize(J);
    }
    return NoClause;
  }

  // -- Conflict analysis (first UIP) --------------------------------------

  /// Fills LearntBuf with the first-UIP clause of conflict \p Confl.
  void analyze(ClauseRef Confl, int &BtLevel) {
    std::vector<SatLit> &Learnt = LearntBuf;
    Learnt.clear();
    Learnt.push_back(0); // Placeholder for the asserting literal.
    int Counter = 0;
    SatLit P = -1;
    std::size_t Idx = Trail.size();
    do {
      const SatLit *Ls = lits(Confl);
      const std::size_t Size = Clauses[static_cast<std::size_t>(Confl)].Size;
      for (std::size_t K = (P == -1 ? 0 : 1); K < Size; ++K) {
        SatLit Q = Ls[K];
        std::size_t V = static_cast<std::size_t>(litVar(Q));
        if (Seen[V] || Level[V] == 0)
          continue;
        Seen[V] = 1;
        bumpActivity(static_cast<int>(V));
        if (Level[V] >= decisionLevel())
          ++Counter;
        else
          Learnt.push_back(Q);
      }
      while (!Seen[static_cast<std::size_t>(litVar(Trail[Idx - 1]))])
        --Idx;
      P = Trail[Idx - 1];
      --Idx;
      Seen[static_cast<std::size_t>(litVar(P))] = 0;
      --Counter;
      if (Counter > 0)
        Confl = Reason[static_cast<std::size_t>(litVar(P))];
    } while (Counter > 0);
    Learnt[0] = litNot(P);

    // Backjump to the second-highest level in the clause; put a literal of
    // that level at position 1 (the second watch).  Clear every Seen flag
    // before reordering — swapping first would strand the max-level
    // literal's flag set, silently dropping it from the next analysis.
    BtLevel = 0;
    std::size_t MaxPos = 1;
    for (std::size_t K = 1; K < Learnt.size(); ++K) {
      Seen[static_cast<std::size_t>(litVar(Learnt[K]))] = 0;
      int L = Level[static_cast<std::size_t>(litVar(Learnt[K]))];
      if (L > BtLevel) {
        BtLevel = L;
        MaxPos = K;
      }
    }
    if (Learnt.size() > 1)
      std::swap(Learnt[1], Learnt[MaxPos]);
  }
};

CdclSolver::CdclSolver() : P(ThreadSpare<Impl>::acquire()) {}

CdclSolver::~CdclSolver() { ThreadSpare<Impl>::release(P); }

int CdclSolver::newVars(int Count) {
  const int First = NumVars;
  NumVars += Count;
  const std::size_t N = static_cast<std::size_t>(NumVars);
  P->Assign.resize(N, 0);
  P->Level.resize(N, 0);
  P->Reason.resize(N, Impl::NoClause);
  P->Phase.resize(N, -1); // Decide false first (sparse placements).
  P->Activity.resize(N, 0.0);
  // Lists past NumWatches are empty already; growing Watches only when
  // it is short keeps their capacities.
  const std::size_t InUse = P->NumWatches;
  P->NumWatches = 2 * N;
  if (P->Watches.size() < P->NumWatches)
    P->Watches.resize(P->NumWatches);
  for (std::size_t L = InUse; L < P->NumWatches; ++L)
    P->IdleWatchBytes -= heapBytes(P->Watches[L]);
  P->HeapPos.resize(N, -1);
  P->Seen.resize(N, 0);
  P->Model.resize(N, -1);
  for (int V = First; V < NumVars; ++V)
    P->heapInsert(V);
  return First;
}

bool CdclSolver::modelValue(int Var) const {
  return P->Model[static_cast<std::size_t>(Var)] > 0;
}

bool CdclSolver::addClause(std::span<const SatLit> Lits) {
  if (!Ok)
    return false;
  // Clauses are only added at decision level 0 (between solves).  Sort and
  // dedupe into the solver's buffer, then keep the unassigned literals in
  // place (the write index never passes the read index).
  std::vector<SatLit> &Ls = P->AddBuf;
  Ls.assign(Lits.begin(), Lits.end());
  std::sort(Ls.begin(), Ls.end());
  Ls.erase(std::unique(Ls.begin(), Ls.end()), Ls.end());
  std::size_t Kept = 0;
  for (std::size_t I = 0; I < Ls.size(); ++I) {
    if (I + 1 < Ls.size() && Ls[I + 1] == litNot(Ls[I]))
      return true; // Tautology.
    int V = P->val(Ls[I]);
    if (V == 1)
      return true; // Satisfied at level 0.
    if (V == 0)
      Ls[Kept++] = Ls[I];
  }
  Ls.resize(Kept);
  if (Ls.empty()) {
    Ok = false;
    return false;
  }
  if (Ls.size() == 1) {
    P->uncheckedEnqueue(Ls[0], Impl::NoClause);
    if (P->propagate(Stats.Propagations) != Impl::NoClause)
      Ok = false;
    return Ok;
  }
  P->store(Ls, /*IsLearnt=*/false);
  ++NumProblemClauses;
  return true;
}

SatStatus CdclSolver::solve(std::span<const SatLit> Assumptions,
                            const SatLimits &Limits) {
  LastStop = SatStop::None;
  if (!Ok)
    return SatStatus::Unsat;

  Stopwatch Watch;
  FaultInjector &FI = FaultInjector::instance();
  const std::int64_t ConflictsStart = Stats.Conflicts;
  int RestartNum = 0;
  std::int64_t RestartBudget =
      static_cast<std::int64_t>(luby(2.0, RestartNum) * 64.0);
  std::int64_t ConflictsSinceRestart = 0;
  const std::vector<SatLit> &Learnt = P->LearntBuf;

  auto stop = [&](SatStop Why) {
    LastStop = Why;
    P->cancelUntil(0);
    return SatStatus::Unknown;
  };

  // A budget spent or a token cancelled before the call stops it before
  // any search; the in-search polls below only catch them between
  // conflicts.
  if (Watch.seconds() >= Limits.TimeLimitSec)
    return stop(SatStop::TimeLimit);
  if (Limits.Cancel.cancelled())
    return stop(SatStop::Cancelled);

  for (;;) {
    Impl::ClauseRef Confl = P->propagate(Stats.Propagations);
    if (Confl != Impl::NoClause) {
      ++Stats.Conflicts;
      ++ConflictsSinceRestart;
      if (FI.armed() && FI.shouldFire(FaultSite::SatConflict)) {
        // Injected search death: report nothing proven, never Unsat.
        ++Stats.InjectedFaults;
        return stop(SatStop::Fault);
      }
      if (P->decisionLevel() == 0) {
        Ok = false;
        P->cancelUntil(0);
        return SatStatus::Unsat;
      }
      int BtLevel = 0;
      P->analyze(Confl, BtLevel);
      P->cancelUntil(BtLevel);
      if (Learnt.size() == 1) {
        P->uncheckedEnqueue(Learnt[0], Impl::NoClause);
      } else {
        const Impl::ClauseRef C = P->store(Learnt, /*IsLearnt=*/true);
        ++Stats.LearnedClauses;
        Stats.LearnedLiterals += static_cast<std::int64_t>(Learnt.size());
        P->uncheckedEnqueue(Learnt[0], C);
      }
      P->VarInc /= Impl::VarDecay;

      if (Stats.Conflicts - ConflictsStart >= Limits.ConflictLimit)
        return stop(SatStop::ConflictLimit);
      if ((ConflictsSinceRestart & 63) == 0) {
        if (Watch.seconds() >= Limits.TimeLimitSec)
          return stop(SatStop::TimeLimit);
        if (Limits.Cancel.cancelled())
          return stop(SatStop::Cancelled);
      }
    } else {
      if (ConflictsSinceRestart >= RestartBudget) {
        ++Stats.Restarts;
        ++RestartNum;
        RestartBudget =
            static_cast<std::int64_t>(luby(2.0, RestartNum) * 64.0);
        ConflictsSinceRestart = 0;
        P->cancelUntil(0);
        if (Watch.seconds() >= Limits.TimeLimitSec)
          return stop(SatStop::TimeLimit);
        if (Limits.Cancel.cancelled())
          return stop(SatStop::Cancelled);
        continue;
      }

      SatLit Next = -1;
      while (P->decisionLevel() < static_cast<int>(Assumptions.size())) {
        SatLit A =
            Assumptions[static_cast<std::size_t>(P->decisionLevel())];
        int V = P->val(A);
        if (V == 1) {
          // Already implied; open a dummy level to keep indices aligned.
          P->TrailLim.push_back(static_cast<int>(P->Trail.size()));
        } else if (V == -1) {
          // Assumption contradicted by learned/problem clauses: unsat
          // under these assumptions (the instance itself may stay sat).
          P->cancelUntil(0);
          return SatStatus::Unsat;
        } else {
          Next = A;
          break;
        }
      }
      if (Next == -1) {
        int Var = -1;
        while (!P->Heap.empty()) {
          int Cand = P->heapPop();
          if (P->Assign[static_cast<std::size_t>(Cand)] == 0) {
            Var = Cand;
            break;
          }
        }
        if (Var == -1) {
          // Every variable assigned: a model.
          P->Model = P->Assign;
          P->cancelUntil(0);
          return SatStatus::Sat;
        }
        ++Stats.Decisions;
        Next = mkLit(Var, P->Phase[static_cast<std::size_t>(Var)] < 0);
      }
      P->TrailLim.push_back(static_cast<int>(P->Trail.size()));
      P->uncheckedEnqueue(Next, Impl::NoClause);
    }
  }
}
