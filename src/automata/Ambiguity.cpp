//===- automata/Ambiguity.cpp ----------------------------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the Lemma 4.14 ambiguity check. The pipeline:
///
///   1. trim            — drop unsatisfiable transitions and dead states
///   2. expand          — split lookahead-k transitions into k lookahead-1
///                        "pieces" through fresh chain states; lookahead-0
///                        transitions become epsilon edges / finalizers
///   3. epsilon cycles  — a reachable, co-reachable epsilon cycle accepts
///                        some list by unboundedly many paths: ambiguous
///   4. epsilon removal — compose epsilon edges (reverse-topological order)
///                        and fold "piece; epsilon-finalizer" into
///                        lookahead-1 finalizer pieces
///   5. product search  — BFS over (p, q, diverged) configurations; a
///                        diverged accepting configuration is a witness
///
/// Path identity follows Definition 3.4: two runs are distinct iff they fire
/// a different rule (piece) at some step, so the product tracks piece
/// identity, and compositions get fresh identities.
///
//===----------------------------------------------------------------------===//

#include "automata/Ambiguity.h"

#include "support/Metrics.h"
#include "support/Trace.h"
#include "term/TermClone.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <unordered_map>
#include <unordered_set>

using namespace genic;

namespace {

/// Caches per-guard and per-guard-pair satisfiability.
class GuardOracle {
public:
  GuardOracle(Solver &S) : S(S) {}

  Result<bool> isSat(TermRef G) {
    auto It = Unary.find(G);
    if (It != Unary.end())
      return It->second;
    Result<bool> R = S.isSat(G);
    if (R)
      Unary.emplace(G, *R);
    return R;
  }

  Result<bool> overlap(TermRef A, TermRef B) {
    if (A == B)
      return isSat(A);
    auto Key = std::minmax(A, B);
    auto It = Pairs.find(Key);
    if (It != Pairs.end())
      return It->second;
    Result<bool> R = S.isSat(S.factory().mkAnd(A, B));
    if (R)
      Pairs.emplace(Key, *R);
    return R;
  }

  Solver &S;

private:
  std::unordered_map<TermRef, bool> Unary;
  std::map<std::pair<TermRef, TermRef>, bool> Pairs;
};

/// A value satisfying \p Guard (a unary predicate over Var(0)).
Result<Value> guardModel(Solver &S, TermRef Guard, const Type &InputType) {
  Result<std::vector<Value>> M = S.getModel(Guard, {InputType});
  if (!M)
    return M.status();
  return (*M)[0];
}

} // namespace

Result<CartesianSefa> genic::trim(const CartesianSefa &A, Solver &S) {
  GuardOracle Oracle(S);
  const auto &Ts = A.transitions();

  // A transition is traversable iff each of its unary guards is satisfiable
  // (guards at different positions are independent in a Cartesian s-EFA).
  std::vector<bool> Traversable(Ts.size(), true);
  for (size_t I = 0, E = Ts.size(); I != E; ++I)
    for (TermRef G : Ts[I].Guards) {
      Result<bool> Sat = Oracle.isSat(G);
      if (!Sat)
        return Sat.status();
      if (!*Sat) {
        Traversable[I] = false;
        break;
      }
    }

  // Forward reachability.
  std::vector<bool> Reached(A.numStates(), false);
  std::deque<unsigned> Work{A.initial()};
  Reached[A.initial()] = true;
  while (!Work.empty()) {
    unsigned P = Work.front();
    Work.pop_front();
    for (size_t I = 0, E = Ts.size(); I != E; ++I) {
      if (!Traversable[I] || Ts[I].From != P)
        continue;
      if (Ts[I].To != CartesianSefa::FinalState && !Reached[Ts[I].To]) {
        Reached[Ts[I].To] = true;
        Work.push_back(Ts[I].To);
      }
    }
  }

  // Backward reachability from finalizers.
  std::vector<bool> CoReached(A.numStates(), false);
  for (size_t I = 0, E = Ts.size(); I != E; ++I)
    if (Traversable[I] && Ts[I].To == CartesianSefa::FinalState &&
        !CoReached[Ts[I].From]) {
      CoReached[Ts[I].From] = true;
      Work.push_back(Ts[I].From);
    }
  while (!Work.empty()) {
    unsigned Q = Work.front();
    Work.pop_front();
    for (size_t I = 0, E = Ts.size(); I != E; ++I) {
      if (!Traversable[I] || Ts[I].To != Q)
        continue;
      if (!CoReached[Ts[I].From]) {
        CoReached[Ts[I].From] = true;
        Work.push_back(Ts[I].From);
      }
    }
  }

  // Renumber live states; always keep the initial state.
  std::vector<unsigned> NewIndex(A.numStates(), ~0u);
  unsigned Count = 0;
  for (unsigned P = 0; P < A.numStates(); ++P)
    if ((Reached[P] && CoReached[P]) || P == A.initial())
      NewIndex[P] = Count++;
  CartesianSefa Out(Count, NewIndex[A.initial()], A.inputType());
  for (size_t I = 0, E = Ts.size(); I != E; ++I) {
    const SefaTransition &T = Ts[I];
    if (!Traversable[I] || NewIndex[T.From] == ~0u ||
        !(Reached[T.From] && CoReached[T.From]))
      continue;
    if (T.To != CartesianSefa::FinalState &&
        (NewIndex[T.To] == ~0u || !(Reached[T.To] && CoReached[T.To])))
      continue;
    SefaTransition NT = T;
    NT.From = NewIndex[T.From];
    if (T.To != CartesianSefa::FinalState)
      NT.To = NewIndex[T.To];
    Out.addTransition(std::move(NT));
  }
  return Out;
}

Result<ValueList> genic::sampleAcceptedVia(const CartesianSefa &A, Solver &S,
                                           unsigned ViaState) {
  const auto &Ts = A.transitions();
  // BFS forward from the initial state, recording the word so far.
  std::vector<std::optional<ValueList>> Forward(A.numStates());
  Forward[A.initial()] = ValueList{};
  std::deque<unsigned> Work{A.initial()};
  auto Extend = [&](const ValueList &Prefix,
                    const SefaTransition &T) -> Result<ValueList> {
    ValueList Word = Prefix;
    for (TermRef G : T.Guards) {
      Result<Value> V = guardModel(S, G, A.inputType());
      if (!V)
        return V.status();
      Word.push_back(*V);
    }
    return Word;
  };
  while (!Work.empty()) {
    unsigned P = Work.front();
    Work.pop_front();
    for (const SefaTransition &T : Ts) {
      if (T.From != P || T.To == CartesianSefa::FinalState ||
          Forward[T.To].has_value())
        continue;
      Result<ValueList> W = Extend(*Forward[P], T);
      if (!W)
        return W;
      Forward[T.To] = *W;
      Work.push_back(T.To);
    }
  }
  if (!Forward[ViaState])
    return Status::error("sampleAcceptedVia: state unreachable");

  // BFS backward from finalizers, recording the suffix.
  std::vector<std::optional<ValueList>> Backward(A.numStates());
  for (const SefaTransition &T : Ts) {
    if (T.To != CartesianSefa::FinalState || Backward[T.From])
      continue;
    Result<ValueList> W = Extend(ValueList{}, T);
    if (!W)
      return W;
    Backward[T.From] = *W;
    Work.push_back(T.From);
  }
  while (!Work.empty()) {
    unsigned Q = Work.front();
    Work.pop_front();
    for (const SefaTransition &T : Ts) {
      if (T.To != Q || Backward[T.From])
        continue;
      Result<ValueList> Middle = Extend(ValueList{}, T);
      if (!Middle)
        return Middle;
      ValueList W = *Middle;
      W.insert(W.end(), Backward[Q]->begin(), Backward[Q]->end());
      Backward[T.From] = W;
      Work.push_back(T.From);
    }
  }
  if (!Backward[ViaState])
    return Status::error("sampleAcceptedVia: state cannot reach a finalizer");
  ValueList Out = *Forward[ViaState];
  Out.insert(Out.end(), Backward[ViaState]->begin(),
             Backward[ViaState]->end());
  return Out;
}

namespace {

/// A lookahead-1 fragment of an expanded transition.
struct Piece {
  unsigned From;
  unsigned To; // CartesianSefa::FinalState for finalizer pieces.
  TermRef Guard;
  unsigned Id;
  /// Original transition ids (SefaTransition::Id) completed by taking this
  /// piece; compositions concatenate, so walking a product path and
  /// concatenating Completed reconstructs the original path.
  std::vector<unsigned> Completed;
};

/// A lookahead-0 finalizer: accept immediately at state At.
struct Fin0Entry {
  unsigned At;
  unsigned Id;
  std::vector<unsigned> Completed;
};

/// The expanded, epsilon-free form used by the product search.
struct Expanded {
  unsigned NumStates = 0;
  unsigned Initial = 0;
  std::vector<Piece> Steps;      // To != FinalState, consume one symbol.
  std::vector<Piece> Finishers;  // To == FinalState, consume one symbol.
  std::vector<Fin0Entry> Fin0;   // Accept with zero remaining symbols.
};

struct EpsEdge {
  unsigned From;
  unsigned To;
  unsigned OrigId;
};

/// One (p, q, diverged) configuration of the product frontier. It is the
/// wire record too, so a chunk ships to a worker without conversion.
using Config = AmbShardConfig;

/// Dense key of a product configuration.
uint64_t productKey(const Expanded &X, unsigned P, unsigned Q, bool D) {
  return (static_cast<uint64_t>(P) * X.NumStates + Q) * 2 + (D ? 1 : 0);
}

/// Everything the product search runs on, derived deterministically from
/// the input automaton: the trimmed automaton, the expanded epsilon-free
/// pieces with their adjacency, and — when ambiguity is already decided
/// during construction (epsilon cycle, duplicate empty-word acceptance) —
/// the ready-made witness. Coordinator and out-of-process workers build
/// this independently from their own copies of the program; fingerprint()
/// guards against the two derivations disagreeing.
struct ProductSearch {
  explicit ProductSearch(CartesianSefa A) : A(std::move(A)) {}

  CartesianSefa A;
  Expanded X;
  std::vector<std::vector<size_t>> StepsFrom, FinishersFrom;
  std::optional<AmbiguityWitness> Early;

  /// FNV-1a over the product's structure: state counts and every piece's
  /// endpoints, identity, and completed-rule list. Guards are excluded
  /// (they are factory-local pointers) — topology plus identities already
  /// pins the derivation, since both sides build the product by the same
  /// deterministic construction from the same source text.
  uint64_t fingerprint() const {
    uint64_t H = 1469598103934665603ull;
    auto Mix = [&H](uint64_t V) {
      for (int B = 0; B < 8; ++B) {
        H ^= (V >> (8 * B)) & 0xff;
        H *= 1099511628211ull;
      }
    };
    Mix(X.NumStates);
    Mix(X.Initial);
    Mix(X.Steps.size());
    Mix(X.Finishers.size());
    Mix(X.Fin0.size());
    auto MixPiece = [&](unsigned From, unsigned To, unsigned Id,
                        const std::vector<unsigned> &Completed) {
      Mix(From);
      Mix(To);
      Mix(Id);
      Mix(Completed.size());
      for (unsigned C : Completed)
        Mix(C);
    };
    for (const Piece &P : X.Steps)
      MixPiece(P.From, P.To, P.Id, P.Completed);
    for (const Piece &P : X.Finishers)
      MixPiece(P.From, P.To, P.Id, P.Completed);
    for (const Fin0Entry &F : X.Fin0)
      MixPiece(F.At, 0, F.Id, F.Completed);
    return H;
  }
};

/// The chunk body of the level scan, shared verbatim by the in-process
/// path and the worker process so their verdicts cannot drift. Scans the
/// \p Count configurations at \p Cfgs, whose first has absolute frontier
/// index \p CfgBase, and reports the first configuration whose finisher
/// scan produced an event (accepting overlap or solver error) and, for
/// configurations before it, every step-scan discovery in scan order.
/// Step-scan errors are recorded as discoveries rather than ending the
/// chunk, because the merge may legitimately skip them (the serial loop
/// would never have issued the query if the target was already visited by
/// an earlier configuration of the same level). \p IsVisited answers "was
/// this key visited in a prior level" (the visited set is frozen for the
/// whole level); \p Cutoff is the cross-chunk pruning hint — null in a
/// worker process, where pruning would need cross-process traffic. Pruning
/// never changes which index a chunk reports first, only how much wasted
/// tail work runs.
template <typename VisitedPred>
AmbShardResult
scanLevelChunk(const Expanded &X,
               const std::vector<std::vector<size_t>> &StepsFrom,
               const std::vector<std::vector<size_t>> &FinishersFrom,
               GuardOverlapCache &Overlaps, SolverSessionPool &Pool,
               const Config *Cfgs, size_t Count, uint64_t CfgBase,
               const VisitedPred &IsVisited, std::atomic<size_t> *Cutoff) {
  MetricsPhaseScope WorkerPhase("ambiguity");
  SolverSessionPool::Lease Sess = Pool.lease();
  AmbShardResult Out;
  // The overlap query of an ordered guard pair, in the session's factory.
  auto OverlapQuery = [&](const std::pair<TermRef, TermRef> &PK) {
    TermRef A2 = Sess->Import.clone(PK.first);
    return PK.first == PK.second
               ? A2
               : Sess->Factory.mkAnd(A2, Sess->Import.clone(PK.second));
  };
  auto Overlap = [&](TermRef GA, TermRef GB) -> Result<bool> {
    std::pair<TermRef, TermRef> PK = std::minmax(GA, GB);
    if (std::optional<bool> Hit = Overlaps.lookup(PK.first, PK.second))
      return *Hit;
    Result<bool> R = Sess->Slv.isSat(OverlapQuery(PK));
    if (R)
      Overlaps.record(PK.first, PK.second, *R);
    return R;
  };
  // Within-chunk dedup of step targets, mirroring the serial loop's live
  // Visited check for configurations this worker owns.
  std::unordered_set<uint64_t> NewKeys;
  for (size_t Ci = CfgBase; Ci != CfgBase + Count; ++Ci) {
    if (Cutoff && Ci > Cutoff->load(std::memory_order_relaxed))
      continue;
    auto [P, Q, D] = Cfgs[Ci - CfgBase];
    // Coalesce this configuration's uncached guard-overlap queries
    // into one selector-literal batch against the pooled session:
    // the session keeps its product-construction state and only the
    // frontier pairs vary. Purely an accelerator — Sat/Unsat
    // verdicts land in the same shared cache the scans below (and
    // the serial merge) consult, and Unknowns are left for the
    // scans' individual queries, so the outcome is unchanged.
    std::vector<std::pair<TermRef, TermRef>> PKs;
    std::set<std::pair<TermRef, TermRef>> InBatch;
    auto Note = [&](TermRef GA, TermRef GB) {
      std::pair<TermRef, TermRef> PK = std::minmax(GA, GB);
      if (!InBatch.insert(PK).second)
        return;
      if (Overlaps.lookup(PK.first, PK.second))
        return;
      PKs.push_back(PK);
    };
    for (size_t I1 : FinishersFrom[P])
      for (size_t I2 : FinishersFrom[Q]) {
        if (!D && X.Finishers[I1].Id == X.Finishers[I2].Id)
          continue;
        Note(X.Finishers[I1].Guard, X.Finishers[I2].Guard);
      }
    for (size_t I1 : StepsFrom[P])
      for (size_t I2 : StepsFrom[Q]) {
        const Piece &T1 = X.Steps[I1];
        const Piece &T2 = X.Steps[I2];
        uint64_t NK = productKey(X, T1.To, T2.To, D || T1.Id != T2.Id);
        if (IsVisited(NK) || NewKeys.count(NK))
          continue;
        Note(T1.Guard, T2.Guard);
      }
    if (PKs.size() > 1) {
      std::vector<TermRef> Queries;
      Queries.reserve(PKs.size());
      for (const auto &PK : PKs)
        Queries.push_back(OverlapQuery(PK));
      std::vector<SatResult> Verdicts = Sess->Slv.checkSatBatch(Queries);
      for (size_t K = 0; K != PKs.size(); ++K)
        if (Verdicts[K] != SatResult::Unknown)
          Overlaps.record(PKs[K].first, PKs[K].second,
                          Verdicts[K] == SatResult::Sat);
    }
    bool Fin = false;
    for (size_t I1 : FinishersFrom[P]) {
      for (size_t I2 : FinishersFrom[Q]) {
        const Piece &F1 = X.Finishers[I1];
        const Piece &F2 = X.Finishers[I2];
        if (!D && F1.Id == F2.Id)
          continue;
        Result<bool> Olap = Overlap(F1.Guard, F2.Guard);
        if (!Olap || *Olap) {
          Fin = true;
          break;
        }
      }
      if (Fin)
        break;
    }
    if (Fin) {
      // Definitive event: the merge re-runs this configuration's
      // finisher scan in the shared session.
      Out.FinEvent = Ci;
      if (Cutoff) {
        size_t Cur = Cutoff->load(std::memory_order_relaxed);
        while (Ci < Cur && !Cutoff->compare_exchange_weak(
                               Cur, Ci, std::memory_order_relaxed)) {
        }
      }
      break;
    }
    for (size_t I1 : StepsFrom[P])
      for (size_t I2 : StepsFrom[Q]) {
        const Piece &T1 = X.Steps[I1];
        const Piece &T2 = X.Steps[I2];
        uint64_t NK = productKey(X, T1.To, T2.To, D || T1.Id != T2.Id);
        if (IsVisited(NK) || NewKeys.count(NK))
          continue;
        Result<bool> Olap = Overlap(T1.Guard, T2.Guard);
        if (Olap && !*Olap)
          continue;
        if (Olap)
          NewKeys.insert(NK);
        Out.Discoveries.push_back({Ci, I1, I2, /*IsError=*/!Olap});
      }
  }
  return Out;
}

} // namespace

Result<std::optional<AmbiguityWitness>>
genic::checkAmbiguity(const CartesianSefa &Input, Solver &S) {
  return checkAmbiguity(Input, S, AmbiguityOptions());
}

namespace {

/// Steps 1-6 of the Lemma 4.14 decision procedure — trim, expansion into
/// lookahead-1 pieces, epsilon-cycle detection, epsilon elimination, and
/// the empty-word check — i.e. everything before the product search.
/// Shared by checkAmbiguity and the worker-side AmbiguityShardScanner so
/// the two processes provably run the same construction.
Result<ProductSearch> buildProductSearch(const CartesianSefa &Input,
                                         Solver &S) {
  Result<CartesianSefa> Trimmed = trim(Input, S);
  if (!Trimmed)
    return Trimmed.status();
  ProductSearch PS(std::move(*Trimmed));
  const CartesianSefa &A = PS.A;

  // --- Step 2: expansion into pieces --------------------------------------
  Expanded &X = PS.X;
  X.NumStates = A.numStates();
  X.Initial = A.initial();
  std::vector<EpsEdge> Eps;
  unsigned NextId = 0;
  for (const SefaTransition &T : A.transitions()) {
    if (T.lookahead() == 0) {
      if (T.To == CartesianSefa::FinalState)
        X.Fin0.push_back({T.From, NextId++, {T.Id}});
      else
        Eps.push_back({T.From, T.To, T.Id});
      continue;
    }
    unsigned Prev = T.From;
    for (unsigned I = 0, L = T.lookahead(); I != L; ++I) {
      bool Last = I + 1 == L;
      unsigned Next = Last ? T.To : X.NumStates++;
      Piece P{Prev, Next, T.Guards[I], NextId++, {}};
      if (Last)
        P.Completed = {T.Id};
      if (Last && T.To == CartesianSefa::FinalState)
        X.Finishers.push_back(P);
      else
        X.Steps.push_back(P);
      Prev = Next;
    }
  }

  // --- Step 3: epsilon cycles ----------------------------------------------
  // After trimming every remaining original state is reachable and
  // co-reachable, so an epsilon cycle means some accepted list has
  // unboundedly many accepting paths.
  {
    std::vector<std::vector<unsigned>> Adjacent(X.NumStates);
    for (size_t I = 0, E = Eps.size(); I != E; ++I)
      Adjacent[Eps[I].From].push_back(Eps[I].To);
    std::vector<int> Color(X.NumStates, 0);
    std::vector<unsigned> CycleState;
    auto Dfs = [&](auto &&Self, unsigned P) -> bool {
      Color[P] = 1;
      for (unsigned Q : Adjacent[P]) {
        if (Color[Q] == 1) {
          CycleState.push_back(Q);
          return true;
        }
        if (Color[Q] == 0 && Self(Self, Q))
          return true;
      }
      Color[P] = 2;
      return false;
    };
    for (unsigned P = 0; P < A.numStates(); ++P)
      if (Color[P] == 0 && Dfs(Dfs, P)) {
        Result<ValueList> W = sampleAcceptedVia(A, S, CycleState.front());
        if (!W)
          return W.status();
        PS.Early = AmbiguityWitness{*W, {}, {}};
        return PS;
      }
  }

  // --- Step 4: epsilon elimination -----------------------------------------
  // Process epsilon edges in reverse topological order so that the target's
  // outgoing sets are complete when an edge is folded away. Compositions get
  // fresh identities: a path through an epsilon edge differs from the direct
  // path.
  {
    std::vector<std::vector<size_t>> Out(X.NumStates);
    std::vector<unsigned> InDegree(X.NumStates, 0);
    for (size_t I = 0, E = Eps.size(); I != E; ++I) {
      Out[Eps[I].From].push_back(I);
      ++InDegree[Eps[I].To];
    }
    // Kahn's algorithm gives topological order; fold edges from the last
    // state backwards (targets before sources).
    std::vector<unsigned> Order;
    std::deque<unsigned> Ready;
    for (unsigned P = 0; P < X.NumStates; ++P)
      if (InDegree[P] == 0)
        Ready.push_back(P);
    while (!Ready.empty()) {
      unsigned P = Ready.front();
      Ready.pop_front();
      Order.push_back(P);
      for (size_t I : Out[P])
        if (--InDegree[Eps[I].To] == 0)
          Ready.push_back(Eps[I].To);
    }
    assert(Order.size() == X.NumStates && "epsilon cycle missed");
    for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
      unsigned P = *It;
      for (size_t I : Out[P]) {
        unsigned Q = Eps[I].To;
        // Copy Q's outgoing behaviour onto P with fresh identities.
        unsigned ViaId = Eps[I].OrigId;
        auto Prepend = [ViaId](const std::vector<unsigned> &Tail) {
          std::vector<unsigned> Ids{ViaId};
          Ids.insert(Ids.end(), Tail.begin(), Tail.end());
          return Ids;
        };
        size_t NumSteps = X.Steps.size(), NumFin = X.Finishers.size(),
               NumFin0 = X.Fin0.size();
        for (size_t J = 0; J < NumSteps; ++J)
          if (X.Steps[J].From == Q)
            X.Steps.push_back({P, X.Steps[J].To, X.Steps[J].Guard, NextId++,
                               Prepend(X.Steps[J].Completed)});
        for (size_t J = 0; J < NumFin; ++J)
          if (X.Finishers[J].From == Q)
            X.Finishers.push_back(
                {P, CartesianSefa::FinalState, X.Finishers[J].Guard,
                 NextId++, Prepend(X.Finishers[J].Completed)});
        for (size_t J = 0; J < NumFin0; ++J)
          if (X.Fin0[J].At == Q)
            X.Fin0.push_back({P, NextId++, Prepend(X.Fin0[J].Completed)});
      }
    }
  }

  // Fold "step to q; epsilon-finalizer at q" into lookahead-1 finishers.
  {
    std::vector<std::vector<size_t>> Fin0At(X.NumStates);
    for (size_t J = 0, E = X.Fin0.size(); J != E; ++J)
      Fin0At[X.Fin0[J].At].push_back(J);
    size_t NumSteps = X.Steps.size();
    for (size_t J = 0; J < NumSteps; ++J) {
      const Piece &T = X.Steps[J];
      for (size_t K : Fin0At[T.To]) {
        std::vector<unsigned> Ids = T.Completed;
        Ids.insert(Ids.end(), X.Fin0[K].Completed.begin(),
                   X.Fin0[K].Completed.end());
        X.Finishers.push_back({T.From, CartesianSefa::FinalState, T.Guard,
                               NextId++, std::move(Ids)});
      }
    }
  }

  // --- Step 6: empty word ---------------------------------------------------
  std::vector<size_t> InitialFin0;
  for (size_t J = 0, E = X.Fin0.size(); J != E; ++J)
    if (X.Fin0[J].At == X.Initial)
      InitialFin0.push_back(J);
  if (InitialFin0.size() >= 2) {
    PS.Early = AmbiguityWitness{ValueList{}, X.Fin0[InitialFin0[0]].Completed,
                                X.Fin0[InitialFin0[1]].Completed};
    return PS;
  }

  PS.StepsFrom.resize(X.NumStates);
  PS.FinishersFrom.resize(X.NumStates);
  for (size_t I = 0, E = X.Steps.size(); I != E; ++I)
    PS.StepsFrom[X.Steps[I].From].push_back(I);
  for (size_t I = 0, E = X.Finishers.size(); I != E; ++I)
    PS.FinishersFrom[X.Finishers[I].From].push_back(I);
  return PS;
}

} // namespace

Result<std::optional<AmbiguityWitness>>
genic::checkAmbiguity(const CartesianSefa &Input, Solver &S,
                      const AmbiguityOptions &Opts) {
  Result<ProductSearch> Built = buildProductSearch(Input, S);
  if (!Built)
    return Built.status();
  ProductSearch &PS = *Built;
  if (PS.Early)
    return std::optional<AmbiguityWitness>(std::move(*PS.Early));
  const CartesianSefa &A = PS.A;
  const Expanded &X = PS.X;
  const std::vector<std::vector<size_t>> &StepsFrom = PS.StepsFrom;
  const std::vector<std::vector<size_t>> &FinishersFrom = PS.FinishersFrom;
  GuardOracle Oracle(S);

  // --- Step 7: product search ----------------------------------------------
  auto Key = [&](unsigned P, unsigned Q, bool D) -> uint64_t {
    return productKey(X, P, Q, D);
  };
  struct Parent {
    uint64_t PrevKey;
    size_t Step1, Step2; // Indices into X.Steps.
  };
  std::unordered_map<uint64_t, Parent> Visited;
  uint64_t Root = Key(X.Initial, X.Initial, false);
  Visited.emplace(Root, Parent{Root, SIZE_MAX, SIZE_MAX});

  auto BuildWitness =
      [&](uint64_t EndKey, const Piece &Final1,
          const Piece &Final2) -> Result<std::optional<AmbiguityWitness>> {
    // Walk the parent chain to the root, collecting guard pairs and the two
    // original paths.
    std::vector<std::pair<size_t, size_t>> StepPairs;
    uint64_t K = EndKey;
    while (true) {
      const Parent &Par = Visited.at(K);
      if (Par.Step1 == SIZE_MAX)
        break;
      StepPairs.push_back({Par.Step1, Par.Step2});
      K = Par.PrevKey;
    }
    std::reverse(StepPairs.begin(), StepPairs.end());
    ValueList Word;
    std::vector<unsigned> PathA, PathB;
    for (const auto &[I1, I2] : StepPairs) {
      Result<Value> V = guardModel(
          S, S.factory().mkAnd(X.Steps[I1].Guard, X.Steps[I2].Guard),
          A.inputType());
      if (!V)
        return V.status();
      Word.push_back(*V);
      PathA.insert(PathA.end(), X.Steps[I1].Completed.begin(),
                   X.Steps[I1].Completed.end());
      PathB.insert(PathB.end(), X.Steps[I2].Completed.begin(),
                   X.Steps[I2].Completed.end());
    }
    Result<Value> V =
        guardModel(S, S.factory().mkAnd(Final1.Guard, Final2.Guard),
                   A.inputType());
    if (!V)
      return V.status();
    Word.push_back(*V);
    PathA.insert(PathA.end(), Final1.Completed.begin(),
                 Final1.Completed.end());
    PathB.insert(PathB.end(), Final2.Completed.begin(),
                 Final2.Completed.end());
    return std::optional<AmbiguityWitness>(
        AmbiguityWitness{Word, std::move(PathA), std::move(PathB)});
  };

  // The serial reference loop: processes \p Work FIFO to completion exactly
  // as the original algorithm. The parallel search below reproduces its
  // visit order level by level; this loop remains the fallback when a
  // worker verdict and the shared session disagree (a flapped timeout).
  auto RunSerial = [&](std::deque<Config> Work)
      -> Result<std::optional<AmbiguityWitness>> {
    while (!Work.empty()) {
      auto [P, Q, D] = Work.front();
      Work.pop_front();
      uint64_t K = Key(P, Q, D);

      // Accepting check: two finishers firing on the same final symbol.
      for (size_t I1 : FinishersFrom[P])
        for (size_t I2 : FinishersFrom[Q]) {
          const Piece &F1 = X.Finishers[I1];
          const Piece &F2 = X.Finishers[I2];
          if (!D && F1.Id == F2.Id)
            continue;
          Result<bool> Olap = Oracle.overlap(F1.Guard, F2.Guard);
          if (!Olap)
            return Olap.status();
          if (*Olap)
            return BuildWitness(K, F1, F2);
        }

      // Synchronous step on one symbol.
      for (size_t I1 : StepsFrom[P])
        for (size_t I2 : StepsFrom[Q]) {
          const Piece &T1 = X.Steps[I1];
          const Piece &T2 = X.Steps[I2];
          bool NextD = D || T1.Id != T2.Id;
          uint64_t NK = Key(T1.To, T2.To, NextD);
          if (Visited.count(NK))
            continue;
          Result<bool> Olap = Oracle.overlap(T1.Guard, T2.Guard);
          if (!Olap)
            return Olap.status();
          if (!*Olap)
            continue;
          Visited.emplace(NK, Parent{K, I1, I2});
          Work.push_back({T1.To, T2.To, NextD});
        }
    }
    return std::optional<AmbiguityWitness>(std::nullopt);
  };

  // Level-synchronized parallel search. BFS discovery order within a level
  // equals the serial FIFO order, so processing the frontier level by level
  // — workers classify overlaps against a read-only snapshot of Visited,
  // then a serial merge replays their discoveries in configuration order —
  // visits configurations in exactly the serial order. Workers run against
  // pooled sessions and export only verdicts (pooled sessions must not
  // export terms, see SolverSessionPool.h); witnesses are built in the
  // shared session from the original guards, so the result is
  // byte-identical for every Jobs value.
  SolverSessionPool LocalPool(S);
  SolverSessionPool &Pool = Opts.Sessions ? *Opts.Sessions : LocalPool;

  // Overlap verdicts are semantic, so a cache keyed on the original guard
  // TermRefs can be shared by all workers across all levels — and, via
  // AmbiguityOptions::Overlaps, across calls; the mutex cost is trivial
  // against a solver query. Errors are not cached (as in GuardOracle).
  GuardOverlapCache LocalOverlaps;
  GuardOverlapCache &Overlaps =
      Opts.Overlaps ? *Opts.Overlaps : LocalOverlaps;

  MetricsPhaseScope Phase("ambiguity");
  const bool UseWorkers = Opts.Workers && Opts.Workers->procs() > 0;
  const uint64_t ProductFP = UseWorkers ? PS.fingerprint() : 0;
  int64_t LevelIndex = 0;
  std::vector<Config> Level{{X.Initial, X.Initial, false}};
  while (!Level.empty()) {
    TraceSpan LevelSpan("ambiguity.level");
    LevelSpan.arg("level", LevelIndex++);
    LevelSpan.arg("frontier", static_cast<int64_t>(Level.size()));
    if (S.cancellation().cancelled())
      return Status::cancelled(
          "ambiguity product search: global deadline exhausted");
    // Configurations past the earliest finisher event cannot influence the
    // result (the serial loop returns there); in-process chunks skip them.
    // Only finisher events may publish the cutoff — step errors may be
    // skipped at merge, so later configurations must still be processed.
    std::atomic<size_t> Cutoff{SIZE_MAX};
    // A worker process scans against a product it rebuilt from its own copy
    // of the program (fingerprint-checked) and a snapshot of the visited
    // keys, and returns the same record an in-process chunk fills, so the
    // merge below is oblivious to where a chunk was scanned. Its reply is
    // input from another process: indices outside this level or product
    // fail the chunk, and so the phase.
    std::vector<uint64_t> VisitedKeys;
    if (UseWorkers)
      for (const auto &KV : Visited)
        VisitedKeys.push_back(KV.first);
    auto IsVisited = [&Visited](uint64_t K) { return Visited.count(K) != 0; };
    Result<std::vector<AmbShardResult>> Chunks = runShardChunks<
        AmbShardResult>(
        "ambiguity", Level.size(), Opts.Jobs, Opts.Workers, LevelSpan,
        [&](size_t Begin, size_t End,
            ShardDispatcher *W) -> Result<AmbShardResult> {
          if (!W)
            return scanLevelChunk(X, StepsFrom, FinishersFrom, Overlaps, Pool,
                                  Level.data() + Begin, End - Begin, Begin,
                                  IsVisited, &Cutoff);
          Result<AmbShardResult> R = W->ambiguityShard(
              ProductFP, Begin, VisitedKeys,
              std::vector<Config>(Level.begin() + Begin, Level.begin() + End));
          if (!R)
            return R;
          if (R->FinEvent != ShardNoEvent && R->FinEvent >= Level.size())
            return Status::solverError(
                "shard returned an out-of-range finisher event");
          for (const AmbShardDiscovery &D : R->Discoveries)
            if (D.Cfg >= Level.size() || D.I1 >= X.Steps.size() ||
                D.I2 >= X.Steps.size())
              return Status::solverError(
                  "shard returned an out-of-range discovery");
          return R;
        });
    if (!Chunks)
      return Chunks.status();

    uint64_t MinFin = ShardNoEvent;
    for (const AmbShardResult &C : *Chunks)
      MinFin = std::min(MinFin, C.FinEvent);

    // Serial merge: replay discoveries in configuration order (chunks are
    // contiguous, so chunk order concatenates to configuration order) up
    // to the first finisher event. A discovery whose target is already
    // visited is dropped — including errors, which the serial loop would
    // never have queried.
    std::vector<Config> NextLevel;
    for (const AmbShardResult &C : *Chunks)
      for (const AmbShardDiscovery &Disc : C.Discoveries) {
        if (Disc.Cfg >= MinFin)
          break;
        const Config &From = Level[Disc.Cfg];
        const Piece &T1 = X.Steps[Disc.I1];
        const Piece &T2 = X.Steps[Disc.I2];
        bool NextD = From.D || T1.Id != T2.Id;
        uint64_t NK = Key(T1.To, T2.To, NextD);
        if (Visited.count(NK))
          continue;
        if (Disc.IsError) {
          // A worker's overlap query failed (fault, flaky timeout). Retry
          // it in the shared session — a fresh attempt with the full
          // budget whose verdict is jobs-independent — and merge on the
          // real answer; only a shared-session failure aborts the search.
          Result<bool> Olap = Oracle.overlap(T1.Guard, T2.Guard);
          if (!Olap)
            return Olap.status();
          if (!*Olap)
            continue;
        }
        Visited.emplace(NK, Parent{Key(From.P, From.Q, From.D), Disc.I1,
                                   Disc.I2});
        NextLevel.push_back({T1.To, T2.To, NextD});
      }

    if (MinFin != ShardNoEvent) {
      // Re-run the flagged configuration's finisher scan in the shared
      // session; this is where the serial loop would return, and it
      // reproduces the serial witness (or error) exactly.
      auto [P, Q, D] = Level[MinFin];
      uint64_t K = Key(P, Q, D);
      for (size_t I1 : FinishersFrom[P])
        for (size_t I2 : FinishersFrom[Q]) {
          const Piece &F1 = X.Finishers[I1];
          const Piece &F2 = X.Finishers[I2];
          if (!D && F1.Id == F2.Id)
            continue;
          Result<bool> Olap = Oracle.overlap(F1.Guard, F2.Guard);
          if (!Olap)
            return Olap.status();
          if (*Olap)
            return BuildWitness(K, F1, F2);
        }
      // The shared session disagreed with the worker (a flapped timeout):
      // the event evaporated. Finish the search serially from this
      // configuration — correct, just slower; later configurations of this
      // level were (possibly) skipped by workers, so they are re-enqueued
      // ahead of the discoveries already merged.
      std::deque<Config> Work;
      for (size_t Ci = MinFin; Ci != Level.size(); ++Ci)
        Work.push_back(Level[Ci]);
      for (const Config &C : NextLevel)
        Work.push_back(C);
      return RunSerial(std::move(Work));
    }
    Level = std::move(NextLevel);
  }
  return std::optional<AmbiguityWitness>(std::nullopt);
}

//===----------------------------------------------------------------------===//
// AmbiguityShardScanner — the worker-process side of the sharded search.
//===----------------------------------------------------------------------===//

struct AmbiguityShardScanner::Impl {
  explicit Impl(ProductSearch PS) : PS(std::move(PS)) {}
  ProductSearch PS;
  /// Worker-local overlap cache, carried across scan calls (and thus
  /// across levels) like the coordinator's per-check cache. Purely an
  /// accelerator: verdicts are semantic, keyed by guard identity in this
  /// process's factory.
  GuardOverlapCache Overlaps;
};

AmbiguityShardScanner::AmbiguityShardScanner() = default;
AmbiguityShardScanner::~AmbiguityShardScanner() = default;

Result<std::unique_ptr<AmbiguityShardScanner>>
AmbiguityShardScanner::create(const CartesianSefa &Input, Solver &S) {
  Result<ProductSearch> Built = buildProductSearch(Input, S);
  if (!Built)
    return Built.status();
  if (Built->Early)
    return Status::error(
        "ambiguity shard scanner: product is ambiguous before the search "
        "(the coordinator decides such programs without shipping shards)");
  std::unique_ptr<AmbiguityShardScanner> Scanner(new AmbiguityShardScanner());
  Scanner->I = std::make_unique<Impl>(std::move(*Built));
  return Scanner;
}

uint64_t AmbiguityShardScanner::fingerprint() const {
  return I->PS.fingerprint();
}

Result<AmbShardResult>
AmbiguityShardScanner::scan(SolverSessionPool &Pool,
                            const std::vector<uint64_t> &VisitedKeys,
                            uint64_t CfgBase,
                            const std::vector<AmbShardConfig> &LevelChunk) {
  const Expanded &X = I->PS.X;
  for (const Config &C : LevelChunk)
    if (C.P >= X.NumStates || C.Q >= X.NumStates)
      return Status::error(
          "ambiguity shard: configuration names a state outside the product");
  std::unordered_set<uint64_t> Visited(VisitedKeys.begin(),
                                       VisitedKeys.end());
  return scanLevelChunk(
      X, I->PS.StepsFrom, I->PS.FinishersFrom, I->Overlaps, Pool,
      LevelChunk.data(), LevelChunk.size(), CfgBase,
      [&Visited](uint64_t K) { return Visited.count(K) != 0; },
      /*Cutoff=*/nullptr);
}
