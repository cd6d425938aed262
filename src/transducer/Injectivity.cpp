//===- transducer/Injectivity.cpp ------------------------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "transducer/Injectivity.h"

#include "automata/Ambiguity.h"

#include "solver/SolverContext.h"
#include "support/Metrics.h"
#include "support/Result.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "term/TermClone.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>

using namespace genic;

namespace {

/// Guard of rule \p T with the second copy of the input variables shifted
/// by \p Delta: phi(x_Delta .. x_{Delta+l-1}).
TermRef shiftedGuard(TermFactory &F, const SeftTransition &T, unsigned Delta,
                     const Type &InputType) {
  std::vector<TermRef> Repl(T.Lookahead);
  for (unsigned I = 0; I < T.Lookahead; ++I)
    Repl[I] = F.mkVar(Delta + I, InputType);
  return F.substitute(T.Guard, Repl);
}

TermRef shiftedOutput(TermFactory &F, const SeftTransition &T, unsigned J,
                      unsigned Delta, const Type &InputType) {
  std::vector<TermRef> Repl(T.Lookahead);
  for (unsigned I = 0; I < T.Lookahead; ++I)
    Repl[I] = F.mkVar(Delta + I, InputType);
  return F.substitute(T.Outputs[J], Repl);
}

/// Lemma 4.7 formula for one rule:
///   x != x'  /\  phi(x) /\ phi(x')  /\  f(x) = f(x')
/// with x at Var(0..L-1) and x' at Var(L..2L-1).
TermRef transitionInjectivityQuery(TermFactory &F, const SeftTransition &T,
                                   const Type &InputType) {
  unsigned L = T.Lookahead;
  std::vector<TermRef> Distinct;
  for (unsigned I = 0; I < L; ++I)
    Distinct.push_back(
        F.mkDistinct(F.mkVar(I, InputType), F.mkVar(L + I, InputType)));
  std::vector<TermRef> Conjuncts{F.mkOr(std::move(Distinct)), T.Guard,
                                 shiftedGuard(F, T, L, InputType)};
  for (unsigned J = 0, K = T.Outputs.size(); J != K; ++J)
    Conjuncts.push_back(
        F.mkEq(T.Outputs[J], shiftedOutput(F, T, J, L, InputType)));
  return F.mkAnd(std::move(Conjuncts));
}

/// Builds the Lemma 4.7 query for rule \p Index in \p S and, when
/// satisfiable, extracts the conflicting input tuples.
Result<std::optional<TransitionInjectivityViolation>>
queryTransition(const Seft &A, Solver &S, unsigned Index) {
  const SeftTransition &T = A.transitions()[Index];
  unsigned L = T.Lookahead;
  TermRef Query = transitionInjectivityQuery(S.factory(), T, A.inputType());
  Result<bool> Sat = S.isSat(Query);
  if (!Sat)
    return Sat.status();
  if (!*Sat)
    return std::optional<TransitionInjectivityViolation>(std::nullopt);
  std::vector<Type> Types(2 * L, A.inputType());
  Result<std::vector<Value>> M = S.getModel(Query, Types);
  if (!M)
    return M.status();
  TransitionInjectivityViolation V;
  V.Transition = Index;
  V.InputA.assign(M->begin(), M->begin() + L);
  V.InputB.assign(M->begin() + L, M->begin() + 2 * L);
  return std::optional<TransitionInjectivityViolation>(V);
}

/// One chunk of the Lemma 4.7 scan: leases a session, primes the chunk's
/// query batch, and walks the rules until the first event (sat or solver
/// error). Null \p Cutoff (the out-of-process shard path) only skips
/// cross-chunk pruning; the returned first event is unchanged.
size_t scanRuleRange(const Seft &A, const std::vector<unsigned> &Rules,
                     size_t Begin, size_t End, SolverSessionPool &Pool,
                     std::atomic<size_t> *Cutoff) {
  const auto &Ts = A.transitions();
  MetricsPhaseScope WorkerPhase("ti");
  SolverSessionPool::Lease Sess = Pool.lease();
  // The Lemma 4.7 query of rule K, built in the session's factory
  // (hash-consed, so the batch and the scan share memo keys).
  auto QueryOf = [&](size_t K) {
    const SeftTransition &T = Ts[Rules[K]];
    SeftTransition Local;
    Local.From = T.From;
    Local.To = T.To;
    Local.Lookahead = T.Lookahead;
    Local.Guard = Sess->Import.clone(T.Guard);
    for (TermRef O : T.Outputs)
      Local.Outputs.push_back(Sess->Import.clone(O));
    return transitionInjectivityQuery(Sess->Factory, Local, A.inputType());
  };
  // Coalesce the chunk's Lemma 4.7 queries into one selector-literal
  // batch; the scan below then answers from the session's sat memo.
  // Unknowns fall back to the individual isSat calls, so verdicts are
  // unchanged.
  if (End - Begin > 1) {
    std::vector<TermRef> Queries;
    for (size_t K = Begin; K != End; ++K)
      Queries.push_back(QueryOf(K));
    Sess->Slv.checkSatBatch(Queries);
  }
  for (size_t K = Begin; K != End; ++K) {
    if (Cutoff && K > Cutoff->load(std::memory_order_relaxed))
      continue;
    TermRef Query = QueryOf(K);
    Result<bool> Sat = Sess->Slv.isSat(Query);
    if (Sat && !*Sat)
      continue;
    if (Cutoff) {
      size_t Cur = Cutoff->load(std::memory_order_relaxed);
      while (K < Cur && !Cutoff->compare_exchange_weak(
                            Cur, K, std::memory_order_relaxed)) {
      }
    }
    return K;
  }
  return SIZE_MAX;
}

} // namespace

std::vector<unsigned> genic::transitionInjectivityRules(const Seft &A) {
  const auto &Ts = A.transitions();
  std::vector<unsigned> Rules;
  for (unsigned Index = 0, E = Ts.size(); Index != E; ++Index)
    if (Ts[Index].Lookahead != 0)
      Rules.push_back(Index);
  return Rules;
}

size_t genic::scanTransitionInjectivityShard(const Seft &A,
                                             const std::vector<unsigned> &Rules,
                                             SolverSessionPool &Pool,
                                             size_t Begin, size_t End) {
  return scanRuleRange(A, Rules, Begin, End, Pool, nullptr);
}

Result<std::optional<TransitionInjectivityViolation>>
genic::checkTransitionInjectivity(const Seft &A, Solver &S) {
  const auto &Ts = A.transitions();
  for (unsigned Index = 0, E = Ts.size(); Index != E; ++Index) {
    if (Ts[Index].Lookahead == 0)
      continue; // No inputs to conflate.
    Result<std::optional<TransitionInjectivityViolation>> R =
        queryTransition(A, S, Index);
    if (!R)
      return R;
    if (R->has_value())
      return R;
  }
  return std::optional<TransitionInjectivityViolation>(std::nullopt);
}

Result<std::optional<TransitionInjectivityViolation>>
genic::checkTransitionInjectivity(const Seft &A, Solver &S,
                                  const InjectivityOptions &Opts) {
  MetricsPhaseScope Phase("ti");
  TraceSpan ScanSpan("ti.scan");
  std::vector<unsigned> Rules = transitionInjectivityRules(A);
  if (Rules.empty())
    return std::optional<TransitionInjectivityViolation>(std::nullopt);
  if (S.cancellation().cancelled())
    return Status::cancelled(
        "transition-injectivity check: global deadline exhausted");

  SolverSessionPool LocalPool(S);
  SolverSessionPool &Pool = Opts.Sessions ? *Opts.Sessions : LocalPool;

  // Verdict-only scan in pooled sessions or worker processes; the first
  // rule with an event (violation or error) is recomputed in the shared
  // session, which also produces the witness model — identical for every
  // Jobs value and worker count.
  std::atomic<size_t> Cutoff{SIZE_MAX};
  Result<std::vector<uint64_t>> Events = runShardChunks<uint64_t>(
      "transition-injectivity", Rules.size(), Opts.Jobs, Opts.Workers,
      ScanSpan,
      [&](size_t Begin, size_t End, ShardDispatcher *W) -> Result<uint64_t> {
        if (W)
          return W->transitionInjectivityShard(Begin, End);
        return scanRuleRange(A, Rules, Begin, End, Pool, &Cutoff);
      });
  if (!Events)
    return Events.status();
  size_t Min = *std::min_element(Events->begin(), Events->end());
  if (Min == SIZE_MAX)
    return std::optional<TransitionInjectivityViolation>(std::nullopt);
  // Serial recheck from the event onward (normally returns immediately;
  // continuing covers a shared/worker answer mismatch on flaky timeouts).
  for (size_t K = Min; K != Rules.size(); ++K) {
    Result<std::optional<TransitionInjectivityViolation>> R =
        queryTransition(A, S, Rules[K]);
    if (!R)
      return R;
    if (R->has_value())
      return R;
  }
  return std::optional<TransitionInjectivityViolation>(std::nullopt);
}

Result<CartesianSefa>
genic::buildOutputAutomaton(const Seft &A, Solver &S,
                            const InjectivityOptions &Opts) {
  MetricsPhaseScope Phase("cegar");
  TraceSpan ProjSpan("cegar.projections");
  const auto &Ts = A.transitions();

  // One task per (rule, output position): the per-position projections are
  // independent and are most of the automaton's cost, so this is the grain
  // that parallelizes the pipeline. Each task gets a fresh private fork of
  // the shared factory — not a pooled session — because its result is a
  // term: every fork is created at the same frozen parent state, so a
  // fork's history is a pure function of its rule and the projection's
  // structure cannot depend on which tasks ran before it on the same
  // thread. Forking shares the rule's guard and outputs by pointer, so task
  // setup clones nothing. A fork builds its Z3 context on its first query,
  // on the pool thread, and drops it when its task ends; only the factory
  // stays alive for the clone-back below. A projection the shared session
  // already knows (an earlier build on this program recorded it) gets no
  // fork: a warm request builds the automaton without a solver query.
  struct ProjTask {
    std::unique_ptr<SolverContext> Ctx; // null when the memo answered
    ImagePredicate P{nullptr, {}, 0};
    unsigned J = 0;
    Result<std::optional<TermRef>> Psi =
        Status::error("projection task did not run");
  };
  std::vector<ProjTask> Tasks;
  size_t Forked = 0;
  for (unsigned Index = 0, E = Ts.size(); Index != E; ++Index) {
    const SeftTransition &T = Ts[Index];
    for (unsigned J = 0, K = T.Outputs.size(); J != K; ++J) {
      ProjTask Task;
      Task.P.Guard = T.Guard;
      Task.P.Outputs.assign(T.Outputs.begin(), T.Outputs.end());
      Task.P.NumInputs = T.Lookahead;
      Task.J = J;
      if (const std::optional<TermRef> *Known =
              S.cachedProjection(Task.P, J)) {
        Task.Psi = *Known;
      } else {
        Task.Ctx = std::make_unique<SolverContext>(S.factory(), S);
        ++Forked;
      }
      Tasks.push_back(std::move(Task));
    }
  }

  ThreadPool TP(std::min<size_t>(std::max(1u, Opts.Jobs), Forked), "proj");
  {
    FreezeGuard Quiesce(S.factory());
    for (ProjTask &Task : Tasks) {
      if (!Task.Ctx)
        continue;
      ProjTask *T = &Task;
      TP.submit([T] {
        MetricsPhaseScope WorkerPhase("cegar");
        T->Psi = T->Ctx->solver().project(T->P, T->J);
        T->Ctx->solver().drainStats();
        T->Ctx->solver().releaseBackend();
      });
    }
    TP.wait();
  }

  // Merge in rule/position order: projections clone back into the shared
  // factory (structurally identical terms re-intern to identical TermRefs,
  // preserving the ambiguity check's guard dedup) and into the shared
  // session's projection memo, and the empty-output
  // epsilon gates run on the shared solver exactly as in the serial order.
  // A projection with no closed form enters as its existential predicate
  // phi(w) /\ Var(0) = f_J(w): the Lemma 4.14 product only asks whether
  // guards are satisfiable, whether two overlap, and for a model of their
  // conjunction, so the witnesses w stay free. They are renamed apart per
  // (rule, position) in this order, so every process that builds the
  // automaton from the same program builds the same terms.
  CartesianSefa Out(A.numStates(), A.initial(), A.outputType());
  TermFactory &F = S.factory();
  TermCloner Back(F);
  unsigned NextWitness = 1;
  size_t TaskIdx = 0;
  for (unsigned Index = 0, E = Ts.size(); Index != E; ++Index) {
    const SeftTransition &T = Ts[Index];
    SefaTransition NT;
    NT.From = T.From;
    NT.To = T.To == Seft::FinalState ? CartesianSefa::FinalState : T.To;
    NT.Id = Index;
    if (!T.Outputs.empty()) {
      // Per-position guards. When the rule's image predicate is Cartesian
      // (Definition 4.12) their conjunction is exact; otherwise it
      // over-approximates, which keeps the check sound for the
      // "injective" verdict (every true path stays accepting), and
      // ambiguity witnesses are validated against the real transducer
      // before being reported (checkInjectivity below). The expensive
      // Sigma_2 Cartesian query is thereby avoided on the happy path.
      for (unsigned J = 0, K = T.Outputs.size(); J != K; ++J) {
        ProjTask &Task = Tasks[TaskIdx++];
        Result<std::optional<TermRef>> Psi = std::move(Task.Psi);
        if (Psi && Task.Ctx) {
          if (*Psi)
            Psi = std::optional<TermRef>(Back.clone(**Psi));
          S.recordProjection(Task.P, Task.J, *Psi);
        }
        if (!Psi)
          // The fork's projection failed (worker-scoped fault, flaky
          // timeout). Retry once in the shared session — a fresh attempt
          // with the full budget whose query history is jobs-independent —
          // so a transient worker failure doesn't abort the phase and the
          // outcome stays identical across --jobs values.
          Psi = S.project(Task.P, Task.J);
        if (!Psi)
          return Psi.status();
        if (*Psi) {
          NT.Guards.push_back(**Psi);
          continue;
        }
        NT.Guards.push_back(F.mkAnd(
            shiftedGuard(F, T, NextWitness, A.inputType()),
            F.mkEq(F.mkVar(0, T.Outputs[J]->type()),
                   shiftedOutput(F, T, J, NextWitness, A.inputType()))));
        NextWitness += T.Lookahead;
      }
    } else {
      // Empty output: an epsilon transition guarded by the satisfiability
      // of the rule's guard; trim() in the ambiguity check drops it when
      // the rule can never fire.
      Result<bool> Sat = S.isSat(T.Guard);
      if (!Sat)
        return Sat.status();
      if (!*Sat) {
        continue;
      }
    }
    Out.addTransition(std::move(NT));
  }
  return Out;
}

Result<CartesianSefa> genic::buildOutputAutomaton(
    const Seft &A, Solver &S, bool, const InjectivityOptions &Opts) {
  return buildOutputAutomaton(A, S, Opts);
}

Result<InputContext> genic::sampleInputContext(const Seft &A, Solver &S,
                                               unsigned ViaState) {
  const auto &Ts = A.transitions();
  auto Extend = [&](const ValueList &Prefix,
                    const SeftTransition &T) -> Result<ValueList> {
    std::vector<Type> Types(T.Lookahead, A.inputType());
    Result<std::vector<Value>> M = S.getModel(T.Guard, Types);
    if (!M)
      return M.status();
    ValueList W = Prefix;
    W.insert(W.end(), M->begin(), M->end());
    return W;
  };

  std::vector<std::optional<ValueList>> Forward(A.numStates());
  Forward[A.initial()] = ValueList{};
  std::deque<unsigned> Work{A.initial()};
  while (!Work.empty()) {
    unsigned P = Work.front();
    Work.pop_front();
    for (const SeftTransition &T : Ts) {
      if (T.From != P || T.To == Seft::FinalState || Forward[T.To])
        continue;
      Result<bool> Sat = S.isSat(T.Guard);
      if (!Sat)
        return Sat.status();
      if (!*Sat)
        continue;
      Result<ValueList> W = Extend(*Forward[P], T);
      if (!W)
        return W.status();
      Forward[T.To] = *W;
      Work.push_back(T.To);
    }
  }
  if (!Forward[ViaState])
    return Status::error("sampleInputContext: state unreachable");

  std::vector<std::optional<ValueList>> Backward(A.numStates());
  for (const SeftTransition &T : Ts) {
    if (T.To != Seft::FinalState || Backward[T.From])
      continue;
    Result<bool> Sat = S.isSat(T.Guard);
    if (!Sat)
      return Sat.status();
    if (!*Sat)
      continue;
    Result<ValueList> W = Extend(ValueList{}, T);
    if (!W)
      return W.status();
    Backward[T.From] = *W;
    Work.push_back(T.From);
  }
  while (!Work.empty()) {
    unsigned Q = Work.front();
    Work.pop_front();
    for (const SeftTransition &T : Ts) {
      if (T.To != Q || Backward[T.From])
        continue;
      Result<bool> Sat = S.isSat(T.Guard);
      if (!Sat)
        return Sat.status();
      if (!*Sat)
        continue;
      Result<ValueList> Middle = Extend(ValueList{}, T);
      if (!Middle)
        return Middle.status();
      ValueList W = *Middle;
      W.insert(W.end(), Backward[Q]->begin(), Backward[Q]->end());
      Backward[T.From] = W;
      Work.push_back(T.From);
    }
  }
  if (!Backward[ViaState])
    return Status::error(
        "sampleInputContext: state cannot reach a finalizer");
  return InputContext{*Forward[ViaState], *Backward[ViaState]};
}

namespace {

/// Reconstructs an input list whose run follows \p Path (a sequence of rule
/// indices) and produces exactly \p OutputWord: for each rule, solves for an
/// input tuple matching the consumed output symbols.
Result<ValueList> inputForPath(const Seft &A, Solver &S,
                               const std::vector<unsigned> &Path,
                               const ValueList &OutputWord) {
  TermFactory &F = S.factory();
  ValueList Input;
  size_t Pos = 0;
  for (unsigned Id : Path) {
    const SeftTransition &T = A.transitions()[Id];
    if (Pos + T.Outputs.size() > OutputWord.size())
      return Status::error("inputForPath: path produces too many symbols");
    std::vector<TermRef> Conjuncts{T.Guard};
    for (size_t J = 0, K = T.Outputs.size(); J != K; ++J)
      Conjuncts.push_back(
          F.mkEq(T.Outputs[J], F.mkConst(OutputWord[Pos + J])));
    Pos += T.Outputs.size();
    if (T.Lookahead == 0)
      continue;
    std::vector<Type> Types(T.Lookahead, A.inputType());
    Result<std::vector<Value>> M =
        S.getModel(F.mkAnd(std::move(Conjuncts)), Types);
    if (!M)
      return M.status();
    Input.insert(Input.end(), M->begin(), M->end());
  }
  if (Pos != OutputWord.size())
    return Status::error("inputForPath: path produces too few symbols");
  return Input;
}

} // namespace

Result<InjectivityResult> genic::checkInjectivity(const Seft &A, Solver &S) {
  return checkInjectivity(A, S, InjectivityOptions());
}

Result<InjectivityResult>
genic::checkInjectivity(const Seft &A, Solver &S,
                        const InjectivityOptions &Opts) {
  // One warm session pool and one overlap cache serve every phase.
  InjectivityOptions Eff = Opts;
  std::optional<SolverSessionPool> LocalPool;
  if (!Eff.Sessions) {
    LocalPool.emplace(S.factory(), S);
    Eff.Sessions = &*LocalPool;
  }
  std::optional<GuardOverlapCache> LocalOverlaps;
  if (!Eff.Overlaps) {
    LocalOverlaps.emplace();
    Eff.Overlaps = &*LocalOverlaps;
  }

  // Part 1: transition-injectivity (Lemma 4.7).
  Result<std::optional<TransitionInjectivityViolation>> TI =
      checkTransitionInjectivity(A, S, Eff);
  if (!TI)
    return TI.status();
  if (TI->has_value()) {
    const TransitionInjectivityViolation &V = **TI;
    const SeftTransition &T = A.transitions()[V.Transition];
    InjectivityResult R;
    R.Injective = false;
    R.Detail = "rule " + std::to_string(V.Transition) +
               " is not injective: inputs " + toString(V.InputA) + " and " +
               toString(V.InputB) + " produce the same output";
    // Embed the conflicting tuples into full input lists sharing a prefix
    // and suffix; both lists then transduce to the same output.
    Result<InputContext> Ctx = sampleInputContext(A, S, T.From);
    if (Ctx) {
      ValueList U1 = Ctx->Prefix, U2 = Ctx->Prefix;
      U1.insert(U1.end(), V.InputA.begin(), V.InputA.end());
      U2.insert(U2.end(), V.InputB.begin(), V.InputB.end());
      if (T.To != Seft::FinalState) {
        Result<InputContext> After = sampleInputContext(A, S, T.To);
        if (!After)
          return After.status();
        U1.insert(U1.end(), After->Suffix.begin(), After->Suffix.end());
        U2.insert(U2.end(), After->Suffix.begin(), After->Suffix.end());
      }
      R.Witness = {U1, U2};
    }
    return R;
  }

  // Part 2: path-injectivity via ambiguity of the output automaton
  // (Lemmas 4.10 and 4.14), CEGAR-style: the automaton's guards are exact,
  // so a witness that no input realizes means some rule's image predicate
  // is not Cartesian, and the instance falls outside the decidable
  // fragment.
  if (S.cancellation().cancelled())
    return Status::cancelled(
        "injectivity CEGAR loop: global deadline exhausted");
  // Worker processes build their copy of the product while we build ours,
  // so no ambiguity shard waits on a build.
  if (Eff.Workers && Eff.Workers->procs() > 0)
    Eff.Workers->prepareAmbiguity();
  Result<CartesianSefa> AO = buildOutputAutomaton(A, S, Eff);
  if (!AO)
    return AO.status();
  AmbiguityOptions AmbOpts;
  AmbOpts.Jobs = Eff.Jobs;
  AmbOpts.Sessions = Eff.Sessions;
  AmbOpts.Overlaps = Eff.Overlaps;
  AmbOpts.Workers = Eff.Workers;
  Result<std::optional<AmbiguityWitness>> Amb =
      checkAmbiguity(*AO, S, AmbOpts);
  if (!Amb)
    return Amb.status();
  if (!Amb->has_value())
    return InjectivityResult{true, std::nullopt, ""};

  const AmbiguityWitness &W = **Amb;
  InjectivityResult R;
  R.Injective = false;
  R.Detail = "two accepting paths produce the output " + toString(W.Word);
  if (W.PathA.empty() && W.PathB.empty()) {
    R.Detail += " (epsilon-cycle ambiguity: unboundedly many paths)";
    return R;
  }
  Result<ValueList> U1 = inputForPath(A, S, W.PathA, W.Word);
  Result<ValueList> U2 = inputForPath(A, S, W.PathB, W.Word);
  if (!U1 || !U2)
    return Status::error(
        "ambiguity witness " + toString(W.Word) +
        " could not be realized by concrete inputs; some rule's output "
        "predicate is not Cartesian, so injectivity is undecidable here "
        "(Theorems 4.8/4.16)");
  R.Witness = {*U1, *U2};
  return R;
}
