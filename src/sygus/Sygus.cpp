//===- sygus/Sygus.cpp -----------------------------------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "sygus/Sygus.h"

#include "support/Metrics.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include "sygus/BitSlice.h"
#include "sygus/Enumerator.h"
#include "term/Eval.h"

#include <random>
#include <set>

using namespace genic;

SygusEngine::SygusEngine(Solver &S, Options O) : S(S), Opts(O) {}

void genic::recordEngineStats(MetricsRegistry &Registry,
                              SolverSessionKind Kind,
                              const CompiledEvalCache::Stats &Eval,
                              const EnumeratorBankStore::Stats &Bank,
                              const SearchStats &Search) {
  const std::string Family = counterFamily(Kind);
  Registry.counter("eval." + Family + ".lookups").add(Eval.Lookups);
  Registry.counter("eval." + Family + ".compiles").add(Eval.Compiles);
  Registry.counter("eval." + Family + ".evals").add(Eval.Evals);
  Registry.counter("bank." + Family + ".reuse_hits").add(Bank.ReuseHits);
  Registry.counter("bank." + Family + ".reuse_misses").add(Bank.ReuseMisses);
  const std::string Sygus = "sygus." + Family;
  Registry.counter(Sygus + ".prepass.runs").add(Search.PrepassRuns);
  Registry.counter(Sygus + ".prepass.hits").add(Search.PrepassHits);
  Registry.counter(Sygus + ".prepass.skipped").add(Search.PrepassSkipped);
  Registry.counter(Sygus + ".candidates").add(Search.Candidates);
  Registry.counter(Sygus + ".lane_evals").add(Search.LaneEvals);
}

void SygusEngine::drainStats() {
  const SolverControl &C = S.control();
  if (C.Metrics)
    recordEngineStats(*C.Metrics, C.Kind, EvalCache.stats(),
                      BankStore.stats(), Search);
  EvalCache.resetStats();
  BankStore.resetStats();
  Search = SearchStats();
}

Result<std::optional<std::vector<Value>>>
SygusEngine::scopedModel(const std::vector<TermRef> &Assumptions,
                         TermRef Flat, const std::vector<Type> &Types,
                         const char *What) {
  Result<std::optional<std::vector<Value>>> M =
      S.modelAssuming(Assumptions, Types);
  if (M)
    return M;
  // Z3's incremental engine can give up on a query its one-shot engine
  // decides; retry the flattened query on a fresh solver before reporting
  // unknown.
  switch (S.checkSat(Flat)) {
  case SatResult::Unsat:
    return std::optional<std::vector<Value>>();
  case SatResult::Unknown:
    return S.unknownStatus(What);
  case SatResult::Sat:
    break;
  }
  Result<std::vector<Value>> Model = S.getModel(Flat, Types);
  if (!Model)
    return Model.status();
  return std::optional<std::vector<Value>>(std::move(*Model));
}

Result<std::vector<std::vector<Value>>>
SygusEngine::sampleInputs(const SynthesisSpec &Spec, unsigned Want) {
  TermFactory &F = S.factory();
  const ImagePredicate &P = Spec.Image;

  // Types of the inputs x0..xn-1: read off the guard/outputs; default to the
  // target's type when an input does not occur (rare).
  std::vector<Type> Types(P.NumInputs, Spec.Target->type());
  {
    std::unordered_set<TermRef> Visited;
    auto Note = [&](auto &&Self, TermRef T) -> void {
      if (!Visited.insert(T).second)
        return;
      if (T->isVar() && T->varIndex() < P.NumInputs)
        Types[T->varIndex()] = T->type();
      for (TermRef C : T->children())
        Self(Self, C);
    };
    Note(Note, F.inlineCalls(P.Guard));
    for (TermRef O : P.Outputs)
      Note(Note, F.inlineCalls(O));
    Note(Note, F.inlineCalls(Spec.Target));
  }

  auto Admissible = [&](const std::vector<Value> &X) {
    if (!EvalCache.evalBool(P.Guard, X))
      return false;
    for (TermRef O : P.Outputs)
      if (!EvalCache.eval(O, X))
        return false;
    return EvalCache.eval(Spec.Target, X).has_value();
  };

  std::set<std::vector<Value>> Seen;
  std::vector<std::vector<Value>> Inputs;
  std::mt19937_64 Rng(Opts.Seed);

  auto RandomValue = [&](const Type &Ty) {
    if (Ty.isBool())
      return Value::boolVal(Rng() & 1);
    if (Ty.isInt()) {
      // Mostly small magnitudes; the occasional wide draw catches
      // overfitting to a narrow band.
      int64_t Span = (Rng() % 8 == 0) ? 1000 : 32;
      return Value::intVal(static_cast<int64_t>(Rng() % (2 * Span + 1)) -
                           Span);
    }
    return Value::bitVecVal(Rng(), Ty.width());
  };

  // Phase 1: native rejection sampling — fast and diverse.
  for (unsigned Attempt = 0;
       Attempt < 8192 && Inputs.size() < Want; ++Attempt) {
    std::vector<Value> X;
    X.reserve(P.NumInputs);
    for (unsigned I = 0; I < P.NumInputs; ++I)
      X.push_back(RandomValue(Types[I]));
    if (!Admissible(X) || !Seen.insert(X).second)
      continue;
    Inputs.push_back(std::move(X));
  }

  // Phase 2: solver models with blocking, for guards rejection sampling
  // cannot hit (e.g. equality-pinned inputs). The caller has asserted the
  // guard on the session; the blocking clauses go into a nested scope, and
  // each sample is one modelAssuming query on the live session, so the
  // loop is bounded at 8 queries (a flat retry after an Unknown aside).
  if (Inputs.empty()) {
    ScopedAssertions Blocking(S);
    std::vector<TermRef> Flat{P.Guard};
    for (unsigned Sample = 0; Sample < std::min(Want, 8u); ++Sample) {
      Result<std::optional<std::vector<Value>>> M =
          scopedModel({}, F.mkAnd(Flat), Types, "guard sample");
      if (!M) {
        if (Inputs.empty())
          return M.status();
        break;
      }
      if (!*M)
        break;
      const std::vector<Value> &X = **M;
      if (Admissible(X) && Seen.insert(X).second)
        Inputs.push_back(X);
      // Block this exact assignment.
      std::vector<TermRef> Differs;
      for (unsigned I = 0; I < P.NumInputs; ++I)
        Differs.push_back(
            F.mkDistinct(F.mkVar(I, Types[I]), F.mkConst(X[I])));
      if (Differs.empty())
        break;
      TermRef Block = F.mkOr(std::move(Differs));
      Blocking.add(Block);
      Flat.push_back(Block);
    }
  }

  if (Inputs.empty())
    return Status::error("synthesis: no inputs satisfy the guard");
  return Inputs;
}

Result<TermRef> SygusEngine::synthesize(const SynthesisSpec &Spec,
                                        const Grammar &G) {
  Timer Clock;
  CallRecord Record;
  MetricsPhaseScope Phase("cegis");
  TraceSpan CallSpan("sygus.synthesize");
  TermFactory &F = S.factory();
  const ImagePredicate &P = Spec.Image;

  auto Finish = [&](Result<TermRef> R) -> Result<TermRef> {
    Record.Seconds = Clock.seconds();
    CallSpan.arg("iterations", Record.CegisIterations);
    CallSpan.arg("success", R.isOk() ? 1 : 0);
    if (R.isOk()) {
      Record.Success = true;
      Record.ResultSize = (*R)->size();
    }
    Calls.push_back(Record);
    return R;
  };

  // Degenerate case: the rule writes nothing, so its guard must pin a
  // unique input tuple (or the transducer is not injective); recover the
  // target as a constant.
  if (P.arity() == 0) {
    std::vector<Type> Types(P.NumInputs, Spec.Target->type());
    Result<std::vector<Value>> M = S.getModel(P.Guard, Types);
    if (!M)
      return Finish(M.status().code() != StatusCode::Error
                        ? M.status() // keep the budget/fault classification
                        : Status::error(
                              "empty-output rule with unsatisfiable or "
                              "undecided guard"));
    std::optional<Value> T = EvalCache.eval(Spec.Target, *M);
    if (!T)
      return Finish(Status::error("target undefined on the guard model"));
    return Finish(F.mkConst(*T));
  }

  // CEGAR skeleton: the guard is asserted once for the whole call, before
  // sampling, and stays on the rule's live session. Phase-2 samples and
  // every iteration's verification are queries on top of it; a
  // verification sends only the candidate's negated correctness condition,
  // as an assumption literal, and its model is the counterexample. Models
  // therefore follow the fork's Z3 history, which is a function of the
  // rule alone; the inverse fixtures pin the terms that result, and bounded
  // composition checks that they are inverses.
  ScopedAssertions VerifyScope(S);
  VerifyScope.add(P.Guard);
  Result<std::vector<std::vector<Value>>> Inputs =
      sampleInputs(Spec, Opts.NumExamples);
  if (!Inputs)
    return Finish(Inputs.status());
  std::vector<Type> Types;
  for (const Value &V : Inputs->front())
    Types.push_back(V.type());

  // Induce (y, target) examples from the sampled inputs.
  auto Induce = [&](const std::vector<std::vector<Value>> &Xs,
                    std::vector<std::vector<Value>> &Ys,
                    std::vector<Value> &Targets) -> Status {
    for (const std::vector<Value> &X : Xs) {
      std::vector<Value> Y;
      Y.reserve(P.arity());
      for (TermRef O : P.Outputs) {
        std::optional<Value> V = EvalCache.eval(O, X);
        if (!V)
          return Status::error("output undefined on a sampled input");
        Y.push_back(*V);
      }
      std::optional<Value> T = EvalCache.eval(Spec.Target, X);
      if (!T)
        return Status::error("target undefined on a sampled input");
      Ys.push_back(std::move(Y));
      Targets.push_back(*T);
    }
    return Status::ok();
  };

  std::vector<std::vector<Value>> Ys;
  std::vector<Value> Targets;
  if (Status St = Induce(*Inputs, Ys, Targets); !St.isOk())
    return Finish(St);

  Enumerator::Config EC;
  EC.MaxSize = Opts.MaxTermSize;
  EC.TimeoutSeconds = Opts.EnumTimeoutSeconds;
  EC.BankStore = Opts.ReuseBanks ? &BankStore : nullptr;
  EC.Cancel = S.cancellation();

  TermRef LastSliceGuess = nullptr;
  // Set once a pre-pass has enumerated every term of its size bound
  // without a match. The grammar is fixed for the call and iterations only
  // append examples, so no such term can match a later example set either:
  // every later pre-pass would return nothing, and is skipped.
  bool PrepassExhausted = false;
  auto NoteSearch = [&](const Enumerator::Stats &St) {
    Search.Candidates += St.CandidatesTried;
    Search.LaneEvals += St.CandidateEvals;
  };
  for (unsigned Iter = 0; Iter < Opts.MaxCegisIterations; ++Iter) {
    if (S.cancellation().cancelled())
      return Finish(
          Status::cancelled("synthesis: global deadline exhausted"));
    ++Record.CegisIterations;
    std::optional<TermRef> Candidate;
    // A quick shallow enumeration first: when a tiny recovery exists
    // (y - 5, p0 + #x41, ...) it is both found fastest and most readable.
    if (PrepassExhausted) {
      ++Search.PrepassSkipped;
    } else {
      TraceSpan PrepassSpan("sygus.prepass");
      Enumerator::Config Small;
      Small.MaxSize = std::min(5u, Opts.MaxTermSize);
      Small.TimeoutSeconds = 2;
      Small.BankStore = EC.BankStore;
      Small.Cancel = EC.Cancel;
      Enumerator SmallEnum(F, G, Ys, Small);
      MetricsPhaseScope EnumPhase("enumeration");
      Candidate = SmallEnum.findMatching(Targets);
      NoteSearch(SmallEnum.stats());
      ++Search.PrepassRuns;
      Search.PrepassHits += Candidate.has_value();
      PrepassExhausted = SmallEnum.stats().Exhausted;
      PrepassSpan.arg("hit", Candidate.has_value() ? 1 : 0);
    }
    // Next the bit-slice strategy: near-free, and covers the bit-regrouping
    // shapes coders are made of. A guess that failed verification is never
    // retried verbatim (the counterexample forces the wiring to change or
    // the strategy to give up).
    if (!Candidate && Opts.EnableBitSlice &&
        Spec.Target->type().isBitVec()) {
      TraceSpan SliceSpan("sygus.bitslice");
      // Views: the outputs themselves plus unary components applied to
      // them (a decoder's recovery slices bits of D(y_j), not of y_j).
      std::vector<SliceView> Views;
      for (unsigned J = 0; J < P.arity(); ++J) {
        if (!Ys[0][J].type().isBitVec())
          continue;
        SliceView V;
        V.Term = F.mkVar(J, Ys[0][J].type());
        for (const auto &Y : Ys)
          V.Values.push_back(Y[J]);
        Views.push_back(std::move(V));
      }
      std::vector<SliceWrapper> Wrappers;
      for (const FuncDef *Fn : G.Funcs) {
        auto It = WrapperCache.find(Fn);
        if (It == WrapperCache.end())
          It = WrapperCache.emplace(Fn, buildSliceWrapper(Fn)).first;
        if (!It->second)
          continue;
        Wrappers.push_back(*It->second);
        // Component-transformed views Fn(y_j), where defined everywhere.
        for (unsigned J = 0; J < P.arity(); ++J) {
          if (!(Ys[0][J].type() == Fn->ParamTypes[0]))
            continue;
          SliceView V;
          V.Term = F.mkCall(Fn, {F.mkVar(J, Ys[0][J].type())});
          bool Defined = true;
          for (const auto &Y : Ys) {
            std::vector<Value> Arg{Y[J]};
            std::optional<Value> Out = EvalCache.callFunc(Fn, Arg);
            if (!Out) {
              Defined = false;
              break;
            }
            V.Values.push_back(*Out);
          }
          if (Defined)
            Views.push_back(std::move(V));
        }
      }
      std::optional<TermRef> Slice =
          bitSliceGuess(F, Views, Targets, G.Constants, Wrappers);
      if (Slice && *Slice != LastSliceGuess) {
        LastSliceGuess = *Slice;
        Candidate = Slice;
      }
    }
    if (!Candidate) {
      TraceSpan EnumSpan("sygus.enumerate");
      Enumerator Enum(F, G, Ys, EC);
      MetricsPhaseScope EnumPhase("enumeration");
      Candidate = Enum.findMatching(Targets);
      NoteSearch(Enum.stats());
      if (!Candidate) {
        if (S.cancellation().cancelled())
          return Finish(Status::cancelled(
              "enumeration cancelled: global deadline exhausted"));
        if (Enum.stats().TimedOut)
          return Finish(Status::timeout(
              "enumeration timed out (candidate function too large)"));
        return Finish(Status::error(
            "no candidate within the size budget (max size " +
            std::to_string(EC.MaxSize) + ")"));
      }
    }

    // Verify: sat( phi(x) /\ not (domains(g(f(x))) /\ g(f(x)) = t(x)) )?
    TraceSpan VerifySpan("sygus.verify");
    TermRef OnOutputs = F.substitute(*Candidate, P.Outputs);
    TermRef Domains = F.calleeDomains(OnOutputs);
    TermRef Meets = F.mkAnd(
        Domains, F.mkEq(OnOutputs, Spec.Target));
    TermRef Violates = F.mkNot(Meets);
    Result<std::optional<std::vector<Value>>> Cex = scopedModel(
        {Violates}, F.mkAnd(P.Guard, Violates), Types, "verification query");
    if (!Cex)
      return Finish(Cex.status());
    if (!*Cex)
      return Finish(*Candidate);

    // Counterexample-guided refinement.
    std::vector<std::vector<Value>> NewX{**Cex};
    if (Status St = Induce(NewX, Ys, Targets); !St.isOk())
      return Finish(St);
    Inputs->push_back(std::move(**Cex));
    if (Ys.size() > Enumerator::MaxExamples)
      return Finish(Status::error(
          "CEGIS exceeded the example budget (" +
          std::to_string(Enumerator::MaxExamples) + ")"));
  }
  return Finish(Status::error("CEGIS exceeded the iteration budget"));
}
