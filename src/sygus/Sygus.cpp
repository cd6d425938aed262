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
#include "term/LaneEval.h"

#include <array>
#include <bit>
#include <random>
#include <set>
#include <span>

using namespace genic;

namespace {

using LaneColumn = std::array<uint64_t, MaxLanes>;

/// Binds Var(i) to the lane of x_i over the inputs \p Xs (at most
/// MaxLanes, all typed like the first), packed into \p Columns.
std::vector<Lane> inputLanes(std::span<const std::vector<Value>> Xs,
                             std::vector<LaneColumn> &Columns) {
  const size_t Arity = Xs.front().size();
  Columns.resize(Arity);
  std::vector<Lane> Env;
  for (size_t I = 0; I != Arity; ++I) {
    for (size_t E = 0; E != Xs.size(); ++E)
      Columns[I][E] = Xs[E][I].rawBits();
    Env.push_back(Lane{Columns[I].data(), Xs.front()[I].type()});
  }
  return Env;
}

} // namespace

SygusEngine::SygusEngine(Solver &S, Options O) : S(S), Opts(O) {}

void genic::recordEngineStats(MetricsRegistry &Registry,
                              SolverSessionKind Kind,
                              const EnumeratorBankStore::Stats &Bank,
                              const SearchStats &Search) {
  const std::string Family = counterFamily(Kind);
  Registry.counter("eval." + Family + ".evals").add(Search.InputsEvaluated);
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
    recordEngineStats(*C.Metrics, C.Kind, BankStore.stats(), Search);
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

  // An input is admissible when the guard holds and the outputs and the
  // target are defined on it.
  auto Admissible = [&](const std::vector<Value> &X) {
    ++Search.InputsEvaluated;
    if (!evalBool(P.Guard, X))
      return false;
    for (TermRef O : P.Outputs)
      if (!eval(O, X))
        return false;
    return eval(Spec.Target, X).has_value();
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

  // Phase 1: native rejection sampling — fast and diverse. Up to 8192
  // draws, evaluated MaxLanes at a time and taken in draw order; the draws
  // of a batch after the Want-th input only advance the local generator.
  std::vector<std::vector<Value>> Batch;
  std::vector<LaneColumn> Columns;
  for (unsigned Drawn = 0; Drawn < 8192 && Inputs.size() < Want;) {
    const size_t N = std::min<size_t>(MaxLanes, 8192 - Drawn);
    Drawn += N;
    Batch.resize(N);
    for (std::vector<Value> &X : Batch) {
      X.clear();
      for (unsigned I = 0; I < P.NumInputs; ++I)
        X.push_back(RandomValue(Types[I]));
    }
    Search.InputsEvaluated += N;
    std::vector<Lane> Env = inputLanes(Batch, Columns);
    uint64_t Out[MaxLanes];
    uint64_t Ok = evalBoolLanes(P.Guard, Env, ~uint64_t{0}, N);
    for (TermRef O : P.Outputs)
      Ok = evalLanes(O, Env, Ok, N, Out);
    Ok = evalLanes(Spec.Target, Env, Ok, N, Out);
    for (size_t E = 0; E != N && Inputs.size() < Want; ++E)
      if ((Ok >> E & 1) && Seen.insert(Batch[E]).second)
        Inputs.push_back(Batch[E]);
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
    ++Search.InputsEvaluated;
    std::optional<Value> T = eval(Spec.Target, *M);
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

  // Induce (y, target) examples from at most MaxLanes sampled inputs,
  // evaluating each output and the target on all of them at once. The
  // first input with an undefined output, else an undefined target, fails.
  std::vector<std::vector<Value>> Ys;
  std::vector<Value> Targets;
  std::vector<LaneColumn> Columns, Results(P.arity() + 1);
  auto Induce = [&](std::span<const std::vector<Value>> Xs) -> Status {
    const size_t N = Xs.size();
    const uint64_t All = laneMask(N);
    Search.InputsEvaluated += N;
    std::vector<Lane> Env = inputLanes(Xs, Columns);
    uint64_t OutputsDefined = All;
    for (unsigned J = 0; J != P.arity(); ++J)
      OutputsDefined &= evalLanes(P.Outputs[J], Env, All, N, Results[J].data());
    uint64_t TargetDefined =
        evalLanes(Spec.Target, Env, All, N, Results.back().data());
    if (uint64_t Bad = All & ~(OutputsDefined & TargetDefined))
      return Status::error(OutputsDefined >> std::countr_zero(Bad) & 1
                               ? "target undefined on a sampled input"
                               : "output undefined on a sampled input");
    for (size_t E = 0; E != N; ++E) {
      std::vector<Value> Y;
      Y.reserve(P.arity());
      for (unsigned J = 0; J != P.arity(); ++J)
        Y.push_back(Value::fromRawBits(P.Outputs[J]->type(), Results[J][E]));
      Ys.push_back(std::move(Y));
      Targets.push_back(
          Value::fromRawBits(Spec.Target->type(), Results.back()[E]));
    }
    return Status::ok();
  };

  auto OverBudget = [] {
    return Status::error("CEGIS exceeded the example budget (" +
                         std::to_string(Enumerator::MaxExamples) + ")");
  };
  std::vector<Type> Types;
  {
    TraceSpan SampleSpan("sygus.sample");
    Result<std::vector<std::vector<Value>>> Inputs =
        sampleInputs(Spec, Opts.NumExamples);
    if (!Inputs)
      return Finish(Inputs.status());
    if (Inputs->size() > Enumerator::MaxExamples)
      return Finish(OverBudget());
    for (const Value &V : Inputs->front())
      Types.push_back(V.type());
    if (Status St = Induce(*Inputs); !St.isOk())
      return Finish(St);
  }

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
      std::vector<Lane> YLanes = inputLanes(Ys, Columns);
      const uint64_t All = laneMask(Ys.size());
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
          uint64_t Out[MaxLanes];
          Search.InputsEvaluated += Ys.size();
          if (callLanes(Fn, {&YLanes[J], 1}, All, Ys.size(), Out) != All)
            continue;
          for (size_t E = 0; E != Ys.size(); ++E)
            V.Values.push_back(Value::fromRawBits(Fn->Body->type(), Out[E]));
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
    if (Status St = Induce({&**Cex, 1}); !St.isOk())
      return Finish(St);
    if (Ys.size() > Enumerator::MaxExamples)
      return Finish(OverBudget());
  }
  return Finish(Status::error("CEGIS exceeded the iteration budget"));
}
