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
  // cannot hit (e.g. equality-pinned inputs). Each sample comes from
  // checkSat and getModel, which run on memoized one-shot solvers, so it
  // depends only on the formula. The sample set decides which (equally
  // correct) candidate CEGIS settles on, and the inverse fixtures pin that
  // choice. The loop is bounded at 8 queries.
  unsigned SolverWant = Inputs.empty() ? std::min(Want, 8u) : 0;
  std::vector<TermRef> Blocked;
  while (SolverWant-- > 0) {
    std::vector<TermRef> Conjuncts{P.Guard};
    Conjuncts.insert(Conjuncts.end(), Blocked.begin(), Blocked.end());
    TermRef Query = F.mkAnd(std::move(Conjuncts));
    if (S.checkSat(Query) != SatResult::Sat)
      break;
    Result<std::vector<Value>> M = S.getModel(Query, Types);
    if (!M)
      break;
    if (Admissible(*M) && Seen.insert(*M).second)
      Inputs.push_back(*M);
    // Block this exact assignment.
    std::vector<TermRef> Differs;
    for (unsigned I = 0; I < P.NumInputs; ++I)
      Differs.push_back(
          F.mkDistinct(F.mkVar(I, Types[I]), F.mkConst((*M)[I])));
    if (Differs.empty())
      break;
    Blocked.push_back(F.mkOr(std::move(Differs)));
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

  Result<std::vector<std::vector<Value>>> Inputs =
      sampleInputs(Spec, Opts.NumExamples);
  if (!Inputs)
    return Finish(Inputs.status());

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
  EC.EvalCache = &EvalCache;
  EC.BankStore = Opts.ReuseBanks ? &BankStore : nullptr;
  EC.Cancel = S.cancellation();

  // CEGAR skeleton: the guard is asserted once for the whole CEGIS run;
  // each iteration's verification varies only the candidate's negated
  // correctness condition, sent as an assumption literal. Counterexample
  // models come from getModel's memoized one-shot solver, so each depends
  // only on the flattened query. The refinement sequence, and with it the
  // synthesized term, is what the inverse fixtures pin.
  ScopedAssertions VerifyScope(S);
  VerifyScope.add(P.Guard);
  TermRef LastSliceGuess = nullptr;
  for (unsigned Iter = 0; Iter < Opts.MaxCegisIterations; ++Iter) {
    if (S.cancellation().cancelled())
      return Finish(
          Status::cancelled("synthesis: global deadline exhausted"));
    ++Record.CegisIterations;
    std::optional<TermRef> Candidate;
    // A quick shallow enumeration first: when a tiny recovery exists
    // (y - 5, p0 + #x41, ...) it is both found fastest and most readable.
    {
      Enumerator::Config Small;
      Small.MaxSize = std::min(5u, Opts.MaxTermSize);
      Small.TimeoutSeconds = 2;
      Small.EvalCache = &EvalCache;
      Small.BankStore = EC.BankStore;
      Small.Cancel = EC.Cancel;
      Enumerator SmallEnum(F, G, Ys, Small);
      MetricsPhaseScope EnumPhase("enumeration");
      Candidate = SmallEnum.findMatching(Targets);
    }
    // Next the bit-slice strategy: near-free, and covers the bit-regrouping
    // shapes coders are made of. A guess that failed verification is never
    // retried verbatim (the counterexample forces the wiring to change or
    // the strategy to give up).
    if (!Candidate && Opts.EnableBitSlice &&
        Spec.Target->type().isBitVec()) {
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
      Enumerator Enum(F, G, Ys, EC);
      MetricsPhaseScope EnumPhase("enumeration");
      Candidate = Enum.findMatching(Targets);
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
    TermRef OnOutputs = F.substitute(*Candidate, P.Outputs);
    TermRef Domains = F.calleeDomains(OnOutputs);
    TermRef Meets = F.mkAnd(
        Domains, F.mkEq(OnOutputs, Spec.Target));
    TermRef Query = F.mkAnd(P.Guard, F.mkNot(Meets));
    SatResult Sat = S.checkSatAssuming({F.mkNot(Meets)});
    if (Sat == SatResult::Unknown)
      // Z3's incremental engine can give up on a query its one-shot
      // engine decides; retry the flattened query on a fresh solver
      // before reporting unknown.
      Sat = S.checkSat(Query);
    if (Sat == SatResult::Unsat)
      return Finish(*Candidate);
    if (Sat == SatResult::Unknown)
      return Finish(S.unknownStatus("verification query"));

    // Counterexample-guided refinement.
    std::vector<Type> Types(P.NumInputs, Spec.Target->type());
    for (const auto &X : *Inputs)
      for (unsigned I = 0; I < P.NumInputs; ++I)
        Types[I] = X[I].type();
    Result<std::vector<Value>> Cex = S.getModel(Query, Types);
    if (!Cex)
      return Finish(Cex.status());
    std::vector<std::vector<Value>> NewX{*Cex};
    if (Status St = Induce(NewX, Ys, Targets); !St.isOk())
      return Finish(St);
    Inputs->push_back(*Cex);
    if (Ys.size() > Enumerator::MaxExamples)
      return Finish(Status::error(
          "CEGIS exceeded the example budget (" +
          std::to_string(Enumerator::MaxExamples) + ")"));
  }
  return Finish(Status::error("CEGIS exceeded the iteration budget"));
}
