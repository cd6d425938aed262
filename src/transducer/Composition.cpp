//===- transducer/Composition.cpp ------------------------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "transducer/Composition.h"

#include <functional>

using namespace genic;

namespace {

/// A path with its accumulated symbolic artifacts: the conjoined guard over
/// the concatenated input variables and the concatenated output terms.
struct SymbolicPath {
  TermRef Guard = nullptr;         // over Var(0 .. InputLen-1)
  std::vector<TermRef> Outputs;    // over the same variables
  unsigned InputLen = 0;
};

/// Shifts a rule's terms so its variables start at \p Offset.
TermRef shifted(TermFactory &F, TermRef T, unsigned Lookahead,
                unsigned Offset, const Type &InputType) {
  std::vector<TermRef> Repl(Lookahead);
  for (unsigned I = 0; I < Lookahead; ++I)
    Repl[I] = F.mkVar(Offset + I, InputType);
  return F.substitute(T, Repl);
}

/// Enumerates accepting paths of \p A with at most \p MaxRules rules whose
/// accumulated guard is satisfiable, building the symbolic artifacts. Each
/// rule of the current path holds one scope on \p S, so a satisfiability
/// check sends only the newest rule's guard; an Unknown retries the flat
/// one-shot query.
Result<std::vector<SymbolicPath>> acceptingPaths(const Seft &A, Solver &S,
                                                 unsigned MaxRules) {
  TermFactory &F = S.factory();
  std::vector<SymbolicPath> Out;
  SymbolicPath Current;
  Current.Guard = F.mkTrue();
  Status Failure = Status::ok();

  std::function<void(unsigned, unsigned)> Go = [&](unsigned State,
                                                   unsigned RulesUsed) {
    if (!Failure.isOk())
      return;
    for (const SeftTransition &T : A.transitions()) {
      if (T.From != State)
        continue;
      SymbolicPath Saved = Current;
      TermRef RuleGuard =
          shifted(F, T.Guard, T.Lookahead, Current.InputLen, A.inputType());
      Current.Guard = F.mkAnd(Current.Guard, RuleGuard);
      for (TermRef O : T.Outputs)
        Current.Outputs.push_back(
            shifted(F, O, T.Lookahead, Current.InputLen, A.inputType()));
      Current.InputLen += T.Lookahead;
      ScopedAssertions Scope(S);
      Scope.add(RuleGuard);
      SatResult Live = S.checkSatAssuming({});
      Result<bool> Sat = Live == SatResult::Unknown
                             ? S.isSat(Current.Guard)
                             : Result<bool>(Live == SatResult::Sat);
      if (!Sat) {
        Failure = Sat.status();
        return;
      }
      if (*Sat) {
        if (T.To == Seft::FinalState)
          Out.push_back(Current);
        else if (RulesUsed + 1 < MaxRules)
          Go(T.To, RulesUsed + 1);
      }
      Current = Saved;
      if (!Failure.isOk())
        return;
    }
  };
  Go(A.initial(), 0);
  if (!Failure.isOk())
    return Failure;
  return Out;
}

/// Enumerates B-paths that consume exactly \p Len symbols, instantiated on
/// the terms \p Inputs (B's input variables replaced by them). Produces the
/// instantiated guard and output terms, both over A's input variables.
struct InstantiatedPath {
  TermRef Guard = nullptr;
  std::vector<TermRef> Outputs;
};

void consumingPaths(const Seft &B, TermFactory &F,
                    const std::vector<TermRef> &Inputs,
                    std::vector<InstantiatedPath> &Out) {
  InstantiatedPath Current;
  Current.Guard = F.mkTrue();
  std::function<void(unsigned, size_t)> Go = [&](unsigned State,
                                                 size_t Consumed) {
    for (const SeftTransition &T : B.transitions()) {
      if (T.From != State || Consumed + T.Lookahead > Inputs.size())
        continue;
      InstantiatedPath Saved = Current;
      // Substitute this rule's variables with the next Lookahead inputs,
      // requiring definedness of every substituted term (the inputs are
      // arbitrary terms, so aux-function domains matter).
      std::vector<TermRef> Repl(Inputs.begin() + Consumed,
                                Inputs.begin() + Consumed + T.Lookahead);
      TermRef SubGuard = F.substitute(T.Guard, Repl);
      Current.Guard = F.mkAnd(
          {Current.Guard, F.calleeDomains(SubGuard), SubGuard});
      for (TermRef O : T.Outputs) {
        TermRef Sub = F.substitute(O, Repl);
        Current.Guard = F.mkAnd(Current.Guard, F.calleeDomains(Sub));
        Current.Outputs.push_back(Sub);
      }
      if (T.To == Seft::FinalState) {
        if (Consumed + T.Lookahead == Inputs.size())
          Out.push_back(Current);
      } else if (T.Lookahead > 0) {
        Go(T.To, Consumed + T.Lookahead);
      }
      Current = Saved;
    }
  };
  Go(B.initial(), 0);
}

} // namespace

Result<std::optional<CompositionCounterexample>>
genic::verifyInverseBounded(const Seft &A, const Seft &B, Solver &S,
                            unsigned MaxRules) {
  TermFactory &F = S.factory();
  Result<std::vector<SymbolicPath>> Paths = acceptingPaths(A, S, MaxRules);
  if (!Paths)
    return Paths.status();

  for (const SymbolicPath &P : *Paths) {
    std::vector<Type> Types(P.InputLen, A.inputType());
    std::vector<InstantiatedPath> BPaths;
    consumingPaths(B, F, P.Outputs, BPaths);

    // One scoped session per A-path: its guard is asserted once, and each
    // obligation checks only its own conjunct on top. An Unknown retries
    // the flat one-shot query, so a verdict is never weaker than before;
    // counterexamples still come from getModel on the flat formula.
    ScopedAssertions Scope(S);
    Scope.add(P.Guard);
    auto Violated = [&](TermRef Extra, TermRef Flat) -> Result<bool> {
      SatResult Sat = S.checkSatAssuming({}, Extra);
      if (Sat == SatResult::Unknown)
        return S.isSat(Flat);
      return Sat == SatResult::Sat;
    };

    // Coverage: guard_p -> some B-path applies to f_p(x).
    std::vector<TermRef> AnyB;
    for (const InstantiatedPath &Q : BPaths)
      AnyB.push_back(Q.Guard);
    TermRef NoB = F.mkNot(F.mkOr(std::move(AnyB)));
    TermRef Uncovered = F.mkAnd(P.Guard, NoB);
    Result<bool> Sat = Violated(NoB, Uncovered);
    if (!Sat)
      return Sat.status();
    if (*Sat) {
      Result<std::vector<Value>> M = S.getModel(Uncovered, Types);
      if (!M)
        return M.status();
      return std::optional<CompositionCounterexample>(
          CompositionCounterexample{
              *M, "B rejects the image of this input"});
    }

    // Identity: along every applicable B-path, the outputs equal x.
    for (const InstantiatedPath &Q : BPaths) {
      TermRef Overlap = F.mkAnd(P.Guard, Q.Guard);
      TermRef Extra = Q.Guard, Wrong = Overlap;
      // Any overlap with the wrong length is already a violation.
      if (Q.Outputs.size() == P.InputLen) {
        std::vector<TermRef> Mismatch;
        for (unsigned I = 0; I < P.InputLen; ++I)
          Mismatch.push_back(
              F.mkDistinct(Q.Outputs[I], F.mkVar(I, A.inputType())));
        TermRef AnyMismatch = F.mkOr(std::move(Mismatch));
        Extra = F.mkAnd(Q.Guard, AnyMismatch);
        Wrong = F.mkAnd(Overlap, AnyMismatch);
      }
      Result<bool> Bad = Violated(Extra, Wrong);
      if (!Bad)
        return Bad.status();
      if (*Bad) {
        Result<std::vector<Value>> M = S.getModel(Wrong, Types);
        if (!M)
          return M.status();
        return std::optional<CompositionCounterexample>(
            CompositionCounterexample{
                *M, Q.Outputs.size() != P.InputLen
                        ? "B maps the image to a list of the wrong length"
                        : "B maps the image back to a different list"});
      }
    }
  }
  return std::optional<CompositionCounterexample>(std::nullopt);
}
