//===- transducer/Invert.cpp -----------------------------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "transducer/Invert.h"

#include "support/Timer.h"

#include <algorithm>

using namespace genic;

const char *genic::toString(RuleOutcome O) {
  switch (O) {
  case RuleOutcome::Inverted:
    return "Inverted";
  case RuleOutcome::NotInjective:
    return "NotInjective";
  case RuleOutcome::Timeout:
    return "Timeout";
  case RuleOutcome::SolverError:
    return "SolverError";
  }
  return "Unknown";
}

RuleOutcome genic::outcomeForStatus(const Status &St) {
  switch (St.code()) {
  case StatusCode::Timeout:
  case StatusCode::Cancelled:
    return RuleOutcome::Timeout;
  case StatusCode::SolverError:
    return RuleOutcome::SolverError;
  default:
    return RuleOutcome::NotInjective;
  }
}

bool InversionOutcome::complete() const {
  for (const RuleInversionRecord &R : Records)
    if (!R.Inverted)
      return false;
  return true;
}

unsigned InversionOutcome::degradedRules() const {
  unsigned N = 0;
  for (const RuleInversionRecord &R : Records)
    if (R.Outcome == RuleOutcome::Timeout ||
        R.Outcome == RuleOutcome::SolverError)
      ++N;
  return N;
}

double InversionOutcome::totalSeconds() const {
  double Total = 0;
  for (const RuleInversionRecord &R : Records)
    Total += R.Seconds;
  return Total;
}

double InversionOutcome::maxRuleSeconds() const {
  double Max = 0;
  for (const RuleInversionRecord &R : Records)
    Max = std::max(Max, R.Seconds);
  return Max;
}

namespace {

/// Largest variable index mentioned anywhere in \p T, or -1 if none.
int64_t maxVarIndex(TermRef T) {
  int64_t Max = T->isVar() ? static_cast<int64_t>(T->varIndex()) : -1;
  for (TermRef C : T->children())
    Max = std::max(Max, maxVarIndex(C));
  return Max;
}

/// Greedy redundant-conjunct elimination: drops any conjunct implied by the
/// remaining ones, largest first. The g-derived guards contain membership
/// disjunctions that the round-trip equations already entail; stripping
/// them is what keeps the emitted programs close to hand-written size
/// (Figure 6).
TermRef simplifyGuard(TermFactory &F, Solver &S, TermRef Guard) {
  // A constant guard (an empty-output finalizer's folds to true) has
  // nothing to drop; asking would build the session's Z3 context for it.
  if (Guard->isConst())
    return Guard;
  std::vector<TermRef> Conjuncts;
  if (Guard->op() == Op::And)
    Conjuncts.assign(Guard->children().begin(), Guard->children().end());
  else
    Conjuncts.push_back(Guard);
  std::sort(Conjuncts.begin(), Conjuncts.end(),
            [](TermRef A, TermRef B) { return A->size() > B->size(); });

  // A lone conjunct is dropped iff it is valid (the guard of a total
  // bijection). Unknown keeps it — sound either way; the guard is exact by
  // construction.
  if (Conjuncts.size() == 1) {
    if (S.checkSat(F.mkAnd({F.mkNot(Conjuncts[0])})) == SatResult::Unsat)
      return F.mkTrue();
    return F.mkAnd(std::move(Conjuncts));
  }

  // Otherwise a conjunct is dropped iff the kept rest implies it. Assert
  // (s_j -> C_j) and (t_j -> not C_j) once in a scope, with the selector
  // variables s_j / t_j at indices above every guard variable so they are
  // fresh. Dropping conjunct I is then one
  // checkSatAssuming({s_j : j kept, j != I} u {t_I}) — the solver keeps
  // the implication skeleton and only the assumption set varies across the
  // O(n^2) candidate tests. Selector indices are a pure function of the
  // conjunct order, so the verdict sequence is jobs-invariant.
  int64_t Base = -1;
  for (TermRef C : Conjuncts)
    Base = std::max(Base, maxVarIndex(C));
  unsigned KeepBase = static_cast<unsigned>(Base + 1);
  unsigned DropBase = KeepBase + Conjuncts.size();
  ScopedAssertions Scope(S);
  std::vector<TermRef> Keep, Drop;
  for (size_t J = 0; J < Conjuncts.size(); ++J) {
    Keep.push_back(F.mkVar(KeepBase + J, Type::boolTy()));
    Drop.push_back(F.mkVar(DropBase + J, Type::boolTy()));
    Scope.add(F.mkImplies(Keep[J], Conjuncts[J]));
    Scope.add(F.mkImplies(Drop[J], F.mkNot(Conjuncts[J])));
  }
  std::vector<bool> Alive(Conjuncts.size(), true);
  for (size_t I = 0; I < Conjuncts.size(); ++I) {
    std::vector<TermRef> Assume;
    for (size_t J = 0; J < Conjuncts.size(); ++J)
      if (Alive[J] && J != I)
        Assume.push_back(Keep[J]);
    Assume.push_back(Drop[I]);
    if (S.checkSatAssuming(Assume) == SatResult::Unsat)
      Alive[I] = false;
  }
  std::vector<TermRef> Kept;
  for (size_t J = 0; J < Conjuncts.size(); ++J)
    if (Alive[J])
      Kept.push_back(Conjuncts[J]);
  return F.mkAnd(std::move(Kept));
}

} // namespace

std::optional<RuleInversionResult>
genic::screenDeadRule(const SeftTransition &T, unsigned Index, Solver &S) {
  Timer RuleTimer;
  const uint64_t RetriesBefore = S.stats().Retries;
  Result<bool> Fires = S.isSat(T.Guard);
  if (Fires && *Fires)
    return std::nullopt;
  RuleInversionResult R;
  RuleInversionRecord &Record = R.Record;
  Record.Rule = Index;
  Record.Seconds = RuleTimer.seconds();
  Record.Retries = static_cast<unsigned>(S.stats().Retries - RetriesBefore);
  if (!Fires) {
    Record.Outcome = outcomeForStatus(Fires.status());
    Record.Error = "guard satisfiability: " + Fires.status().message();
    return R;
  }
  // Dead rule (guard never fires): nothing to invert.
  Record.Inverted = true;
  Record.Outcome = RuleOutcome::Inverted;
  return R;
}

RuleInversionResult genic::invertOneRule(const SeftTransition &T,
                                         unsigned Index,
                                         const Type &InputType,
                                         const Type &OutputType, Solver &S,
                                         const RecoverySynthesizer &Synthesize) {
  Timer RuleTimer;
  RuleInversionResult R;
  RuleInversionRecord &Record = R.Record;
  Record.Rule = Index;
  const uint64_t RetriesBefore = S.stats().Retries;
  auto NoteRetries = [&] {
    Record.Retries =
        static_cast<unsigned>(S.stats().Retries - RetriesBefore);
  };

  ImagePredicate P{T.Guard, T.Outputs, T.Lookahead};

  // Output functions g_i, one per original input position.
  SeftTransition Inv;
  Inv.From = T.From;
  Inv.To = T.To;
  Inv.Lookahead = T.Outputs.size();
  bool Ok = true;
  for (unsigned I = 0; I < T.Lookahead; ++I) {
    Result<TermRef> G = Synthesize(P, I, InputType);
    if (!G) {
      Record.Outcome = outcomeForStatus(G.status());
      Record.Error = "output " + std::to_string(I) + ": " +
                     G.status().message();
      Ok = false;
      break;
    }
    Inv.Outputs.push_back(*G);
  }

  // Guard psi(y) == exists x . phi(x) /\ y = f(x). With the recoveries g
  // in hand there is an exact quantifier-free form — the witness x must
  // be g(y) itself:
  //   psi(y) == phi(g(y)) /\ f(g(y)) = y /\ definedness of all calls.
  // (If y = f(x) with phi(x), then g(f(x)) = x by the synthesis spec, so
  // g(y) is a witness; conversely g(y) witnesses the existential.) This
  // sidesteps quantifier elimination entirely, and the definedness
  // conjuncts are the "pred" guards of the paper's Figure 3.
  if (Ok) {
    TermFactory &F = S.factory();
    std::vector<TermRef> Conjuncts;
    TermRef PhiG = F.substitute(T.Guard, Inv.Outputs);
    Conjuncts.push_back(F.calleeDomains(PhiG));
    Conjuncts.push_back(PhiG);
    for (unsigned J = 0, K = T.Outputs.size(); J != K; ++J) {
      TermRef FG = F.substitute(T.Outputs[J], Inv.Outputs);
      Conjuncts.push_back(F.calleeDomains(FG));
      Conjuncts.push_back(
          F.mkEq(FG, F.mkVar(J, OutputType)));
    }
    for (TermRef G : Inv.Outputs)
      Conjuncts.push_back(F.calleeDomains(G));
    Inv.Guard = simplifyGuard(F, S, F.mkAnd(std::move(Conjuncts)));
  }
  Record.Seconds = RuleTimer.seconds();
  Record.Inverted = Ok;
  NoteRetries();
  if (Ok) {
    Record.Outcome = RuleOutcome::Inverted;
    // A rule with empty output inverts to a lookahead-0 rule, which is
    // only well-formed as a finalizer; for non-finalizers the rule is
    // dropped with an explanatory record (such rules make the transducer
    // non-injective anyway unless their guard pins a unique tuple).
    if (Inv.Lookahead == 0 && Inv.To != Seft::FinalState && T.Lookahead > 0) {
      Record.Inverted = false;
      Record.Outcome = RuleOutcome::NotInjective;
      Record.Error = "rule consumes input but writes nothing; its inverse "
                     "is not expressible as an s-EFT rule";
      return R;
    }
    R.Transition = std::move(Inv);
  }
  return R;
}

Result<InversionOutcome> genic::invertSeft(
    const Seft &A, Solver &S, const RecoverySynthesizer &Synthesize) {
  // The inverse swaps input and output types but keeps the state structure
  // (Theorem 5.4: A^-1 = (Q, q0, { r^-1 | r in Delta })).
  InversionOutcome Out{
      Seft(A.numStates(), A.initial(), A.outputType(), A.inputType()),
      {}};

  const auto &Ts = A.transitions();
  for (unsigned Index = 0, E = Ts.size(); Index != E; ++Index) {
    std::optional<RuleInversionResult> Screened =
        screenDeadRule(Ts[Index], Index, S);
    RuleInversionResult R =
        Screened ? std::move(*Screened)
                 : invertOneRule(Ts[Index], Index, A.inputType(),
                                 A.outputType(), S, Synthesize);
    if (R.Transition)
      Out.Inverse.addTransition(std::move(*R.Transition));
    Out.Records.push_back(std::move(R.Record));
  }
  return Out;
}
