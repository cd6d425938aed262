//===- sygus/Mining.cpp ----------------------------------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "sygus/Mining.h"

#include "solver/SolverContext.h"

#include <algorithm>
#include <unordered_set>

using namespace genic;

void genic::collectOpsAndConstants(TermFactory &F, TermRef T,
                                   std::vector<Op> &Ops,
                                   std::vector<Value> &Consts) {
  TermRef Inlined = F.inlineCalls(T);
  std::unordered_set<TermRef> Visited;
  auto Go = [&](auto &&Self, TermRef Node) -> void {
    if (!Visited.insert(Node).second)
      return;
    if (Node->isConst()) {
      if (std::find(Consts.begin(), Consts.end(), Node->constValue()) ==
          Consts.end())
        Consts.push_back(Node->constValue());
    } else if (!Node->isVar()) {
      if (std::find(Ops.begin(), Ops.end(), Node->op()) == Ops.end())
        Ops.push_back(Node->op());
    }
    for (TermRef C : Node->children())
      Self(Self, C);
  };
  Go(Go, Inlined);
}

namespace {

/// Operators plausibly needed to invert a function using \p O.
std::vector<Op> inverseRelevant(Op O) {
  switch (O) {
  case Op::IntAdd:
  case Op::IntSub:
    return {Op::IntAdd, Op::IntSub};
  case Op::IntNeg:
    return {Op::IntNeg};
  case Op::IntMul:
    return {Op::IntMul};
  case Op::BvAdd:
  case Op::BvSub:
    return {Op::BvAdd, Op::BvSub};
  case Op::BvNeg:
    return {Op::BvNeg};
  case Op::BvMul:
    return {Op::BvMul};
  // Bit regrouping: shifts scatter bits, masks and ors gather them back.
  case Op::BvShl:
  case Op::BvLshr:
  case Op::BvAshr:
  case Op::BvOr:
  case Op::BvAnd:
    return {Op::BvShl, Op::BvLshr, Op::BvOr, Op::BvAnd};
  case Op::BvXor:
    return {Op::BvXor};
  case Op::BvNot:
    return {Op::BvNot};
  default:
    return {}; // Comparisons, ite, boolean structure: no operator to add.
  }
}

} // namespace

Grammar genic::mineTransitionGrammar(
    TermFactory &F, const ImagePredicate &P, Type InputType,
    const std::vector<const FuncDef *> &Components, bool MineOps) {
  std::vector<Type> VarTypes;
  for (TermRef O : P.Outputs)
    VarTypes.push_back(O->type());
  Grammar G = Grammar::standard(InputType, std::move(VarTypes));

  // Constants are always mined from the transition (guard and outputs).
  std::vector<Op> SeenOps;
  std::vector<Value> Consts;
  collectOpsAndConstants(F, P.Guard, SeenOps, Consts);
  for (TermRef O : P.Outputs)
    collectOpsAndConstants(F, O, SeenOps, Consts);
  for (const Value &C : Consts)
    if (!C.type().isBool())
      G.addConstant(C);

  if (MineOps) {
    std::vector<Op> Mined;
    for (Op O : SeenOps)
      for (Op R : inverseRelevant(O))
        if (std::find(Mined.begin(), Mined.end(), R) == Mined.end())
          Mined.push_back(R);
    G.Ops = std::move(Mined);
  }

  for (const FuncDef *Fn : Components)
    G.addFunc(Fn);
  return G;
}

OutputReduction genic::sufficientOutputSubsets(Solver &S,
                                               const ImagePredicate &P,
                                               Type InputType) {
  // The private child session: a fork of S's factory with its own solver
  // and Z3 context, discarded on return. Nothing below interns a term in
  // S.factory(), and S's Z3 context never sees a reduction query, so
  // nothing here can steer S's later models.
  SolverContext Child(S.factory(), S);
  FreezeGuard Quiesce(S.factory());
  TermFactory &F = Child.factory();
  Solver &CS = Child.solver();
  const unsigned N = P.NumInputs;
  const unsigned K = P.arity();

  // Infer the input variable types from the terms (fall back to InputType).
  std::vector<Type> Types(N, InputType);
  {
    std::unordered_set<TermRef> Visited;
    auto Note = [&](auto &&Self, TermRef T) -> void {
      if (!Visited.insert(T).second)
        return;
      if (T->isVar() && T->varIndex() < N)
        Types[T->varIndex()] = T->type();
      for (TermRef C : T->children())
        Self(Self, C);
    };
    Note(Note, F.inlineCalls(P.Guard));
    for (TermRef O : P.Outputs)
      Note(Note, F.inlineCalls(O));
  }

  std::vector<TermRef> Primed(N);
  for (unsigned I = 0; I < N; ++I)
    Primed[I] = F.mkVar(N + I, Types[I]);
  auto Shift = [&](TermRef T) { return F.substitute(T, Primed); };

  // The two-copy formula, asserted once in the child's base frame (the
  // child is discarded, so no scope is needed): phi(x) /\ phi(x'), under
  // selector s_j f_j(x) = f_j(x'), and under selector d_i x_i != x'_i.
  // Each determination check is then one check-sat-assuming over
  // selectors.
  std::vector<TermRef> Same(K), Differs(N), SameSel(K), DiffersSel(N);
  CS.assertFormula(P.Guard);
  CS.assertFormula(Shift(P.Guard));
  for (unsigned J = 0; J < K; ++J) {
    Same[J] = F.mkEq(P.Outputs[J], Shift(P.Outputs[J]));
    SameSel[J] = F.mkVar(2 * N + J, Type::boolTy());
    CS.assertFormula(F.mkImplies(SameSel[J], Same[J]));
  }
  for (unsigned I = 0; I < N; ++I) {
    Differs[I] = F.mkDistinct(F.mkVar(I, Types[I]), Primed[I]);
    DiffersSel[I] = F.mkVar(2 * N + K + I, Type::boolTy());
    CS.assertFormula(F.mkImplies(DiffersSel[I], Differs[I]));
  }

  // Determination check: do the outputs in Subset fix x_XIndex?
  auto Determines = [&](const std::vector<unsigned> &Subset,
                        unsigned XIndex) -> Result<bool> {
    std::vector<TermRef> Assume;
    for (unsigned J : Subset)
      Assume.push_back(SameSel[J]);
    Assume.push_back(DiffersSel[XIndex]);
    SatResult Sat = CS.checkSatAssuming(Assume);
    if (Sat == SatResult::Unknown) {
      // As in CEGIS verification: retry the flat one-shot query before
      // giving up, so the outcome can only match or improve on it.
      std::vector<TermRef> Conjuncts{P.Guard, Shift(P.Guard)};
      for (unsigned J : Subset)
        Conjuncts.push_back(Same[J]);
      Conjuncts.push_back(Differs[XIndex]);
      Sat = CS.checkSat(F.mkAnd(std::move(Conjuncts)));
    }
    if (Sat == SatResult::Unknown)
      return CS.unknownStatus("variable reduction query");
    return Sat == SatResult::Unsat;
  };

  // Per position: the full output tuple must determine x_i; then greedy
  // elimination drops any output whose removal keeps determination.
  auto Reduce = [&](unsigned XIndex) -> Result<std::vector<unsigned>> {
    std::vector<unsigned> Subset;
    for (unsigned J = 0; J < K; ++J)
      Subset.push_back(J);
    Result<bool> Full = Determines(Subset, XIndex);
    if (!Full)
      return Full.status();
    if (!*Full)
      return Status::error("the outputs do not determine input " +
                           std::to_string(XIndex) +
                           " (the transition is not injective on it)");
    for (unsigned J = K; J-- > 0;) {
      std::vector<unsigned> Without;
      for (unsigned M : Subset)
        if (M != J)
          Without.push_back(M);
      Result<bool> Ok = Determines(Without, XIndex);
      if (!Ok)
        return Ok.status();
      if (*Ok)
        Subset = std::move(Without);
    }
    return Subset;
  };

  OutputReduction Out;
  for (unsigned I = 0; I < N; ++I)
    Out.Subsets.push_back(Reduce(I));
  Out.Smt = CS.stats();
  return Out;
}

Result<std::vector<unsigned>>
genic::sufficientOutputSubset(Solver &S, const ImagePredicate &P,
                              unsigned XIndex, Type InputType) {
  return std::move(sufficientOutputSubsets(S, P, InputType).Subsets[XIndex]);
}
