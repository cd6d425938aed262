//===- sygus/AuxInvert.cpp -------------------------------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "sygus/AuxInvert.h"

#include "sygus/Mining.h"

using namespace genic;

Result<bool> genic::isAuxInjective(Solver &S, const FuncDef *Fn) {
  if (Fn->arity() != 1)
    return Status::error("only unary auxiliary functions are inverted");
  TermFactory &F = S.factory();
  Type In = Fn->ParamTypes[0];
  TermRef X = F.mkVar(0, In), X2 = F.mkVar(1, In);
  std::vector<TermRef> Conjuncts{F.mkDistinct(X, X2),
                                 F.mkEq(F.mkCall(Fn, {X}),
                                        F.mkCall(Fn, {X2}))};
  if (Fn->Domain) {
    Conjuncts.push_back(Fn->Domain);
    Conjuncts.push_back(F.substitute(Fn->Domain, std::vector<TermRef>{X2}));
  }
  // Calls are inlined by the solver; partial-domain calls never fold since
  // the arguments are symbolic, and the explicit domain conjuncts restrict
  // the query to where Fn is defined.
  Result<bool> Sat = S.isSat(F.mkAnd(std::move(Conjuncts)));
  if (!Sat)
    return Sat;
  return !*Sat;
}

namespace {

/// Flattens an ite-chain body into (path condition, leaf) pairs.
void flattenBranches(TermFactory &F, TermRef Body, TermRef PathCond,
                     std::vector<std::pair<TermRef, TermRef>> &Out) {
  if (Body->op() == Op::Ite) {
    flattenBranches(F, Body->child(1), F.mkAnd(PathCond, Body->child(0)),
                    Out);
    flattenBranches(F, Body->child(2),
                    F.mkAnd(PathCond, F.mkNot(Body->child(0))), Out);
    return;
  }
  Out.push_back({PathCond, Body});
}

} // namespace

Result<const FuncDef *>
genic::invertAuxFunction(SygusEngine &Engine, const FuncDef *Fn,
                         const std::string &InverseName) {
  Solver &S = Engine.solver();
  TermFactory &F = S.factory();
  Result<bool> Injective = isAuxInjective(S, Fn);
  if (!Injective)
    return Injective.status();
  if (!*Injective)
    return Status::error("auxiliary function " + Fn->Name +
                         " is not injective");

  Type In = Fn->ParamTypes[0];
  Type Out = Fn->ReturnType;
  TermRef Domain = Fn->Domain ? Fn->Domain : F.mkTrue();

  // The inverse's domain: the image of Fn, and each branch's image, need
  // closed forms: they are printed guards of the inverse.
  auto ImageOf = [&](const ImagePredicate &P) -> Result<TermRef> {
    Result<std::optional<TermRef>> Image = S.project(P, 0);
    if (!Image)
      return Image.status();
    if (!*Image)
      return Status::error("auxiliary function " + Fn->Name +
                           ": image has no closed form");
    return **Image;
  };
  Result<TermRef> Image = ImageOf({Domain, {Fn->Body}, 1});
  if (!Image)
    return Image.status();

  // Piecewise inversion along the ite chain of the body.
  std::vector<std::pair<TermRef, TermRef>> Branches;
  flattenBranches(F, Fn->Body, Domain, Branches);

  struct Inverted {
    TermRef Image;    // over Var(0) of type Out
    TermRef Recovery; // over Var(0) of type Out
  };
  std::vector<Inverted> Pieces;
  for (const auto &[Cond, Leaf] : Branches) {
    Result<bool> Feasible = S.isSat(Cond);
    if (!Feasible)
      return Feasible.status();
    if (!*Feasible)
      continue;
    ImagePredicate P{Cond, {Leaf}, 1};
    Result<TermRef> BranchImage = ImageOf(P);
    if (!BranchImage)
      return BranchImage.status();
    SynthesisSpec Spec{P, F.mkVar(0, In)};
    Grammar G = mineTransitionGrammar(F, P, In, {}, /*MineOps=*/true);
    Result<TermRef> Recovery = Engine.synthesize(Spec, G);
    if (!Recovery) {
      // Retry with the unrestricted operator set.
      Grammar Full = mineTransitionGrammar(F, P, In, {}, /*MineOps=*/false);
      Recovery = Engine.synthesize(Spec, Full);
      if (!Recovery)
        return Status::error("inverting branch of " + Fn->Name + ": " +
                             Recovery.status().message());
    }
    Pieces.push_back({*BranchImage, *Recovery});
  }
  if (Pieces.empty())
    return Status::error("auxiliary function " + Fn->Name +
                         " has an empty domain");

  // Assemble ite(image_1, g_1, ite(image_2, g_2, ... g_n)). Branch images
  // are disjoint (Fn is injective), so the order is irrelevant; the final
  // branch needs no test because the inverse's domain is the whole image.
  TermRef Body = Pieces.back().Recovery;
  for (size_t I = Pieces.size() - 1; I-- > 0;)
    Body = F.mkIte(Pieces[I].Image, Pieces[I].Recovery, Body);

  return F.makeFunc(InverseName, {Out}, In, Body, *Image);
}
