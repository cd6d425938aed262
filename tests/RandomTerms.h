//===- tests/RandomTerms.h - Random terms for evaluator parity tests ------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Random well-typed terms over (BitVec 8) variables, shared by the parity
/// tests of the compiled and the lane evaluators against eval(). The terms
/// call partial auxiliary functions shaped like the corpus coders': 'enc'
/// total, 'dec' partial, 'dec2' partial and calling 'dec' (nested calls
/// with two domain checks).
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_TESTS_RANDOMTERMS_H
#define GENIC_TESTS_RANDOMTERMS_H

#include "term/TermFactory.h"

#include <random>

namespace genic {

class RandomTerms {
public:
  const Type B8 = Type::bitVecTy(8);
  const Type Bool = Type::boolTy();
  const FuncDef *Enc = nullptr, *Dec = nullptr, *Dec2 = nullptr;

  /// Registers enc, dec and dec2 in \p F.
  explicit RandomTerms(TermFactory &F) : F(F) {
    TermRef P0 = F.mkVar(0, B8);
    Enc = F.makeFunc("enc", {B8}, B8,
                     F.mkBvOp(Op::BvAdd, P0, F.mkBv(0x41, 8)));
    Dec = F.makeFunc("dec", {B8}, B8,
                     F.mkBvOp(Op::BvSub, P0, F.mkBv(0x41, 8)),
                     F.mkBvOp(Op::BvUge, P0, F.mkBv(0x41, 8)));
    Dec2 = F.makeFunc("dec2", {B8}, B8,
                      F.mkBvOp(Op::BvShl, F.mkCall(Dec, {P0}), F.mkBv(1, 8)),
                      F.mkBvOp(Op::BvUle, P0, F.mkBv(0x7A, 8)));
  }

  /// A random term of the given type over NumVars (BitVec 8) variables.
  /// Depth-bounded; leans on every operator family the evaluators handle.
  TermRef term(std::mt19937_64 &Rng, const Type &Ty, unsigned NumVars,
               unsigned Depth) {
    auto Pick = [&](unsigned N) { return Rng() % N; };
    if (Ty.isBool()) {
      if (Depth == 0)
        return F.mkBool(Pick(2));
      switch (Pick(6)) {
      case 0:
        return F.mkNot(term(Rng, Bool, NumVars, Depth - 1));
      case 1:
        return F.mkAnd(term(Rng, Bool, NumVars, Depth - 1),
                       term(Rng, Bool, NumVars, Depth - 1));
      case 2:
        return F.mkOr(term(Rng, Bool, NumVars, Depth - 1),
                      term(Rng, Bool, NumVars, Depth - 1));
      case 3:
        return F.mkIte(term(Rng, Bool, NumVars, Depth - 1),
                       term(Rng, Bool, NumVars, Depth - 1),
                       term(Rng, Bool, NumVars, Depth - 1));
      case 4: {
        Op Cmp[] = {Op::BvUle, Op::BvUlt, Op::BvUge, Op::BvUgt};
        return F.mkBvOp(Cmp[Pick(4)], term(Rng, B8, NumVars, Depth - 1),
                        term(Rng, B8, NumVars, Depth - 1));
      }
      default:
        return F.mkEq(term(Rng, B8, NumVars, Depth - 1),
                      term(Rng, B8, NumVars, Depth - 1));
      }
    }
    if (Depth == 0)
      return Pick(2) ? F.mkVar(Pick(NumVars), B8) : F.mkBv(Rng() & 0xFF, 8);
    switch (Pick(8)) {
    case 0: {
      Op Un[] = {Op::BvNeg, Op::BvNot};
      return F.mkBvOp(Un[Pick(2)], term(Rng, B8, NumVars, Depth - 1));
    }
    case 1:
      return F.mkIte(term(Rng, Bool, NumVars, Depth - 1),
                     term(Rng, B8, NumVars, Depth - 1),
                     term(Rng, B8, NumVars, Depth - 1));
    case 2:
      return F.mkCall(Dec, {term(Rng, B8, NumVars, Depth - 1)});
    case 3:
      return F.mkCall(Pick(2) ? Dec2 : Enc,
                      {term(Rng, B8, NumVars, Depth - 1)});
    default: {
      Op Bin[] = {Op::BvAdd, Op::BvSub, Op::BvMul, Op::BvAnd,
                  Op::BvOr,  Op::BvXor, Op::BvShl, Op::BvLshr};
      return F.mkBvOp(Bin[Pick(8)], term(Rng, B8, NumVars, Depth - 1),
                      term(Rng, B8, NumVars, Depth - 1));
    }
    }
  }

private:
  TermFactory &F;
};

} // namespace genic

#endif // GENIC_TESTS_RANDOMTERMS_H
