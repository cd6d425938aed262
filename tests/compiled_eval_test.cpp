//===- tests/compiled_eval_test.cpp - Compiled vs tree-walking parity -----===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled evaluator's contract is exact agreement with the recursive
/// eval() of term/Eval.h — same values, same undefined outcomes — across
/// the whole term language, including short-circuiting connectives and
/// partial auxiliary functions. These tests check that property on random
/// terms and random environments, plus the direct-call entry point and the
/// cache bookkeeping.
///
//===----------------------------------------------------------------------===//

#include "term/CompiledEval.h"

#include "RandomTerms.h"
#include "term/Eval.h"
#include "term/Printer.h"
#include "term/TermFactory.h"

#include <gtest/gtest.h>

#include <random>

using namespace genic;

namespace {

class CompiledEvalTest : public ::testing::Test {
protected:
  TermFactory F;
  CompiledEvalCache Cache;
  RandomTerms Gen{F};
  Type B8 = Gen.B8;
  Type Bool = Gen.Bool;
  const FuncDef *Enc = Gen.Enc, *Dec = Gen.Dec, *Dec2 = Gen.Dec2;

  TermRef randomTerm(std::mt19937_64 &Rng, const Type &Ty, unsigned NumVars,
                     unsigned Depth) {
    return Gen.term(Rng, Ty, NumVars, Depth);
  }
};

TEST_F(CompiledEvalTest, RandomTermParity) {
  std::mt19937_64 Rng(0xC0FFEE);
  const unsigned NumVars = 3;
  for (unsigned Trial = 0; Trial < 400; ++Trial) {
    TermRef T = randomTerm(Rng, Trial % 2 ? B8 : Bool, NumVars,
                           1 + Trial % 5);
    for (unsigned Sample = 0; Sample < 16; ++Sample) {
      std::vector<Value> Env;
      for (unsigned I = 0; I < NumVars; ++I)
        Env.push_back(Value::bitVecVal(Rng() & 0xFF, 8));
      EXPECT_EQ(Cache.eval(T, Env), eval(T, Env)) << printTerm(T);
      EXPECT_EQ(Cache.evalBool(T, Env), evalBool(T, Env)) << printTerm(T);
    }
  }
}

TEST_F(CompiledEvalTest, UndefinedPropagatesThroughPartialAux) {
  // dec is undefined below 0x41; the undefinedness must propagate through
  // enclosing strict operators exactly as in eval().
  TermRef X = F.mkVar(0, B8);
  TermRef T = F.mkBvOp(Op::BvAdd, F.mkCall(Dec, {X}), F.mkBv(1, 8));
  std::vector<Value> Bad{Value::bitVecVal(0x10, 8)};
  std::vector<Value> Good{Value::bitVecVal(0x43, 8)};
  EXPECT_EQ(Cache.eval(T, Bad), std::nullopt);
  EXPECT_EQ(Cache.eval(T, Good), Value::bitVecVal(3, 8));
  EXPECT_EQ(Cache.eval(T, Bad), eval(T, Bad));
  EXPECT_EQ(Cache.eval(T, Good), eval(T, Good));

  // Nested partial calls: dec2 checks its own domain, then dec's.
  TermRef U = F.mkCall(Dec2, {X});
  for (uint64_t Raw : {0x00, 0x40, 0x41, 0x60, 0x7A, 0x7B, 0xFF}) {
    std::vector<Value> Env{Value::bitVecVal(Raw, 8)};
    EXPECT_EQ(Cache.eval(U, Env), eval(U, Env)) << "symbol " << Raw;
  }
}

TEST_F(CompiledEvalTest, ShortCircuitHidesLaterUndefined) {
  // and(false, P(dec(x))) is false — not undefined — even where dec(x) is
  // undefined; or(true, ...) likewise. The untaken ite branch too.
  TermRef X = F.mkVar(0, B8);
  TermRef DecDefined = F.mkEq(F.mkCall(Dec, {X}), F.mkBv(0, 8));
  std::vector<Value> Bad{Value::bitVecVal(0x00, 8)};
  ASSERT_EQ(eval(DecDefined, Bad), std::nullopt);

  TermRef AndT = F.mkAnd({F.mkBvOp(Op::BvUge, X, F.mkBv(0x41, 8)),
                          DecDefined});
  TermRef OrT = F.mkOr({F.mkBvOp(Op::BvUlt, X, F.mkBv(0x41, 8)),
                        DecDefined});
  TermRef IteT = F.mkIte(F.mkBvOp(Op::BvUlt, X, F.mkBv(0x41, 8)),
                         F.mkBv(9, 8), F.mkCall(Dec, {X}));
  for (uint64_t Raw = 0; Raw < 256; ++Raw) {
    std::vector<Value> Env{Value::bitVecVal(Raw, 8)};
    EXPECT_EQ(Cache.eval(AndT, Env), eval(AndT, Env)) << "and @" << Raw;
    EXPECT_EQ(Cache.eval(OrT, Env), eval(OrT, Env)) << "or @" << Raw;
    EXPECT_EQ(Cache.eval(IteT, Env), eval(IteT, Env)) << "ite @" << Raw;
  }
}

TEST_F(CompiledEvalTest, UnboundAndMistypedVariablesAreUndefined) {
  TermRef T = F.mkBvOp(Op::BvAdd, F.mkVar(0, B8), F.mkVar(1, B8));
  std::vector<Value> Short{Value::bitVecVal(1, 8)};
  std::vector<Value> Mistyped{Value::bitVecVal(1, 8), Value::intVal(2)};
  std::vector<Value> Fine{Value::bitVecVal(1, 8), Value::bitVecVal(2, 8)};
  EXPECT_EQ(Cache.eval(T, Short), eval(T, Short));
  EXPECT_EQ(Cache.eval(T, Short), std::nullopt);
  EXPECT_EQ(Cache.eval(T, Mistyped), eval(T, Mistyped));
  EXPECT_EQ(Cache.eval(T, Mistyped), std::nullopt);
  EXPECT_EQ(Cache.eval(T, Fine), Value::bitVecVal(3, 8));
}

TEST_F(CompiledEvalTest, CallFuncMatchesEvalSemantics) {
  for (uint64_t Raw = 0; Raw < 256; ++Raw) {
    std::vector<Value> Arg{Value::bitVecVal(Raw, 8)};
    // The reference semantics of a direct call, per Eval.cpp's Call case.
    auto Reference = [&](const FuncDef *Fn) -> std::optional<Value> {
      if (Fn->Domain && !evalBool(Fn->Domain, Arg))
        return std::nullopt;
      return eval(Fn->Body, Arg);
    };
    EXPECT_EQ(Cache.callFunc(Enc, Arg), Reference(Enc));
    EXPECT_EQ(Cache.callFunc(Dec, Arg), Reference(Dec));
    EXPECT_EQ(Cache.callFunc(Dec2, Arg), Reference(Dec2));
  }
}

TEST_F(CompiledEvalTest, ProgramsAreCompiledOncePerTerm) {
  TermRef T = F.mkBvOp(Op::BvAdd, F.mkVar(0, B8), F.mkBv(1, 8));
  std::vector<Value> Env{Value::bitVecVal(7, 8)};
  for (int I = 0; I < 10; ++I)
    Cache.eval(T, Env);
  EXPECT_EQ(Cache.stats().Compiles, 1u);
  EXPECT_EQ(Cache.stats().Lookups, 10u);
  EXPECT_EQ(Cache.stats().hits(), 9u);
  EXPECT_EQ(Cache.stats().Evals, 10u);
  // Hash-consing: the structurally equal term is the same pointer, so the
  // second build compiles nothing.
  TermRef Same = F.mkBvOp(Op::BvAdd, F.mkVar(0, B8), F.mkBv(1, 8));
  Cache.eval(Same, Env);
  EXPECT_EQ(Cache.stats().Compiles, 1u);
}

} // namespace
