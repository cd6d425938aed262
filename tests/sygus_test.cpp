//===- tests/sygus_test.cpp - Enumerator, CEGIS, mining, aux inversion ----===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "sygus/Sygus.h"

#include "sygus/AuxInvert.h"
#include "sygus/Enumerator.h"
#include "sygus/Inverter.h"
#include "sygus/Mining.h"
#include "term/Eval.h"
#include "term/Printer.h"

#include <gtest/gtest.h>

#include <set>

using namespace genic;

namespace {

class SygusTest : public ::testing::Test {
protected:
  TermFactory F;
  Solver S{F};
  Type I = Type::intTy();
  Type B8 = Type::bitVecTy(8);
  TermRef X0 = F.mkVar(0, Type::intTy());
  TermRef X1 = F.mkVar(1, Type::intTy());
  SygusEngine Engine{S};
};

TEST_F(SygusTest, EnumeratorFindsVariable) {
  Grammar G = Grammar::standard(I, {I});
  std::vector<std::vector<Value>> Ex{{Value::intVal(3)}, {Value::intVal(7)}};
  Enumerator E(F, G, Ex);
  auto T = E.findMatching({Value::intVal(3), Value::intVal(7)});
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(*T, F.mkVar(0, I));
}

TEST_F(SygusTest, EnumeratorFindsAffineTerm) {
  // Target: 2*y + 1 on three examples.
  Grammar G = Grammar::standard(I, {I});
  std::vector<std::vector<Value>> Ex{
      {Value::intVal(0)}, {Value::intVal(1)}, {Value::intVal(5)}};
  Enumerator E(F, G, Ex);
  auto T = E.findMatching(
      {Value::intVal(1), Value::intVal(3), Value::intVal(11)});
  ASSERT_TRUE(T.has_value());
  for (int64_t V : {0, 1, 5, 9, -4}) {
    std::vector<Value> Env{Value::intVal(V)};
    EXPECT_EQ(eval(*T, Env), Value::intVal(2 * V + 1)) << printTerm(*T);
  }
}

TEST_F(SygusTest, EnumeratorRespectsUsableVars) {
  Grammar G = Grammar::standard(I, {I, I});
  G.UsableVars = {1}; // Only the second variable may appear.
  std::vector<std::vector<Value>> Ex{{Value::intVal(10), Value::intVal(3)},
                                     {Value::intVal(20), Value::intVal(8)}};
  Enumerator E(F, G, Ex);
  // Target equals Var(0)'s values, but only Var(1) is usable: unreachable
  // within a small budget.
  Enumerator::Config C;
  C.MaxSize = 3;
  Enumerator E2(F, G, Ex, C);
  auto T = E2.findMatching({Value::intVal(10), Value::intVal(20)});
  EXPECT_FALSE(T.has_value());
}

TEST_F(SygusTest, EnumeratorBitVectorShiftCombo) {
  // Target: (y << 4) | (y >> 4) — nibble swap, size 7.
  Grammar G = Grammar::standard(B8, {B8});
  G.addConstant(Value::bitVecVal(4, 8));
  std::vector<std::vector<Value>> Ex{{Value::bitVecVal(0xAB, 8)},
                                     {Value::bitVecVal(0x12, 8)},
                                     {Value::bitVecVal(0xF0, 8)}};
  Enumerator E(F, G, Ex);
  auto T = E.findMatching({Value::bitVecVal(0xBA, 8),
                           Value::bitVecVal(0x21, 8),
                           Value::bitVecVal(0x0F, 8)});
  ASSERT_TRUE(T.has_value());
}

TEST_F(SygusTest, SynthesizeSubtractionRecovery) {
  // Example 6.1's sibling: guard x >= 0, output x + 5; recover x as y - 5.
  SynthesisSpec Spec;
  Spec.Image.Guard = F.mkIntOp(Op::IntGe, X0, F.mkInt(0));
  Spec.Image.Outputs = {F.mkIntOp(Op::IntAdd, X0, F.mkInt(5))};
  Spec.Image.NumInputs = 1;
  Spec.Target = X0;
  Grammar G = mineTransitionGrammar(F, Spec.Image, I, {}, true);
  Result<TermRef> R = Engine.synthesize(Spec, G);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  // Verify: g(x + 5) = x for x in a few points.
  for (int64_t V : {0, 3, 100}) {
    std::vector<Value> Env{Value::intVal(V + 5)};
    EXPECT_EQ(eval(*R, Env), Value::intVal(V)) << printTerm(*R);
  }
  EXPECT_EQ(Engine.calls().back().Success, true);
}

TEST_F(SygusTest, SynthesizeExample61) {
  // Example 6.1: outputs [x0 + x1, x0] with x0, x1 >= 0.
  // g0(y0, y1) = y1 and g1(y0, y1) = y0 - y1.
  ImagePredicate P;
  P.Guard = F.mkAnd(F.mkIntOp(Op::IntGe, X0, F.mkInt(0)),
                    F.mkIntOp(Op::IntGe, X1, F.mkInt(0)));
  P.Outputs = {F.mkIntOp(Op::IntAdd, X0, X1), X0};
  P.NumInputs = 2;
  Grammar G = mineTransitionGrammar(F, P, I, {}, true);
  for (unsigned XI : {0u, 1u}) {
    SynthesisSpec Spec{P, F.mkVar(XI, I)};
    Result<TermRef> R = Engine.synthesize(Spec, G);
    ASSERT_TRUE(R.isOk()) << R.status().message();
    for (int64_t A : {0, 2, 9})
      for (int64_t B : {0, 1, 7}) {
        std::vector<Value> Env{Value::intVal(A + B), Value::intVal(A)};
        EXPECT_EQ(eval(*R, Env), Value::intVal(XI == 0 ? A : B))
            << printTerm(*R);
      }
  }
}

TEST_F(SygusTest, CegisCatchesOverfitting) {
  // With few examples a wrong candidate may match; verification must refute
  // it and refine. Guard: full byte range; output x ^ 0xFF.
  TermFactory F2;
  Solver S2(F2);
  SygusEngine::Options O;
  O.NumExamples = 2; // Deliberately starved.
  SygusEngine E2(S2, O);
  TermRef V = F2.mkVar(0, Type::bitVecTy(8));
  SynthesisSpec Spec;
  Spec.Image.Guard = F2.mkTrue();
  Spec.Image.Outputs = {F2.mkBvOp(Op::BvXor, V, F2.mkBv(0xFF, 8))};
  Spec.Image.NumInputs = 1;
  Spec.Target = V;
  Grammar G = mineTransitionGrammar(F2, Spec.Image, Type::bitVecTy(8), {},
                                    true);
  Result<TermRef> R = E2.synthesize(Spec, G);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  for (unsigned X = 0; X < 256; ++X) {
    std::vector<Value> Env{Value::bitVecVal(X ^ 0xFFu, 8)};
    EXPECT_EQ(eval(*R, Env), Value::bitVecVal(X, 8)) << printTerm(*R);
  }
}

TEST_F(SygusTest, ExhaustedPrepassIsSkippedForTheRestOfTheCall) {
  // Recover 0x5a ^ nibble-swap(x) from y = x with the bit-slice guesser
  // off and two samples: the first size-<=5 pre-pass finds nothing and is
  // exhausted, and the full enumerator's first size-9 candidate overfits,
  // so a counterexample adds an iteration. Examples only grow within a
  // call, so no later pre-pass of the call can match either: it runs once
  // per call and is skipped on every later iteration, and the term is the
  // one a fresh engine synthesizes.
  TermRef V = F.mkVar(0, B8);
  SynthesisSpec Spec;
  Spec.Image.Guard = F.mkTrue();
  Spec.Image.Outputs = {V};
  Spec.Image.NumInputs = 1;
  Spec.Target = F.mkBvOp(
      Op::BvXor, F.mkBv(0x5A, 8),
      F.mkBvOp(Op::BvOr, F.mkBvOp(Op::BvShl, V, F.mkBv(4, 8)),
               F.mkBvOp(Op::BvLshr, V, F.mkBv(4, 8))));
  Grammar G = Grammar::standard(B8, {B8});
  G.addConstant(Value::bitVecVal(4, 8));
  G.addConstant(Value::bitVecVal(0x5A, 8));
  SygusEngine::Options O;
  O.NumExamples = 2;
  O.EnableBitSlice = false;

  SygusEngine E(S, O);
  Result<TermRef> R = E.synthesize(Spec, G);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  const unsigned Iterations = E.calls().back().CegisIterations;
  ASSERT_GE(Iterations, 2u) << "the spec no longer needs a second iteration";
  EXPECT_EQ(E.searchStats().PrepassRuns, 1u);
  EXPECT_EQ(E.searchStats().PrepassHits, 0u);
  EXPECT_EQ(E.searchStats().PrepassSkipped, Iterations - 1);
  for (unsigned X = 0; X < 256; ++X) {
    std::vector<Value> Env{Value::bitVecVal(X, 8)};
    EXPECT_EQ(eval(*R, Env), eval(Spec.Target, Env)) << printTerm(*R);
  }

  // The next call starts over: its first pre-pass runs again.
  Result<TermRef> Again = E.synthesize(Spec, G);
  ASSERT_TRUE(Again.isOk()) << Again.status().message();
  EXPECT_EQ(*Again, *R);
  EXPECT_EQ(E.searchStats().PrepassRuns, 2u);
  EXPECT_EQ(E.searchStats().PrepassSkipped,
            Iterations - 1 + E.calls().back().CegisIterations - 1);

  Solver FreshSolver(F);
  SygusEngine Fresh(FreshSolver, O);
  Result<TermRef> Reference = Fresh.synthesize(Spec, G);
  ASSERT_TRUE(Reference.isOk()) << Reference.status().message();
  EXPECT_EQ(*Reference, *R) << printTerm(*Reference) << " vs "
                            << printTerm(*R);
}

TEST_F(SygusTest, EmptyOutputPinnedGuardSynthesizesConstant) {
  ImagePredicate P;
  P.Guard = F.mkEq(X0, F.mkInt(7));
  P.Outputs = {};
  P.NumInputs = 1;
  SynthesisSpec Spec{P, X0};
  Grammar G = Grammar::standard(I, {});
  Result<TermRef> R = Engine.synthesize(Spec, G);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_EQ(*R, F.mkInt(7));
}

TEST_F(SygusTest, MiningCollectsOpsAndConstants) {
  TermRef T = F.mkIntOp(Op::IntAdd, F.mkIntOp(Op::IntMul, X0, F.mkInt(3)),
                        F.mkInt(42));
  std::vector<Op> Ops;
  std::vector<Value> Consts;
  collectOpsAndConstants(F, T, Ops, Consts);
  EXPECT_NE(std::find(Ops.begin(), Ops.end(), Op::IntAdd), Ops.end());
  EXPECT_NE(std::find(Ops.begin(), Ops.end(), Op::IntMul), Ops.end());
  EXPECT_NE(std::find(Consts.begin(), Consts.end(), Value::intVal(42)),
            Consts.end());
}

TEST_F(SygusTest, MiningRestrictsOperators) {
  ImagePredicate P;
  P.Guard = F.mkTrue();
  P.Outputs = {F.mkIntOp(Op::IntAdd, X0, F.mkInt(5))};
  P.NumInputs = 1;
  Grammar G = mineTransitionGrammar(F, P, I, {}, true);
  // Addition inverts with +/-; multiplication is not relevant.
  EXPECT_NE(std::find(G.Ops.begin(), G.Ops.end(), Op::IntSub), G.Ops.end());
  EXPECT_EQ(std::find(G.Ops.begin(), G.Ops.end(), Op::IntMul), G.Ops.end());
  // The constant 5 is mined.
  EXPECT_NE(std::find(G.Constants.begin(), G.Constants.end(),
                      Value::intVal(5)),
            G.Constants.end());
}

TEST_F(SygusTest, VariableReductionFindsSufficientSubset) {
  // Example from §6: outputs [x0 + x1, x0]. y1 alone determines x0;
  // recovering x1 needs both.
  ImagePredicate P;
  P.Guard = F.mkAnd(F.mkIntOp(Op::IntGe, X0, F.mkInt(0)),
                    F.mkIntOp(Op::IntGe, X1, F.mkInt(0)));
  P.Outputs = {F.mkIntOp(Op::IntAdd, X0, X1), X0};
  P.NumInputs = 2;
  Result<std::vector<unsigned>> ForX0 = sufficientOutputSubset(S, P, 0, I);
  ASSERT_TRUE(ForX0.isOk()) << ForX0.status().message();
  EXPECT_EQ(*ForX0, (std::vector<unsigned>{1}));
  Result<std::vector<unsigned>> ForX1 = sufficientOutputSubset(S, P, 1, I);
  ASSERT_TRUE(ForX1.isOk()) << ForX1.status().message();
  EXPECT_EQ(ForX1->size(), 2u);
}

TEST_F(SygusTest, VariableReductionRejectsNonInjective) {
  // Output [x0 + x1] alone cannot determine x0.
  ImagePredicate P;
  P.Guard = F.mkTrue();
  P.Outputs = {F.mkIntOp(Op::IntAdd, X0, X1)};
  P.NumInputs = 2;
  Result<std::vector<unsigned>> R = sufficientOutputSubset(S, P, 0, I);
  EXPECT_FALSE(R.isOk());
}

TEST_F(SygusTest, AuxInjectivityCheck) {
  TermRef P0 = F.mkVar(0, I);
  const FuncDef *Inj =
      F.makeFunc("injf", {I}, I, F.mkIntOp(Op::IntAdd, P0, F.mkInt(3)));
  const FuncDef *NonInj =
      F.makeFunc("noninjf", {I}, I, F.mkIntOp(Op::IntMul, P0, P0));
  Result<bool> A = isAuxInjective(S, Inj);
  ASSERT_TRUE(A.isOk()) << A.status().message();
  EXPECT_TRUE(*A);
  Result<bool> B = isAuxInjective(S, NonInj);
  ASSERT_TRUE(B.isOk()) << B.status().message();
  EXPECT_FALSE(*B);
  // Restricting the domain restores injectivity (Example 4.3).
  const FuncDef *Restricted =
      F.makeFunc("posSquare", {I}, I, F.mkIntOp(Op::IntMul, P0, P0),
                 F.mkIntOp(Op::IntGt, P0, F.mkInt(0)));
  Result<bool> C = isAuxInjective(S, Restricted);
  ASSERT_TRUE(C.isOk()) << C.status().message();
  EXPECT_TRUE(*C);
}

TEST_F(SygusTest, InvertAffineAuxFunction) {
  TermRef P0 = F.mkVar(0, I);
  const FuncDef *Fn =
      F.makeFunc("affA", {I}, I, F.mkIntOp(Op::IntAdd, P0, F.mkInt(9)));
  Result<const FuncDef *> Inv = invertAuxFunction(Engine, Fn, "inv_affA");
  ASSERT_TRUE(Inv.isOk()) << Inv.status().message();
  for (int64_t V : {-5, 0, 12}) {
    std::vector<Value> Env{Value::intVal(V + 9)};
    EXPECT_EQ(eval((*Inv)->Body, Env), Value::intVal(V));
  }
}

TEST_F(SygusTest, InvertIteChainAuxFunctionPiecewise) {
  // A two-branch mapping over bytes restricted to x <= 0x0F:
  //   f(x) = x + 0x41 if x <= 0x07 else x + 0x30.
  TermFactory F2;
  Solver S2(F2);
  SygusEngine E2(S2);
  TermRef P0 = F2.mkVar(0, Type::bitVecTy(8));
  TermRef Body = F2.mkIte(
      F2.mkBvOp(Op::BvUle, P0, F2.mkBv(0x07, 8)),
      F2.mkBvOp(Op::BvAdd, P0, F2.mkBv(0x41, 8)),
      F2.mkBvOp(Op::BvAdd, P0, F2.mkBv(0x30, 8)));
  const FuncDef *Fn =
      F2.makeFunc("map2", {Type::bitVecTy(8)}, Type::bitVecTy(8), Body,
                  F2.mkBvOp(Op::BvUle, P0, F2.mkBv(0x0F, 8)));
  Result<const FuncDef *> Inv = invertAuxFunction(E2, Fn, "inv_map2");
  ASSERT_TRUE(Inv.isOk()) << Inv.status().message();
  // Roundtrip over the whole domain; inverse domain = image.
  for (unsigned X = 0; X <= 0x0F; ++X) {
    std::vector<Value> In{Value::bitVecVal(X, 8)};
    std::optional<Value> Y = eval(Fn->Body, In);
    ASSERT_TRUE(Y.has_value());
    std::vector<Value> Out{*Y};
    EXPECT_TRUE(evalBool((*Inv)->Domain, Out));
    EXPECT_EQ(eval((*Inv)->Body, Out), Value::bitVecVal(X, 8));
  }
  // Outside the image the domain predicate rejects.
  std::vector<Value> Bad{Value::bitVecVal(0x00, 8)};
  EXPECT_FALSE(evalBool((*Inv)->Domain, Bad));
}

TEST_F(SygusTest, InvertBase64MappingE) {
  // The real E from Figure 2: 4 branches over x <= 0x3F. Its inverse is the
  // D of Figure 3.
  TermFactory F2;
  Solver S2(F2);
  SygusEngine E2(S2);
  Type B8 = Type::bitVecTy(8);
  TermRef X = F2.mkVar(0, B8);
  auto Bv = [&](uint64_t V) { return F2.mkBv(V, 8); };
  auto Le = [&](TermRef A, TermRef B) { return F2.mkBvOp(Op::BvUle, A, B); };
  TermRef Body = F2.mkIte(
      Le(X, Bv(0x19)), F2.mkBvOp(Op::BvAdd, X, Bv(0x41)),
      F2.mkIte(Le(X, Bv(0x33)), F2.mkBvOp(Op::BvAdd, X, Bv(0x47)),
               F2.mkIte(Le(X, Bv(0x3d)), F2.mkBvOp(Op::BvSub, X, Bv(0x04)),
                        F2.mkIte(F2.mkEq(X, Bv(0x3e)), Bv(0x2b), Bv(0x2f)))));
  const FuncDef *E =
      F2.makeFunc("E", {B8}, B8, Body, Le(X, Bv(0x3f)));
  Result<const FuncDef *> D = invertAuxFunction(E2, E, "D");
  ASSERT_TRUE(D.isOk()) << D.status().message();
  static const char *Alphabet =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  for (unsigned V = 0; V < 64; ++V) {
    std::vector<Value> Y{Value::bitVecVal(Alphabet[V], 8)};
    EXPECT_TRUE(evalBool((*D)->Domain, Y)) << V;
    EXPECT_EQ(eval((*D)->Body, Y), Value::bitVecVal(V, 8)) << V;
  }
  // '=' is not a BASE64 digit: outside D's domain.
  std::vector<Value> Pad{Value::bitVecVal('=', 8)};
  EXPECT_FALSE(evalBool((*D)->Domain, Pad));
}

TEST_F(SygusTest, WideAuxImageHasNoInverseButTheRuleInverts) {
  // f(x) = x + 1 over 16 bits is injective, but its image is all 65536
  // values, past what project() enumerates: the inverse's printed domain
  // has no closed form, so invertAuxFunction fails, and the rule that
  // calls f is inverted without an inv_f component.
  TermFactory F2;
  Solver S2(F2);
  SygusEngine E2(S2);
  Type B16 = Type::bitVecTy(16);
  TermRef P0 = F2.mkVar(0, B16);
  const FuncDef *Fn = F2.makeFunc("inc16", {B16}, B16,
                                  F2.mkBvOp(Op::BvAdd, P0, F2.mkBv(1, 16)));
  Result<const FuncDef *> Inv = invertAuxFunction(E2, Fn, "inv_inc16");
  ASSERT_FALSE(Inv.isOk());
  EXPECT_NE(Inv.status().message().find("no closed form"), std::string::npos)
      << Inv.status().message();

  Seft D(1, 0, B16, B16);
  D.addTransition({0, 0, 1, F2.mkTrue(), {F2.mkCall(Fn, {P0})}});
  D.addTransition({0, Seft::FinalState, 0, F2.mkTrue(), {}});
  Inverter Inverse(S2);
  Result<InversionOutcome> R = Inverse.invert(D, {Fn});
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_TRUE(R->complete());
  EXPECT_EQ(F2.lookupFunc("inv_inc16"), nullptr);
  for (auto U : std::vector<ValueList>{
           {Value::bitVecVal(0, 16)},
           {Value::bitVecVal(0xffff, 16), Value::bitVecVal(0x1234, 16)}}) {
    auto Mid = D.transduceFunctional(U);
    ASSERT_TRUE(Mid.has_value());
    auto Back = R->Inverse.transduce(*Mid, 4);
    ASSERT_EQ(Back.size(), 1u) << "input " << toString(U);
    EXPECT_EQ(Back[0], U);
  }
}

TEST_F(SygusTest, FullInverterOnExample55) {
  // Example 5.5: invert D (the sign-splitting transducer); the paper gives
  // its inverse explicitly.
  TermRef Neg = F.mkIntOp(Op::IntNeg, X0);
  Seft D(3, 0, I, I);
  D.addTransition({0, 1, 1, F.mkIntOp(Op::IntLt, X0, F.mkInt(0)), {X0}});
  D.addTransition({0, 2, 1, F.mkIntOp(Op::IntGt, X0, F.mkInt(0)), {Neg}});
  D.addTransition({2, 1, 1, F.mkTrue(), {X0}});
  D.addTransition({1, Seft::FinalState, 0, F.mkTrue(), {}});
  Inverter Inv(S);
  Result<InversionOutcome> R = Inv.invert(D, {});
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_TRUE(R->complete());
  // Roundtrip D^-1(D(u)) = u on assorted inputs.
  for (auto U : std::vector<ValueList>{
           {Value::intVal(-3)},
           {Value::intVal(4), Value::intVal(9)},
           {Value::intVal(7), Value::intVal(-2)}}) {
    auto Mid = D.transduceFunctional(U);
    ASSERT_TRUE(Mid.has_value());
    auto Back = R->Inverse.transduce(*Mid, 4);
    ASSERT_EQ(Back.size(), 1u) << "input " << toString(U);
    EXPECT_EQ(Back[0], U);
  }
  // Inputs rejected by D are rejected by composition too.
  EXPECT_FALSE(D.transduceFunctional({Value::intVal(0)}).has_value());
}

TEST_F(SygusTest, CallRecordsAccumulate) {
  SynthesisSpec Spec;
  Spec.Image.Guard = F.mkTrue();
  Spec.Image.Outputs = {F.mkIntOp(Op::IntAdd, X0, F.mkInt(1))};
  Spec.Image.NumInputs = 1;
  Spec.Target = X0;
  Grammar G = mineTransitionGrammar(F, Spec.Image, I, {}, true);
  size_t Before = Engine.calls().size();
  (void)Engine.synthesize(Spec, G);
  EXPECT_EQ(Engine.calls().size(), Before + 1);
  EXPECT_TRUE(Engine.calls().back().Success);
  EXPECT_GT(Engine.calls().back().ResultSize, 0u);
}

/// A rule whose guard pins every input to a handful of 32-bit tuples, far
/// beyond what rejection sampling can hit: x0 in {K1, K2, K3}, x1 = 7,
/// outputs (x0 + x1, x1), recovering x0.
SynthesisSpec pinnedSpec(TermFactory &F) {
  Type B32 = Type::bitVecTy(32);
  TermRef X0 = F.mkVar(0, B32), X1 = F.mkVar(1, B32);
  SynthesisSpec Spec;
  Spec.Image.Guard =
      F.mkAnd(F.mkOr({F.mkEq(X0, F.mkBv(0x12345678, 32)),
                      F.mkEq(X0, F.mkBv(0x9abcdef0, 32)),
                      F.mkEq(X0, F.mkBv(0x0badf00d, 32))}),
              F.mkEq(X1, F.mkBv(7, 32)));
  Spec.Image.Outputs = {F.mkBvOp(Op::BvAdd, X0, X1), X1};
  Spec.Image.NumInputs = 2;
  Spec.Target = X0;
  return Spec;
}

TEST(SygusPinnedGuard, SamplesComeFromTheLiveSession) {
  TermFactory F;
  Solver S(F);
  SygusEngine Engine(S);
  SynthesisSpec Spec = pinnedSpec(F);
  ScopedAssertions Guard(S);
  Guard.add(Spec.Image.Guard);
  Result<std::vector<std::vector<Value>>> Xs = Engine.sampleInputs(Spec, 24);
  ASSERT_TRUE(Xs.isOk()) << Xs.status().message();
  // Phase 2 finds all three admissible tuples, each once, then stops on
  // Unsat: four model queries, all on the live session.
  ASSERT_EQ(Xs->size(), 3u);
  std::set<std::vector<Value>> Distinct(Xs->begin(), Xs->end());
  EXPECT_EQ(Distinct.size(), 3u);
  for (const std::vector<Value> &X : *Xs) {
    EXPECT_TRUE(evalBool(Spec.Image.Guard, X));
    for (TermRef O : Spec.Image.Outputs)
      EXPECT_TRUE(eval(O, X).has_value());
  }
  EXPECT_EQ(S.stats().SatQueries, 4u);
  EXPECT_EQ(S.stats().SatQueries,
            S.stats().IncrementalHits + S.stats().FullRestarts);
}

TEST(SygusPinnedGuard, SynthesisSendsNoOneShotQuery) {
  std::string Terms[2];
  for (std::string &Printed : Terms) {
    TermFactory F;
    Solver S(F);
    SygusEngine Engine(S);
    SynthesisSpec Spec = pinnedSpec(F);
    Grammar G = mineTransitionGrammar(F, Spec.Image, Type::bitVecTy(32), {},
                                      true);
    Result<TermRef> R = Engine.synthesize(Spec, G);
    ASSERT_TRUE(R.isOk()) << R.status().message();
    for (uint64_t K : {0x12345678u, 0x9abcdef0u, 0x0badf00du}) {
      std::vector<Value> Y{Value::bitVecVal(K + 7, 32),
                           Value::bitVecVal(7, 32)};
      EXPECT_EQ(eval(*R, Y), Value::bitVecVal(K, 32)) << printTerm(*R);
    }
    // Samples and verifications all ran on the live session: no checkSat
    // or getModel call, and every backend check was a scoped one.
    const Solver::Stats &St = S.stats();
    EXPECT_EQ(St.CacheHits + St.CacheMisses, 0u);
    EXPECT_EQ(St.ModelCacheHits + St.ModelCacheMisses, 0u);
    EXPECT_GT(St.SatQueries, 0u);
    EXPECT_EQ(St.SatQueries, St.IncrementalHits + St.FullRestarts);
    EXPECT_EQ(S.scopeDepth(), 0u);
    Printed = printTerm(*R);
  }
  // Two fresh sessions have the same history, hence the same term.
  EXPECT_EQ(Terms[0], Terms[1]);
}

} // namespace
