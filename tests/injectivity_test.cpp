//===- tests/injectivity_test.cpp - §4 decision procedures ----------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "transducer/Injectivity.h"

#include "support/Trace.h"
#include "transducer/Determinism.h"

#include <gtest/gtest.h>

#include <string>

using namespace genic;

namespace {

ValueList ints(std::initializer_list<int64_t> Vs) {
  ValueList L;
  for (int64_t V : Vs)
    L.push_back(Value::intVal(V));
  return L;
}

class InjectivityTest : public ::testing::Test {
protected:
  TermFactory F;
  Solver S{F};
  Type I = Type::intTy();
  TermRef X0 = F.mkVar(0, Type::intTy());
  TermRef X1 = F.mkVar(1, Type::intTy());

  Seft example45() {
    Seft A(2, 0, I, I);
    A.addTransition({0, 1, 1, F.mkIntOp(Op::IntGt, X0, F.mkInt(0)),
                     {F.mkIntOp(Op::IntSub, X0, F.mkInt(5))}});
    A.addTransition({1, Seft::FinalState, 1,
                     F.mkIntOp(Op::IntGt, X0, F.mkInt(0)),
                     {F.mkIntOp(Op::IntSub, X0, F.mkInt(5))}});
    A.addTransition({0, Seft::FinalState, 2,
                     F.mkAnd(F.mkIntOp(Op::IntLt, X0, F.mkInt(0)),
                             F.mkIntOp(Op::IntLt, X1, F.mkInt(0))),
                     {F.mkIntOp(Op::IntAdd, X0, F.mkInt(5)),
                      F.mkIntOp(Op::IntAdd, X1, F.mkInt(5))}});
    return A;
  }
};

TEST_F(InjectivityTest, Example43InjectiveTransitions) {
  // [x0+1, x1] is injective (Example 4.3).
  Seft A(1, 0, I, I);
  A.addTransition({0, Seft::FinalState, 2, F.mkTrue(),
                   {F.mkIntOp(Op::IntAdd, X0, F.mkInt(1)), X1}});
  Result<std::optional<TransitionInjectivityViolation>> R =
      checkTransitionInjectivity(A, S);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_FALSE(R->has_value());
}

TEST_F(InjectivityTest, Example43NonInjectiveSquare) {
  // [x0 * x0] is not injective over Z, but becomes injective under x0 > 0.
  TermRef Square = F.mkIntOp(Op::IntMul, X0, X0);
  Seft Bad(1, 0, I, I);
  Bad.addTransition({0, Seft::FinalState, 1, F.mkTrue(), {Square}});
  Result<std::optional<TransitionInjectivityViolation>> R =
      checkTransitionInjectivity(Bad, S);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  ASSERT_TRUE(R->has_value());
  // The two witness inputs really collide.
  EXPECT_NE((*R)->InputA, (*R)->InputB);
  EXPECT_EQ(Bad.transduce((*R)->InputA), Bad.transduce((*R)->InputB));

  Seft Good(1, 0, I, I);
  Good.addTransition({0, Seft::FinalState, 1,
                      F.mkIntOp(Op::IntGt, X0, F.mkInt(0)), {Square}});
  R = checkTransitionInjectivity(Good, S);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_FALSE(R->has_value());
}

TEST_F(InjectivityTest, EmptyOutputRuleIsNotTransitionInjective) {
  // A rule that consumes a symbol and writes nothing conflates all inputs.
  Seft A(1, 0, I, I);
  A.addTransition({0, Seft::FinalState, 1, F.mkTrue(), {}});
  Result<std::optional<TransitionInjectivityViolation>> R =
      checkTransitionInjectivity(A, S);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_TRUE(R->has_value());
}

TEST_F(InjectivityTest, PinnedGuardMakesEmptyOutputInjective) {
  // ... unless the guard pins a unique input tuple.
  Seft A(1, 0, I, I);
  A.addTransition({0, Seft::FinalState, 1, F.mkEq(X0, F.mkInt(7)), {}});
  Result<std::optional<TransitionInjectivityViolation>> R =
      checkTransitionInjectivity(A, S);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_FALSE(R->has_value());
}

TEST_F(InjectivityTest, Example45IsTransitionInjectiveButNotInjective) {
  Seft A = example45();
  // Transition-injective (each rule is affine)...
  Result<std::optional<TransitionInjectivityViolation>> TI =
      checkTransitionInjectivity(A, S);
  ASSERT_TRUE(TI.isOk()) << TI.status().message();
  EXPECT_FALSE(TI->has_value());
  // ... but not path-injective, hence not injective (Example 4.5).
  Result<InjectivityResult> R = checkInjectivity(A, S);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_FALSE(R->Injective);
  ASSERT_TRUE(R->Witness.has_value()) << R->Detail;
  const auto &[U1, U2] = *R->Witness;
  EXPECT_NE(U1, U2);
  auto O1 = A.transduce(U1), O2 = A.transduce(U2);
  ASSERT_EQ(O1.size(), 1u);
  ASSERT_EQ(O2.size(), 1u);
  EXPECT_EQ(O1[0], O2[0]) << toString(U1) << " vs " << toString(U2);
}

TEST_F(InjectivityTest, DisjointImagesAreInjective) {
  // Like Example 4.5 but the two branches write into disjoint ranges.
  Seft A(2, 0, I, I);
  A.addTransition({0, 1, 1, F.mkIntOp(Op::IntGt, X0, F.mkInt(0)), {X0}});
  A.addTransition({1, Seft::FinalState, 1,
                   F.mkIntOp(Op::IntGt, X0, F.mkInt(0)), {X0}});
  A.addTransition({0, Seft::FinalState, 2,
                   F.mkAnd(F.mkIntOp(Op::IntLt, X0, F.mkInt(0)),
                           F.mkIntOp(Op::IntLt, X1, F.mkInt(0))),
                   {X0, X1}});
  Result<InjectivityResult> R = checkInjectivity(A, S);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_TRUE(R->Injective) << R->Detail;
}

TEST_F(InjectivityTest, Example55IsInjective) {
  TermRef Neg = F.mkIntOp(Op::IntNeg, X0);
  Seft D(3, 0, I, I);
  D.addTransition({0, 1, 1, F.mkIntOp(Op::IntLt, X0, F.mkInt(0)), {X0}});
  D.addTransition({0, 2, 1, F.mkIntOp(Op::IntGt, X0, F.mkInt(0)), {Neg}});
  D.addTransition({2, 1, 1, F.mkTrue(), {X0}});
  D.addTransition({1, Seft::FinalState, 0, F.mkTrue(), {}});
  Result<InjectivityResult> R = checkInjectivity(D, S);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_TRUE(R->Injective) << R->Detail;
}

TEST_F(InjectivityTest, TransitionInjectivityViolationYieldsFullLists) {
  // The square rule sits behind a prefix rule; the witness lists must
  // include a prefix reaching it.
  Seft A(2, 0, I, I);
  A.addTransition({0, 1, 1, F.mkEq(X0, F.mkInt(1)), {X0}});
  A.addTransition({1, Seft::FinalState, 1, F.mkTrue(),
                   {F.mkIntOp(Op::IntMul, X0, X0)}});
  Result<InjectivityResult> R = checkInjectivity(A, S);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_FALSE(R->Injective);
  ASSERT_TRUE(R->Witness.has_value()) << R->Detail;
  const auto &[U1, U2] = *R->Witness;
  EXPECT_NE(U1, U2);
  EXPECT_EQ(U1.size(), 2u);
  EXPECT_EQ(A.transduce(U1), A.transduce(U2));
}

TEST_F(InjectivityTest, OutputAutomatonShape) {
  Seft A = example45();
  Result<CartesianSefa> AO = buildOutputAutomaton(A, S);
  ASSERT_TRUE(AO.isOk()) << AO.status().message();
  EXPECT_EQ(AO->numStates(), 2u);
  ASSERT_EQ(AO->transitions().size(), 3u);
  // Rule ids are preserved for path reconstruction.
  EXPECT_EQ(AO->transitions()[0].Id, 0u);
  EXPECT_EQ(AO->transitions()[2].Id, 2u);
  EXPECT_EQ(AO->transitions()[2].lookahead(), 2u);
  // The output automaton accepts exactly the outputs of A.
  EXPECT_TRUE(AO->accepts(ints({0, 0})));
  EXPECT_TRUE(AO->accepts(ints({-3, 2}))); // output of input [2, 7]
  // First symbol only in the image of rule 2 (y < 5), second only in the
  // image of rule 0/1 (y > -5): no single path accepts both.
  EXPECT_FALSE(AO->accepts(ints({-9, 9})));
  EXPECT_FALSE(AO->accepts(ints({0})));
  EXPECT_FALSE(AO->accepts(ints({0, 0, 0})));
}

TEST_F(InjectivityTest, NonCartesianImageStillDecidedWhenUnambiguous) {
  // Outputs [x0+x1, x0] have the non-Cartesian image y0 >= y1 >= 0
  // (Example 6.1). The output automaton over-approximates it with the
  // projection box, which is sound: this single-rule transducer is
  // injective, and the box automaton is unambiguous, so the check still
  // concludes "injective" without the undecidable exact construction.
  Seft A(1, 0, I, I);
  A.addTransition({0, Seft::FinalState, 2,
                   F.mkAnd(F.mkIntOp(Op::IntGe, X0, F.mkInt(0)),
                           F.mkIntOp(Op::IntGe, X1, F.mkInt(0))),
                   {F.mkIntOp(Op::IntAdd, X0, X1), X0}});
  Result<InjectivityResult> R = checkInjectivity(A, S);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_TRUE(R->Injective) << R->Detail;
}

/// Two rules over 16-bit symbols, each consuming two, whose every output
/// image has far more values than project() enumerates: every guard of
/// the output automaton is an existential image predicate.
class WideImageTest : public ::testing::Test {
protected:
  TermFactory F;
  Solver S{F};
  Type B16 = Type::bitVecTy(16);
  TermRef X0 = F.mkVar(0, B16);
  TermRef X1 = F.mkVar(1, B16);
  TermRef bv(uint64_t V) { return F.mkBv(V, 16); }

  /// Number of cegar.projections spans \p Run records.
  template <typename Fn> size_t projectionSpans(Fn Run) {
    TraceRecorder &R = TraceRecorder::global();
    R.enable();
    Run();
    R.disable();
    std::string Json = R.json();
    R.clear();
    size_t N = 0;
    const std::string Name = "\"name\":\"cegar.projections\"";
    for (size_t At = Json.find(Name); At != std::string::npos;
         At = Json.find(Name, At + 1))
      ++N;
    return N;
  }
};

TEST_F(WideImageTest, OverlappingWideImagesAreNotInjectiveInOneRound) {
  // [x0, x1] under x0 < 0x8000, and [x0 - 0x4000, x1] under
  // x0 >= 0x8000: both rules are injective, but their first outputs share
  // [0x4000, 0x7fff], so [0x4000, 0] and [0x8000, 0] collide. The exact
  // guards find that in the one and only round, and the witness is
  // realized by inputForPath.
  Seft A(1, 0, B16, B16);
  A.addTransition({0, Seft::FinalState, 2,
                   F.mkBvOp(Op::BvUlt, X0, bv(0x8000)), {X0, X1}});
  A.addTransition({0, Seft::FinalState, 2,
                   F.mkBvOp(Op::BvUge, X0, bv(0x8000)),
                   {F.mkBvOp(Op::BvSub, X0, bv(0x4000)), X1}});
  Result<InjectivityResult> R = Status::error("not run");
  EXPECT_EQ(projectionSpans([&] { R = checkInjectivity(A, S); }), 1u);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_FALSE(R->Injective);
  ASSERT_TRUE(R->Witness.has_value()) << R->Detail;
  const auto &[U1, U2] = *R->Witness;
  EXPECT_NE(U1, U2);
  EXPECT_EQ(A.transduce(U1), A.transduce(U2));
  EXPECT_EQ(A.transduce(U1).size(), 1u);
}

TEST_F(WideImageTest, InjectiveWideImagesTakeOneRound) {
  // The identity, split at x0 = 0x8000: the first outputs' images
  // [0, 0x7fff] and [0x8000, 0xffff] are disjoint, so the machine is
  // injective.
  Seft A(1, 0, B16, B16);
  A.addTransition({0, Seft::FinalState, 2,
                   F.mkBvOp(Op::BvUlt, X0, bv(0x8000)), {X0, X1}});
  A.addTransition({0, Seft::FinalState, 2,
                   F.mkBvOp(Op::BvUge, X0, bv(0x8000)), {X0, X1}});
  Result<InjectivityResult> R = Status::error("not run");
  EXPECT_EQ(projectionSpans([&] { R = checkInjectivity(A, S); }), 1u);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_TRUE(R->Injective) << R->Detail;
}

TEST_F(WideImageTest, NonCartesianImageIsStillAnError) {
  // [x0, x1] under x0 >= x1 and under x0 < x1: the machine is the
  // identity, so injective, but neither image predicate is Cartesian.
  // Per position both images cover almost all of [0, 0xffff], so the
  // output automaton is ambiguous, and no input realizes the witness on
  // both paths: the instance is outside the decidable fragment.
  Seft A(1, 0, B16, B16);
  A.addTransition({0, Seft::FinalState, 2, F.mkBvOp(Op::BvUge, X0, X1),
                   {X0, X1}});
  A.addTransition({0, Seft::FinalState, 2, F.mkBvOp(Op::BvUlt, X0, X1),
                   {X0, X1}});
  Result<InjectivityResult> R = checkInjectivity(A, S);
  ASSERT_FALSE(R.isOk());
  EXPECT_NE(R.status().message().find("is not Cartesian"), std::string::npos)
      << R.status().message();
}

TEST_F(InjectivityTest, SampleInputContext) {
  Seft A = example45();
  Result<InputContext> Ctx = sampleInputContext(A, S, 1);
  ASSERT_TRUE(Ctx.isOk()) << Ctx.status().message();
  // Prefix reaches state 1 (one positive symbol); suffix accepts from it.
  ASSERT_EQ(Ctx->Prefix.size(), 1u);
  EXPECT_GT(Ctx->Prefix[0].getInt(), 0);
  ASSERT_EQ(Ctx->Suffix.size(), 1u);
  ValueList Whole = Ctx->Prefix;
  Whole.insert(Whole.end(), Ctx->Suffix.begin(), Ctx->Suffix.end());
  EXPECT_EQ(A.transduce(Whole).size(), 1u);
}

} // namespace
