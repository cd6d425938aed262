//===- tests/lane_eval_test.cpp - Lane vs tree-walking parity -------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lane evaluator's contract is exact agreement with eval() of
/// term/Eval.h on every example it covers: the same values (packed as
/// Value::rawBits()), the same undefined outcomes, and nothing on examples
/// outside the mask. These tests check it on random terms, on every
/// operator at every bit-vector width the enumerator meets and on Int, on
/// partial and nested auxiliary calls, on short-circuit cases, and at 1,
/// 24 and 64 lanes with sparse masks.
///
//===----------------------------------------------------------------------===//

#include "term/LaneEval.h"

#include "RandomTerms.h"
#include "term/Eval.h"
#include "term/Printer.h"
#include "term/TermFactory.h"

#include <gtest/gtest.h>

#include <bit>
#include <random>

using namespace genic;

namespace {

using Examples = std::vector<std::vector<Value>>;

/// Lane columns of an example set: Columns[i][e] packs Examples[e][i].
struct LaneColumns {
  std::vector<std::vector<uint64_t>> Columns;
  std::vector<Lane> Lanes;

  explicit LaneColumns(const Examples &Ex) {
    size_t NumVars = Ex.empty() ? 0 : Ex[0].size();
    Columns.assign(NumVars, std::vector<uint64_t>(Ex.size()));
    for (size_t E = 0; E != Ex.size(); ++E)
      for (size_t I = 0; I != NumVars; ++I)
        Columns[I][E] = Ex[E][I].rawBits();
    for (size_t I = 0; I != NumVars; ++I)
      Lanes.push_back(Lane{Columns[I].data(), Ex[0][I].type()});
  }
};

/// Checks one lane result against per-example reference values: a lane
/// inside \p Defined is defined iff the reference is, with its packed
/// value; every other lane is undefined and 0.
void expectLanesMatch(const Examples &Ex, uint64_t Defined, uint64_t Got,
                      const uint64_t *Out,
                      const std::vector<std::optional<Value>> &Reference,
                      const std::string &What) {
  for (size_t E = 0; E != Ex.size(); ++E) {
    bool In = Defined >> E & 1;
    std::optional<Value> Want = In ? Reference[E] : std::nullopt;
    ASSERT_EQ(bool(Got >> E & 1), Want.has_value())
        << What << " lane " << E << (In ? " (in mask)" : " (outside mask)");
    EXPECT_EQ(Out[E], Want ? Want->rawBits() : 0) << What << " lane " << E;
  }
  if (Ex.size() < 64) {
    EXPECT_EQ(Got >> Ex.size(), 0u) << What << ": lanes past NumEx";
  }
}

/// evalLanes(T) against eval(T), and evalBoolLanes(T) against evalBool(T),
/// on every example of \p Ex.
void expectTermParity(TermRef T, const Examples &Ex, uint64_t Defined) {
  LaneColumns Cols(Ex);
  uint64_t Out[MaxLanes];
  std::fill_n(Out, MaxLanes, 0xDEADBEEF); // Lanes must all be written.
  uint64_t Got = evalLanes(T, Cols.Lanes, Defined, Ex.size(), Out);
  std::vector<std::optional<Value>> Reference;
  uint64_t Holds = 0;
  for (size_t E = 0; E != Ex.size(); ++E) {
    Reference.push_back(eval(T, Ex[E]));
    if (Defined >> E & 1 && evalBool(T, Ex[E]))
      Holds |= uint64_t{1} << E;
  }
  // Values must also carry the term's type (rawBits() alone drops it).
  for (size_t E = 0; E != Ex.size(); ++E) {
    if (Reference[E] && (Defined >> E & 1)) {
      EXPECT_EQ(Reference[E]->type(), T->type()) << printTerm(T);
      EXPECT_EQ(Value::fromRawBits(T->type(), Out[E]), *Reference[E])
          << printTerm(T);
    }
  }
  expectLanesMatch(Ex, Defined, Got, Out, Reference, printTerm(T));
  EXPECT_EQ(evalBoolLanes(T, Cols.Lanes, Defined, Ex.size()), Holds)
      << printTerm(T);
}

/// A random mask over \p NumEx lanes: dense, sparse or a single lane.
uint64_t randomMask(std::mt19937_64 &Rng, size_t NumEx) {
  uint64_t All = NumEx == 64 ? ~uint64_t{0} : (uint64_t{1} << NumEx) - 1;
  switch (Rng() % 4) {
  case 0:
    return All;
  case 1:
    return Rng() & Rng() & All; // About a quarter of the lanes.
  case 2:
    return (uint64_t{1} << (Rng() % NumEx)) & All;
  default:
    return Rng() & All;
  }
}

/// A random bit pattern of width \p W leaning on edge values: zero, all
/// ones, the sign bit, and shift amounts on both sides of the width.
uint64_t randomBits(std::mt19937_64 &Rng, unsigned W) {
  uint64_t M = Value::maskOf(W);
  switch (Rng() % 6) {
  case 0:
    return 0;
  case 1:
    return M;
  case 2:
    return uint64_t{1} << (W - 1);
  case 3:
    return (Rng() % (W + 2)) & M;
  default:
    return Rng() & M;
  }
}

Value randomValue(std::mt19937_64 &Rng, const Type &Ty) {
  if (Ty.isBool())
    return Value::boolVal(Rng() & 1);
  if (Ty.isInt()) {
    // Small and mid magnitudes of both signs; products stay in range.
    int64_t Span = Rng() % 4 == 0 ? (int64_t{1} << 30) : 16;
    return Value::intVal(static_cast<int64_t>(Rng() % (2 * Span + 1)) -
                         Span);
  }
  return Value::bitVecVal(randomBits(Rng, Ty.width()), Ty.width());
}

Examples randomExamples(std::mt19937_64 &Rng, const std::vector<Type> &Types,
                        size_t NumEx) {
  Examples Ex(NumEx);
  for (std::vector<Value> &Env : Ex)
    for (const Type &Ty : Types)
      Env.push_back(randomValue(Rng, Ty));
  return Ex;
}

class LaneEvalTest : public ::testing::Test {
protected:
  TermFactory F;
  RandomTerms Gen{F};
  Type Bool = Type::boolTy();
  Type Int = Type::intTy();

  /// A random term of type \p Ty over Var(0), Var(1) of value type \p VT
  /// (a bit-vector or Int) and Var(2) of Bool, reaching every operator of
  /// VT's theory, ite, the connectives and calls of \p Partial (a partial
  /// unary function over VT) and \p Nested (a partial one calling it).
  TermRef anyTerm(std::mt19937_64 &Rng, const Type &Ty, const Type &VT,
                  const FuncDef *Partial, const FuncDef *Nested,
                  unsigned Depth) {
    auto Pick = [&](unsigned N) { return unsigned(Rng() % N); };
    auto Sub = [&](const Type &T) {
      return anyTerm(Rng, T, VT, Partial, Nested, Depth - 1);
    };
    if (Ty.isBool()) {
      if (Depth == 0)
        return Pick(2) ? F.mkVar(2, Bool) : F.mkBool(Pick(2));
      switch (Pick(9)) {
      case 0:
        return F.mkNot(Sub(Bool));
      case 1:
        return F.mkAnd({Sub(Bool), Sub(Bool), Sub(Bool)});
      case 2:
        return F.mkOr(Sub(Bool), Sub(Bool));
      case 3:
        return F.mkImplies(Sub(Bool), Sub(Bool));
      case 4:
        return F.mkIff(Sub(Bool), Sub(Bool));
      case 5:
        return F.mkIte(Sub(Bool), Sub(Bool), Sub(Bool));
      case 6:
        return F.mkEq(Sub(VT), Sub(VT));
      default: {
        if (VT.isInt()) {
          Op Cmp[] = {Op::IntLe, Op::IntLt, Op::IntGe, Op::IntGt};
          return F.mkIntOp(Cmp[Pick(4)], Sub(VT), Sub(VT));
        }
        Op Cmp[] = {Op::BvUle, Op::BvUlt, Op::BvUge, Op::BvUgt,
                    Op::BvSle, Op::BvSlt, Op::BvSge, Op::BvSgt};
        return F.mkBvOp(Cmp[Pick(8)], Sub(VT), Sub(VT));
      }
      }
    }
    if (Depth == 0)
      return Pick(2) ? F.mkVar(Pick(2), VT) : F.mkConst(randomValue(Rng, VT));
    switch (Pick(6)) {
    case 0:
      return F.mkIte(Sub(Bool), Sub(VT), Sub(VT));
    case 1:
      return F.mkCall(Pick(2) ? Partial : Nested, {Sub(VT)});
    default:
      break;
    }
    if (VT.isInt()) {
      Op Ops[] = {Op::IntNeg, Op::IntAdd, Op::IntSub, Op::IntMul};
      Op O = Ops[Pick(4)];
      // Small factors keep nested products in range: eval() computes in
      // int64, where overflow is undefined behaviour.
      if (O == Op::IntMul)
        return F.mkIntOp(O, Sub(VT), F.mkInt(int64_t(Pick(7)) - 3));
      return O == Op::IntNeg ? F.mkIntOp(O, Sub(VT))
                             : F.mkIntOp(O, Sub(VT), Sub(VT));
    }
    Op Ops[] = {Op::BvNeg, Op::BvNot, Op::BvAdd, Op::BvSub,
                Op::BvMul, Op::BvAnd, Op::BvOr,  Op::BvXor,
                Op::BvShl, Op::BvLshr, Op::BvAshr};
    Op O = Ops[Pick(11)];
    if (O == Op::BvNeg || O == Op::BvNot)
      return F.mkBvOp(O, Sub(VT));
    return F.mkBvOp(O, Sub(VT), Sub(VT));
  }

  /// half_T(p) := p >> 1 (p - 7 on Int) when p is below a bound, and
  /// twice_T(p) := half_T(p) + p when p is nonzero and half_T(p) defined.
  std::pair<const FuncDef *, const FuncDef *> partialPair(const Type &VT) {
    std::string Tag = VT.isInt() ? "int" : std::to_string(VT.width());
    TermRef P0 = F.mkVar(0, VT);
    TermRef Zero = F.mkConst(VT.isInt() ? Value::intVal(0)
                                        : Value::bitVecVal(0, VT.width()));
    const FuncDef *Half, *Twice;
    if (VT.isInt()) {
      Half = F.makeFunc("half_" + Tag, {VT}, VT,
                        F.mkIntOp(Op::IntSub, P0, F.mkInt(7)),
                        F.mkIntOp(Op::IntLt, P0, F.mkInt(5)));
      Twice = F.makeFunc(
          "twice_" + Tag, {VT}, VT,
          F.mkIntOp(Op::IntAdd, F.mkCall(Half, {P0}), P0),
          F.mkNot(F.mkEq(P0, Zero)));
    } else {
      unsigned W = VT.width();
      Half = F.makeFunc(
          "half_" + Tag, {VT}, VT, F.mkBvOp(Op::BvLshr, P0, F.mkBv(1, W)),
          F.mkBvOp(Op::BvUlt, P0, F.mkBv((Value::maskOf(W) >> 1) | 1, W)));
      Twice = F.makeFunc(
          "twice_" + Tag, {VT}, VT,
          F.mkBvOp(Op::BvAdd, F.mkCall(Half, {P0}), P0),
          F.mkNot(F.mkEq(P0, Zero)));
    }
    return {Half, Twice};
  }
};

TEST_F(LaneEvalTest, RandomTermParity) {
  // compiled_eval_test's random terms: (BitVec 8), partial and nested
  // calls, every connective.
  std::mt19937_64 Rng(0x1A4E5);
  std::vector<Type> Types(3, Gen.B8);
  for (unsigned Trial = 0; Trial < 400; ++Trial) {
    TermRef T =
        Gen.term(Rng, Trial % 2 ? Gen.B8 : Gen.Bool, 3, 1 + Trial % 5);
    size_t NumEx = std::vector<size_t>{1, 24, 64}[Trial % 3];
    Examples Ex = randomExamples(Rng, Types, NumEx);
    expectTermParity(T, Ex, randomMask(Rng, NumEx));
  }
}

TEST_F(LaneEvalTest, EveryOperatorAtEveryWidth) {
  // Random terms over each value type the enumerator meets, with partial
  // and nested calls at that type; masks and lane counts vary.
  std::mt19937_64 Rng(0x5EED);
  std::vector<Type> ValueTypes{Int};
  for (unsigned W : {1u, 7u, 8u, 16u, 32u, 64u})
    ValueTypes.push_back(Type::bitVecTy(W));
  for (const Type &VT : ValueTypes) {
    auto [Half, Twice] = partialPair(VT);
    std::vector<Type> Types{VT, VT, Bool};
    for (unsigned Trial = 0; Trial < 300; ++Trial) {
      TermRef T = anyTerm(Rng, Trial % 3 == 0 ? Bool : VT, VT, Half, Twice,
                          1 + Trial % 4);
      size_t NumEx = std::vector<size_t>{1, 24, 64}[Trial % 3];
      Examples Ex = randomExamples(Rng, Types, NumEx);
      expectTermParity(T, Ex, randomMask(Rng, NumEx));
    }
  }
}

TEST_F(LaneEvalTest, ApplyLanesMatchesApplyOpOnEveryOperator) {
  // The enumerator's strict path: each operator on operand lanes defined
  // on the mask, against applyOp() per example.
  std::mt19937_64 Rng(0xA99);
  auto Check = [&](Op O, const std::vector<Type> &Types) {
    for (size_t NumEx : {1u, 24u, 64u}) {
      Examples Ex = randomExamples(Rng, Types, NumEx);
      LaneColumns Cols(Ex);
      uint64_t Defined = randomMask(Rng, NumEx);
      uint64_t Out[MaxLanes];
      uint64_t Got = applyLanes(O, Cols.Lanes, Defined, NumEx, Out);
      std::vector<std::optional<Value>> Reference;
      for (const std::vector<Value> &Args : Ex)
        Reference.push_back(applyOp(O, Args));
      expectLanesMatch(Ex, Defined, Got, Out, Reference,
                       std::string(opName(O)) + " over " + Types[0].str());
    }
  };
  for (Op O : {Op::Not})
    Check(O, {Bool});
  for (Op O : {Op::And, Op::Or}) {
    Check(O, {Bool, Bool});
    Check(O, {Bool, Bool, Bool});
  }
  for (Op O : {Op::Implies, Op::Iff, Op::Eq})
    Check(O, {Bool, Bool});
  Check(Op::Ite, {Bool, Int, Int});
  Check(Op::Ite, {Bool, Bool, Bool});
  Check(Op::IntNeg, {Int});
  for (Op O : {Op::IntAdd, Op::IntSub, Op::IntMul, Op::IntLe, Op::IntLt,
               Op::IntGe, Op::IntGt, Op::Eq})
    Check(O, {Int, Int});
  for (unsigned W : {1u, 7u, 8u, 16u, 32u, 64u}) {
    Type BV = Type::bitVecTy(W);
    Check(Op::BvNeg, {BV});
    Check(Op::BvNot, {BV});
    for (Op O : {Op::BvAdd, Op::BvSub, Op::BvMul, Op::BvAnd, Op::BvOr,
                 Op::BvXor, Op::BvShl, Op::BvLshr, Op::BvAshr, Op::BvUle,
                 Op::BvUlt, Op::BvUge, Op::BvUgt, Op::BvSle, Op::BvSlt,
                 Op::BvSge, Op::BvSgt, Op::Eq})
      Check(O, {BV, BV});
    Check(Op::Ite, {Bool, BV, BV});
  }
  // Operands of different types: equality is false, bit-vector operators
  // undefined, exactly as applyOp() has it.
  Check(Op::Eq, {Type::bitVecTy(8), Type::bitVecTy(16)});
  Check(Op::BvAdd, {Type::bitVecTy(8), Type::bitVecTy(16)});
}

TEST_F(LaneEvalTest, PartialAndNestedCalls) {
  // dec is undefined below 0x41; dec2 checks its own domain, then dec's.
  TermRef X = F.mkVar(0, Gen.B8);
  Examples All;
  for (uint64_t Raw = 0; Raw < 256; Raw += 4)
    All.push_back({Value::bitVecVal(Raw, 8)});
  ASSERT_EQ(All.size(), 64u);
  for (const FuncDef *Fn : {Gen.Enc, Gen.Dec, Gen.Dec2}) {
    expectTermParity(F.mkCall(Fn, {X}), All, ~uint64_t{0});
    expectTermParity(
        F.mkBvOp(Op::BvAdd, F.mkCall(Fn, {X}), F.mkBv(1, 8)), All,
        0x00FF00FF00FF00FFull);

    // callLanes is a Call node whose arguments are the lanes themselves.
    LaneColumns Cols(All);
    uint64_t Out[MaxLanes];
    uint64_t Got = callLanes(Fn, Cols.Lanes, ~uint64_t{0}, All.size(), Out);
    std::vector<std::optional<Value>> Reference;
    bool SawDefined = false, SawUndefined = false;
    for (const std::vector<Value> &Arg : All) {
      Reference.push_back(Fn->Domain && !evalBool(Fn->Domain, Arg)
                              ? std::nullopt
                              : eval(Fn->Body, Arg));
      (Reference.back() ? SawDefined : SawUndefined) = true;
    }
    EXPECT_TRUE(SawDefined) << Fn->Name;
    EXPECT_EQ(SawUndefined, Fn->Domain != nullptr) << Fn->Name;
    expectLanesMatch(All, ~uint64_t{0}, Got, Out, Reference, Fn->Name);
  }
}

TEST_F(LaneEvalTest, ShortCircuitHidesLaterUndefined) {
  // and(false, P(dec(x))) is false — not undefined — where dec(x) is
  // undefined; or(true, ...) likewise; and the untaken ite branch may be
  // undefined. With the deciding operand second, the lane is undefined.
  TermRef X = F.mkVar(0, Gen.B8);
  TermRef DecDefined = F.mkEq(F.mkCall(Gen.Dec, {X}), F.mkBv(0, 8));
  TermRef Low = F.mkBvOp(Op::BvUlt, X, F.mkBv(0x41, 8));
  TermRef High = F.mkBvOp(Op::BvUge, X, F.mkBv(0x41, 8));
  std::vector<TermRef> Cases{
      F.mkAnd({High, DecDefined}),
      F.mkOr({Low, DecDefined}),
      F.mkAnd({DecDefined, High}),
      F.mkOr({DecDefined, Low}),
      F.mkIte(Low, F.mkBv(9, 8), F.mkCall(Gen.Dec, {X})),
      F.mkIte(High, F.mkCall(Gen.Dec, {X}), F.mkBv(9, 8)),
      F.mkIte(DecDefined, F.mkBv(1, 8), F.mkBv(2, 8)),
  };
  for (uint64_t Base : {0u, 64u, 128u, 192u}) {
    Examples Ex;
    for (uint64_t Raw = Base; Raw < Base + 64; ++Raw)
      Ex.push_back({Value::bitVecVal(Raw, 8)});
    for (TermRef T : Cases) {
      expectTermParity(T, Ex, ~uint64_t{0});
      expectTermParity(T, Ex, 0x8000000100010001ull);
    }
  }
}

TEST_F(LaneEvalTest, UnboundAndMistypedVariablesAreUndefined) {
  TermRef T = F.mkBvOp(Op::BvAdd, F.mkVar(0, Gen.B8), F.mkVar(1, Gen.B8));
  Examples Fine{{Value::bitVecVal(1, 8), Value::bitVecVal(2, 8)}};
  Examples Short{{Value::bitVecVal(1, 8)}};
  Examples Mistyped{{Value::bitVecVal(1, 8), Value::intVal(2)}};
  expectTermParity(T, Fine, 1);
  expectTermParity(T, Short, 1);
  expectTermParity(T, Mistyped, 1);
  // ...but an untaken branch may read them.
  TermRef Guarded = F.mkIte(F.mkTrue(), F.mkVar(0, Gen.B8), T);
  expectTermParity(Guarded, Short, 1);
  expectTermParity(Guarded, Mistyped, 1);
}

TEST_F(LaneEvalTest, EmptyMaskEvaluatesNothing) {
  TermRef T = F.mkCall(Gen.Dec, {F.mkVar(0, Gen.B8)});
  Examples Ex(24, std::vector<Value>{Value::bitVecVal(0x50, 8)});
  LaneColumns Cols(Ex);
  uint64_t Out[MaxLanes];
  std::fill_n(Out, MaxLanes, 7);
  EXPECT_EQ(evalLanes(T, Cols.Lanes, 0, Ex.size(), Out), 0u);
  for (size_t E = 0; E != Ex.size(); ++E)
    EXPECT_EQ(Out[E], 0u);
  // Mask bits past NumEx are ignored.
  EXPECT_EQ(std::popcount(evalLanes(T, Cols.Lanes, ~uint64_t{0}, Ex.size(),
                                    Out)),
            24);
}

} // namespace
