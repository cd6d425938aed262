//===- tests/enumerator_test.cpp - Bottom-up enumeration edge cases -------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "sygus/Enumerator.h"

#include "term/Eval.h"
#include "term/Printer.h"

#include <gtest/gtest.h>

using namespace genic;

namespace {

class EnumeratorTest : public ::testing::Test {
protected:
  TermFactory F;
  Type I = Type::intTy();
  Type B8 = Type::bitVecTy(8);
};

TEST_F(EnumeratorTest, IteSynthesisWhenEnabled) {
  // |x| needs a conditional: ite(x <= 0, -x, x) or equivalent.
  Grammar G = Grammar::standard(I, {I});
  G.EnableIte = true;
  std::vector<std::vector<Value>> Ex{
      {Value::intVal(-7)}, {Value::intVal(0)}, {Value::intVal(3)},
      {Value::intVal(-1)}, {Value::intVal(12)}};
  std::vector<Value> Target{Value::intVal(7), Value::intVal(0),
                            Value::intVal(3), Value::intVal(1),
                            Value::intVal(12)};
  Enumerator::Config C;
  C.MaxSize = 8;
  C.TimeoutSeconds = 20;
  Enumerator E(F, G, Ex, C);
  auto T = E.findMatching(Target);
  ASSERT_TRUE(T.has_value());
  for (int64_t V : {-20, -3, 0, 5, 40}) {
    std::vector<Value> Env{Value::intVal(V)};
    EXPECT_EQ(eval(*T, Env), Value::intVal(V < 0 ? -V : V)) << printTerm(*T);
  }
}

TEST_F(EnumeratorTest, IteDisabledByDefaultKeepsSearchFlat) {
  Grammar G = Grammar::standard(I, {I});
  EXPECT_FALSE(G.EnableIte);
  std::vector<std::vector<Value>> Ex{{Value::intVal(-7)}, {Value::intVal(3)}};
  std::vector<Value> Target{Value::intVal(7), Value::intVal(3)};
  Enumerator::Config C;
  C.MaxSize = 4;
  Enumerator E(F, G, Ex, C);
  // |x| at size <= 4 without ite does not exist over {+,-,neg,*}:
  // any polynomial through (-7,7) and (3,3) of that size fails elsewhere —
  // but the enumerator may still find SOME size-4 term matching just these
  // two examples (e.g. x*x is wrong on them; x+10 wrong on 3...).
  // The real assertion: whatever it returns matches the examples.
  auto T = E.findMatching(Target);
  if (T.has_value()) {
    for (size_t K = 0; K < Ex.size(); ++K)
      EXPECT_EQ(eval(*T, Ex[K]), Target[K]);
  }
}

TEST_F(EnumeratorTest, PartialComponentsKeepUndefinedSignatures) {
  // A partial component g (domain x >= 1) can appear in useful subterms;
  // the target here equals g(x) + 1 on the sampled (in-domain) points.
  TermRef P0 = F.mkVar(0, I);
  const FuncDef *Dec =
      F.makeFunc("decEn", {I}, I, F.mkIntOp(Op::IntSub, P0, F.mkInt(1)),
                 F.mkIntOp(Op::IntGe, P0, F.mkInt(1)));
  Grammar G = Grammar::standard(I, {I});
  G.addFunc(Dec);
  std::vector<std::vector<Value>> Ex{{Value::intVal(1)}, {Value::intVal(5)}};
  std::vector<Value> Target{Value::intVal(0), Value::intVal(4)};
  Enumerator E(F, G, Ex);
  auto T = E.findMatching(Target);
  ASSERT_TRUE(T.has_value());
  std::vector<Value> Env{Value::intVal(9)};
  EXPECT_EQ(eval(*T, Env), Value::intVal(8)) << printTerm(*T);
}

TEST_F(EnumeratorTest, BudgetIsRespected) {
  Grammar G = Grammar::standard(B8, {B8});
  std::vector<std::vector<Value>> Ex{{Value::bitVecVal(1, 8)}};
  // Impossible target type pairing cannot happen (typed), so use an
  // unreachable value pattern with tiny budget instead.
  std::vector<Value> Target{Value::bitVecVal(0xAA, 8)};
  Enumerator::Config C;
  C.MaxSize = 2;
  Enumerator E(F, G, Ex, C);
  // With constants {0,1} and one variable, 0xAA is out of reach at size 2.
  auto T = E.findMatching(Target);
  EXPECT_FALSE(T.has_value());
  EXPECT_LE(E.stats().SizeReached, 2u);
}

TEST_F(EnumeratorTest, StatsReportProgress) {
  Grammar G = Grammar::standard(I, {I});
  std::vector<std::vector<Value>> Ex{{Value::intVal(2)}, {Value::intVal(5)}};
  std::vector<Value> Target{Value::intVal(4), Value::intVal(10)};
  Enumerator E(F, G, Ex);
  auto T = E.findMatching(Target);
  ASSERT_TRUE(T.has_value());
  EXPECT_GT(E.stats().TermsKept, 0u);
  EXPECT_FALSE(E.stats().TimedOut);
}

TEST_F(EnumeratorTest, ObservationalEquivalencePrunes) {
  // With one example, x + 0, x, x * 1 all collapse into one signature:
  // the banks stay tiny relative to candidates tried.
  Grammar G = Grammar::standard(I, {I});
  std::vector<std::vector<Value>> Ex{{Value::intVal(3)}};
  std::vector<Value> Target{Value::intVal(-100)}; // Forces deep search.
  Enumerator::Config C;
  C.MaxSize = 6;
  Enumerator E(F, G, Ex, C);
  (void)E.findMatching(Target);
  EXPECT_LT(E.stats().TermsKept, E.stats().CandidatesTried / 2)
      << "OE pruning should discard most duplicate-signature candidates";
}

TEST_F(EnumeratorTest, OversizedExampleSetsAreRejectedLoudly) {
  // Signatures pack definedness into 64 bits (Enumerator::MaxExamples);
  // a larger example set must fail loudly, never silently truncate —
  // synthesizing against a truncated spec would return wrong terms as
  // verified matches.
  Grammar G = Grammar::standard(I, {I});
  std::vector<std::vector<Value>> Ex;
  std::vector<Value> Target;
  for (int64_t K = 0; K < 65; ++K) {
    Ex.push_back({Value::intVal(K)});
    Target.push_back(Value::intVal(K));
  }
  Enumerator E(F, G, Ex);
  EXPECT_FALSE(E.findMatching(Target).has_value());
  EXPECT_TRUE(E.stats().RejectedOversized);
  EXPECT_FALSE(E.stats().Exhausted);

  // Exactly MaxExamples examples still work (identity matches them all).
  Ex.resize(Enumerator::MaxExamples);
  Target.resize(Enumerator::MaxExamples);
  Enumerator AtCap(F, G, Ex);
  EXPECT_TRUE(AtCap.findMatching(Target).has_value());
  EXPECT_FALSE(AtCap.stats().RejectedOversized);
}

TEST_F(EnumeratorTest, CompiledAuxEvaluationMatchesFallback) {
  // The enumerator evaluates aux-call candidates on example lanes
  // (term/LaneEval.h); the term it finds must agree with the reference
  // eval() on every example, including where the callee's domain rejects.
  TermRef P0 = F.mkVar(0, I);
  const FuncDef *Dec =
      F.makeFunc("decCa", {I}, I, F.mkIntOp(Op::IntSub, P0, F.mkInt(1)),
                 F.mkIntOp(Op::IntGe, P0, F.mkInt(1)));
  Grammar G = Grammar::standard(I, {I});
  G.addFunc(Dec);
  std::vector<std::vector<Value>> Ex{{Value::intVal(1)}, {Value::intVal(5)}};
  std::vector<Value> Target{Value::intVal(0), Value::intVal(4)};

  Enumerator E(F, G, Ex);
  auto T = E.findMatching(Target);
  ASSERT_TRUE(T.has_value());
  for (size_t K = 0; K != Ex.size(); ++K)
    EXPECT_EQ(eval(*T, Ex[K]), Target[K]) << printTerm(*T);
  EXPECT_GT(E.stats().CandidateEvals, 0u);

  // A partial callee's signature is undefined where its domain rejects:
  // dec(x0) - 1 cannot stand for x0 - 2 on an example below the domain.
  std::vector<std::vector<Value>> Low{{Value::intVal(0)}, {Value::intVal(5)}};
  std::vector<Value> LowTarget{Value::intVal(-2), Value::intVal(3)};
  Enumerator L(F, G, Low);
  auto U = L.findMatching(LowTarget);
  ASSERT_TRUE(U.has_value());
  for (size_t K = 0; K != Low.size(); ++K)
    EXPECT_EQ(eval(*U, Low[K]), LowTarget[K]) << printTerm(*U);
}

TEST_F(EnumeratorTest, ExhaustedSearchStaysEmptyOnMoreExamples) {
  // No term of size <= 5 maps these bytes to these scrambled ones. A search
  // that enumerated every size without a match is exhausted, and the same
  // search on the examples plus one more finds nothing either: a term's
  // signature on the larger set restricted to the old examples is its old
  // signature. (SygusEngine skips such pre-passes on this basis.)
  Grammar G = Grammar::standard(B8, {B8});
  std::vector<std::vector<Value>> Ex;
  std::vector<Value> Target;
  const uint64_t Scrambled[] = {0x3C, 0x91, 0x07, 0xE2, 0x5D, 0xA8, 0x44};
  for (uint64_t K = 0; K != 6; ++K) {
    Ex.push_back({Value::bitVecVal(K * 37 + 5, 8)});
    Target.push_back(Value::bitVecVal(Scrambled[K], 8));
  }
  Enumerator::Config C;
  C.MaxSize = 5;
  Enumerator E(F, G, Ex, C);
  EXPECT_FALSE(E.findMatching(Target).has_value());
  ASSERT_TRUE(E.stats().Exhausted);

  Ex.push_back({Value::bitVecVal(0xFE, 8)});
  Target.push_back(Value::bitVecVal(Scrambled[6], 8));
  Enumerator More(F, G, Ex, C);
  EXPECT_FALSE(More.findMatching(Target).has_value());
  EXPECT_TRUE(More.stats().Exhausted);

  // Runs cut short or matched are not exhausted.
  Enumerator::Config Tight = C;
  Tight.MaxTerms = 10;
  Enumerator Cut(F, G, Ex, Tight);
  EXPECT_FALSE(Cut.findMatching(Target).has_value());
  EXPECT_FALSE(Cut.stats().Exhausted);
  std::vector<Value> Identity;
  for (const std::vector<Value> &Row : Ex)
    Identity.push_back(Row[0]);
  Enumerator Hit(F, G, Ex, C);
  EXPECT_TRUE(Hit.findMatching(Identity).has_value());
  EXPECT_FALSE(Hit.stats().Exhausted);
}

TEST_F(EnumeratorTest, MixedWidthGrammars) {
  // Variables of different widths live in separate banks; operators only
  // combine same-width operands.
  Grammar G = Grammar::standard(B8, {B8, Type::bitVecTy(16)});
  std::vector<std::vector<Value>> Ex{
      {Value::bitVecVal(0x12, 8), Value::bitVecVal(0xABCD, 16)}};
  std::vector<Value> Target{Value::bitVecVal(0x24, 8)};
  Enumerator E(F, G, Ex);
  auto T = E.findMatching(Target); // x0 + x0
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ((*T)->type(), B8);
}

} // namespace
