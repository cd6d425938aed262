//===- tests/composition_test.cpp - Bounded inverse verification ----------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "transducer/Composition.h"

#include "engine/InversionEngine.h"
#include "genic/Lower.h"
#include "genic/Parser.h"
#include "sygus/Inverter.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

using namespace genic;

namespace {

class CompositionTest : public ::testing::Test {
protected:
  TermFactory F;
  Solver S{F};
  Type I = Type::intTy();
  TermRef X0 = F.mkVar(0, Type::intTy());
  TermRef X1 = F.mkVar(1, Type::intTy());
};

TEST_F(CompositionTest, VerifiesHandWrittenAffinePair) {
  // A: [x0, x1] -> [x0 + x1, x0] (Example 6.1); B: the known inverse.
  Seft A(1, 0, I, I);
  A.addTransition({0, 0, 2,
                   F.mkAnd(F.mkIntOp(Op::IntGe, X0, F.mkInt(0)),
                           F.mkIntOp(Op::IntGe, X1, F.mkInt(0))),
                   {F.mkIntOp(Op::IntAdd, X0, X1), X0}});
  A.addTransition({0, Seft::FinalState, 0, F.mkTrue(), {}});
  Seft B(1, 0, I, I);
  B.addTransition({0, 0, 2,
                   F.mkAnd(F.mkIntOp(Op::IntGe, X0, X1),
                           F.mkIntOp(Op::IntGe, X1, F.mkInt(0))),
                   {X1, F.mkIntOp(Op::IntSub, X0, X1)}});
  B.addTransition({0, Seft::FinalState, 0, F.mkTrue(), {}});
  auto R = verifyInverseBounded(A, B, S, 4);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_FALSE(R->has_value()) << (*R)->Detail << " on "
                               << toString((*R)->Input);
}

TEST_F(CompositionTest, CatchesWrongRecovery) {
  Seft A(1, 0, I, I);
  A.addTransition({0, 0, 1, F.mkIntOp(Op::IntGe, X0, F.mkInt(0)),
                   {F.mkIntOp(Op::IntAdd, X0, F.mkInt(5))}});
  A.addTransition({0, Seft::FinalState, 0, F.mkTrue(), {}});
  // Wrong inverse: subtracts 4 instead of 5.
  Seft Bad(1, 0, I, I);
  Bad.addTransition({0, 0, 1, F.mkIntOp(Op::IntGe, X0, F.mkInt(5)),
                     {F.mkIntOp(Op::IntSub, X0, F.mkInt(4))}});
  Bad.addTransition({0, Seft::FinalState, 0, F.mkTrue(), {}});
  auto R = verifyInverseBounded(A, Bad, S, 3);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  ASSERT_TRUE(R->has_value());
  // The counterexample is genuine: A maps it, Bad maps it elsewhere.
  auto Image = A.transduce((*R)->Input, 2);
  ASSERT_EQ(Image.size(), 1u);
  auto Back = Bad.transduce(Image[0], 2);
  EXPECT_TRUE(Back.empty() || Back[0] != (*R)->Input);
}

TEST_F(CompositionTest, CatchesCoverageGap) {
  Seft A(1, 0, I, I);
  A.addTransition({0, 0, 1, F.mkTrue(), {X0}});
  A.addTransition({0, Seft::FinalState, 0, F.mkTrue(), {}});
  // B only accepts positive symbols: negative images are uncovered.
  Seft B(1, 0, I, I);
  B.addTransition({0, 0, 1, F.mkIntOp(Op::IntGt, X0, F.mkInt(0)), {X0}});
  B.addTransition({0, Seft::FinalState, 0, F.mkTrue(), {}});
  auto R = verifyInverseBounded(A, B, S, 2);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  ASSERT_TRUE(R->has_value());
  EXPECT_NE((*R)->Detail.find("rejects"), std::string::npos);
}

TEST_F(CompositionTest, CatchesLengthMismatch) {
  Seft A(1, 0, I, I);
  A.addTransition({0, Seft::FinalState, 1,
                   F.mkIntOp(Op::IntGt, X0, F.mkInt(0)), {X0}});
  // B echoes the symbol twice: wrong length.
  Seft B(1, 0, I, I);
  B.addTransition({0, Seft::FinalState, 1,
                   F.mkIntOp(Op::IntGt, X0, F.mkInt(0)), {X0, X0}});
  auto R = verifyInverseBounded(A, B, S, 2);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  ASSERT_TRUE(R->has_value());
  EXPECT_NE((*R)->Detail.find("length"), std::string::npos);
}

TEST_F(CompositionTest, VerifiesSynthesizedInverseOfLiaMachine) {
  // End to end within one factory: invert with the real engine, then
  // verify the composition symbolically.
  Seft A(1, 0, I, I);
  A.addTransition({0, 0, 2, F.mkIntOp(Op::IntLt, X0, F.mkInt(0)),
                   {F.mkIntOp(Op::IntSub, X1, X0), X0}});
  A.addTransition({0, Seft::FinalState, 0, F.mkTrue(), {}});
  Inverter Inv(S);
  Result<InversionOutcome> Out = Inv.invert(A, {});
  ASSERT_TRUE(Out.isOk()) << Out.status().message();
  ASSERT_TRUE(Out->complete());
  auto R = verifyInverseBounded(A, Out->Inverse, S, 3);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_FALSE(R->has_value()) << (*R)->Detail << " on "
                               << toString((*R)->Input);
  // And the other direction: A inverts the inverse (Definition 5.2 is
  // symmetric).
  auto R2 = verifyInverseBounded(Out->Inverse, A, S, 3);
  ASSERT_TRUE(R2.isOk()) << R2.status().message();
  EXPECT_FALSE(R2->has_value());
}

/// Program file stems of the 14 Table-1 coders in programs/.
const std::string Coders[] = {
    "BASE16_decoder",     "BASE16_encoder",     "BASE32_decoder",
    "BASE32_encoder",     "BASE64_decoder",     "BASE64_encoder",
    "UTF-16_decoder",     "UTF-16_encoder",     "UTF-8_decoder",
    "UTF-8_encoder",      "UU_decoder",         "UU_encoder",
    "mod_BASE64_decoder", "mod_BASE64_encoder"};

class CompositionGenicTest : public ::testing::TestWithParam<std::string> {};

// The relation contract for printed inverses: whatever terms synthesis
// settles on, the inverse of every corpus coder must map the coder's
// output back to its input on all runs of up to three rules. The fixtures
// in tests/inverses/ pin the bytes; this pins what the bytes must mean.
TEST_P(CompositionGenicTest, VerifiesSynthesizedInverse) {
  std::ifstream In(GENIC_PROGRAMS_DIR "/" + GetParam() + ".genic");
  ASSERT_TRUE(In) << GetParam();
  std::stringstream Source;
  Source << In.rdbuf();

  EngineConfig Config;
  Config.Options.Jobs = 2;
  InversionEngine Engine(Config);
  SolverContext Ctx;
  // The run leaves the registry installed in Ctx's solver control, so it
  // must outlive the verification queries below.
  MetricsRegistry Registry;
  RequestContext Req;
  Req.ForceInvert = true;
  Req.Metrics = &Registry;
  Result<GenicReport> Report = Engine.runOnSession(Ctx, Source.str(), Req);
  ASSERT_TRUE(Report.isOk()) << Report.status().message();
  ASSERT_TRUE(Report->Inversion && Report->Inversion->complete());
  ASSERT_TRUE(Report->Machine && Report->InverseMachine);
  auto R = verifyInverseBounded(*Report->Machine, *Report->InverseMachine,
                                Ctx.solver(), 3);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_FALSE(R->has_value())
      << (*R)->Detail << " on " << toString((*R)->Input);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CompositionGenicTest, ::testing::ValuesIn(Coders),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

} // namespace
