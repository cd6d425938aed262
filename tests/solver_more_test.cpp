//===- tests/solver_more_test.cpp - Solver edge cases ----------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "solver/Solver.h"

#include "term/Eval.h"
#include "term/Printer.h"
#include "transducer/Injectivity.h"

#include <gtest/gtest.h>

using namespace genic;

namespace {

class SolverMoreTest : public ::testing::Test {
protected:
  TermFactory F;
  Solver S{F};
  Type I = Type::intTy();
  TermRef X0 = F.mkVar(0, Type::intTy());
  TermRef X1 = F.mkVar(1, Type::intTy());
  TermRef X2 = F.mkVar(2, Type::intTy());
};

TEST_F(SolverMoreTest, EliminateMultipleVariables) {
  // exists x0 x1 . x0 >= 0 /\ x1 >= 0 /\ x2 = x0 + x1  ==>  x2 >= 0.
  TermRef Phi = F.mkAnd(
      {F.mkIntOp(Op::IntGe, X0, F.mkInt(0)),
       F.mkIntOp(Op::IntGe, X1, F.mkInt(0)),
       F.mkEq(X2, F.mkIntOp(Op::IntAdd, X0, X1))});
  Result<TermRef> R = S.eliminateExists(Phi, 2);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  TermRef Expected = F.mkIntOp(Op::IntGe, F.mkVar(0, I), F.mkInt(0));
  Result<bool> Eq = S.isValid(F.mkIff(*R, Expected));
  ASSERT_TRUE(Eq.isOk());
  EXPECT_TRUE(*Eq) << printTerm(*R);
}

TEST_F(SolverMoreTest, EliminateAllVariablesGivesClosedFormula) {
  TermRef Phi = F.mkIntOp(Op::IntLt, X0, F.mkInt(0));
  Result<TermRef> R = S.eliminateExists(Phi, 1);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_EQ(*R, F.mkTrue());
  TermRef Unsat = F.mkAnd(F.mkIntOp(Op::IntLt, X0, F.mkInt(0)),
                          F.mkIntOp(Op::IntGt, X0, F.mkInt(0)));
  R = S.eliminateExists(Unsat, 1);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_EQ(*R, F.mkFalse());
}

TEST_F(SolverMoreTest, EliminateUnusedVariableIsIdentity) {
  TermRef Phi = F.mkIntOp(Op::IntLt, X1, F.mkInt(7)); // x0 unused
  Result<TermRef> R = S.eliminateExists(Phi, 1);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  TermRef Expected = F.mkIntOp(Op::IntLt, F.mkVar(0, I), F.mkInt(7));
  Result<bool> Eq = S.isValid(F.mkIff(*R, Expected));
  ASSERT_TRUE(Eq.isOk());
  EXPECT_TRUE(*Eq) << printTerm(*R);
}

TEST_F(SolverMoreTest, EquivalentUnderBooleans) {
  TermRef P = F.mkIntOp(Op::IntGe, X0, F.mkInt(0));
  TermRef Q = F.mkNot(F.mkIntOp(Op::IntLt, X0, F.mkInt(0)));
  Result<bool> Eq = S.equivalentUnder(F.mkTrue(), P, Q);
  ASSERT_TRUE(Eq.isOk());
  EXPECT_TRUE(*Eq);
}

TEST_F(SolverMoreTest, ProjectWideBitVectorRange) {
  // 32-bit affine image [0x1000, 0x10FFF]: the enumeration cap is reached,
  // so project() reports no closed form, and the output automaton carries
  // the existential image predicate instead, which is exact. (This is the
  // mode the injectivity pipeline uses for wide symbols.)
  TermFactory F2;
  Solver S2(F2);
  Type B32 = Type::bitVecTy(32);
  TermRef X = F2.mkVar(0, B32);
  ImagePredicate P;
  P.Guard = F2.mkAnd(
      F2.mkBvOp(Op::BvUge, X, F2.mkBv(0x10000, 32)),
      F2.mkBvOp(Op::BvUle, X, F2.mkBv(0x10FFFF, 32)));
  P.Outputs = {F2.mkBvOp(Op::BvLshr, X, F2.mkBv(4, 32))};
  P.NumInputs = 1;
  Result<std::optional<TermRef>> Psi = S2.project(P, 0);
  ASSERT_TRUE(Psi.isOk()) << Psi.status().message();
  EXPECT_FALSE(Psi->has_value()) << printTerm(**Psi);

  Seft A(1, 0, B32, B32);
  A.addTransition({0, Seft::FinalState, 1, P.Guard, P.Outputs});
  Result<CartesianSefa> AO = buildOutputAutomaton(A, S2);
  ASSERT_TRUE(AO.isOk()) << AO.status().message();
  ASSERT_EQ(AO->transitions().size(), 1u);
  TermRef Guard = AO->transitions()[0].Guards[0];
  auto Holds = [&](uint64_t V) {
    TermRef Pin[] = {F2.mkBv(V, 32)};
    Result<bool> Sat = S2.isSat(F2.substitute(Guard, Pin));
    EXPECT_TRUE(Sat.isOk()) << Sat.status().message();
    return Sat.isOk() && *Sat;
  };
  EXPECT_TRUE(Holds(0x1000));
  EXPECT_TRUE(Holds(0x8765));
  EXPECT_TRUE(Holds(0x10FFF));
  EXPECT_FALSE(Holds(0xFFF));
  EXPECT_FALSE(Holds(0x11000));
}

TEST_F(SolverMoreTest, ProjectWideImageWithinEnumerationCap) {
  // A wide symbol whose image is small enumerates exactly.
  TermFactory F2;
  Solver S2(F2);
  Type B16 = Type::bitVecTy(16);
  TermRef X = F2.mkVar(0, B16);
  ImagePredicate P;
  P.Guard = F2.mkTrue();
  P.Outputs = {F2.mkBvOp(Op::BvLshr, X, F2.mkBv(8, 16))};
  P.NumInputs = 1;
  Result<std::optional<TermRef>> Psi = S2.project(P, 0);
  ASSERT_TRUE(Psi.isOk()) << Psi.status().message();
  ASSERT_TRUE(Psi->has_value());
  std::vector<Value> In{Value::bitVecVal(0xFF, 16)};
  std::vector<Value> Out{Value::bitVecVal(0x100, 16)};
  EXPECT_TRUE(evalBool(**Psi, In));
  EXPECT_FALSE(evalBool(**Psi, Out));
}

TEST_F(SolverMoreTest, CheckSatOnBoolVariables) {
  TermRef B0 = F.mkVar(0, Type::boolTy());
  TermRef B1 = F.mkVar(1, Type::boolTy());
  EXPECT_EQ(S.checkSat(F.mkAnd(B0, F.mkNot(B0))), SatResult::Unsat);
  Result<std::vector<Value>> M =
      S.getModel(F.mkAnd(B0, F.mkNot(B1)), {Type::boolTy(), Type::boolTy()});
  ASSERT_TRUE(M.isOk());
  EXPECT_TRUE((*M)[0].getBool());
  EXPECT_FALSE((*M)[1].getBool());
}

TEST_F(SolverMoreTest, StatsTrackQeCalls) {
  uint64_t Before = S.stats().QeCalls;
  (void)S.eliminateExists(F.mkEq(X0, X1), 1);
  EXPECT_GT(S.stats().QeCalls, Before);
}

} // namespace
