//===- tests/solver_test.cpp - Z3 bridge, QE, projections -----------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "solver/Solver.h"

#include "term/Eval.h"
#include "term/Printer.h"

#include <gtest/gtest.h>

using namespace genic;

namespace {

class SolverTest : public ::testing::Test {
protected:
  TermFactory F;
  Solver S{F};
  Type I = Type::intTy();
  Type B8 = Type::bitVecTy(8);
  TermRef X0 = F.mkVar(0, Type::intTy());
  TermRef X1 = F.mkVar(1, Type::intTy());
  TermRef V0 = F.mkVar(0, Type::bitVecTy(8));
  TermRef V1 = F.mkVar(1, Type::bitVecTy(8));
};

TEST_F(SolverTest, BasicSat) {
  EXPECT_EQ(S.checkSat(F.mkIntOp(Op::IntLt, X0, X1)), SatResult::Sat);
  EXPECT_EQ(S.checkSat(F.mkAnd(F.mkIntOp(Op::IntLt, X0, X1),
                               F.mkIntOp(Op::IntLt, X1, X0))),
            SatResult::Unsat);
}

TEST_F(SolverTest, BasicValidity) {
  // x <= x + 1 over the integers.
  TermRef T = F.mkIntOp(Op::IntLe, X0, F.mkIntOp(Op::IntAdd, X0, F.mkInt(1)));
  Result<bool> V = S.isValid(T);
  ASSERT_TRUE(V.isOk());
  EXPECT_TRUE(*V);
  // x <= x + 1 is NOT valid over 8-bit vectors (wraps at 0xFF).
  TermRef U =
      F.mkBvOp(Op::BvUle, V0, F.mkBvOp(Op::BvAdd, V0, F.mkBv(1, 8)));
  Result<bool> W = S.isValid(U);
  ASSERT_TRUE(W.isOk());
  EXPECT_FALSE(*W);
}

TEST_F(SolverTest, ModelExtraction) {
  TermRef T = F.mkAnd(F.mkIntOp(Op::IntGt, X0, F.mkInt(5)),
                      F.mkIntOp(Op::IntLt, X0, F.mkInt(7)));
  Result<std::vector<Value>> M = S.getModel(T, {I});
  ASSERT_TRUE(M.isOk());
  EXPECT_EQ((*M)[0], Value::intVal(6));
}

TEST_F(SolverTest, ModelSatisfiesBvFormula) {
  TermRef T = F.mkAnd(
      F.mkEq(F.mkBvOp(Op::BvAnd, V0, F.mkBv(0x0F, 8)), F.mkBv(0x0A, 8)),
      F.mkBvOp(Op::BvUgt, V0, F.mkBv(0x80, 8)));
  Result<std::vector<Value>> M = S.getModel(T, {B8});
  ASSERT_TRUE(M.isOk());
  EXPECT_TRUE(evalBool(T, *M)) << "model " << (*M)[0].str();
}

TEST_F(SolverTest, GetModelOnUnsatErrors) {
  Result<std::vector<Value>> M = S.getModel(F.mkFalse(), {I});
  EXPECT_FALSE(M.isOk());
}

TEST_F(SolverTest, EquivalentUnderGuard) {
  // Under x >= 0: |x|-like ite equals x.
  TermRef Guard = F.mkIntOp(Op::IntGe, X0, F.mkInt(0));
  TermRef Abs = F.mkIte(F.mkIntOp(Op::IntLt, X0, F.mkInt(0)),
                        F.mkIntOp(Op::IntNeg, X0), X0);
  Result<bool> E = S.equivalentUnder(Guard, Abs, X0);
  ASSERT_TRUE(E.isOk());
  EXPECT_TRUE(*E);
  Result<bool> NotE = S.equivalentUnder(F.mkTrue(), Abs, X0);
  ASSERT_TRUE(NotE.isOk());
  EXPECT_FALSE(*NotE);
}

TEST_F(SolverTest, EliminateExistsLia) {
  // exists x0 . x0 >= 0 /\ x1 = x0 + 5  ==>  x1 >= 5 (over shifted Var(0)).
  TermRef Phi = F.mkAnd(F.mkIntOp(Op::IntGe, X0, F.mkInt(0)),
                        F.mkEq(X1, F.mkIntOp(Op::IntAdd, X0, F.mkInt(5))));
  Result<TermRef> R = S.eliminateExists(Phi, 1);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  // The result must be equivalent to Var(0) >= 5.
  TermRef Expected = F.mkIntOp(Op::IntGe, F.mkVar(0, I), F.mkInt(5));
  Result<bool> Eq = S.isValid(F.mkIff(*R, Expected));
  ASSERT_TRUE(Eq.isOk());
  EXPECT_TRUE(*Eq) << printTerm(*R);
}

TEST_F(SolverTest, EliminateExistsKeepsUnquantifiedVars) {
  // exists x0 . x0 = x1 /\ x0 <= x2  ==>  x1 <= x2.
  TermRef X2 = F.mkVar(2, I);
  TermRef Phi = F.mkAnd(F.mkEq(X0, X1), F.mkIntOp(Op::IntLe, X0, X2));
  Result<TermRef> R = S.eliminateExists(Phi, 1);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  TermRef Expected = F.mkIntOp(Op::IntLe, F.mkVar(0, I), F.mkVar(1, I));
  Result<bool> Eq = S.isValid(F.mkIff(*R, Expected));
  ASSERT_TRUE(Eq.isOk());
  EXPECT_TRUE(*Eq) << printTerm(*R);
}

// -- Image predicates -------------------------------------------------------

TEST_F(SolverTest, ProjectLiaShiftedRange) {
  // Transition from Example 4.5: guard x0 < 0, output x0 + 5.
  // Image of output 0 is y < 5.
  ImagePredicate P;
  P.Guard = F.mkIntOp(Op::IntLt, X0, F.mkInt(0));
  P.Outputs = {F.mkIntOp(Op::IntAdd, X0, F.mkInt(5))};
  P.NumInputs = 1;
  Result<std::optional<TermRef>> Psi = S.project(P, 0);
  ASSERT_TRUE(Psi.isOk()) << Psi.status().message();
  ASSERT_TRUE(Psi->has_value());
  TermRef Expected = F.mkIntOp(Op::IntLt, F.mkVar(0, I), F.mkInt(5));
  Result<bool> Eq = S.isValid(F.mkIff(**Psi, Expected));
  ASSERT_TRUE(Eq.isOk());
  EXPECT_TRUE(*Eq) << printTerm(**Psi);
}

TEST_F(SolverTest, ProjectBvShiftImage) {
  // Image of x >> 2 over all bytes is [0x00, 0x3F].
  ImagePredicate P;
  P.Guard = F.mkTrue();
  P.Outputs = {F.mkBvOp(Op::BvLshr, V0, F.mkBv(2, 8))};
  P.NumInputs = 1;
  Result<std::optional<TermRef>> Psi = S.project(P, 0);
  ASSERT_TRUE(Psi.isOk()) << Psi.status().message();
  ASSERT_TRUE(Psi->has_value());
  TermRef Y = F.mkVar(0, B8);
  TermRef Expected = F.mkBvOp(Op::BvUle, Y, F.mkBv(0x3F, 8));
  Result<bool> Eq = S.isValid(F.mkIff(**Psi, Expected));
  ASSERT_TRUE(Eq.isOk());
  EXPECT_TRUE(*Eq) << printTerm(**Psi);
}

TEST_F(SolverTest, ProjectBase64MappingImageIsTheAlphabet) {
  // The image of the Figure 2 mapping E over [0,0x3f] is the 64-character
  // BASE64 alphabet: A-Z a-z 0-9 + /.
  TermRef X = V0;
  auto Bv = [&](uint64_t V) { return F.mkBv(V, 8); };
  auto Le = [&](TermRef A, TermRef B) { return F.mkBvOp(Op::BvUle, A, B); };
  TermRef E = F.mkIte(
      Le(X, Bv(0x19)), F.mkBvOp(Op::BvAdd, X, Bv(0x41)),
      F.mkIte(Le(X, Bv(0x33)), F.mkBvOp(Op::BvAdd, X, Bv(0x47)),
              F.mkIte(Le(X, Bv(0x3d)), F.mkBvOp(Op::BvSub, X, Bv(0x04)),
                      F.mkIte(F.mkEq(X, Bv(0x3e)), Bv(0x2b), Bv(0x2f)))));
  ImagePredicate P;
  P.Guard = Le(X, Bv(0x3f));
  P.Outputs = {E};
  P.NumInputs = 1;
  Result<std::optional<TermRef>> Psi = S.project(P, 0);
  ASSERT_TRUE(Psi.isOk()) << Psi.status().message();
  ASSERT_TRUE(Psi->has_value());
  // Check pointwise against the alphabet.
  std::vector<bool> InAlphabet(256, false);
  for (char C : std::string("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstu"
                            "vwxyz0123456789+/"))
    InAlphabet[static_cast<unsigned char>(C)] = true;
  for (unsigned V = 0; V < 256; ++V) {
    std::vector<Value> Env{Value::bitVecVal(V, 8)};
    EXPECT_EQ(evalBool(**Psi, Env), InAlphabet[V]) << "at value " << V;
  }
}

TEST_F(SolverTest, AuxCallsAreInlinedForSolving) {
  TermRef Param = F.mkVar(0, I);
  const FuncDef *Plus5 =
      F.makeFunc("plus5s", {I}, I, F.mkIntOp(Op::IntAdd, Param, F.mkInt(5)));
  // plus5(x) = 7 is satisfiable with x = 2.
  TermRef T = F.mkEq(F.mkCall(Plus5, {X0}), F.mkInt(7));
  Result<std::vector<Value>> M = S.getModel(T, {I});
  ASSERT_TRUE(M.isOk()) << M.status().message();
  EXPECT_EQ((*M)[0], Value::intVal(2));
}

TEST_F(SolverTest, StatsCountQueries) {
  uint64_t Before = S.stats().SatQueries;
  (void)S.checkSat(F.mkTrue());
  EXPECT_GT(S.stats().SatQueries, Before);
}

// Parameterized: projections of bit-vector affine maps x*1+c over restricted
// guards produce exactly the shifted interval.
class BvAffineProjection : public ::testing::TestWithParam<unsigned> {};

TEST_P(BvAffineProjection, IntervalIsExact) {
  TermFactory F;
  Solver S(F);
  unsigned C = GetParam();
  TermRef X = F.mkVar(0, Type::bitVecTy(8));
  ImagePredicate P;
  // Guard: x <= 0x20. Output: x + C (no wrap since C <= 0xDF - 0x20).
  P.Guard = F.mkBvOp(Op::BvUle, X, F.mkBv(0x20, 8));
  P.Outputs = {F.mkBvOp(Op::BvAdd, X, F.mkBv(C, 8))};
  P.NumInputs = 1;
  Result<std::optional<TermRef>> Psi = S.project(P, 0);
  ASSERT_TRUE(Psi.isOk()) << Psi.status().message();
  ASSERT_TRUE(Psi->has_value());
  for (unsigned V = 0; V < 256; ++V) {
    bool Expected = V >= C && V <= 0x20 + C;
    std::vector<Value> Env{Value::bitVecVal(V, 8)};
    EXPECT_EQ(evalBool(**Psi, Env), Expected) << "value " << V << " c " << C;
  }
}

INSTANTIATE_TEST_SUITE_P(Offsets, BvAffineProjection,
                         ::testing::Values(0u, 1u, 0x41u, 0x80u, 0xB0u));

TEST_F(SolverTest, SatCacheEvictsAtCapacityAndStaysCorrect) {
  // Distinct hash-consed formulas so every query is a fresh memo entry.
  auto Q = [&](int K) { return F.mkIntOp(Op::IntLt, X0, F.mkInt(K)); };

  S.setSatCacheCapacity(4);
  EXPECT_EQ(S.satCacheCapacity(), 4u);
  for (int K = 0; K < 10; ++K)
    EXPECT_EQ(S.checkSat(Q(K)), SatResult::Sat);
  // 10 inserts into a 4-entry table: at least one generation clear fired.
  EXPECT_GT(S.stats().CacheEvictions, 0u);
  EXPECT_EQ(S.stats().CacheHits, 0u);

  // Answers survive eviction — re-querying is a miss, not a wrong verdict,
  // and unsatisfiable formulas still classify correctly.
  uint64_t Evictions = S.stats().CacheEvictions;
  EXPECT_EQ(S.checkSat(Q(0)), SatResult::Sat);
  EXPECT_EQ(S.checkSat(F.mkAnd(Q(0), F.mkIntOp(Op::IntGt, X0, F.mkInt(0)))),
            SatResult::Unsat);
  // A hit on a resident entry does not evict.
  EXPECT_EQ(S.checkSat(Q(9)), SatResult::Sat);
  EXPECT_GE(S.stats().CacheHits, 1u);
  EXPECT_EQ(S.stats().CacheEvictions, Evictions);
}

TEST_F(SolverTest, SatCacheCapacityZeroDisablesMemoization) {
  S.setSatCacheCapacity(0);
  TermRef T = F.mkIntOp(Op::IntLt, X0, X1);
  EXPECT_EQ(S.checkSat(T), SatResult::Sat);
  EXPECT_EQ(S.checkSat(T), SatResult::Sat);
  // Same formula twice: with the memo disabled both are misses.
  EXPECT_EQ(S.stats().CacheHits, 0u);
  EXPECT_EQ(S.stats().SatQueries, 2u);
}

} // namespace
