//===- tests/verdict_core_test.cpp - Verdicts on the plain SMT core -------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Verdict-only queries (checkSat and its wrappers, checkSatBatch) run on
/// Z3's plain SMT core; model queries run on a fresh default solver. These
/// tests pin that the two engines agree on random bit-vector (widths 1-64)
/// and Int formulas, and that an Unknown on the plain core is decided by
/// the one escalated retry on a default solver.
///
//===----------------------------------------------------------------------===//

#include "RandomTerms.h"

#include "solver/Solver.h"
#include "term/Eval.h"
#include "term/Printer.h"

#include <gtest/gtest.h>

#include <random>

using namespace genic;

namespace {

/// The verdict of a fresh default solver: a model query on its own
/// session, whose model must satisfy the formula.
SatResult defaultSolverVerdict(TermFactory &F, TermRef Formula,
                               const Type &VarTy, unsigned NumVars) {
  Solver Reference(F);
  Result<std::vector<Value>> Model =
      Reference.getModel(Formula, std::vector<Type>(NumVars, VarTy));
  if (Model) {
    EXPECT_TRUE(evalBool(Formula, *Model)) << printTerm(Formula);
    return SatResult::Sat;
  }
  return Model.status().code() == StatusCode::Error ? SatResult::Unsat
                                                    : SatResult::Unknown;
}

/// Random formulas over \p VarTy, their default-solver verdicts, and the
/// plain core's, one query at a time and as one batch.
void expectParity(const Type &VarTy, unsigned Count, uint64_t Seed) {
  TermFactory F;
  RandomTerms Gen(F);
  std::mt19937_64 Rng(Seed);
  const unsigned NumVars = 2;
  std::vector<TermRef> Formulas;
  std::vector<SatResult> Want;
  for (unsigned K = 0; K != Count; ++K) {
    Formulas.push_back(Gen.formula(Rng, VarTy, NumVars, 1 + K % 3));
    Want.push_back(defaultSolverVerdict(F, Formulas.back(), VarTy, NumVars));
    ASSERT_NE(Want.back(), SatResult::Unknown) << printTerm(Formulas.back());
  }

  Solver Plain(F);
  for (unsigned K = 0; K != Count; ++K)
    EXPECT_EQ(Plain.checkSat(Formulas[K]), Want[K])
        << VarTy.str() << ": " << printTerm(Formulas[K]);
  EXPECT_EQ(Plain.stats().PlainFallbacks, 0u);
  EXPECT_EQ(Plain.stats().Retries, 0u);

  Solver Batch(F);
  EXPECT_EQ(Batch.checkSatBatch(Formulas), Want) << VarTy.str();
  EXPECT_EQ(Batch.stats().PlainFallbacks, 0u);
}

TEST(VerdictCoreTest, BitVectorVerdictsMatchTheDefaultSolver) {
  for (unsigned Width = 1; Width <= 64; ++Width)
    expectParity(Type::bitVecTy(Width), 4, Width);
}

TEST(VerdictCoreTest, IntVerdictsMatchTheDefaultSolver) {
  expectParity(Type::intTy(), 96, 7919);
}

TEST(VerdictCoreTest, PlainUnknownIsDecidedByTheDefaultSolverRetry) {
  TermFactory F;
  Solver S(F);
  SolverControl Ctl;
  Ctl.Faults = *parseFaultPlan("unknown@1");
  S.setControl(Ctl);
  TermRef X = F.mkVar(0, Type::intTy());
  Result<bool> R = S.isSat(F.mkIntOp(Op::IntLt, X, F.mkInt(3)));
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_TRUE(*R);
  EXPECT_EQ(S.stats().InjectedFaults, 1u);
  EXPECT_EQ(S.stats().Retries, 1u);
  EXPECT_EQ(S.stats().PlainFallbacks, 1u);
  EXPECT_EQ(S.stats().QueryTimeouts, 0u);
  EXPECT_EQ(S.stats().SatQueries, 2u);
}

TEST(VerdictCoreTest, PlainUnknownInABatchIsDecidedOnTheDefaultSolver) {
  TermFactory F;
  Solver S(F);
  SolverControl Ctl;
  Ctl.Faults = *parseFaultPlan("unknown@1");
  S.setControl(Ctl);
  TermRef X = F.mkVar(0, Type::bitVecTy(8));
  std::vector<TermRef> Formulas = {
      F.mkBvOp(Op::BvUlt, X, F.mkBv(3, 8)),
      F.mkAnd(F.mkBvOp(Op::BvUlt, X, F.mkBv(3, 8)),
              F.mkBvOp(Op::BvUgt, X, F.mkBv(5, 8))),
      F.mkEq(X, F.mkBv(7, 8))};
  EXPECT_EQ(S.checkSatBatch(Formulas),
            (std::vector<SatResult>{SatResult::Sat, SatResult::Unsat,
                                    SatResult::Sat}));
  EXPECT_EQ(S.stats().InjectedFaults, 1u);
  EXPECT_EQ(S.stats().Retries, 1u);
  EXPECT_EQ(S.stats().PlainFallbacks, 1u);
  EXPECT_EQ(S.stats().QueryTimeouts, 0u);
}

TEST(VerdictCoreTest, ModelQueriesNeverCountAsPlainFallbacks) {
  TermFactory F;
  Solver S(F);
  SolverControl Ctl;
  Ctl.Faults = *parseFaultPlan("unknown@1");
  S.setControl(Ctl);
  TermRef X = F.mkVar(0, Type::intTy());
  Result<std::vector<Value>> M =
      S.getModel(F.mkEq(X, F.mkInt(4)), {Type::intTy()});
  ASSERT_TRUE(M.isOk()) << M.status().message();
  EXPECT_EQ((*M)[0].getInt(), 4);
  EXPECT_EQ(S.stats().Retries, 1u);
  EXPECT_EQ(S.stats().PlainFallbacks, 0u);
}

} // namespace
