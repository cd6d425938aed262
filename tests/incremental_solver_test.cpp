//===- tests/incremental_solver_test.cpp - scoped sessions & batches ------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parity and robustness tests for the incremental solver core: randomized
/// push/pop/assume sequences must give the verdicts of a flat checkSat of
/// the whole conjunction on a plain session, scoped queries must not steer
/// getModel, modelAssuming must return models of the stack and its
/// assumptions, scoped-memo entries must die with their scope, and injected
/// faults / exhausted deadlines that strike mid-scope must unwind without
/// leaking assertions into later queries.
///
//===----------------------------------------------------------------------===//

#include "solver/Solver.h"

#include "solver/FaultInjector.h"
#include "support/Deadline.h"
#include "term/Eval.h"

#include <gtest/gtest.h>

#include <random>

using namespace genic;

namespace {

/// A scoped session and its reference, driven in lockstep. The harness
/// keeps its own copy of the assertion stack; every scoped query on the
/// session is also answered by checkSat of the flattened conjunction
/// (stack, formula, assumptions) on a separate plain session, and the
/// verdicts are compared.
class ParityHarness {
public:
  explicit ParityHarness(TermFactory &F) : F(F), Scoped(F), Reference(F) {}

  void push() {
    Scoped.push();
    Stack.emplace_back();
  }
  void pop() {
    Scoped.pop();
    if (Stack.size() > 1)
      Stack.pop_back();
  }
  void assertFormula(TermRef T) {
    Scoped.assertFormula(T);
    Stack.back().push_back(T);
  }
  SatResult query(const std::vector<TermRef> &Assumptions,
                  TermRef Formula = nullptr) {
    std::vector<TermRef> Conj;
    for (const auto &Frame : Stack)
      Conj.insert(Conj.end(), Frame.begin(), Frame.end());
    if (Formula)
      Conj.push_back(Formula);
    Conj.insert(Conj.end(), Assumptions.begin(), Assumptions.end());
    SatResult A = Scoped.checkSatAssuming(Assumptions, Formula);
    SatResult B = Reference.checkSat(F.mkAnd(std::move(Conj)));
    EXPECT_EQ(A, B) << "scoped verdict diverged from the flat reference";
    return A;
  }
  unsigned stackDepth() const { return Stack.size() - 1; }

  TermFactory &F;
  Solver Scoped, Reference;
  std::vector<std::vector<TermRef>> Stack =
      std::vector<std::vector<TermRef>>(1);
};

class IncrementalSolverTest : public ::testing::Test {
protected:
  TermFactory F;
  Type B8 = Type::bitVecTy(8);
  TermRef V0 = F.mkVar(0, Type::bitVecTy(8));
  TermRef V1 = F.mkVar(1, Type::bitVecTy(8));
  TermRef V2 = F.mkVar(2, Type::bitVecTy(8));

  TermRef var(unsigned I) { return F.mkVar(I, B8); }

  /// A small random atom over v0..v2: comparisons and masked equalities,
  /// the shapes transducer guards are made of.
  TermRef randomAtom(std::mt19937 &Rng) {
    TermRef V = var(Rng() % 3);
    uint64_t K = Rng() & 0xff;
    switch (Rng() % 4) {
    case 0:
      return F.mkBvOp(Op::BvUle, V, F.mkBv(K, 8));
    case 1:
      return F.mkBvOp(Op::BvUle, F.mkBv(K, 8), V);
    case 2:
      return F.mkEq(F.mkBvOp(Op::BvAnd, V, F.mkBv(0xf0, 8)),
                    F.mkBv(K & 0xf0, 8));
    default:
      return F.mkEq(V, F.mkBv(K, 8));
    }
  }
};

// ---------------------------------------------------------------------------
// Parity property suite
// ---------------------------------------------------------------------------

TEST_F(IncrementalSolverTest, RandomizedScopedSequencesAgree) {
  std::mt19937 Rng(0xC0FFEE);
  ParityHarness H(F);
  unsigned Decided = 0;
  for (unsigned Step = 0; Step < 300; ++Step) {
    switch (Rng() % 5) {
    case 0:
      if (H.Scoped.scopeDepth() < 4)
        H.push();
      break;
    case 1:
      H.pop(); // No-op at depth 0.
      break;
    case 2:
      if (H.Scoped.scopeDepth() > 0)
        H.assertFormula(randomAtom(Rng));
      break;
    default: {
      std::vector<TermRef> Assumptions;
      for (unsigned J = Rng() % 3; J > 0; --J)
        Assumptions.push_back(randomAtom(Rng));
      TermRef Extra = (Rng() % 2) ? randomAtom(Rng) : nullptr;
      if (H.query(Assumptions, Extra) != SatResult::Unknown)
        ++Decided;
      break;
    }
    }
    EXPECT_EQ(H.Scoped.scopeDepth(), H.stackDepth());
  }
  // The property is vacuous if everything came back Unknown.
  EXPECT_GT(Decided, 100u);
}

TEST_F(IncrementalSolverTest, ScopedQueriesDoNotSteerModels) {
  Solver S(F);
  std::mt19937 Rng(42);
  unsigned Compared = 0;
  for (unsigned Round = 0; Round < 20; ++Round) {
    TermRef Q = F.mkAnd(randomAtom(Rng), randomAtom(Rng));
    // Run a scoped query over Q first, so any state the live backend
    // session keeps would have a chance to leak into the model query.
    S.push();
    S.assertFormula(Q);
    SatResult Verdict = S.checkSatAssuming({});
    S.pop();
    Solver Fresh(F);
    EXPECT_EQ(Verdict, Fresh.checkSat(Q));
    if (Verdict != SatResult::Sat)
      continue;
    Result<std::vector<Value>> MScoped = S.getModel(Q, {B8, B8, B8});
    Result<std::vector<Value>> MFresh = Fresh.getModel(Q, {B8, B8, B8});
    ASSERT_TRUE(MScoped.isOk());
    ASSERT_TRUE(MFresh.isOk());
    EXPECT_EQ(*MScoped, *MFresh)
        << "the session's scoped history changed its model";
    ++Compared;
  }
  EXPECT_GT(Compared, 5u);
}

// ---------------------------------------------------------------------------
// Models from the live session
// ---------------------------------------------------------------------------

TEST_F(IncrementalSolverTest, ModelAssumingSatisfiesStackAndAssumptions) {
  std::mt19937 Rng(0xBEEF);
  ParityHarness H(F);
  unsigned Models = 0, Unsats = 0;
  for (unsigned Step = 0; Step < 200; ++Step) {
    switch (Rng() % 4) {
    case 0:
      if (H.Scoped.scopeDepth() < 3)
        H.push();
      break;
    case 1:
      H.pop();
      break;
    case 2:
      if (H.Scoped.scopeDepth() > 0)
        H.assertFormula(randomAtom(Rng));
      break;
    default: {
      std::vector<TermRef> Assumptions;
      for (unsigned K = Rng() % 3; K > 0; --K)
        Assumptions.push_back(randomAtom(Rng));
      std::vector<TermRef> Conj;
      for (const auto &Frame : H.Stack)
        Conj.insert(Conj.end(), Frame.begin(), Frame.end());
      Conj.insert(Conj.end(), Assumptions.begin(), Assumptions.end());
      TermRef Whole = F.mkAnd(std::move(Conj));
      Result<std::optional<std::vector<Value>>> M =
          H.Scoped.modelAssuming(Assumptions, {B8, B8, B8});
      ASSERT_TRUE(M.isOk()) << M.status().message();
      // The verdict agrees with a flat checkSat of stack and assumptions,
      // and a model satisfies that conjunction under the evaluator.
      EXPECT_EQ(M->has_value(), H.Reference.checkSat(Whole) == SatResult::Sat);
      if (!*M) {
        ++Unsats;
        break;
      }
      ++Models;
      ASSERT_EQ((*M)->size(), 3u);
      EXPECT_TRUE(evalBool(Whole, **M));
      break;
    }
    }
  }
  EXPECT_GT(Models, 10u);
  EXPECT_GT(Unsats, 0u);
}

TEST_F(IncrementalSolverTest, ModelAssumingKeepsUnsatApartFromUnknown) {
  Solver S(F);
  S.push();
  S.assertFormula(F.mkEq(V0, F.mkBv(3, 8)));
  // Unsat: a success with no model.
  Result<std::optional<std::vector<Value>>> None =
      S.modelAssuming({F.mkEq(V0, F.mkBv(4, 8))}, {B8});
  ASSERT_TRUE(None.isOk()) << None.status().message();
  EXPECT_FALSE(None->has_value());
  // Sat: the model, with the unconstrained v1 filled in by type.
  Result<std::optional<std::vector<Value>>> Some =
      S.modelAssuming({}, {B8, B8});
  ASSERT_TRUE(Some.isOk()) << Some.status().message();
  ASSERT_TRUE(Some->has_value());
  EXPECT_EQ((**Some)[0], Value::bitVecVal(3, 8));
  EXPECT_EQ((**Some)[1].type(), B8);
  S.pop();

  // Unknown: an error carrying the classified cause, never "unsat".
  SolverControl Expired;
  Expired.Cancel = CancellationToken(Deadline::after(0));
  S.setControl(Expired);
  Result<std::optional<std::vector<Value>>> Refused = S.modelAssuming({}, {B8});
  ASSERT_FALSE(Refused.isOk());
  EXPECT_EQ(Refused.status().code(), StatusCode::Cancelled);

  SolverControl Faulty;
  Result<FaultPlan> Plan = parseFaultPlan("throw@1");
  ASSERT_TRUE(Plan.isOk());
  Faulty.Faults = *Plan;
  Solver T(F);
  T.setControl(Faulty);
  T.push();
  T.assertFormula(F.mkEq(V0, F.mkBv(3, 8)));
  Result<std::optional<std::vector<Value>>> Thrown = T.modelAssuming({}, {B8});
  ASSERT_FALSE(Thrown.isOk());
  EXPECT_EQ(Thrown.status().code(), StatusCode::SolverError);
  // The session rebuilds from its term-level stack and answers again.
  Result<std::optional<std::vector<Value>>> After = T.modelAssuming({}, {B8});
  ASSERT_TRUE(After.isOk()) << After.status().message();
  ASSERT_TRUE(After->has_value());
  EXPECT_EQ((**After)[0], Value::bitVecVal(3, 8));
  T.pop();
}

TEST_F(IncrementalSolverTest, BatchMatchesIndividualChecks) {
  Solver Batch(F), Single(F);
  std::mt19937 Rng(7);
  std::vector<TermRef> Formulas;
  for (unsigned K = 0; K < 12; ++K) {
    TermRef A = randomAtom(Rng);
    // Mix in guaranteed-unsat members so the selector/unsat-core path of
    // the batch gets exercised, not just the all-sat fast path.
    if (K % 3 == 0)
      A = F.mkAnd(A, F.mkAnd(F.mkEq(V0, F.mkBv(1, 8)),
                             F.mkEq(V0, F.mkBv(2, 8))));
    Formulas.push_back(A);
  }
  std::vector<SatResult> Out = Batch.checkSatBatch(Formulas);
  ASSERT_EQ(Out.size(), Formulas.size());
  for (size_t K = 0; K != Formulas.size(); ++K)
    EXPECT_EQ(Out[K], Single.checkSat(Formulas[K])) << "formula " << K;
  EXPECT_GE(Batch.stats().AssumptionBatches, 1u);
}

TEST_F(IncrementalSolverTest, BatchRepeatedFormulasShareVerdicts) {
  Solver S(F);
  TermRef Sat = F.mkBvOp(Op::BvUle, V0, F.mkBv(0x10, 8));
  TermRef Unsat =
      F.mkAnd(F.mkEq(V1, F.mkBv(3, 8)), F.mkEq(V1, F.mkBv(4, 8)));
  std::vector<SatResult> Out = S.checkSatBatch({Sat, Unsat, Sat, Unsat});
  EXPECT_EQ(Out[0], SatResult::Sat);
  EXPECT_EQ(Out[1], SatResult::Unsat);
  EXPECT_EQ(Out[2], SatResult::Sat);
  EXPECT_EQ(Out[3], SatResult::Unsat);
}

// ---------------------------------------------------------------------------
// Scoped memo semantics
// ---------------------------------------------------------------------------

TEST_F(IncrementalSolverTest, PopInvalidatesScopedMemo) {
  Solver S(F);
  TermRef Pin1 = F.mkEq(V0, F.mkBv(1, 8));
  TermRef Pin2 = F.mkEq(V0, F.mkBv(2, 8));
  S.push();
  S.assertFormula(Pin1);
  EXPECT_EQ(S.checkSatAssuming({Pin2}), SatResult::Unsat);
  // Same key twice at the same generation: second answer is the memo's.
  uint64_t Queries = S.stats().SatQueries;
  EXPECT_EQ(S.checkSatAssuming({Pin2}), SatResult::Unsat);
  EXPECT_GE(S.stats().ScopedCacheHits, 1u);
  EXPECT_EQ(S.stats().SatQueries, Queries);
  S.pop();
  // The pop bumped the generation, so the memoized Unsat must not leak
  // into the now-unconstrained stack.
  EXPECT_EQ(S.checkSatAssuming({Pin2}), SatResult::Sat);
  EXPECT_EQ(S.scopeDepth(), 0u);
}

TEST_F(IncrementalSolverTest, GenerationIsMonotone) {
  Solver S(F);
  uint64_t G0 = S.scopeGeneration();
  S.push();
  uint64_t G1 = S.scopeGeneration();
  S.assertFormula(F.mkEq(V0, F.mkBv(1, 8)));
  uint64_t G2 = S.scopeGeneration();
  S.pop();
  uint64_t G3 = S.scopeGeneration();
  EXPECT_LT(G0, G1);
  EXPECT_LT(G1, G2);
  EXPECT_LT(G2, G3);
}

TEST_F(IncrementalSolverTest, ScopedAssertionsRaiiBalances) {
  Solver S(F);
  {
    ScopedAssertions Outer(S);
    Outer.add(F.mkBvOp(Op::BvUle, V0, F.mkBv(0x7f, 8)));
    EXPECT_EQ(S.scopeDepth(), 1u);
    {
      ScopedAssertions Inner(S);
      Inner.add(F.mkEq(V0, F.mkBv(0xff, 8)));
      EXPECT_EQ(S.scopeDepth(), 2u);
      EXPECT_EQ(S.checkSatAssuming({}), SatResult::Unsat);
    }
    EXPECT_EQ(S.scopeDepth(), 1u);
    EXPECT_EQ(S.checkSatAssuming({}), SatResult::Sat);
  }
  EXPECT_EQ(S.scopeDepth(), 0u);
  EXPECT_EQ(S.stats().ScopePushes, S.stats().ScopePops);
}

// ---------------------------------------------------------------------------
// Fault injection and deadline exhaustion mid-scope
// ---------------------------------------------------------------------------

TEST_F(IncrementalSolverTest, InjectedThrowMidScopeUnwindsCleanly) {
  Solver S(F);
  SolverControl Ctl;
  Result<FaultPlan> Plan = parseFaultPlan("throw@2");
  ASSERT_TRUE(Plan.isOk());
  Ctl.Faults = *Plan;
  S.setControl(Ctl);

  TermRef Pin1 = F.mkEq(V0, F.mkBv(1, 8));
  TermRef Pin2 = F.mkEq(V0, F.mkBv(2, 8));
  S.push();
  S.assertFormula(Pin1);
  EXPECT_EQ(S.checkSatAssuming({}), SatResult::Sat); // ordinal 1
  // Ordinal 2 throws inside the backend; the incremental session must
  // absorb it as Unknown, not crash or half-apply the ephemeral frame.
  EXPECT_EQ(S.checkSatAssuming({Pin1}), SatResult::Unknown);
  EXPECT_EQ(S.stats().InjectedFaults, 1u);
  // The session rebuilds from the term-level stack: the same query now
  // answers correctly, and the scope's assertion is still in force.
  EXPECT_EQ(S.checkSatAssuming({Pin1}), SatResult::Sat);
  EXPECT_EQ(S.checkSatAssuming({Pin2}), SatResult::Unsat);
  EXPECT_GE(S.stats().FullRestarts, 2u);
  S.pop();
  // Nothing leaked past the pop.
  EXPECT_EQ(S.checkSatAssuming({Pin2}), SatResult::Sat);
}

TEST_F(IncrementalSolverTest, InjectedThrowOnEphemeralFormulaFrame) {
  Solver S(F);
  SolverControl Ctl;
  Result<FaultPlan> Plan = parseFaultPlan("throw@1");
  ASSERT_TRUE(Plan.isOk());
  Ctl.Faults = *Plan;
  S.setControl(Ctl);

  TermRef Wide = F.mkBvOp(Op::BvUle, V0, F.mkBv(0xf0, 8));
  TermRef Narrow = F.mkEq(V0, F.mkBv(0xff, 8));
  S.push();
  S.assertFormula(Wide);
  // The extra Formula rides on an ephemeral backend frame; the injected
  // throw must not leave it asserted.
  EXPECT_EQ(S.checkSatAssuming({}, Narrow), SatResult::Unknown);
  // If the ephemeral frame leaked, the stack would now contain Narrow and
  // this query would be Unsat.
  EXPECT_EQ(S.checkSatAssuming({F.mkEq(V0, F.mkBv(1, 8))}), SatResult::Sat);
  S.pop();
}

TEST_F(IncrementalSolverTest, DeadlineExhaustionMidScopeRefusesCleanly) {
  Solver S(F);
  TermRef Pin = F.mkEq(V0, F.mkBv(1, 8));
  S.push();
  S.assertFormula(Pin);
  EXPECT_EQ(S.checkSatAssuming({}), SatResult::Sat);

  // The deadline fires mid-scope: queries refuse with Unknown, the scope
  // structure stays intact, and popping unwinds without touching the
  // backend in a way that could throw.
  SolverControl Expired;
  Expired.Cancel = CancellationToken(Deadline::after(0));
  S.setControl(Expired);
  EXPECT_EQ(S.checkSatAssuming({Pin}), SatResult::Unknown);
  EXPECT_GE(S.stats().QueriesCancelled, 1u);
  EXPECT_EQ(S.scopeDepth(), 1u);
  S.pop();
  EXPECT_EQ(S.scopeDepth(), 0u);

  // Lifting the deadline restores correct answers — and the refused query
  // must not have been memoized.
  S.setControl(SolverControl());
  EXPECT_EQ(S.checkSatAssuming({F.mkEq(V0, F.mkBv(2, 8))}), SatResult::Sat);
}

TEST_F(IncrementalSolverTest, BatchSurvivesInjectedFault) {
  Solver S(F);
  SolverControl Ctl;
  Result<FaultPlan> Plan = parseFaultPlan("throw@1");
  ASSERT_TRUE(Plan.isOk());
  Ctl.Faults = *Plan;
  S.setControl(Ctl);
  TermRef Sat = F.mkBvOp(Op::BvUle, V0, F.mkBv(0x10, 8));
  TermRef Unsat =
      F.mkAnd(F.mkEq(V1, F.mkBv(3, 8)), F.mkEq(V1, F.mkBv(4, 8)));
  // The batch dispatch eats the injected throw; the per-formula fallback
  // must still settle every member with the right verdict.
  std::vector<SatResult> Out = S.checkSatBatch({Sat, Unsat, Sat});
  EXPECT_EQ(Out[0], SatResult::Sat);
  EXPECT_EQ(Out[1], SatResult::Unsat);
  EXPECT_EQ(Out[2], SatResult::Sat);
}

// ---------------------------------------------------------------------------
// Timeouts live on the session's Z3 context
// ---------------------------------------------------------------------------

/// x * y = N over BitVec \p Width with both factors in (1, 2^(Width/2)):
/// factoring by bit-blasting. \p Tag offsets the variable indices so
/// several instances are distinct formulas.
TermRef factoring(TermFactory &F, uint64_t N, unsigned Width,
                  unsigned Tag = 0) {
  Type Ty = Type::bitVecTy(Width);
  TermRef X = F.mkVar(2 * Tag, Ty), Y = F.mkVar(2 * Tag + 1, Ty);
  TermRef One = F.mkBv(1, Width);
  TermRef Half = F.mkBv(Value::maskOf(Width / 2), Width);
  return F.mkAnd({F.mkEq(F.mkBvOp(Op::BvMul, X, Y), F.mkBv(N, Width)),
                  F.mkBvOp(Op::BvUgt, X, One), F.mkBvOp(Op::BvUgt, Y, One),
                  F.mkBvOp(Op::BvUle, X, Half), F.mkBvOp(Op::BvUle, Y, Half)});
}

/// (2^32 - 5) * (2^32 - 17), both prime: far beyond a 1 ms budget.
TermRef hardQuery(TermFactory &F, unsigned Tag = 0) {
  return factoring(F, 18446743979220271189ULL, 64, Tag);
}

/// 65521 * 65519 in BitVec 32: tens of milliseconds, well over the 1 ms
/// (2 ms on the retry) budget used below, yet quick without one.
TermRef mediumQuery(TermFactory &F, unsigned Tag = 0) {
  return factoring(F, 65521ULL * 65519ULL, 32, Tag);
}

TEST_F(IncrementalSolverTest, TimeoutReachesEveryEntryPoint) {
  Solver S(F);
  S.setTimeoutMs(1);
  TermRef Hard = hardQuery(F);
  TermRef Easy = F.mkEq(V0, F.mkBv(7, 8));

  Result<bool> Sat = S.isSat(Hard);
  ASSERT_FALSE(Sat.isOk());
  EXPECT_EQ(Sat.status().code(), StatusCode::Timeout);

  Result<std::vector<Value>> Model =
      S.getModel(Hard, {Type::bitVecTy(64), Type::bitVecTy(64)});
  ASSERT_FALSE(Model.isOk());
  EXPECT_EQ(Model.status().code(), StatusCode::Timeout);

  // The incremental session: a live backend solver under a scope.
  S.push();
  S.assertFormula(F.mkBvOp(Op::BvUle, V0, F.mkBv(0x40, 8)));
  EXPECT_EQ(S.checkSatAssuming({}, Hard), SatResult::Unknown);
  EXPECT_EQ(S.unknownStatus("scoped").code(), StatusCode::Timeout);

  Result<std::optional<std::vector<Value>>> Scoped = S.modelAssuming(
      {Hard}, {Type::bitVecTy(8), Type::bitVecTy(64), Type::bitVecTy(64)});
  ASSERT_FALSE(Scoped.isOk());
  EXPECT_EQ(Scoped.status().code(), StatusCode::Timeout);

  std::vector<SatResult> Batch =
      S.checkSatBatch({Hard, hardQuery(F, 1)});
  EXPECT_EQ(Batch[0], SatResult::Unknown);
  EXPECT_EQ(Batch[1], SatResult::Unknown);
  EXPECT_GE(S.stats().QueryTimeouts, 5u);

  // The same live session still answers an easy query.
  EXPECT_EQ(S.checkSatAssuming({Easy}), SatResult::Sat);
  EXPECT_EQ(S.checkSatAssuming({}, F.mkEq(V0, F.mkBv(0x41, 8))),
            SatResult::Unsat);
  Result<std::optional<std::vector<Value>>> EasyModel =
      S.modelAssuming({Easy}, {B8});
  ASSERT_TRUE(EasyModel.isOk()) << EasyModel.status().message();
  ASSERT_TRUE(EasyModel->has_value());
  EXPECT_EQ((**EasyModel)[0], Value::bitVecVal(7, 8));
  S.pop();
}

TEST_F(IncrementalSolverTest, ZeroTimeoutLiftsEarlierLimit) {
  Solver S(F);
  S.setTimeoutMs(1);
  S.push();
  S.assertFormula(F.mkBvOp(Op::BvUle, V0, F.mkBv(0x40, 8)));
  EXPECT_EQ(S.checkSatAssuming({}, hardQuery(F)), SatResult::Unknown);

  // Set back to "no limit", the live session must not keep the 1 ms the
  // context was given before, and neither must a fresh one-shot solver.
  S.setTimeoutMs(0);
  EXPECT_EQ(S.checkSatAssuming({}, mediumQuery(F)), SatResult::Sat);
  EXPECT_EQ(S.stats().IncrementalHits, 1u);
  S.pop();
  Result<bool> OneShot = S.isSat(mediumQuery(F, 1));
  ASSERT_TRUE(OneShot.isOk());
  EXPECT_TRUE(*OneShot);
}

} // namespace
