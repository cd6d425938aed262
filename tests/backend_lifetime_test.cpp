//===- tests/backend_lifetime_test.cpp - Z3 context lifetime ---------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A session builds its Z3 context on its first query and the parallel
/// stages drop each fork's context when the fork's task ends. These tests
/// pin both halves through the backend accounting: the process-wide live
/// count (Solver::liveBackendContexts) and the contexts-created counter and
/// live-count high-water mark a session reports to its metrics sink.
///
//===----------------------------------------------------------------------===//

#include "coders/Corpus.h"
#include "genic/Lower.h"
#include "genic/Parser.h"
#include "solver/SolverContext.h"
#include "support/Metrics.h"
#include "sygus/Inverter.h"
#include "transducer/Injectivity.h"

#include <gtest/gtest.h>

using namespace genic;

namespace {

uint64_t contextsCreated(MetricsRegistry &M) {
  return M.counter("solver.backend.contexts").value();
}

int64_t peakLive(MetricsRegistry &M) {
  return M.gauge("solver.backend.peak_live").value();
}

/// A root session reporting to \p M.
void attachMetrics(Solver &S, MetricsRegistry &M) {
  SolverControl C = S.control();
  C.Metrics = &M;
  S.setControl(C);
}

TEST(BackendLifetimeTest, ForkThatNeverQueriesCreatesNoContext) {
  MetricsRegistry M;
  SolverContext Root;
  attachMetrics(Root.solver(), M);
  TermFactory &F = Root.factory();
  TermRef X = F.mkVar(0, Type::bitVecTy(8));
  TermRef Small = F.mkBvOp(Op::BvUle, X, F.mkBv(9, 8));
  const int64_t Before = Solver::liveBackendContexts();
  {
    SolverContext Fork(Root.factory(), Root.solver());
    Fork.factory().mkEq(X, Fork.factory().mkBv(3, 8));
    Fork.solver().setTimeoutMs(5000);
    Fork.solver().push();
    Fork.solver().pop();
    EXPECT_EQ(Solver::liveBackendContexts(), Before);
  }
  EXPECT_EQ(contextsCreated(M), 0u);

  SolverContext Fork(Root.factory(), Root.solver());
  ASSERT_TRUE(Fork.solver().isSat(Small).isOk());
  EXPECT_EQ(Solver::liveBackendContexts(), Before + 1);
  EXPECT_EQ(contextsCreated(M), 1u);
  EXPECT_EQ(peakLive(M), Before + 1);

  // Released, the session keeps its memo: the repeat needs no context.
  Fork.solver().releaseBackend();
  EXPECT_EQ(Solver::liveBackendContexts(), Before);
  Result<bool> Again = Fork.solver().isSat(Small);
  ASSERT_TRUE(Again.isOk());
  EXPECT_TRUE(*Again);
  EXPECT_EQ(Solver::liveBackendContexts(), Before);
  EXPECT_EQ(Fork.solver().stats().CacheHits, 1u);

  // A new query simply builds a fresh context, and the scoped stack is
  // replayed into it.
  Fork.solver().push();
  Fork.solver().assertFormula(Small);
  EXPECT_EQ(Fork.solver().checkSatAssuming(
                {Fork.factory().mkEq(X, Fork.factory().mkBv(12, 8))}),
            SatResult::Unsat);
  EXPECT_EQ(Solver::liveBackendContexts(), Before + 1);
  EXPECT_EQ(contextsCreated(M), 2u);
  Fork.solver().releaseBackend();
  EXPECT_EQ(Fork.solver().checkSatAssuming(
                {Fork.factory().mkEq(X, Fork.factory().mkBv(4, 8))}),
            SatResult::Sat);
  EXPECT_EQ(Fork.solver().stats().FullRestarts, 2u);
  Fork.solver().pop();
}

/// The UTF-16 encoder lowered into a root session that already holds a
/// context, as a pipeline's shared session does.
class Utf16Lifetime : public ::testing::TestWithParam<unsigned> {
protected:
  void SetUp() override {
    const CoderSpec *Spec = nullptr;
    for (const CoderSpec &C : coderCorpus())
      if (C.Family == "UTF-16" && C.Variant == "encoder")
        Spec = &C;
    ASSERT_NE(Spec, nullptr);
    Result<AstProgram> Ast = parseGenic(Spec->Source);
    ASSERT_TRUE(Ast.isOk());
    Result<LoweredProgram> P = lowerProgram(Root.factory(), *Ast);
    ASSERT_TRUE(P.isOk()) << P.status().message();
    Prog.emplace(std::move(*P));
    attachMetrics(Root.solver(), M);
    ASSERT_TRUE(Root.solver().isSat(Root.factory().mkTrue()).isOk());
    Held = Solver::liveBackendContexts();
    M.reset();
  }

  SolverContext Root;
  std::optional<LoweredProgram> Prog;
  MetricsRegistry M;
  int64_t Held = 0;
};

TEST_P(Utf16Lifetime, OutputAutomatonReleasesItsForks) {
  const unsigned Jobs = GetParam();
  InjectivityOptions Opts;
  Opts.Jobs = Jobs;
  Result<CartesianSefa> AO =
      buildOutputAutomaton(Prog->Machine, Root.solver(), Opts);
  ASSERT_TRUE(AO.isOk()) << AO.status().message();
  EXPECT_EQ(Solver::liveBackendContexts(), Held);
  EXPECT_GT(contextsCreated(M), 0u);
  // One context per running projection task.
  EXPECT_LE(peakLive(M), Held + static_cast<int64_t>(Jobs));
}

TEST_P(Utf16Lifetime, InversionReleasesItsForks) {
  const unsigned Jobs = GetParam();
  InverterOptions Opts;
  Opts.Jobs = Jobs;
  Inverter Inv(Root.solver(), Opts);
  Result<InversionOutcome> Out = Inv.invert(Prog->Machine, Prog->AuxFuncs);
  ASSERT_TRUE(Out.isOk()) << Out.status().message();
  EXPECT_TRUE(Out->complete());
  EXPECT_EQ(Solver::liveBackendContexts(), Held);
  EXPECT_GT(contextsCreated(M), 0u);
  // Per running rule task: its own session, plus variable reduction's
  // child session while the reduction runs.
  EXPECT_LE(peakLive(M), Held + 2 * static_cast<int64_t>(Jobs));
}

INSTANTIATE_TEST_SUITE_P(Jobs, Utf16Lifetime, ::testing::Values(1u, 4u));

} // namespace
