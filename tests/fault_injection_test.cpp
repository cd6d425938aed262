//===- tests/fault_injection_test.cpp - Robustness & degradation ----------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives every retry and degradation path of the pipeline with the
/// deterministic FaultInjector: transient Unknowns masked by the
/// escalating retry, persistent Unknowns degrading a phase to Timeout,
/// injected exceptions degrading to SolverError, worker-scoped faults
/// masked by the serial shared-session rechecks (pinned byte-identical
/// across --jobs values), per-rule Timeout outcomes, pool lease
/// accounting on error paths, and graceful exhaustion of a tiny global
/// deadline.
///
//===----------------------------------------------------------------------===//

#include "engine/InversionEngine.h"
#include "genic/Lower.h"
#include "genic/Parser.h"
#include "solver/FaultInjector.h"
#include "solver/SolverSessionPool.h"
#include "transducer/Determinism.h"
#include "transducer/Injectivity.h"

#include <gtest/gtest.h>

using namespace genic;

namespace {

// The BASE16 encoder of programs/, small enough that even the
// "every worker query faults and is recheckd serially" runs stay fast.
const char *B16Full = R"(
fun E (x : (BitVec 8) when x <= #x0f) :=
  (ite (x <= #x09) (x + #x30) (x + #x37))
fun B (h : (BitVec 8)) (l : (BitVec 8)) (x : (BitVec 8)) :=
  (x << (#x07 - h)) >> ((#x07 - h) + l)
trans B16E (l : (BitVec 8) list) : (BitVec 8) :=
  match l with
  | x::tail when true ->
    (E (B 7 4 x)) :: (E (B 3 0 x)) :: B16E(tail)
  | [] when true -> []
isInjective B16E
invert B16E
)";

// Same machine, determinism + injectivity only (no inversion phase).
const char *B16Check = R"(
fun E (x : (BitVec 8) when x <= #x0f) :=
  (ite (x <= #x09) (x + #x30) (x + #x37))
fun B (h : (BitVec 8)) (l : (BitVec 8)) (x : (BitVec 8)) :=
  (x << (#x07 - h)) >> ((#x07 - h) + l)
trans B16E (l : (BitVec 8) list) : (BitVec 8) :=
  match l with
  | x::tail when true ->
    (E (B 7 4 x)) :: (E (B 3 0 x)) :: B16E(tail)
  | [] when true -> []
isInjective B16E
)";

/// Everything a scenario asserts on, copied out of the report so the tool
/// (which owns the term factory the report's machines point into) can die
/// with the helper.
struct RunResult {
  bool Ok = false;
  std::string Error;
  std::string Report;
  int Exit = -1;
  bool Deterministic = false;
  GenicReport::PhaseOutcome Det = GenicReport::PhaseOutcome::NotRun;
  GenicReport::PhaseOutcome Inj = GenicReport::PhaseOutcome::NotRun;
  GenicReport::PhaseOutcome Inv = GenicReport::PhaseOutcome::NotRun;
  bool Injective = false;
  bool InversionComplete = false;
  std::vector<RuleOutcome> Rules;
  uint64_t Retries = 0;
  uint64_t QueriesTimedOut = 0;
  uint64_t QueriesCancelled = 0;
  uint64_t InjectedFaults = 0;
  unsigned RulesDegraded = 0;
  bool DeadlineExpired = false;
  std::string DegradeDetail;
};

RunResult runTool(const std::string &Source, const std::string &FaultSpec,
                  unsigned Jobs, double BudgetSeconds = 0) {
  RunResult Out;
  InverterOptions Options;
  Options.Jobs = Jobs;
  GenicTool Tool(Options);
  if (!FaultSpec.empty()) {
    Result<FaultPlan> Plan = parseFaultPlan(FaultSpec);
    if (!Plan.isOk()) {
      Out.Error = Plan.status().message();
      return Out;
    }
    Tool.request().Faults = *Plan;
  }
  Tool.request().BudgetSeconds = BudgetSeconds;
  Result<GenicReport> R = Tool.run(Source);
  if (!R.isOk()) {
    Out.Error = R.status().message();
    return Out;
  }
  Out.Ok = true;
  Out.Report = formatOutcomeReport(*R);
  Out.Exit = suggestedExitCode(*R);
  Out.Deterministic = R->Deterministic;
  Out.Det = R->DeterminismPhase;
  Out.Inj = R->InjectivityPhase;
  Out.Inv = R->InversionPhase;
  Out.Injective = R->Injectivity && R->Injectivity->Injective;
  Out.InversionComplete = R->Inversion && R->Inversion->complete();
  if (R->Inversion)
    for (const RuleInversionRecord &Rec : R->Inversion->Records)
      Out.Rules.push_back(Rec.Outcome);
  MetricsRegistry &M = Tool.metrics();
  Out.Retries = M.counter("run.retries_attempted").value();
  Out.QueriesTimedOut = M.counter("run.queries_timed_out").value();
  Out.QueriesCancelled = M.counter("run.queries_cancelled").value();
  Out.InjectedFaults = M.counter("run.injected_faults").value();
  Out.RulesDegraded = R->RulesDegraded;
  Out.DeadlineExpired = R->DeadlineExpired;
  Out.DegradeDetail = R->DegradeDetail;
  return Out;
}

using PO = GenicReport::PhaseOutcome;

TEST(FaultPlanTest, ParsesFullGrammar) {
  Result<FaultPlan> P = parseFaultPlan("unknown@5");
  ASSERT_TRUE(P.isOk()) << P.status().message();
  EXPECT_EQ(P->FaultKind, FaultPlan::Kind::Unknown);
  EXPECT_EQ(P->FaultScope, FaultPlan::Scope::All);
  EXPECT_EQ(P->AtQuery, 5u);
  EXPECT_EQ(P->Count, 1u);

  P = parseFaultPlan("throw@3x2:shared");
  ASSERT_TRUE(P.isOk()) << P.status().message();
  EXPECT_EQ(P->FaultKind, FaultPlan::Kind::Throw);
  EXPECT_EQ(P->FaultScope, FaultPlan::Scope::Shared);
  EXPECT_EQ(P->AtQuery, 3u);
  EXPECT_EQ(P->Count, 2u);

  P = parseFaultPlan("unknown@1x0:workers");
  ASSERT_TRUE(P.isOk()) << P.status().message();
  EXPECT_EQ(P->FaultScope, FaultPlan::Scope::Workers);
  EXPECT_EQ(P->Count, 0u);
  EXPECT_TRUE(P->firesAt(1));
  EXPECT_TRUE(P->firesAt(1000));
  EXPECT_TRUE(P->appliesTo(true));
  EXPECT_FALSE(P->appliesTo(false));
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  for (const char *Bad :
       {"", "unknown", "unknown@", "unknown@0", "oops@1", "unknown@2x",
        "unknown@2:nowhere", "unknown@x3", "@5", "throw@1x2x3"})
    EXPECT_FALSE(parseFaultPlan(Bad).isOk()) << "accepted: " << Bad;
}

TEST(FaultPlanTest, DescribeRoundTrips) {
  for (const char *Spec :
       {"unknown@5", "throw@3x2:shared", "unknown@1x0:workers"}) {
    Result<FaultPlan> P = parseFaultPlan(Spec);
    ASSERT_TRUE(P.isOk());
    Result<FaultPlan> Again = parseFaultPlan(describeFaultPlan(*P));
    ASSERT_TRUE(Again.isOk()) << describeFaultPlan(*P);
    EXPECT_EQ(Again->FaultKind, P->FaultKind);
    EXPECT_EQ(Again->FaultScope, P->FaultScope);
    EXPECT_EQ(Again->AtQuery, P->AtQuery);
    EXPECT_EQ(Again->Count, P->Count);
  }
  EXPECT_EQ(describeFaultPlan(FaultPlan()), "-");
}

TEST(FaultPlanTest, FiresAtWindows) {
  FaultPlan P;
  P.FaultKind = FaultPlan::Kind::Unknown;
  P.AtQuery = 3;
  P.Count = 2;
  EXPECT_FALSE(P.firesAt(2));
  EXPECT_TRUE(P.firesAt(3));
  EXPECT_TRUE(P.firesAt(4));
  EXPECT_FALSE(P.firesAt(5));
  EXPECT_FALSE(FaultPlan().firesAt(1));
}

TEST(SolverFaultTest, TransientUnknownMaskedByRetry) {
  TermFactory F;
  Solver S(F);
  SolverControl Ctl;
  Ctl.Faults = *parseFaultPlan("unknown@1");
  S.setControl(Ctl);
  TermRef T = F.mkIntOp(Op::IntLt, F.mkVar(0, Type::intTy()), F.mkInt(3));
  Result<bool> R = S.isSat(T);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_TRUE(*R);
  EXPECT_EQ(S.stats().InjectedFaults, 1u);
  EXPECT_EQ(S.stats().Retries, 1u);
  EXPECT_EQ(S.stats().QueryTimeouts, 0u);
}

TEST(SolverFaultTest, PersistentUnknownSurfacesAsTimeout) {
  TermFactory F;
  Solver S(F);
  SolverControl Ctl;
  Ctl.Faults = *parseFaultPlan("unknown@1x0");
  S.setControl(Ctl);
  TermRef T = F.mkIntOp(Op::IntLt, F.mkVar(0, Type::intTy()), F.mkInt(3));
  Result<bool> R = S.isSat(T);
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::Timeout);
  // The retry was attempted (and faulted too) before giving up.
  EXPECT_EQ(S.stats().Retries, 1u);
  EXPECT_EQ(S.stats().InjectedFaults, 2u);
  EXPECT_EQ(S.stats().QueryTimeouts, 1u);
}

TEST(SolverFaultTest, InjectedThrowSurfacesAsSolverError) {
  TermFactory F;
  Solver S(F);
  SolverControl Ctl;
  Ctl.Faults = *parseFaultPlan("throw@1x0");
  S.setControl(Ctl);
  TermRef T = F.mkIntOp(Op::IntLt, F.mkVar(0, Type::intTy()), F.mkInt(3));
  Result<bool> R = S.isSat(T);
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::SolverError);
  EXPECT_GE(S.stats().InjectedFaults, 1u);
}

TEST(SolverFaultTest, CancelledTokenRefusesQueries) {
  TermFactory F;
  Solver S(F);
  SolverControl Ctl;
  Ctl.Cancel = CancellationToken(Deadline::after(0));
  S.setControl(Ctl);
  TermRef T = F.mkIntOp(Op::IntLt, F.mkVar(0, Type::intTy()), F.mkInt(3));
  Result<bool> R = S.isSat(T);
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::Cancelled);
  EXPECT_EQ(S.stats().QueriesCancelled, 1u);
  EXPECT_EQ(S.stats().SatQueries, 0u);
}

TEST(PipelineFaultTest, CleanRunBaseline) {
  RunResult Clean = runTool(B16Full, "", 1);
  ASSERT_TRUE(Clean.Ok) << Clean.Error;
  EXPECT_EQ(Clean.Exit, ExitOk);
  EXPECT_EQ(Clean.Det, PO::Ok);
  EXPECT_EQ(Clean.Inj, PO::Ok);
  EXPECT_EQ(Clean.Inv, PO::Ok);
  EXPECT_TRUE(Clean.Deterministic);
  EXPECT_TRUE(Clean.Injective);
  EXPECT_TRUE(Clean.InversionComplete);
  EXPECT_EQ(Clean.InjectedFaults, 0u);
  EXPECT_EQ(Clean.RulesDegraded, 0u);
  EXPECT_FALSE(Clean.DeadlineExpired);
}

TEST(PipelineFaultTest, TransientSharedUnknownIsMasked) {
  RunResult Clean = runTool(B16Full, "", 1);
  ASSERT_TRUE(Clean.Ok) << Clean.Error;
  RunResult Faulted = runTool(B16Full, "unknown@1x1:shared", 1);
  ASSERT_TRUE(Faulted.Ok) << Faulted.Error;
  // The escalating retry absorbs a one-query hiccup: same verdicts, same
  // report, clean exit — only the counters remember it happened.
  EXPECT_EQ(Faulted.Exit, ExitOk);
  EXPECT_EQ(Faulted.Report, Clean.Report);
  EXPECT_EQ(Faulted.InjectedFaults, 1u);
  EXPECT_GE(Faulted.Retries, 1u);
  EXPECT_EQ(Faulted.QueriesTimedOut, 0u);
}

TEST(PipelineFaultTest, PersistentSharedUnknownDegradesToTimeout) {
  RunResult R = runTool(B16Full, "unknown@1x0:shared", 1);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Exit, ExitBudgetExhausted);
  // The shared session first answers queries in the injectivity phase
  // (the determinism scan runs in pooled worker sessions), so that is
  // where the persistent fault surfaces; inversion is then skipped.
  EXPECT_EQ(R.Det, PO::Ok);
  EXPECT_EQ(R.Inj, PO::Timeout);
  EXPECT_EQ(R.Inv, PO::NotRun);
  EXPECT_FALSE(R.DegradeDetail.empty());
  EXPECT_GE(R.QueriesTimedOut, 1u);
  EXPECT_NE(R.Report.find("timeout"), std::string::npos);
}

TEST(PipelineFaultTest, PersistentSharedThrowDegradesToSolverError) {
  RunResult R = runTool(B16Full, "throw@1x0:shared", 1);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Exit, ExitInternalError);
  EXPECT_EQ(R.Det, PO::Ok);
  EXPECT_EQ(R.Inj, PO::SolverError);
  EXPECT_EQ(R.Inv, PO::NotRun);
  EXPECT_NE(R.Report.find("solver error"), std::string::npos);
}

TEST(PipelineFaultTest, WorkerUnknownsMaskedBySerialRecheck) {
  // Persistent Unknowns in every worker session: the determinism scan,
  // transition-injectivity scan, projection forks, and ambiguity frontier
  // all fall back to the (healthy) shared session, so the verdict and the
  // report match the clean run exactly.
  RunResult Clean = runTool(B16Check, "", 1);
  ASSERT_TRUE(Clean.Ok) << Clean.Error;
  EXPECT_EQ(Clean.Exit, ExitOk);
  RunResult Faulted = runTool(B16Check, "unknown@1x0:workers", 2);
  ASSERT_TRUE(Faulted.Ok) << Faulted.Error;
  EXPECT_EQ(Faulted.Exit, ExitOk);
  EXPECT_EQ(Faulted.Report, Clean.Report);
  EXPECT_TRUE(Faulted.Injective);
  EXPECT_GE(Faulted.InjectedFaults, 1u);
}

TEST(PipelineFaultTest, ReportByteIdenticalAcrossJobsUnderFaults) {
  // The pinned acceptance scenario: the same injected fault schedule at
  // --jobs 1/2/8 must produce byte-identical outcome reports, both for
  // the fully masked check-only pipeline and for the degraded inversion
  // pipeline (per-rule Timeout outcomes).
  for (const char *Spec : {"unknown@1x0:workers", "throw@1x0:workers"}) {
    RunResult J1 = runTool(B16Check, Spec, 1);
    RunResult J2 = runTool(B16Check, Spec, 2);
    RunResult J8 = runTool(B16Check, Spec, 8);
    ASSERT_TRUE(J1.Ok && J2.Ok && J8.Ok)
        << Spec << ": " << J1.Error << J2.Error << J8.Error;
    EXPECT_EQ(J1.Report, J2.Report) << Spec;
    EXPECT_EQ(J1.Report, J8.Report) << Spec;
  }
  RunResult I1 = runTool(B16Full, "unknown@1x0:workers", 1);
  RunResult I2 = runTool(B16Full, "unknown@1x0:workers", 2);
  RunResult I8 = runTool(B16Full, "unknown@1x0:workers", 8);
  ASSERT_TRUE(I1.Ok && I2.Ok && I8.Ok)
      << I1.Error << I2.Error << I8.Error;
  EXPECT_EQ(I1.Report, I2.Report);
  EXPECT_EQ(I1.Report, I8.Report);
}

TEST(PipelineFaultTest, WorkerFaultsDegradeRulesNotTheRun) {
  // Synthesis runs in forked sessions (auxiliary and per-rule), so
  // persistent worker faults degrade the rule that needs it to a Timeout
  // outcome: the auxiliary inversion its recovery calls times out, and a
  // search without that component is no genuine negative. The dead-rule
  // checks run on the shared session, and the empty-output finalizer's
  // inversion sends no query (its inverse guard is the constant true), so
  // it still inverts. The checks (masked serially)
  // still pass; the partial inverse plus per-rule report is emitted and
  // the exit code says "budget".
  RunResult R = runTool(B16Full, "unknown@1x0:workers", 2);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Det, PO::Ok);
  EXPECT_EQ(R.Inj, PO::Ok);
  EXPECT_EQ(R.Inv, PO::Ok);
  EXPECT_TRUE(R.Injective);
  EXPECT_FALSE(R.InversionComplete);
  ASSERT_EQ(R.Rules.size(), 2u);
  EXPECT_EQ(R.Rules[0], RuleOutcome::Timeout);
  EXPECT_EQ(R.Rules[1], RuleOutcome::Inverted);
  EXPECT_EQ(R.RulesDegraded, 1u);
  EXPECT_EQ(R.Exit, ExitBudgetExhausted);
  EXPECT_NE(R.Report.find("Timeout"), std::string::npos);
}

TEST(PipelineFaultTest, TinyDeadlineDegradesGracefully) {
  // A deadline that expires before the first query: every phase either
  // degrades to Timeout or is skipped, the partial report is emitted,
  // and the exit code reports budget exhaustion. Must never crash.
  RunResult R = runTool(B16Full, "", 1, /*BudgetSeconds=*/1e-6);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.DeadlineExpired);
  EXPECT_EQ(R.Exit, ExitBudgetExhausted);
  EXPECT_NE(R.Det, PO::Ok);
  EXPECT_EQ(R.Inv, PO::NotRun);
  EXPECT_NE(R.Report.find("global deadline exhausted"), std::string::npos);
}

/// Lowers the shared BASE16 machine into \p F for the direct-API tests.
Seft lowerB16(TermFactory &F) {
  Result<AstProgram> Ast = parseGenic(B16Check);
  EXPECT_TRUE(Ast.isOk());
  Result<LoweredProgram> P = lowerProgram(F, *Ast);
  EXPECT_TRUE(P.isOk());
  return P->Machine;
}

TEST(PoolAccountingTest, LeasesReturnedOnFaultPaths) {
  for (const char *Spec : {"unknown@1x0:workers", "throw@1x0:workers"}) {
    TermFactory F;
    Solver S(F);
    SolverControl Ctl;
    Ctl.Faults = *parseFaultPlan(Spec);
    S.setControl(Ctl);
    Seft M = lowerB16(F);

    SolverSessionPool Pool(F, S);
    InjectivityOptions Opts;
    Opts.Jobs = 4;
    Opts.Sessions = &Pool;

    DeterminismOptions DetOpts;
    DetOpts.Jobs = 4;
    DetOpts.Sessions = &Pool;
    Result<std::optional<DeterminismViolation>> Det =
        checkDeterminism(M, S, DetOpts);
    EXPECT_EQ(Pool.outstandingLeases(), 0u) << Spec;
    ASSERT_TRUE(Det.isOk()) << Spec << ": " << Det.status().message();
    EXPECT_FALSE(Det->has_value());

    Result<InjectivityResult> Inj = checkInjectivity(M, S, Opts);
    EXPECT_EQ(Pool.outstandingLeases(), 0u) << Spec;
    ASSERT_TRUE(Inj.isOk()) << Spec << ": " << Inj.status().message();
    EXPECT_TRUE(Inj->Injective) << Spec;
  }
}

TEST(PoolAccountingTest, LeasesReturnedWhenSharedSessionFails) {
  // Shared-scope persistent faults make the serial rechecks fail, so the
  // checks error out — but the pool must still have every lease back.
  TermFactory F;
  Solver S(F);
  SolverControl Ctl;
  Ctl.Faults = *parseFaultPlan("unknown@1x0:shared");
  S.setControl(Ctl);
  Seft M = lowerB16(F);

  SolverSessionPool Pool(F, S);
  InjectivityOptions Opts;
  Opts.Jobs = 4;
  Opts.Sessions = &Pool;
  Result<InjectivityResult> Inj = checkInjectivity(M, S, Opts);
  EXPECT_EQ(Pool.outstandingLeases(), 0u);
  ASSERT_FALSE(Inj.isOk());
  EXPECT_EQ(Inj.status().code(), StatusCode::Timeout);
}

} // namespace
