//===- tests/engine_test.cpp - Re-entrant engine & warm pool --------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises InversionEngine::serve() and the program warm pool: warm hits
/// must skip parse/lower yet report byte-identically to a cold run and to a
/// fresh-process GenicTool run at every --jobs value; concurrent requests
/// must stay isolated (one request's fault plan or exhausted budget never
/// leaks into another); and the pool's checkout/publish/evict lifecycle
/// must keep reports valid for as long as the response's keep-alive is
/// held.
///
//===----------------------------------------------------------------------===//

#include "coders/Corpus.h"
#include "engine/InversionEngine.h"
#include "solver/FaultInjector.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace genic;

namespace {

// The paper's Example 6.1 pairwise-sum encoder: LIA, injective, the
// cheapest full three-phase pipeline in the corpus.
const char *EncProgram = R"(
trans Enc (l : Int list) : Int :=
  match l with
  | x::y::tail when (and (x >= 0) (y >= 0)) -> (x + y) :: x :: Enc(tail)
  | [] when true -> []
isInjective Enc
invert Enc
)";

// BASE16 encoder: bit-vector theory, aux functions, still inverts in well
// under a second — the second resident program for pool-collision tests.
const char *B16Program = R"(
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

// The outcome report is the structural contract: timing-free, so cold,
// warm, and fresh-process runs of the same program must all render it
// byte-for-byte identically.
std::string freshToolReport(const std::string &Source, unsigned Jobs) {
  InverterOptions Options;
  Options.Jobs = Jobs;
  GenicTool Tool(Options);
  Result<GenicReport> R = Tool.run(Source);
  EXPECT_TRUE(R.isOk()) << R.status().message();
  return R.isOk() ? formatOutcomeReport(*R) : std::string();
}

//===----------------------------------------------------------------------===//
// Warm pool lifecycle
//===----------------------------------------------------------------------===//

TEST(ProgramPool, HashIsStableAndDiscriminates) {
  EXPECT_EQ(ProgramPool::hashSource(EncProgram),
            ProgramPool::hashSource(EncProgram));
  EXPECT_NE(ProgramPool::hashSource(EncProgram),
            ProgramPool::hashSource(B16Program));
  EXPECT_NE(ProgramPool::hashSource(""), ProgramPool::hashSource(" "));
}

TEST(ProgramPool, ColdCheckoutThenWarmHit) {
  ProgramPool Pool(4, std::nullopt, std::nullopt);
  ProgramPool::Checkout C = Pool.acquire(EncProgram);
  ASSERT_TRUE(C.E);
  EXPECT_FALSE(C.Warm);
  EXPECT_FALSE(C.Pooled);
  Pool.publish(EncProgram, C);
  EXPECT_TRUE(C.Pooled);
  // The entry is only warm once a run stored its lowered program.
  C.E->Lowered = LoweredProgram{Seft(1, 0, Type::intTy(), Type::intTy())};
  C.Lock.unlock();

  ProgramPool::Checkout Again = Pool.acquire(EncProgram);
  EXPECT_EQ(Again.E.get(), C.E.get());
  EXPECT_TRUE(Again.Warm);
  EXPECT_TRUE(Again.Pooled);
  EXPECT_EQ(Pool.stats().Hits, 1u);
  EXPECT_EQ(Pool.stats().Misses, 1u);
  EXPECT_EQ(Pool.size(), 1u);
}

TEST(ProgramPool, BusyEntryYieldsTransientCheckout) {
  ProgramPool Pool(4, std::nullopt, std::nullopt);
  ProgramPool::Checkout First = Pool.acquire(EncProgram);
  Pool.publish(EncProgram, First);
  // First still holds the entry's lock: a second acquire of the same
  // source must get a private transient entry, never block or share.
  ProgramPool::Checkout Second = Pool.acquire(EncProgram);
  ASSERT_TRUE(Second.E);
  EXPECT_NE(Second.E.get(), First.E.get());
  EXPECT_FALSE(Second.Warm);
  EXPECT_FALSE(Second.Pooled);
  EXPECT_EQ(Pool.stats().BusyMisses, 1u);
}

TEST(ProgramPool, CapacityEvictsLeastRecentlyUsed) {
  ProgramPool Pool(1, std::nullopt, std::nullopt);
  ProgramPool::Checkout A = Pool.acquire(EncProgram);
  Pool.publish(EncProgram, A);
  A.Lock.unlock();
  ProgramPool::Checkout B = Pool.acquire(B16Program);
  Pool.publish(B16Program, B);
  B.Lock.unlock();
  EXPECT_EQ(Pool.size(), 1u);
  EXPECT_EQ(Pool.stats().Evictions, 1u);
  // The survivor is the newer program; Enc is cold again.
  EXPECT_FALSE(Pool.acquire(EncProgram).Pooled);
}

TEST(ProgramPool, ZeroCapacityDisablesPooling) {
  ProgramPool Pool(0, std::nullopt, std::nullopt);
  ProgramPool::Checkout C = Pool.acquire(EncProgram);
  Pool.publish(EncProgram, C);
  EXPECT_FALSE(C.Pooled);
  EXPECT_EQ(Pool.size(), 0u);
}

//===----------------------------------------------------------------------===//
// serve(): warm identity with cold and fresh-process runs
//===----------------------------------------------------------------------===//

TEST(EngineServe, WarmRunReportsByteIdentical) {
  InversionEngine Engine;
  RequestContext Req;
  Result<EngineResponse> Cold = Engine.serve(EncProgram, Req);
  ASSERT_TRUE(Cold.isOk()) << Cold.status().message();
  EXPECT_FALSE(Cold->WarmHit);
  EXPECT_EQ(Cold->Exit, ExitOk);

  Result<EngineResponse> Warm = Engine.serve(EncProgram, Req);
  ASSERT_TRUE(Warm.isOk()) << Warm.status().message();
  EXPECT_TRUE(Warm->WarmHit);
  EXPECT_EQ(formatOutcomeReport(Warm->Report),
            formatOutcomeReport(Cold->Report));

  EXPECT_EQ(Engine.pool().stats().Hits, 1u);
  EXPECT_EQ(Engine.pool().stats().Misses, 1u);
  EXPECT_EQ(Engine.metrics().counter("serve.requests").value(), 2u);
  EXPECT_EQ(Engine.metrics().counter("serve.warm_hits").value(), 1u);
}

/// The sygus.varreduce spans recorded since the last clear(), as
/// (rule, queries) pairs.
std::vector<std::pair<int64_t, int64_t>> varReduceSpans() {
  std::vector<std::pair<int64_t, int64_t>> Spans;
  for (const ExternalTraceEvent &E : TraceRecorder::global().exportEvents())
    if (E.Name == "sygus.varreduce") {
      EXPECT_EQ(E.Arg1Name, "rule");
      EXPECT_EQ(E.Arg2Name, "positions");
      EXPECT_EQ(E.Arg3Name, "queries");
      Spans.emplace_back(E.Arg1, E.Arg3);
    }
  return Spans;
}

TEST(EngineServe, WarmRepeatIssuesNoVariableReductionQueries) {
  // Variable reduction runs in a child session the rule's fork never
  // sees, so the fork's memo cannot replay it; the warm entry keeps the
  // computed subsets instead. A warm repeat of the BASE32 decoder (the
  // corpus's heaviest reduction) must issue no reduction query at all,
  // and still report byte-identically.
  std::string Source;
  for (const CoderSpec &Spec : coderCorpus())
    if (Spec.name() == "BASE32 decoder")
      Source = Spec.Source;
  ASSERT_FALSE(Source.empty());
  TraceRecorder &Trace = TraceRecorder::global();
  Trace.enable();
  Trace.clear();

  InversionEngine Engine;
  RequestContext Req;
  Result<EngineResponse> Cold = Engine.serve(Source, Req);
  ASSERT_TRUE(Cold.isOk()) << Cold.status().message();
  EXPECT_FALSE(Cold->WarmHit);
  EXPECT_EQ(Cold->Exit, ExitOk);
  std::vector<std::pair<int64_t, int64_t>> ColdSpans = varReduceSpans();
  ASSERT_FALSE(ColdSpans.empty());
  for (const auto &[Rule, Queries] : ColdSpans)
    EXPECT_GT(Queries, 0) << "rule " << Rule;
  EXPECT_NE(Trace.json().find("\"queries\":"), std::string::npos);

  Trace.clear();
  Result<EngineResponse> Warm = Engine.serve(Source, Req);
  ASSERT_TRUE(Warm.isOk()) << Warm.status().message();
  EXPECT_TRUE(Warm->WarmHit);
  EXPECT_TRUE(varReduceSpans().empty());
  EXPECT_LT(Warm->Metrics.Counters.at("solver.worker.sat_queries"),
            Cold->Metrics.Counters.at("solver.worker.sat_queries"));
  EXPECT_EQ(formatOutcomeReport(Warm->Report),
            formatOutcomeReport(Cold->Report));
  Trace.disable();
  Trace.clear();
}

TEST(EngineServe, WarmRepeatsPrintTheColdInverse) {
  // CEGIS counterexamples and guard samples are models of the rule fork's
  // live Z3 session. A warm repeat reuses the fork with its memos full, so
  // it sends Z3 fewer one-shot queries than the cold run did; the
  // synthesized terms must not notice. These two inverses moved when their
  // models first came from the live session, and the BASE32 decoder's
  // synthesized aux inverse (skipped on a repeat, since it is already
  // registered) must still print first.
  for (const char *Name : {"BASE32 decoder", "UTF-8 encoder"}) {
    std::string Source;
    for (const CoderSpec &Spec : coderCorpus())
      if (Spec.name() == Name)
        Source = Spec.Source;
    ASSERT_FALSE(Source.empty()) << Name;
    InversionEngine Engine;
    RequestContext Req;
    Req.Jobs = 2;
    Result<EngineResponse> Cold = Engine.serve(Source, Req);
    ASSERT_TRUE(Cold.isOk()) << Cold.status().message();
    EXPECT_FALSE(Cold->WarmHit);
    ASSERT_FALSE(Cold->Report.InverseSource.empty()) << Name;
    for (int Round = 0; Round < 2; ++Round) {
      Result<EngineResponse> Warm = Engine.serve(Source, Req);
      ASSERT_TRUE(Warm.isOk()) << Warm.status().message();
      EXPECT_TRUE(Warm->WarmHit);
      EXPECT_EQ(Warm->Exit, Cold->Exit);
      EXPECT_EQ(formatOutcomeReport(Warm->Report),
                formatOutcomeReport(Cold->Report));
      EXPECT_EQ(Warm->Report.InverseSource, Cold->Report.InverseSource)
          << Name << ", warm round " << Round;
    }
  }
}

TEST(EngineServe, MatchesFreshProcessAtEveryJobsValue) {
  InversionEngine Engine;
  for (unsigned Jobs : {1u, 2u, 8u}) {
    std::string Fresh = freshToolReport(EncProgram, Jobs);
    RequestContext Req;
    Req.Jobs = Jobs;
    // Both the cold first serve and the warm repeats must match a fresh
    // single-run tool byte-for-byte.
    for (int Round = 0; Round < 2; ++Round) {
      Result<EngineResponse> R = Engine.serve(EncProgram, Req);
      ASSERT_TRUE(R.isOk()) << R.status().message();
      EXPECT_EQ(formatOutcomeReport(R->Report), Fresh)
          << "jobs " << Jobs << " round " << Round;
    }
  }
}

TEST(EngineServe, WarmPoolDisabledStillServes) {
  EngineConfig Config;
  Config.WarmPrograms = 0;
  InversionEngine Engine(Config);
  RequestContext Req;
  Result<EngineResponse> A = Engine.serve(EncProgram, Req);
  Result<EngineResponse> B = Engine.serve(EncProgram, Req);
  ASSERT_TRUE(A.isOk() && B.isOk());
  EXPECT_FALSE(A->WarmHit);
  EXPECT_FALSE(B->WarmHit);
  EXPECT_EQ(formatOutcomeReport(A->Report), formatOutcomeReport(B->Report));
}

TEST(EngineServe, ParseErrorsSurfaceAndDontPoisonThePool) {
  InversionEngine Engine;
  RequestContext Req;
  Result<EngineResponse> Bad = Engine.serve("this is not genic", Req);
  ASSERT_FALSE(Bad.isOk());
  // The garbage source was never published: the pool stays empty and a
  // good program still gets a clean cold entry.
  EXPECT_EQ(Engine.pool().size(), 0u);
  Result<EngineResponse> Good = Engine.serve(EncProgram, Req);
  ASSERT_TRUE(Good.isOk()) << Good.status().message();
  EXPECT_EQ(Good->Exit, ExitOk);
}

TEST(EngineRunOnSession, NullMetricsRunLeavesNoRegistryOnTheContext) {
  // Without a caller registry the run records into one local to
  // runOnSession. The caller's context must not keep pointing at it: the
  // next query on that context would record into a dead registry.
  InversionEngine Engine;
  SolverContext Ctx;
  RequestContext Req;
  Result<GenicReport> R = Engine.runOnSession(Ctx, EncProgram, Req);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_EQ(Ctx.solver().control().Metrics, nullptr);
  TermFactory &F = Ctx.factory();
  TermRef X = F.mkVar(0, Type::intTy());
  EXPECT_EQ(Ctx.solver().checkSat(F.mkEq(X, F.mkInt(12345))), SatResult::Sat);
}

//===----------------------------------------------------------------------===//
// Per-request isolation
//===----------------------------------------------------------------------===//

TEST(EngineServe, FaultPlanIsConfinedToItsRequest) {
  // The faulted request runs COLD (first serve) so its injected faults
  // actually reach the solver; on a warm entry the context's memo caches
  // can absorb the repeated queries before any fault fires.
  InversionEngine Engine;
  RequestContext Faulty;
  Faulty.Faults = *parseFaultPlan("throw@1x0:shared");
  Result<EngineResponse> Degraded = Engine.serve(B16Program, Faulty);
  ASSERT_TRUE(Degraded.isOk()) << Degraded.status().message();
  EXPECT_EQ(Degraded->Exit, ExitInternalError);
  EXPECT_GT(Degraded->Metrics.Counters.at("run.injected_faults"), 0u);

  // The very next request on the entry the degraded run published is
  // pristine: no residual fault plan, and a report byte-identical to a
  // fresh single-run tool.
  RequestContext Clean;
  Result<EngineResponse> After = Engine.serve(B16Program, Clean);
  ASSERT_TRUE(After.isOk()) << After.status().message();
  EXPECT_EQ(After->Exit, ExitOk);
  EXPECT_EQ(After->Metrics.Counters.at("run.injected_faults"), 0u);
  EXPECT_EQ(formatOutcomeReport(After->Report),
            freshToolReport(B16Program, 1));
}

TEST(EngineServe, ExhaustedBudgetIsConfinedToItsRequest) {
  InversionEngine Engine;
  RequestContext Clean;
  Result<EngineResponse> Baseline = Engine.serve(EncProgram, Clean);
  ASSERT_TRUE(Baseline.isOk()) << Baseline.status().message();

  RequestContext Starved;
  Starved.BudgetSeconds = 1e-6;
  Result<EngineResponse> R = Engine.serve(EncProgram, Starved);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_EQ(R->Exit, ExitBudgetExhausted);
  EXPECT_TRUE(R->Report.DeadlineExpired);

  Result<EngineResponse> After = Engine.serve(EncProgram, Clean);
  ASSERT_TRUE(After.isOk()) << After.status().message();
  EXPECT_EQ(After->Exit, ExitOk);
  EXPECT_FALSE(After->Report.DeadlineExpired);
  EXPECT_EQ(formatOutcomeReport(After->Report),
            formatOutcomeReport(Baseline->Report));
}

TEST(EngineServe, AbusedWarmEntryStaysHygienicAtEveryJobsValue) {
  // The warm-pool fault-hygiene contract: an entry that just served a
  // faulted request and then a budget-exhausted one must serve the next
  // request with clean counter deltas and no sticky cancellation — at
  // every jobs value, since the pooled sessions the abuse touched are
  // jobs-dependent.
  for (unsigned Jobs : {1u, 2u, 8u}) {
    InversionEngine Engine;
    RequestContext Faulty;
    Faulty.Jobs = Jobs;
    // Cold, so the injected faults reach the solver before the memo
    // caches can absorb the queries.
    Faulty.Faults = *parseFaultPlan("throw@1x0");
    Result<EngineResponse> Hurt = Engine.serve(B16Program, Faulty);
    ASSERT_TRUE(Hurt.isOk()) << Hurt.status().message();
    EXPECT_EQ(Hurt->Exit, ExitInternalError) << "jobs " << Jobs;
    EXPECT_GT(Hurt->Metrics.Counters.at("run.injected_faults"), 0u);

    RequestContext Starved;
    Starved.Jobs = Jobs;
    Starved.BudgetSeconds = 1e-6;
    Result<EngineResponse> Choked = Engine.serve(B16Program, Starved);
    ASSERT_TRUE(Choked.isOk()) << Choked.status().message();
    EXPECT_EQ(Choked->Exit, ExitBudgetExhausted) << "jobs " << Jobs;
    EXPECT_TRUE(Choked->Report.DeadlineExpired);

    // The clean request on the abused entry: warm, successful, zero
    // injected faults and zero cancelled queries in its own metric
    // deltas, and a report byte-identical to a fresh process.
    MetricsRegistry Sink;
    RequestContext Clean;
    Clean.Jobs = Jobs;
    Clean.Metrics = &Sink;
    Result<EngineResponse> After = Engine.serve(B16Program, Clean);
    ASSERT_TRUE(After.isOk()) << After.status().message();
    EXPECT_TRUE(After->WarmHit);
    EXPECT_EQ(After->Exit, ExitOk) << "jobs " << Jobs;
    EXPECT_EQ(After->Metrics.Counters.at("run.injected_faults"), 0u);
    EXPECT_FALSE(After->Report.DeadlineExpired);
    MetricsSnapshot S = Sink.snapshot();
    EXPECT_EQ(S.Counters.at("run.injected_faults"), 0u);
    EXPECT_EQ(S.Counters.at("run.queries_cancelled"), 0u);
    EXPECT_EQ(formatOutcomeReport(After->Report),
              freshToolReport(B16Program, Jobs))
        << "jobs " << Jobs;
  }
}

TEST(EngineServe, ConcurrentRequestsStayIsolated) {
  InversionEngine Engine;
  const std::string BaselineEnc = freshToolReport(EncProgram, 2);
  const std::string BaselineB16 = freshToolReport(B16Program, 2);

  // 8 concurrent requests: both programs, both job counts, plus one
  // starved request that must not disturb anyone else. Same-source
  // concurrency forces the pool's busy-miss path.
  struct Slot {
    const char *Source;
    unsigned Jobs;
    bool Starved;
    std::string Report;
    int Exit = -1;
    bool Ok = false;
  };
  std::vector<Slot> Slots = {
      {EncProgram, 1, false, "", -1, false},
      {EncProgram, 2, false, "", -1, false},
      {B16Program, 1, false, "", -1, false},
      {B16Program, 2, false, "", -1, false},
      {EncProgram, 2, false, "", -1, false},
      {B16Program, 2, false, "", -1, false},
      {EncProgram, 2, true, "", -1, false},
      {B16Program, 1, false, "", -1, false},
  };
  std::vector<std::thread> Threads;
  for (Slot &S : Slots)
    Threads.emplace_back([&Engine, &S] {
      RequestContext Req;
      Req.Jobs = S.Jobs;
      if (S.Starved)
        Req.BudgetSeconds = 1e-6;
      Result<EngineResponse> R = Engine.serve(S.Source, Req);
      if (!R.isOk())
        return;
      S.Ok = true;
      S.Exit = R->Exit;
      S.Report = formatOutcomeReport(R->Report);
    });
  for (std::thread &T : Threads)
    T.join();

  for (const Slot &S : Slots) {
    ASSERT_TRUE(S.Ok) << "request failed for jobs=" << S.Jobs;
    if (S.Starved) {
      EXPECT_EQ(S.Exit, ExitBudgetExhausted);
      continue;
    }
    EXPECT_EQ(S.Exit, ExitOk);
    EXPECT_EQ(S.Report,
              S.Source == EncProgram ? BaselineEnc : BaselineB16);
  }
  EXPECT_EQ(Engine.metrics().counter("serve.requests").value(),
            Slots.size());
}

//===----------------------------------------------------------------------===//
// Engine metrics surface
//===----------------------------------------------------------------------===//

TEST(EngineServe, EngineMetricsSnapshotFormats) {
  InversionEngine Engine;
  RequestContext Req;
  ASSERT_TRUE(Engine.serve(EncProgram, Req).isOk());
  ASSERT_TRUE(Engine.serve(EncProgram, Req).isOk());

  std::string Json = formatMetricsSnapshotJson(Engine.metrics().snapshot());
  EXPECT_NE(Json.find("\"schema\": \"genic-metrics-v1\""), std::string::npos);
  EXPECT_NE(Json.find("\"serve.requests\": 2"), std::string::npos);
  EXPECT_NE(Json.find("\"serve.warm_hits\": 1"), std::string::npos);
  EXPECT_NE(Json.find("\"serve.pool.programs\""), std::string::npos);
  EXPECT_NE(Json.find("\"serve.request_us\""), std::string::npos);
  // The per-request registry is separate from the engine registry: a
  // request that brings its own sink sees its own solver counters there,
  // not in the engine snapshot.
  MetricsRegistry Mine;
  RequestContext WithSink;
  WithSink.Metrics = &Mine;
  ASSERT_TRUE(Engine.serve(EncProgram, WithSink).isOk());
  MetricsSnapshot MineSnap = Mine.snapshot();
  // Per-request solver counters land in the request's sink (this warm
  // request's shared-session delta may legitimately be zero — the memo
  // caches absorb repeats — but the counter is always recorded)...
  EXPECT_EQ(MineSnap.Counters.count("solver.shared.sat_queries"), 1u);
  EXPECT_EQ(MineSnap.Counters.count("run.retries_attempted"), 1u);
  // ...and never in the engine-lifetime registry.
  EXPECT_EQ(Engine.metrics().snapshot().Counters.count(
                "solver.shared.sat_queries"),
            0u);
}

} // namespace
