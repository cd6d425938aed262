//===- tests/trace_metrics_test.cpp - Tracing & metrics layer -------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises the observability layer: histogram bucket invariants, registry
/// snapshot/reset semantics, phase-tag scoping, span recorder balance (also
/// under fault injection and an exhausted global deadline), metrics-JSON
/// schema stability, and byte-identity of the structural subset across
/// --jobs values.
///
//===----------------------------------------------------------------------===//

#include "engine/InversionEngine.h"
#include "solver/FaultInjector.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

using namespace genic;

namespace {

// The paper's Example 6.1 pairwise-sum encoder: LIA, injective, inverts in
// well under a second — the cheapest full three-phase pipeline run.
const char *EncProgram = R"(
trans Enc (l : Int list) : Int :=
  match l with
  | x::y::tail when (and (x >= 0) (y >= 0)) -> (x + y) :: x :: Enc(tail)
  | [] when true -> []
isInjective Enc
invert Enc
)";

// BASE16 encoder (programs/ corpus): bit-vector theory, used for the fault
// injection and degraded-deadline scenarios.
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

//===----------------------------------------------------------------------===//
// Histogram invariants
//===----------------------------------------------------------------------===//

TEST(MetricsHistogram, BucketBoundaries) {
  // bucketFor returns the smallest i with value < 2^i.
  EXPECT_EQ(MetricsHistogram::bucketFor(0), 0u);
  EXPECT_EQ(MetricsHistogram::bucketFor(1), 1u);
  EXPECT_EQ(MetricsHistogram::bucketFor(2), 2u);
  EXPECT_EQ(MetricsHistogram::bucketFor(3), 2u);
  EXPECT_EQ(MetricsHistogram::bucketFor(4), 3u);
  EXPECT_EQ(MetricsHistogram::bucketFor(1023), 10u);
  EXPECT_EQ(MetricsHistogram::bucketFor(1024), 11u);
  // Everything at or past the last finite bound lands in the overflow.
  unsigned Last = MetricsHistogram::NumBuckets - 1;
  EXPECT_EQ(MetricsHistogram::bucketFor(uint64_t(1) << (Last - 1)), Last);
  EXPECT_EQ(MetricsHistogram::bucketFor(~uint64_t(0)), Last);
  // Every bucket's contents are < its exclusive upper bound.
  for (unsigned I = 0; I + 1 < MetricsHistogram::NumBuckets; ++I)
    EXPECT_EQ(MetricsHistogram::bucketFor(
                  MetricsHistogram::bucketUpperBoundUs(I)),
              I + 1);
}

TEST(MetricsHistogram, ObserveAccumulates) {
  MetricsHistogram H;
  for (uint64_t V : {0ull, 1ull, 5ull, 5ull, 1000ull})
    H.observe(V);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.sumUs(), 1011u);
  EXPECT_EQ(H.maxUs(), 1000u);
  uint64_t Total = 0;
  for (unsigned I = 0; I < MetricsHistogram::NumBuckets; ++I)
    Total += H.bucketCount(I);
  EXPECT_EQ(Total, H.count());
  EXPECT_EQ(H.bucketCount(MetricsHistogram::bucketFor(5)), 2u);
  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.maxUs(), 0u);
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(MetricsRegistry, StableReferencesAndSnapshot) {
  MetricsRegistry Reg;
  MetricsCounter &C = Reg.counter("a.hits");
  C.add(3);
  EXPECT_EQ(&C, &Reg.counter("a.hits"));
  Reg.gauge("z.level").set(-7);
  Reg.histogram("b.us").observe(42);

  MetricsSnapshot Snap = Reg.snapshot();
  ASSERT_EQ(Snap.Counters.count("a.hits"), 1u);
  EXPECT_EQ(Snap.Counters.at("a.hits"), 3u);
  EXPECT_EQ(Snap.Gauges.at("z.level"), -7);
  EXPECT_EQ(Snap.Histograms.at("b.us").Count, 1u);

  // reset zeroes values but keeps entries and references valid.
  Reg.reset();
  EXPECT_EQ(C.value(), 0u);
  MetricsSnapshot After = Reg.snapshot();
  EXPECT_EQ(After.Counters.count("a.hits"), 1u);
  EXPECT_EQ(After.Counters.at("a.hits"), 0u);
  EXPECT_EQ(After.Histograms.at("b.us").Count, 0u);
}

TEST(MetricsPhase, ScopesNestAndRestore) {
  EXPECT_STREQ(currentMetricsPhase(), "other");
  {
    MetricsPhaseScope Outer("determinism");
    EXPECT_STREQ(currentMetricsPhase(), "determinism");
    {
      MetricsPhaseScope Inner("cegis");
      EXPECT_STREQ(currentMetricsPhase(), "cegis");
    }
    EXPECT_STREQ(currentMetricsPhase(), "determinism");
  }
  EXPECT_STREQ(currentMetricsPhase(), "other");
}

//===----------------------------------------------------------------------===//
// Trace recorder
//===----------------------------------------------------------------------===//

// Minimal re-implementation of trace-lint's checks over the in-memory
// json(): every line with a "ph" is sliced for tid/ts/dur, timestamps must
// be per-tid monotone, and 'X' spans must nest (the writer sorts by
// (tid, ts, -dur), so parents precede children).
struct LintSummary {
  size_t Spans = 0;
  size_t Instants = 0;
  std::string Error;
};

int64_t sliceInt(const std::string &Line, const std::string &Key) {
  size_t At = Line.find("\"" + Key + "\":");
  if (At == std::string::npos)
    return -1;
  return std::strtoll(Line.c_str() + At + Key.size() + 3, nullptr, 10);
}

LintSummary lintTraceJson(const std::string &Json) {
  LintSummary Out;
  std::istringstream In(Json);
  std::string Line;
  std::map<int64_t, int64_t> LastTs;
  std::map<int64_t, std::vector<int64_t>> Stacks; // open span end times
  while (std::getline(In, Line)) {
    size_t PhAt = Line.find("\"ph\":\"");
    if (PhAt == std::string::npos)
      continue;
    char Ph = Line[PhAt + 6];
    if (Ph == 'M')
      continue;
    int64_t Tid = sliceInt(Line, "tid");
    int64_t Ts = sliceInt(Line, "ts");
    if (Tid < 0 || Ts < 0) {
      Out.Error = "missing tid/ts: " + Line;
      return Out;
    }
    if (LastTs.count(Tid) && Ts < LastTs[Tid]) {
      Out.Error = "timestamp regression: " + Line;
      return Out;
    }
    LastTs[Tid] = Ts;
    auto &Stack = Stacks[Tid];
    while (!Stack.empty() && Stack.back() <= Ts)
      Stack.pop_back();
    if (Ph == 'i') {
      ++Out.Instants;
      continue;
    }
    if (Ph != 'X') {
      Out.Error = "unexpected phase: " + Line;
      return Out;
    }
    int64_t Dur = sliceInt(Line, "dur");
    if (Dur < 0) {
      Out.Error = "missing dur: " + Line;
      return Out;
    }
    if (!Stack.empty() && Ts + Dur > Stack.back()) {
      Out.Error = "span overflows parent: " + Line;
      return Out;
    }
    ++Out.Spans;
    Stack.push_back(Ts + Dur);
  }
  return Out;
}

TEST(TraceRecorder, SpansFromPoolThreadsAreBalanced) {
  TraceRecorder &R = TraceRecorder::global();
  R.enable();
  R.nameThisThread("test-main");
  {
    TraceSpan Root("test.root");
    {
      ThreadPool TP(4, "tw");
      for (int I = 0; I < 32; ++I)
        TP.submit([I] {
          TraceSpan Outer("test.outer");
          Outer.arg("index", I);
          TraceSpan Inner("test.inner");
          TraceRecorder::global().instant("test.mark", "test", "i", I);
        });
      TP.wait();
    }
  }
  R.disable();
  std::string Json = R.json();
  EXPECT_EQ(R.droppedEvents(), 0u);
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("test.root"), std::string::npos);
  EXPECT_NE(Json.find("test.inner"), std::string::npos);
  EXPECT_NE(Json.find("tw-0"), std::string::npos); // named pool worker
  LintSummary Lint = lintTraceJson(Json);
  EXPECT_TRUE(Lint.Error.empty()) << Lint.Error;
  // Root + 32 outer + 32 inner spans, 32 instants.
  EXPECT_EQ(Lint.Spans, 65u);
  EXPECT_EQ(Lint.Instants, 32u);
  R.clear();
}

TEST(TraceRecorder, DisabledSpansRecordNothing) {
  TraceRecorder &R = TraceRecorder::global();
  R.clear();
  ASSERT_FALSE(R.enabled());
  {
    TraceSpan S("test.disabled");
    EXPECT_GE(S.seconds(), 0.0); // still a stopwatch
  }
  R.instant("test.disabled.instant", "test");
  EXPECT_EQ(R.json().find("test.disabled"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Full pipeline: metrics JSON schema and jobs-invariance
//===----------------------------------------------------------------------===//

struct ToolRun {
  bool Ok = false;
  std::string Error;
  std::string MetricsJson;
  std::string Stats;
  PhaseTimings Timings;
};

ToolRun runTool(const std::string &Source, unsigned Jobs,
                const std::string &FaultSpec = "",
                double BudgetSeconds = 0) {
  ToolRun Out;
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
  Out.MetricsJson = formatMetricsJson(*R, Tool.metrics().snapshot());
  Out.Stats = formatStatsReport(*R, Tool.metrics().snapshot());
  Out.Timings = R->Timings;
  return Out;
}

/// The structural section of a metrics JSON: the lines between the
/// "structural" opener and the "counters" section. This is the subset the
/// schema pins byte-identical across --jobs.
std::string structuralSubset(const std::string &Json) {
  size_t From = Json.find("\"structural\"");
  size_t To = Json.find("\"counters\"");
  EXPECT_NE(From, std::string::npos);
  EXPECT_NE(To, std::string::npos);
  return Json.substr(From, To - From);
}

TEST(MetricsJson, SchemaAndHistogramsPresent) {
  ToolRun Run = runTool(EncProgram, 2);
  ASSERT_TRUE(Run.Ok) << Run.Error;
  const std::string &J = Run.MetricsJson;
  EXPECT_NE(J.find("\"schema\": \"genic-metrics-v1\""), std::string::npos);
  for (const char *Section :
       {"\"structural\"", "\"counters\"", "\"gauges\"", "\"histograms\"",
        "\"timings\""})
    EXPECT_NE(J.find(Section), std::string::npos) << Section;

  // Per-phase, per-session-kind solver query latency histograms. Pooled
  // sessions answer the TI scan and the Ambiguity BFS; the per-rule
  // inversion forks are worker sessions running CEGIS. (Enc's single
  // determinism pair is discharged by the lookahead rule without a query,
  // so no determinism histogram appears for this program.)
  EXPECT_NE(J.find("\"solver.query.us.ti.pooled\""), std::string::npos);
  EXPECT_NE(J.find("\"solver.query.us.ambiguity.pooled\""),
            std::string::npos);
  EXPECT_NE(J.find("\"solver.query.us.cegis.worker\""), std::string::npos);
  // Histogram schema: count / sum_us / max_us / buckets.
  EXPECT_NE(J.find("\"count\""), std::string::npos);
  EXPECT_NE(J.find("\"sum_us\""), std::string::npos);
  EXPECT_NE(J.find("\"max_us\""), std::string::npos);
  EXPECT_NE(J.find("\"buckets\""), std::string::npos);
  // End-of-run registry population from the legacy stats structs.
  EXPECT_NE(J.find("\"solver.shared.sat_queries\""), std::string::npos);
  EXPECT_NE(J.find("\"eval.worker.evals\""), std::string::npos);
  EXPECT_NE(J.find("\"sessions.worker\""), std::string::npos);
  // Timings live outside the structural section.
  EXPECT_NE(J.find("\"timings\""), std::string::npos);
  EXPECT_EQ(structuralSubset(J).find("Seconds"), std::string::npos);

  // The phase timings were populated from the spans.
  EXPECT_GT(Run.Timings.InversionSeconds, 0.0);
  EXPECT_GE(Run.Timings.TotalSeconds, Run.Timings.InversionSeconds);

  // formatStatsReport replaces the CLI's hand-rolled printStats.
  EXPECT_NE(Run.Stats.find("solver (shared):"), std::string::npos);
}

TEST(MetricsJson, StructuralSubsetIsJobsInvariant) {
  ToolRun J1 = runTool(EncProgram, 1);
  ToolRun J2 = runTool(EncProgram, 2);
  ToolRun J8 = runTool(EncProgram, 8);
  ASSERT_TRUE(J1.Ok) << J1.Error;
  ASSERT_TRUE(J2.Ok) << J2.Error;
  ASSERT_TRUE(J8.Ok) << J8.Error;
  std::string S1 = structuralSubset(J1.MetricsJson);
  EXPECT_EQ(S1, structuralSubset(J2.MetricsJson));
  EXPECT_EQ(S1, structuralSubset(J8.MetricsJson));
  EXPECT_NE(S1.find("\"inversionComplete\": true"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Span balance under fault injection and deadline exhaustion
//===----------------------------------------------------------------------===//

TEST(TraceUnderFaults, InjectedFaultsKeepTraceBalanced) {
  TraceRecorder &R = TraceRecorder::global();
  R.enable();
  // Persistent faults in the worker sessions: every scan query throws, the
  // serial shared-session recheck recovers. Latency scopes unwind through
  // the injected exceptions.
  ToolRun Run = runTool(B16Program, 2, "throw@1x0:workers");
  R.disable();
  ASSERT_TRUE(Run.Ok) << Run.Error;
  LintSummary Lint = lintTraceJson(R.json());
  EXPECT_TRUE(Lint.Error.empty()) << Lint.Error;
  EXPECT_GT(Lint.Spans, 0u);
  R.clear();
}

TEST(TraceUnderFaults, ExhaustedDeadlineKeepsTraceBalanced) {
  TraceRecorder &R = TraceRecorder::global();
  R.enable();
  // A run budget this small exhausts mid-pipeline; degraded phases must
  // still close their spans.
  ToolRun Run = runTool(B16Program, 2, "", 1e-3);
  R.disable();
  ASSERT_TRUE(Run.Ok) << Run.Error;
  std::string Json = R.json();
  LintSummary Lint = lintTraceJson(Json);
  EXPECT_TRUE(Lint.Error.empty()) << Lint.Error;
  EXPECT_NE(Json.find("genic.run"), std::string::npos);
  R.clear();
}

} // namespace
