//===- tests/telemetry_test.cpp - Observability stack tests ---------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the telemetry stack behind genicd's observability endpoints:
/// the Prometheus text renderer (escaping, bucket cumulativity, quantile
/// estimation, byte-stable output), the bounded-queue EventLog writer, the
/// QueryWatch slow-query accounting and watchdog, the registry merge
/// atomicity guarantee scrapes rely on, and the stats-report quantile
/// block.
///
//===----------------------------------------------------------------------===//

#include "genic/Genic.h"
#include "solver/QueryWatch.h"
#include "support/EventLog.h"
#include "support/Metrics.h"
#include "support/Prometheus.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace genic;

namespace {

std::string tempPath(const char *Tag) {
  return ::testing::TempDir() + "genic_telemetry_" + Tag + "_" +
         std::to_string(::getpid()) + ".ndjson";
}

// --- Prometheus name/escape rules -------------------------------------

TEST(PrometheusFormat, SanitizesDottedNames) {
  EXPECT_EQ(prometheusSanitizeName("solver.query.us.cegar.worker"),
            "solver_query_us_cegar_worker");
  EXPECT_EQ(prometheusSanitizeName("cache.sat-hits"), "cache_sat_hits");
  EXPECT_EQ(prometheusSanitizeName("9lives"), "_9lives");
  EXPECT_EQ(prometheusSanitizeName("ok_name:sub"), "ok_name:sub");
}

TEST(PrometheusFormat, EscapesHelpAndLabelText) {
  EXPECT_EQ(prometheusEscape("a\\b", false), "a\\\\b");
  EXPECT_EQ(prometheusEscape("a\nb", false), "a\\nb");
  // Quotes are only escaped inside label values.
  EXPECT_EQ(prometheusEscape("say \"hi\"", false), "say \"hi\"");
  EXPECT_EQ(prometheusEscape("say \"hi\"", true), "say \\\"hi\\\"");
}

// --- Renderer ----------------------------------------------------------

TEST(PrometheusRender, CounterFamilyWithHelpTypeAndTotalSuffix) {
  MetricsSnapshot S;
  S.Counters["serve.requests"] = 42;
  std::string Text = renderPrometheusText(S);
  EXPECT_NE(Text.find("# HELP genic_serve_requests_total "),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE genic_serve_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(Text.find("genic_serve_requests_total 42\n"), std::string::npos);
}

TEST(PrometheusRender, GaugeFamily) {
  MetricsSnapshot S;
  S.Gauges["pool.size"] = -3;
  std::string Text = renderPrometheusText(S);
  EXPECT_NE(Text.find("# TYPE genic_pool_size gauge\n"), std::string::npos);
  EXPECT_NE(Text.find("genic_pool_size -3\n"), std::string::npos);
}

TEST(PrometheusRender, HistogramBucketsAreCumulativeWithInf) {
  MetricsRegistry Reg;
  MetricsHistogram &H = Reg.histogram("solver.query.us.det.shared");
  H.observe(0);   // bucket 0 (< 1us)
  H.observe(5);   // bucket 3 (< 8us)
  H.observe(5);
  H.observe(300); // bucket 9 (< 512us)
  std::string Text = renderPrometheusText(Reg.snapshot());

  // Spot-check the exact off-by-one le bounds and the cumulative counts.
  EXPECT_NE(Text.find("genic_solver_query_us_det_shared_bucket{le=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(Text.find("genic_solver_query_us_det_shared_bucket{le=\"7\"} 3\n"),
            std::string::npos);
  EXPECT_NE(
      Text.find("genic_solver_query_us_det_shared_bucket{le=\"511\"} 4\n"),
      std::string::npos);
  EXPECT_NE(
      Text.find("genic_solver_query_us_det_shared_bucket{le=\"+Inf\"} 4\n"),
      std::string::npos);
  EXPECT_NE(Text.find("genic_solver_query_us_det_shared_sum 310\n"),
            std::string::npos);
  EXPECT_NE(Text.find("genic_solver_query_us_det_shared_count 4\n"),
            std::string::npos);

  // Walk every bucket line and assert the series never decreases.
  std::istringstream Lines(Text);
  std::string Line;
  long long Prev = -1;
  while (std::getline(Lines, Line)) {
    if (Line.find("_bucket{le=") == std::string::npos)
      continue;
    long long V = std::stoll(Line.substr(Line.rfind(' ') + 1));
    EXPECT_GE(V, Prev) << Line;
    Prev = V;
  }
}

TEST(PrometheusRender, QuantileGaugesEmitted) {
  MetricsRegistry Reg;
  for (int I = 0; I < 10; ++I)
    Reg.histogram("solver.query.us.x").observe(5);
  std::string Text = renderPrometheusText(Reg.snapshot());
  EXPECT_NE(Text.find("# TYPE genic_solver_query_us_x_quantile gauge\n"),
            std::string::npos);
  EXPECT_NE(
      Text.find("genic_solver_query_us_x_quantile{quantile=\"0.5\"} 5\n"),
      std::string::npos);
  EXPECT_NE(
      Text.find("genic_solver_query_us_x_quantile{quantile=\"0.99\"} 5\n"),
      std::string::npos);
}

TEST(PrometheusRender, ByteStableAndSorted) {
  MetricsRegistry Reg;
  Reg.counter("zz.last").add(1);
  Reg.counter("aa.first").add(2);
  Reg.gauge("mid.gauge").set(7);
  Reg.histogram("hist.us").observe(12);
  MetricsSnapshot S = Reg.snapshot();
  std::string A = renderPrometheusText(S);
  std::string B = renderPrometheusText(S);
  EXPECT_EQ(A, B);
  // Counter families come name-sorted.
  EXPECT_LT(A.find("genic_aa_first_total"), A.find("genic_zz_last_total"));
}

TEST(PrometheusRender, EmptySnapshotRendersEmpty) {
  EXPECT_EQ(renderPrometheusText(MetricsSnapshot{}), "");
}

// --- Quantile estimation ----------------------------------------------

TEST(HistogramQuantile, EmptyHistogramIsZero) {
  MetricsSnapshot::Histogram H;
  EXPECT_EQ(histogramQuantileUs(H, 0.5), 0.0);
  EXPECT_EQ(histogramQuantileUs(H, 0.99), 0.0);
}

TEST(HistogramQuantile, SingleBucketClampsToMax) {
  MetricsRegistry Reg;
  MetricsHistogram &H = Reg.histogram("h");
  for (int I = 0; I < 10; ++I)
    H.observe(5); // all in bucket 3, bounds [4, 8)
  MetricsSnapshot::Histogram Snap = Reg.snapshot().Histograms.at("h");
  // Interpolation inside [4, 8) would land above 5; the recorded max caps
  // the estimate so a single-valued histogram reports that value.
  EXPECT_EQ(histogramQuantileUs(Snap, 0.5), 5.0);
  EXPECT_EQ(histogramQuantileUs(Snap, 0.99), 5.0);
}

TEST(HistogramQuantile, InterpolatesAcrossBuckets) {
  MetricsRegistry Reg;
  MetricsHistogram &H = Reg.histogram("h");
  for (int I = 0; I < 5; ++I)
    H.observe(1); // bucket 1: [1, 2)
  for (int I = 0; I < 5; ++I)
    H.observe(100); // bucket 7: [64, 128)
  MetricsSnapshot::Histogram Snap = Reg.snapshot().Histograms.at("h");
  // p50: rank 5 falls at the top of the low bucket.
  double P50 = histogramQuantileUs(Snap, 0.5);
  EXPECT_GE(P50, 1.0);
  EXPECT_LE(P50, 2.0);
  // p99: rank 9.9 interpolates in [64, 128) and clamps to the max (100).
  EXPECT_EQ(histogramQuantileUs(Snap, 0.99), 100.0);
}

TEST(HistogramQuantile, OverflowBucketUsesRecordedMax) {
  MetricsSnapshot::Histogram H;
  H.Count = 4;
  H.Buckets[MetricsHistogram::NumBuckets - 1] = 4;
  H.MaxUs = 50'000'000; // 50s, past the last finite bound
  H.SumUs = 4 * 50'000'000ull;
  double P99 = histogramQuantileUs(H, 0.99);
  EXPECT_LE(P99, 50'000'000.0);
  EXPECT_GT(P99, static_cast<double>(uint64_t(1)
                                     << (MetricsHistogram::NumBuckets - 2)) -
                     1);
}

// --- EventLog ----------------------------------------------------------

TEST(EventLog, WritesLinesInOrderAndAccountsDrops) {
  std::string Path = tempPath("order");
  std::remove(Path.c_str());
  constexpr int N = 500;
  {
    EventLog Log(Path, /*QueueBound=*/64);
    ASSERT_TRUE(Log.ok());
    for (int I = 0; I < N; ++I)
      Log.append("{\"seq\":" + std::to_string(I) + "}");
    Log.flush();
    // Every line either reached the file or was counted as dropped.
    std::ifstream In(Path);
    std::string Line;
    int Written = 0, LastSeq = -1;
    while (std::getline(In, Line)) {
      ++Written;
      size_t Colon = Line.find(':');
      int Seq = std::stoi(Line.substr(Colon + 1));
      EXPECT_GT(Seq, LastSeq) << "out-of-order line " << Line;
      LastSeq = Seq;
    }
    EXPECT_EQ(static_cast<uint64_t>(Written) + Log.dropped(),
              static_cast<uint64_t>(N));
    EXPECT_GT(Written, 0);
  }
  std::remove(Path.c_str());
}

TEST(EventLog, AppendAddsTrailingNewlineOnce) {
  std::string Path = tempPath("newline");
  std::remove(Path.c_str());
  {
    EventLog Log(Path, 16);
    ASSERT_TRUE(Log.ok());
    Log.append("{\"a\":1}");
    Log.append("{\"b\":2}\n");
    Log.flush();
  }
  std::ifstream In(Path);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  EXPECT_EQ(Buffer.str(), "{\"a\":1}\n{\"b\":2}\n");
  std::remove(Path.c_str());
}

TEST(EventLog, UnopenablePathReportsNotOk) {
  EventLog Log("/nonexistent-genic-dir/events.ndjson");
  EXPECT_FALSE(Log.ok());
  Log.append("dropped on the floor");
  Log.flush(); // must not hang or crash
}

// --- QueryWatch --------------------------------------------------------

TEST(QueryWatchTest, CompletionAccountingCountsSlowAndTimedOutQueries) {
  QueryWatch &W = QueryWatch::global();
  W.arm(50); // 50ms threshold
  MetricsRegistry Reg;

  // A timeout-Unknown is slow by definition, whatever its elapsed time.
  W.noteCompletion(10, /*TimedOut=*/true, "determinism", "shared", &Reg);
  EXPECT_EQ(Reg.counter("solver.slowquery.count").value(), 1u);
  EXPECT_EQ(Reg.counter("solver.slowquery.timeouts").value(), 1u);

  // Past-threshold completion counts without a timeout.
  W.noteCompletion(60'000, /*TimedOut=*/false, "cegar", "worker", &Reg);
  EXPECT_EQ(Reg.counter("solver.slowquery.count").value(), 2u);
  EXPECT_EQ(Reg.counter("solver.slowquery.timeouts").value(), 1u);

  // Fast and clean: no accounting.
  W.noteCompletion(10, /*TimedOut=*/false, "cegar", "worker", &Reg);
  EXPECT_EQ(Reg.counter("solver.slowquery.count").value(), 2u);
  EXPECT_EQ(Reg.histogram("solver.slowquery.us").count(), 2u);

  // Disarmed: even a timed-out query is not recorded.
  W.arm(0);
  W.noteCompletion(10, /*TimedOut=*/true, "determinism", "shared", &Reg);
  EXPECT_EQ(Reg.counter("solver.slowquery.count").value(), 2u);
}

TEST(QueryWatchTest, ActiveQueriesTrackScopes) {
  QueryWatch &W = QueryWatch::global();
  W.arm(10'000);
  {
    QueryWatch::Scope S("worker");
    std::vector<QueryWatch::ActiveQuery> Active = W.activeQueries();
    ASSERT_EQ(Active.size(), 1u);
    EXPECT_STREQ(Active[0].Kind, "worker");
  }
  EXPECT_TRUE(W.activeQueries().empty());
  W.arm(0);
}

TEST(QueryWatchTest, WatchdogFlagsStuckQueryMidFlight) {
  QueryWatch &W = QueryWatch::global();
  std::mutex Mu;
  std::vector<SlowQueryEvent> Events;
  W.arm(1); // 1ms: anything we hold open is immediately "stuck"
  W.setSink([&](const SlowQueryEvent &E) {
    std::lock_guard<std::mutex> Lock(Mu);
    Events.push_back(E);
  });
  W.startWatchdog(/*PeriodMs=*/2);
  {
    QueryWatch::Scope S("pooled");
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(10);
    for (;;) {
      {
        std::lock_guard<std::mutex> Lock(Mu);
        if (!Events.empty())
          break;
      }
      ASSERT_LT(std::chrono::steady_clock::now(), Deadline)
          << "watchdog never flagged the stuck query";
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  W.stopWatchdog();
  W.setSink(nullptr);
  W.arm(0);
  std::lock_guard<std::mutex> Lock(Mu);
  ASSERT_FALSE(Events.empty());
  EXPECT_TRUE(Events[0].InFlight);
  EXPECT_STREQ(Events[0].Kind, "pooled");
  EXPECT_EQ(Events[0].ThresholdMs, 1u);
  EXPECT_GE(Events[0].ElapsedUs, 1'000u);
  // The once-per-occurrence latch: one stuck query fires one event, not
  // one per scan.
  EXPECT_EQ(Events.size(), 1u);
}

// --- Merge atomicity (the scrape-tear regression) ----------------------

TEST(MetricsMerge, ConcurrentScrapesSeeWholeBatchesMonotonically) {
  MetricsRegistry Reg;
  MetricsSnapshot Batch;
  // A worker collection always lands these two together; a scrape must
  // never see one advanced past the other.
  Batch.Counters["workerproc.collections"] = 1;
  Batch.Counters["workerproc.shards"] = 1;
  Batch.Histograms["workerproc.us"].Count = 1;
  Batch.Histograms["workerproc.us"].SumUs = 10;
  Batch.Histograms["workerproc.us"].Buckets[4] = 1;

  constexpr uint64_t Merges = 400;
  std::atomic<bool> Done{false};
  std::thread Merger([&] {
    for (uint64_t I = 0; I < Merges; ++I)
      Reg.merge(Batch);
    Done.store(true);
  });

  uint64_t PrevCollections = 0;
  while (!Done.load()) {
    MetricsSnapshot Scrape = Reg.snapshot();
    uint64_t Collections = Scrape.Counters.count("workerproc.collections")
                               ? Scrape.Counters["workerproc.collections"]
                               : 0;
    uint64_t Shards = Scrape.Counters.count("workerproc.shards")
                          ? Scrape.Counters["workerproc.shards"]
                          : 0;
    EXPECT_EQ(Collections, Shards) << "scrape tore across a merge batch";
    EXPECT_GE(Collections, PrevCollections) << "counter went backwards";
    PrevCollections = Collections;
  }
  Merger.join();

  MetricsSnapshot Final = Reg.snapshot();
  EXPECT_EQ(Final.Counters["workerproc.collections"], Merges);
  EXPECT_EQ(Final.Counters["workerproc.shards"], Merges);
  EXPECT_EQ(Final.Histograms["workerproc.us"].Count, Merges);
}

// --- Stats report quantile block ---------------------------------------

TEST(StatsReport, PrintsQuantilesNextToQueryHistograms) {
  GenicReport R;
  R.EntryName = "f";
  MetricsRegistry Reg;
  for (int I = 0; I < 8; ++I)
    Reg.histogram("solver.query.us.determinism.shared").observe(100);
  Reg.histogram("other.latency.us").observe(5); // not a query histogram
  std::string Text = formatStatsReport(R, Reg.snapshot());
  EXPECT_NE(Text.find("solver query latency (us):"), std::string::npos);
  EXPECT_NE(Text.find("solver.query.us.determinism.shared"),
            std::string::npos);
  EXPECT_NE(Text.find("p50"), std::string::npos);
  EXPECT_NE(Text.find("p99"), std::string::npos);
  EXPECT_EQ(Text.find("other.latency.us"), std::string::npos);

  // Without query histograms the block disappears entirely.
  EXPECT_EQ(formatStatsReport(R, MetricsSnapshot{})
                .find("solver query latency (us):"),
            std::string::npos);
}

} // namespace
