//===- tools/genicd.cpp - The resident genic inversion service ------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// genicd keeps one InversionEngine resident and serves inversion requests
/// over a Unix or TCP socket, newline-delimited JSON in both directions
/// (the protocol lives in engine/Serve.h; tools/genicd-client.cpp is the
/// matching client).
///
///   genicd --socket /tmp/genicd.sock [--threads 4] [--queue 16]
///   genicd --tcp 7411
///
/// Request handling:
///
///   * every accepted connection gets a reader thread that frames lines
///     and feeds the bounded admission queue; when the queue is full the
///     request is answered immediately with code "overloaded" instead of
///     stalling the connection,
///   * a fixed pool of worker threads drains the queue; each request runs
///     with its own deadline, fault plan, and metrics registry (see
///     engine/InversionEngine.h), so concurrent requests are isolated,
///   * repeated requests for the same program hit the engine's warm pool:
///     parse/lower are skipped and solver/bank state is reused,
///   * "metrics" serves the engine-lifetime registry as genic-metrics-v1
///     JSON; "statusz" serves a live genic-statusz-v1 snapshot (admission
///     queue, in-flight requests with current phase, warm pool contents,
///     worker slots, active solver queries); "ping" answers "pong";
///     "shutdown" stops the daemon after in-flight requests drain,
///   * the same socket also answers plain HTTP: `GET /metrics` serves the
///     registry in Prometheus text exposition format (per-request metrics
///     are merged into the engine registry at request end, so counters and
///     query-latency histograms are cumulative across requests) and
///     `GET /statusz` the introspection snapshot — point curl or a scraper
///     at the daemon without speaking NDJSON,
///   * --access-log writes one structured NDJSON line per request (queue
///     wait, per-phase latency, solver counters, worker-proc shard stats)
///     through a bounded-queue writer that never blocks a worker thread;
///     slow-query events land in the same log,
///   * --slow-query-ms arms the stuck-query watchdog: solver queries
///     running past the threshold are reported mid-flight (and timed-out
///     queries at completion) as `solver.slowquery.*` counters, access-log
///     events, and Perfetto trace instants,
///   * SIGTERM/SIGINT trigger the same graceful path: accepting stops,
///     in-flight requests get --grace-seconds to finish, metrics/trace
///     artifacts are flushed, and the exit code is 0,
///   * connections carry socket read/write timeouts (--io-timeout-seconds)
///     and a request-size cap (--max-request-bytes) answered with
///     "bad-request" — a stuck or abusive peer cannot pin a thread.
///
/// Engine options mirror the genic CLI: --jobs, --no-aux, --no-mining,
/// --no-slice, --solver-timeout-ms, plus --warm-programs
/// for the pool capacity and --trace-out to write a span trace
/// (request-tagged, see tools/trace-lint.cpp) on shutdown.
///
/// Exit codes: 0 clean shutdown, 1 runtime failure, 2 usage.
///
//===----------------------------------------------------------------------===//

#include "engine/InversionEngine.h"
#include "engine/Serve.h"
#include "solver/QueryWatch.h"
#include "support/EventLog.h"
#include "support/Prometheus.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace genic;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: genicd (--socket PATH | --tcp PORT) [options]\n"
      "  --threads N            worker threads draining the queue (default 2)\n"
      "  --queue N              admission queue bound; beyond it requests\n"
      "                         are answered \"overloaded\" (default 16)\n"
      "  --warm-programs N      warm pool capacity in programs (default 8)\n"
      "  --jobs N --no-aux --no-mining --no-slice\n"
      "  --solver-timeout-ms N\n"
      "  --worker-procs N       ship each request's verification shards to\n"
      "                         N out-of-process genic-worker processes\n"
      "                         (crash isolation; default 0 = in-process)\n"
      "  --worker-binary PATH   explicit genic-worker path (default: env\n"
      "                         GENIC_WORKER, then next to genicd)\n"
      "  --grace-seconds S      shutdown grace: in-flight requests get S\n"
      "                         seconds to drain before the process exits\n"
      "                         anyway (default 30)\n"
      "  --io-timeout-seconds S per-connection socket read/write timeout;\n"
      "                         an idle or stuck peer is disconnected\n"
      "                         (default 300, 0 disables)\n"
      "  --max-request-bytes N  longest accepted request line; beyond it\n"
      "                         the request is answered \"bad-request\" and\n"
      "                         the connection closed (default 16 MiB)\n"
      "  --metrics-out FILE     write the engine metrics snapshot as JSON\n"
      "                         on shutdown\n"
      "  --trace-out FILE       write a span trace on shutdown\n"
      "  --access-log FILE      append one NDJSON line per request (and per\n"
      "                         slow-query event) via a bounded-queue writer\n"
      "  --slow-query-ms N      arm the stuck-query watchdog: report solver\n"
      "                         queries running (or timing out) past N ms\n"
      "                         (default 0 = disabled)\n");
  return 2;
}

/// Wall-clock seconds since the Unix epoch, for log timestamps.
double unixNow() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// One accepted connection. Workers write responses concurrently, so every
/// write serializes on WriteMu and sends the whole line.
struct Conn {
  explicit Conn(int Fd) : Fd(Fd) {}
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  int Fd;
  std::mutex WriteMu;

  void sendLine(const std::string &Line) {
    std::lock_guard<std::mutex> Lock(WriteMu);
    size_t Off = 0;
    while (Off < Line.size()) {
      ssize_t N = ::send(Fd, Line.data() + Off, Line.size() - Off,
#ifdef MSG_NOSIGNAL
                         MSG_NOSIGNAL
#else
                         0
#endif
      );
      if (N <= 0)
        return; // Peer gone; the request's work is already done.
      Off += static_cast<size_t>(N);
    }
  }
};

/// One queued request line awaiting a worker.
struct Job {
  std::shared_ptr<Conn> C;
  std::string Line;
  /// Admission timestamp: the queue wait reported in timings and the
  /// access log is claim time minus this.
  std::chrono::steady_clock::time_point Enqueued;
};

/// The daemon: engine + admission queue + socket plumbing.
class Daemon {
public:
  InversionEngine Engine;
  size_t QueueBound;
  std::atomic<bool> Stopping{false};
  int ListenFd = -1;

  /// Request-handling policy shared by every connection.
  unsigned WorkerProcs = 0;
  std::string WorkerBinary;
  size_t MaxRequestBytes = 16u << 20;

  /// Structured per-request NDJSON log (--access-log); null when disabled.
  std::unique_ptr<EventLog> AccessLog;
  /// Armed slow-query threshold (--slow-query-ms); 0 = watchdog off.
  uint64_t SlowQueryMs = 0;

  /// Requests currently inside handle(); the shutdown grace period waits
  /// for this and the queue to reach zero.
  std::atomic<size_t> Active{0};

  std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::deque<Job> Queue;

  Daemon(EngineConfig Config, size_t QueueBound)
      : Engine(std::move(Config)), QueueBound(QueueBound) {}

  /// Reader-side admission: false means the queue is full and the caller
  /// must answer "overloaded" itself.
  bool enqueue(Job J) {
    {
      std::lock_guard<std::mutex> Lock(QueueMu);
      if (Queue.size() >= QueueBound)
        return false;
      Queue.push_back(std::move(J));
    }
    QueueCv.notify_one();
    return true;
  }

  std::mutex ConnsMu;
  std::vector<std::weak_ptr<Conn>> Conns;

  void registerConn(const std::shared_ptr<Conn> &C) {
    std::lock_guard<std::mutex> Lock(ConnsMu);
    Conns.push_back(C);
  }

  /// Full stop from normal (non-signal) context: wakes the workers, breaks
  /// the accept loop, and shuts every live connection down so blocked
  /// reader threads return from recv. The signal handler instead only
  /// flips Stopping and shuts the listen socket (the async-signal-safe
  /// subset); main() calls stop() after the accept loop breaks.
  void stop() {
    Stopping.store(true);
    QueueCv.notify_all();
    if (ListenFd >= 0)
      ::shutdown(ListenFd, SHUT_RDWR);
    std::lock_guard<std::mutex> Lock(ConnsMu);
    for (const std::weak_ptr<Conn> &W : Conns)
      if (std::shared_ptr<Conn> C = W.lock())
        // Read side only: blocked readers return, but in-flight responses
        // (the shutdown ack in particular) still reach the peer.
        ::shutdown(C->Fd, SHUT_RD);
  }

  void workerLoop() {
    for (;;) {
      Job J;
      {
        std::unique_lock<std::mutex> Lock(QueueMu);
        QueueCv.wait(Lock,
                     [this] { return Stopping.load() || !Queue.empty(); });
        if (Queue.empty())
          return; // Stopping and drained.
        J = std::move(Queue.front());
        Queue.pop_front();
        // Claimed under the lock so drained() can never observe an empty
        // queue before the increment lands.
        Active.fetch_add(1);
      }
      uint64_t QueueUs =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - J.Enqueued)
              .count();
      J.C->sendLine(handle(J.Line, QueueUs));
      Active.fetch_sub(1);
    }
  }

  /// True once nothing is queued and nothing is being handled.
  bool drained() {
    std::lock_guard<std::mutex> Lock(QueueMu);
    return Queue.empty() && Active.load() == 0;
  }

  /// Appends one "request" line to the access log (no-op when disabled).
  /// \p Run is null for non-invert ops and engine-level failures; its
  /// counters come from the request's registry snapshot.
  void logAccess(const ServeResponse &Resp, const std::string &Op,
                 uint64_t QueueUs, const EngineResponse *Run,
                 uint64_t SlowQueries) {
    if (!AccessLog)
      return;
    char Buf[512];
    std::string L;
    std::snprintf(Buf, sizeof(Buf),
                  "{\"event\":\"request\",\"ts\":%.3f,\"id\":%llu,", unixNow(),
                  (unsigned long long)Resp.Id);
    L = Buf;
    L += "\"op\":\"" + jsonEscapeString(Op) + "\",";
    L += "\"api\":\"" + jsonEscapeString(Resp.Code) + "\",";
    std::snprintf(Buf, sizeof(Buf), "\"exit\":%d,\"warm\":%s,\"queue_us\":%llu",
                  Resp.Exit, Resp.Warm ? "true" : "false",
                  (unsigned long long)QueueUs);
    L += Buf;
    if (Run) {
      const PhaseTimings &T = Run->Report.Timings;
      auto Counter = [&Run](const char *Name) -> unsigned long long {
        auto It = Run->Metrics.Counters.find(Name);
        return It == Run->Metrics.Counters.end() ? 0 : It->second;
      };
      std::snprintf(
          Buf, sizeof(Buf),
          ",\"det_us\":%llu,\"inj_us\":%llu,\"inv_us\":%llu,"
          "\"total_us\":%llu,\"sat_queries\":%llu,\"retries\":%llu,"
          "\"timeouts\":%llu,\"cancelled\":%llu,\"faults\":%llu,"
          "\"slow_queries\":%llu,\"worker_shards\":%llu,"
          "\"worker_crashes\":%llu,\"worker_restarts\":%llu,"
          "\"worker_degraded\":%llu",
          (unsigned long long)(T.DeterminismSeconds * 1e6),
          (unsigned long long)(T.InjectivitySeconds * 1e6),
          (unsigned long long)(T.InversionSeconds * 1e6),
          (unsigned long long)(T.TotalSeconds * 1e6),
          Counter("solver.shared.sat_queries") +
              Counter("solver.checker.sat_queries") +
              Counter("solver.worker.sat_queries"),
          Counter("run.retries_attempted"), Counter("run.queries_timed_out"),
          Counter("run.queries_cancelled"), Counter("run.injected_faults"),
          (unsigned long long)SlowQueries, Counter("workerproc.shards"),
          Counter("workerproc.crashes"), Counter("workerproc.restarts"),
          Counter("workerproc.degraded"));
      L += Buf;
    }
    if (!Resp.Error.empty())
      L += ",\"error\":\"" + jsonEscapeString(Resp.Error) + "\"";
    L += "}";
    AccessLog->append(std::move(L));
  }

  /// Appends one "slowquery" line (the QueryWatch sink target).
  void logSlowQuery(const SlowQueryEvent &E) {
    if (!AccessLog)
      return;
    char Buf[384];
    std::snprintf(
        Buf, sizeof(Buf),
        "{\"event\":\"slowquery\",\"ts\":%.3f,\"req\":%llu,"
        "\"phase\":\"%s\",\"kind\":\"%s\",\"elapsed_us\":%llu,"
        "\"threshold_ms\":%llu,\"in_flight\":%s,\"timed_out\":%s}",
        unixNow(), (unsigned long long)E.RequestId, E.Phase, E.Kind,
        (unsigned long long)E.ElapsedUs, (unsigned long long)E.ThresholdMs,
        E.InFlight ? "true" : "false", E.TimedOut ? "true" : "false");
    AccessLog->append(Buf);
  }

  /// The genic-statusz-v1 snapshot: admission queue, in-flight requests
  /// (elapsed, current phase, worker slots), warm pool contents, and the
  /// active solver queries. Served by the statusz op and GET /statusz.
  std::string formatStatuszJson() {
    EngineStatus S = Engine.status();
    size_t Depth;
    {
      std::lock_guard<std::mutex> Lock(QueueMu);
      Depth = Queue.size();
    }
    char Buf[256];
    std::string O = "{\n  \"schema\": \"genic-statusz-v1\",\n";
    std::snprintf(Buf, sizeof(Buf),
                  "  \"queue\": {\"depth\": %zu, \"bound\": %zu, "
                  "\"active\": %zu, \"sheds\": %llu},\n",
                  Depth, QueueBound, Active.load(),
                  (unsigned long long)Engine.metrics()
                      .counter("serve.overloaded")
                      .value());
    O += Buf;
    O += "  \"inFlight\": [";
    bool First = true;
    for (const EngineStatus::Request &R : S.InFlight) {
      O += First ? "\n" : ",\n";
      First = false;
      std::snprintf(Buf, sizeof(Buf),
                    "    {\"req\": %llu, \"elapsed_us\": %llu, \"phase\": "
                    "\"%s\", \"warm\": %s, \"worker_procs\": %u",
                    (unsigned long long)R.TraceId,
                    (unsigned long long)R.ElapsedUs, R.Phase,
                    R.Warm ? "true" : "false", R.WorkerProcs);
      O += Buf;
      if (!R.Workers.empty()) {
        O += ", \"workers\": [";
        for (size_t I = 0; I < R.Workers.size(); ++I) {
          const EngineStatus::WorkerSlot &W = R.Workers[I];
          std::snprintf(Buf, sizeof(Buf),
                        "%s{\"slot\": %u, \"pid\": %d, \"busy\": %s, "
                        "\"dead\": %s, \"restarts\": %u}",
                        I ? ", " : "", W.Index, W.Pid,
                        W.Busy ? "true" : "false", W.Dead ? "true" : "false",
                        W.Restarts);
          O += Buf;
        }
        O += "]";
      }
      O += "}";
    }
    O += First ? "],\n" : "\n  ],\n";
    std::snprintf(Buf, sizeof(Buf),
                  "  \"pool\": {\"capacity\": %zu, \"programs\": %zu, "
                  "\"hits\": %llu, \"misses\": %llu, \"busy_misses\": %llu, "
                  "\"evictions\": %llu, \"entries\": [",
                  S.PoolCapacity, S.PoolSize,
                  (unsigned long long)S.PoolStats.Hits,
                  (unsigned long long)S.PoolStats.Misses,
                  (unsigned long long)S.PoolStats.BusyMisses,
                  (unsigned long long)S.PoolStats.Evictions);
    O += Buf;
    First = true;
    for (const ProgramPool::EntryInfo &E : S.Pool) {
      O += First ? "\n" : ",\n";
      First = false;
      std::snprintf(Buf, sizeof(Buf),
                    "    {\"hash\": \"%016llx\", \"runs\": %llu, "
                    "\"idle_ticks\": %llu, \"busy\": %s, \"warm\": %s}",
                    (unsigned long long)E.Key, (unsigned long long)E.Runs,
                    (unsigned long long)E.IdleTicks,
                    E.Busy ? "true" : "false", E.Warm ? "true" : "false");
      O += Buf;
    }
    O += First ? "]},\n" : "\n  ]},\n";
    std::snprintf(Buf, sizeof(Buf),
                  "  \"solver\": {\"slow_query_ms\": %llu, "
                  "\"slow_queries\": %llu, \"active_queries\": [",
                  (unsigned long long)SlowQueryMs,
                  (unsigned long long)QueryWatch::global().slowQueryCount());
    O += Buf;
    First = true;
    for (const QueryWatch::ActiveQuery &Q : QueryWatch::global().activeQueries()) {
      O += First ? "\n" : ",\n";
      First = false;
      std::snprintf(Buf, sizeof(Buf),
                    "    {\"req\": %llu, \"phase\": \"%s\", \"kind\": "
                    "\"%s\", \"elapsed_us\": %llu}",
                    (unsigned long long)Q.RequestId, Q.Phase, Q.Kind,
                    (unsigned long long)Q.ElapsedUs);
      O += Buf;
    }
    O += First ? "]}\n}\n" : "\n  ]}\n}\n";
    return O;
  }

  std::string handle(const std::string &Line, uint64_t QueueUs) {
    Result<ServeRequest> Parsed = parseServeRequest(Line);
    if (!Parsed) {
      ServeResponse Resp;
      Resp.Code = "bad-request";
      Resp.Exit = ExitUsage;
      Resp.Error = Parsed.status().message();
      // Best effort at echoing the id even from a request that failed
      // validation later than the id key.
      std::string Op;
      if (Result<FlatJson> J = parseFlatJson(Line)) {
        if (auto It = J->Numbers.find("id");
            It != J->Numbers.end() && It->second >= 0)
          Resp.Id = static_cast<uint64_t>(It->second);
        if (auto It = J->Strings.find("op"); It != J->Strings.end())
          Op = It->second;
      }
      logAccess(Resp, Op, QueueUs, nullptr, 0);
      return formatServeResponse(Resp);
    }
    const ServeRequest &Req = *Parsed;
    ServeResponse Resp;
    Resp.Id = Req.Id;

    if (Req.Op == "ping") {
      Resp.Payload = "pong";
      logAccess(Resp, Req.Op, QueueUs, nullptr, 0);
      return formatServeResponse(Resp);
    }
    if (Req.Op == "metrics") {
      Resp.Payload = formatMetricsSnapshotJson(Engine.metrics().snapshot());
      logAccess(Resp, Req.Op, QueueUs, nullptr, 0);
      return formatServeResponse(Resp);
    }
    if (Req.Op == "statusz") {
      Resp.Payload = formatStatuszJson();
      logAccess(Resp, Req.Op, QueueUs, nullptr, 0);
      return formatServeResponse(Resp);
    }
    if (Req.Op == "shutdown") {
      stop();
      logAccess(Resp, Req.Op, QueueUs, nullptr, 0);
      return formatServeResponse(Resp);
    }

    RequestContext Ctx;
    Ctx.BudgetSeconds = Req.TimeoutSeconds;
    Ctx.ForceInjectivity = Req.ForceInjectivity;
    Ctx.ForceInvert = Req.ForceInvert;
    Ctx.Jobs = Req.Jobs;
    Ctx.WorkerProcs = WorkerProcs;
    Ctx.WorkerBinary = WorkerBinary;
    if (!Req.FaultPlan.empty()) {
      Result<FaultPlan> Plan = parseFaultPlan(Req.FaultPlan);
      if (!Plan) {
        Resp.Code = "bad-request";
        Resp.Exit = ExitUsage;
        Resp.Error = Plan.status().message();
        logAccess(Resp, Req.Op, QueueUs, nullptr, 0);
        return formatServeResponse(Resp);
      }
      Ctx.Faults = *Plan;
    }
    MetricsRegistry RequestMetrics;
    Ctx.Metrics = &RequestMetrics;

    Result<EngineResponse> R = Engine.serve(Req.Source, Ctx);

    // Fold this request's registry — query-latency histograms, drained
    // session counters, workerproc stats, slowquery counts — into the engine
    // registry, so the metrics op and GET /metrics expose cumulative
    // process-wide telemetry. merge() applies the whole batch under one
    // registry lock, so a concurrent scrape sees all of it or none.
    uint64_t SlowQueries =
        RequestMetrics.counter("solver.slowquery.count").value();
    Engine.metrics().merge(RequestMetrics.snapshot());

    if (!R) {
      Resp.Exit = ExitError;
      Resp.Code = apiCodeForExit(Resp.Exit);
      Resp.Error = R.status().message();
      logAccess(Resp, Req.Op, QueueUs, nullptr, SlowQueries);
      return formatServeResponse(Resp);
    }
    Resp.Exit = R->Exit;
    Resp.Code = apiCodeForExit(R->Exit);
    Resp.Warm = R->WarmHit;
    Resp.Report = formatOutcomeReport(R->Report);
    Resp.HasTimings = true;
    Resp.QueueUs = QueueUs;
    Resp.DetUs = static_cast<uint64_t>(
        R->Report.Timings.DeterminismSeconds * 1e6);
    Resp.InjUs = static_cast<uint64_t>(
        R->Report.Timings.InjectivitySeconds * 1e6);
    Resp.InvUs =
        static_cast<uint64_t>(R->Report.Timings.InversionSeconds * 1e6);
    Resp.TotalUs = static_cast<uint64_t>(R->Report.Timings.TotalSeconds * 1e6);
    logAccess(Resp, Req.Op, QueueUs, &*R, SlowQueries);
    return formatServeResponse(Resp);
  }

  /// Answers one plain-HTTP exchange on the NDJSON socket: `GET /metrics`
  /// serves the engine registry in Prometheus text exposition format,
  /// `GET /statusz` the introspection snapshot. One request per
  /// connection, Connection: close — exactly what a scraper or curl does.
  void serveHttp(Conn &C, const std::string &Request) {
    std::string Path;
    size_t Sp1 = Request.find(' ');
    if (Sp1 != std::string::npos) {
      size_t Sp2 = Request.find_first_of(" \r\n", Sp1 + 1);
      if (Sp2 != std::string::npos)
        Path = Request.substr(Sp1 + 1, Sp2 - Sp1 - 1);
    }
    std::string Body, StatusLine = "200 OK";
    std::string Type = "text/plain; charset=utf-8";
    if (Path == "/metrics") {
      Body = renderPrometheusText(Engine.metrics().snapshot());
      Type = "text/plain; version=0.0.4; charset=utf-8";
    } else if (Path == "/statusz") {
      Body = formatStatuszJson();
    } else {
      StatusLine = "404 Not Found";
      Body = "not found; try /metrics or /statusz\n";
    }
    std::string Out = "HTTP/1.1 " + StatusLine +
                      "\r\nContent-Type: " + Type +
                      "\r\nContent-Length: " + std::to_string(Body.size()) +
                      "\r\nConnection: close\r\n\r\n" + Body;
    C.sendLine(Out);
    ServeResponse LogResp;
    LogResp.Code = StatusLine[0] == '2' ? "ok" : "bad-request";
    LogResp.Exit = StatusLine[0] == '2' ? ExitOk : ExitUsage;
    logAccess(LogResp, "http:" + Path, 0, nullptr, 0);
  }

  /// Frames lines off one connection until EOF, feeding the queue. A
  /// request longer than MaxRequestBytes (no newline within the cap) is
  /// answered "bad-request" and the connection closed — a client streaming
  /// an unbounded line can neither hang a reader nor grow the buffer
  /// without bound. recv timing out (SO_RCVTIMEO, see --io-timeout-seconds)
  /// disconnects the idle peer.
  void readerLoop(std::shared_ptr<Conn> C) {
    std::string Buffer;
    char Chunk[64 * 1024];
    for (;;) {
      ssize_t N = ::recv(C->Fd, Chunk, sizeof(Chunk), 0);
      if (N <= 0)
        return;
      Buffer.append(Chunk, static_cast<size_t>(N));
      // The NDJSON protocol always opens with '{', so a connection whose
      // first byte is 'G' can only be an HTTP GET. Scrapes are cheap,
      // read-only, and must stay observable under overload, so they are
      // served inline on the reader thread, never queued or shed.
      if (Buffer[0] == 'G') {
        while (Buffer.find("\r\n\r\n") == std::string::npos) {
          if (Buffer.size() > MaxRequestBytes || Stopping.load())
            return;
          ssize_t M = ::recv(C->Fd, Chunk, sizeof(Chunk), 0);
          if (M <= 0)
            return;
          Buffer.append(Chunk, static_cast<size_t>(M));
        }
        serveHttp(*C, Buffer);
        return;
      }
      size_t Start = 0;
      for (size_t Nl; (Nl = Buffer.find('\n', Start)) != std::string::npos;
           Start = Nl + 1) {
        std::string Line = Buffer.substr(Start, Nl - Start);
        if (Line.empty())
          continue;
        if (Line.size() > MaxRequestBytes) {
          sendOversized(*C, Line);
          return;
        }
        if (!enqueue(Job{C, Line, std::chrono::steady_clock::now()})) {
          ServeResponse Busy;
          Busy.Code = "overloaded";
          Busy.Exit = ExitError;
          Busy.Error = "admission queue full";
          std::string Op;
          if (Result<FlatJson> J = parseFlatJson(Line)) {
            if (auto It = J->Numbers.find("id");
                It != J->Numbers.end() && It->second >= 0)
              Busy.Id = static_cast<uint64_t>(It->second);
            if (auto It = J->Strings.find("op"); It != J->Strings.end())
              Op = It->second;
          }
          Engine.metrics().counter("serve.overloaded").add(1);
          logAccess(Busy, Op, 0, nullptr, 0);
          C->sendLine(formatServeResponse(Busy));
        }
      }
      Buffer.erase(0, Start);
      if (Buffer.size() > MaxRequestBytes) {
        sendOversized(*C, Buffer);
        return;
      }
      if (Stopping.load())
        return;
    }
  }

  void sendOversized(Conn &C, const std::string &Partial) {
    ServeResponse Bad;
    Bad.Code = "bad-request";
    Bad.Exit = ExitUsage;
    Bad.Error = "request exceeds " + std::to_string(MaxRequestBytes) +
                " bytes";
    // The id key sits at the front of well-formed requests, so even a
    // truncated oversized line usually yields it.
    if (Result<FlatJson> J = parseFlatJson(Partial))
      if (auto It = J->Numbers.find("id");
          It != J->Numbers.end() && It->second >= 0)
        Bad.Id = static_cast<uint64_t>(It->second);
    logAccess(Bad, "", 0, nullptr, 0);
    C.sendLine(formatServeResponse(Bad));
  }
};

// Signal handling keeps to the async-signal-safe subset: flip the flag and
// shut the listen socket so accept() returns; main() finishes the shutdown.
std::atomic<bool> *SignalStop = nullptr;
volatile int SignalListenFd = -1;

void onSignal(int) {
  if (SignalStop)
    SignalStop->store(true);
  if (SignalListenFd >= 0)
    ::shutdown(SignalListenFd, SHUT_RDWR);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string SocketPath, TraceOut, MetricsOut, AccessLogPath;
  uint64_t SlowQueryMs = 0;
  int TcpPort = -1;
  size_t Threads = 2, QueueBound = 16;
  size_t MaxRequestBytes = 16u << 20;
  unsigned WorkerProcs = 0;
  std::string WorkerBinary;
  double GraceSeconds = 30, IoTimeoutSeconds = 300;
  EngineConfig Config;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto NextArg = [&]() -> const char * {
      return ++I < Argc ? Argv[I] : nullptr;
    };
    try {
      if (Arg == "--socket") {
        const char *V = NextArg();
        if (!V)
          return usage();
        SocketPath = V;
      } else if (Arg == "--tcp") {
        const char *V = NextArg();
        if (!V)
          return usage();
        TcpPort = std::stoi(V);
      } else if (Arg == "--threads") {
        const char *V = NextArg();
        if (!V)
          return usage();
        Threads = std::max(1, std::stoi(V));
      } else if (Arg == "--queue") {
        const char *V = NextArg();
        if (!V)
          return usage();
        QueueBound = std::max(1, std::stoi(V));
      } else if (Arg == "--warm-programs") {
        const char *V = NextArg();
        if (!V)
          return usage();
        Config.WarmPrograms = std::stoul(V);
      } else if (Arg == "--jobs") {
        const char *V = NextArg();
        if (!V)
          return usage();
        Config.Options.Jobs = std::max(1, std::stoi(V));
      } else if (Arg == "--no-aux") {
        Config.Options.UseAuxInversion = false;
      } else if (Arg == "--no-mining") {
        Config.Options.UseMining = false;
      } else if (Arg == "--no-slice") {
        Config.Options.Engine.EnableBitSlice = false;
      } else if (Arg == "--solver-timeout-ms") {
        const char *V = NextArg();
        if (!V)
          return usage();
        Config.SolverTimeoutMs = static_cast<unsigned>(std::stoul(V));
      } else if (Arg == "--worker-procs") {
        const char *V = NextArg();
        if (!V)
          return usage();
        WorkerProcs = static_cast<unsigned>(std::stoul(V));
      } else if (Arg == "--worker-binary") {
        const char *V = NextArg();
        if (!V)
          return usage();
        WorkerBinary = V;
      } else if (Arg == "--grace-seconds") {
        const char *V = NextArg();
        if (!V)
          return usage();
        GraceSeconds = std::max(0.0, std::stod(V));
      } else if (Arg == "--io-timeout-seconds") {
        const char *V = NextArg();
        if (!V)
          return usage();
        IoTimeoutSeconds = std::max(0.0, std::stod(V));
      } else if (Arg == "--max-request-bytes") {
        const char *V = NextArg();
        if (!V)
          return usage();
        MaxRequestBytes = std::max<size_t>(1, std::stoull(V));
      } else if (Arg == "--metrics-out") {
        const char *V = NextArg();
        if (!V)
          return usage();
        MetricsOut = V;
      } else if (Arg == "--trace-out") {
        const char *V = NextArg();
        if (!V)
          return usage();
        TraceOut = V;
      } else if (Arg == "--access-log") {
        const char *V = NextArg();
        if (!V)
          return usage();
        AccessLogPath = V;
      } else if (Arg == "--slow-query-ms") {
        const char *V = NextArg();
        if (!V)
          return usage();
        SlowQueryMs = std::stoull(V);
      } else {
        return usage();
      }
    } catch (...) {
      return usage();
    }
  }
  if (SocketPath.empty() == (TcpPort < 0))
    return usage(); // Exactly one of --socket / --tcp.

  int ListenFd = -1;
  if (!SocketPath.empty()) {
    ::unlink(SocketPath.c_str());
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0) {
      std::perror("genicd: socket");
      return 1;
    }
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (SocketPath.size() >= sizeof(Addr.sun_path)) {
      std::fprintf(stderr, "genicd: socket path too long\n");
      return 1;
    }
    std::strncpy(Addr.sun_path, SocketPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
               sizeof(Addr)) < 0) {
      std::perror("genicd: bind");
      return 1;
    }
  } else {
    ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (ListenFd < 0) {
      std::perror("genicd: socket");
      return 1;
    }
    int One = 1;
    ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(static_cast<uint16_t>(TcpPort));
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
               sizeof(Addr)) < 0) {
      std::perror("genicd: bind");
      return 1;
    }
  }
  if (::listen(ListenFd, 64) < 0) {
    std::perror("genicd: listen");
    return 1;
  }

  if (!TraceOut.empty()) {
    TraceRecorder::global().enable();
    TraceRecorder::global().nameThisThread("acceptor");
  }

  Daemon D(Config, QueueBound);
  D.ListenFd = ListenFd;
  D.WorkerProcs = WorkerProcs;
  D.WorkerBinary = WorkerBinary;
  D.MaxRequestBytes = MaxRequestBytes;
  if (!AccessLogPath.empty()) {
    D.AccessLog = std::make_unique<EventLog>(AccessLogPath);
    if (!D.AccessLog->ok()) {
      std::fprintf(stderr, "genicd: cannot open access log %s\n",
                   AccessLogPath.c_str());
      return 1;
    }
  }
  D.SlowQueryMs = SlowQueryMs;
  if (SlowQueryMs > 0) {
    QueryWatch &W = QueryWatch::global();
    W.arm(SlowQueryMs);
    W.setSink([&D](const SlowQueryEvent &E) {
      D.logSlowQuery(E);
      // Completion-path events already count themselves in the request's
      // registry (merged into the engine registry after serve); the
      // watchdog's mid-flight detections have no request registry to land
      // in, so count them straight into the engine registry here.
      if (E.InFlight)
        D.Engine.metrics().counter("solver.slowquery.inflight").add(1);
    });
    // Scan at half the threshold so a stuck query is flagged within 1.5x
    // the configured latency budget, but never busier than 10ms.
    W.startWatchdog(std::max<uint64_t>(SlowQueryMs / 2, 10));
  }
  SignalStop = &D.Stopping;
  SignalListenFd = ListenFd;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::signal(SIGPIPE, SIG_IGN);

  std::vector<std::thread> Workers;
  for (size_t I = 0; I != Threads; ++I)
    Workers.emplace_back([&D, I] {
      if (TraceRecorder::global().enabled())
        TraceRecorder::global().nameThisThread("serve-" + std::to_string(I));
      D.workerLoop();
    });

  std::printf("genicd: listening on %s (threads %zu, queue %zu, warm %zu)\n",
              SocketPath.empty()
                  ? ("tcp:" + std::to_string(TcpPort)).c_str()
                  : SocketPath.c_str(),
              Threads, QueueBound, Config.WarmPrograms);
  std::fflush(stdout);

  std::vector<std::thread> Readers;
  while (!D.Stopping.load()) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (D.Stopping.load())
        break;
      if (errno == EINTR)
        continue;
      break;
    }
    if (IoTimeoutSeconds > 0) {
      // Socket-level read/write deadlines: a peer that goes silent
      // mid-request or stops draining its responses is disconnected
      // instead of pinning a reader thread or the send buffer forever.
      timeval Tv{};
      Tv.tv_sec = static_cast<time_t>(IoTimeoutSeconds);
      Tv.tv_usec = static_cast<suseconds_t>(
          (IoTimeoutSeconds - static_cast<double>(Tv.tv_sec)) * 1e6);
      ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
      ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Tv, sizeof(Tv));
    }
    auto C = std::make_shared<Conn>(Fd);
    D.registerConn(C);
    Readers.emplace_back([&D, C] { D.readerLoop(C); });
  }

  // Graceful shutdown: stop accepting (done — the loop broke), stop the
  // readers, and give in-flight requests the grace period to drain. What
  // finishes within it is answered normally; when the period expires with
  // work still running the process exits anyway — observability artifacts
  // are flushed either way, and the exit code stays 0 (shutdown on signal
  // is a clean outcome, stuck solver queries notwithstanding).
  D.stop();
  ::close(ListenFd);
  auto GraceEnd = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(GraceSeconds));
  bool Drained;
  while (!(Drained = D.drained()) &&
         std::chrono::steady_clock::now() < GraceEnd)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  if (Drained) {
    for (std::thread &T : Workers)
      T.join();
    for (std::thread &T : Readers)
      T.join();
  } else {
    std::fprintf(stderr,
                 "genicd: grace period (%.0fs) expired with requests still "
                 "in flight; exiting without them\n",
                 GraceSeconds);
    for (std::thread &T : Workers)
      T.detach();
    for (std::thread &T : Readers)
      T.detach();
  }
  if (SlowQueryMs > 0) {
    QueryWatch::global().stopWatchdog();
    QueryWatch::global().setSink(nullptr);
  }
  if (D.AccessLog)
    D.AccessLog->flush();
  if (!SocketPath.empty())
    ::unlink(SocketPath.c_str());
  if (!MetricsOut.empty()) {
    std::ofstream MOut(MetricsOut);
    if (!MOut)
      std::fprintf(stderr, "genicd: warning: cannot open %s\n",
                   MetricsOut.c_str());
    else
      MOut << formatMetricsSnapshotJson(D.Engine.metrics().snapshot());
  }
  if (!TraceOut.empty()) {
    TraceRecorder::global().disable();
    if (Status St = TraceRecorder::global().writeJson(TraceOut); !St)
      std::fprintf(stderr, "genicd: warning: %s\n", St.message().c_str());
  }
  std::printf("genicd: shut down after %llu request(s)\n",
              (unsigned long long)D.Engine.metrics()
                  .counter("serve.requests")
                  .value());
  std::fflush(stdout);
  // The detached-thread path must not return through static destructors
  // while abandoned requests still run; _exit keeps the flushed artifacts
  // and skips teardown races.
  if (!Drained)
    ::_exit(0);
  return 0;
}
