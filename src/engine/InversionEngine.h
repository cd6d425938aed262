//===- engine/InversionEngine.h - Re-entrant inversion pipeline -----------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The re-entrant core of the GENIC tool: the parse → lower → determinism →
/// injectivity → inversion pipeline, factored out of the one-shot CLI
/// driver so a resident process (tools/genicd.cpp) can serve many requests
/// from one engine.
///
/// Layering:
///
///   * EngineConfig is per engine: inverter options, solver knobs, and the
///     warm-pool capacity. Immutable after construction.
///   * RequestContext is per request: deadline, fault plan, metrics sink,
///     trace epoch, forced operations, and a jobs override. Nothing
///     request-scoped lives in globals or engine members, so concurrent
///     requests are isolated by construction.
///   * runOnSession() runs the pipeline on a caller-owned SolverContext —
///     the single-run path the CLI uses through GenicTool, byte-identical
///     to the historical driver.
///   * serve() is runOnSession() behind the warm pool: repeated requests
///     for the same source skip parse/lower, re-enter a factory whose
///     hash-consed terms hit the solver's memo caches, and adopt the
///     previous request's completed enumeration banks.
///
/// The pipeline phases run as an explicit phase list honoring the degrade
/// contract: determinism always runs; injectivity/inversion run when
/// requested and skip (PhaseOutcome::NotRun) once an earlier phase degraded
/// on a budget or solver failure.
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_ENGINE_INVERSIONENGINE_H
#define GENIC_ENGINE_INVERSIONENGINE_H

#include "engine/ProgramPool.h"
#include "genic/Genic.h"
#include "solver/SolverContext.h"
#include "support/Metrics.h"
#include "support/Result.h"
#include "sygus/Inverter.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace genic {

/// Engine-wide configuration, fixed at construction.
struct EngineConfig {
  /// Synthesis and scheduling options shared by every request (a request
  /// can still override the job count, see RequestContext::Jobs).
  InverterOptions Options;
  /// Per-query solver soft timeout for pool-created contexts; unset keeps
  /// the solver default. Caller-owned contexts (runOnSession) are not
  /// touched.
  std::optional<unsigned> SolverTimeoutMs;
  /// Warm-pool capacity in resident programs; 0 disables pooling (every
  /// serve() runs cold on a transient context).
  size_t WarmPrograms = 8;
};

/// Everything scoped to one request. Copied into the run; the engine keeps
/// no reference past runOnSession()/serve() returning.
struct RequestContext {
  /// Force the optional operations regardless of the program text.
  bool ForceInjectivity = false;
  bool ForceInvert = false;
  /// Wall-clock budget for this request; 0 means no deadline. Propagated
  /// to every session the run creates.
  double BudgetSeconds = 0;
  /// Deterministic solver fault plan (see solver/FaultInjector.h).
  FaultPlan Faults;
  /// Per-request metrics sink: query-latency histograms are recorded live,
  /// and every session of the run drains its counters into it when its
  /// work ends (see Solver::drainStats). May be null (metrics are then
  /// recorded into a run-local throwaway registry). The engine never resets
  /// this registry and detaches it from the caller's context on return —
  /// single-run callers that want "describes the latest run" semantics
  /// reset it themselves (GenicTool does).
  MetricsRegistry *Metrics = nullptr;
  /// Overrides EngineConfig::Options.Jobs for this request when set.
  std::optional<unsigned> Jobs;
  /// Out-of-process verification shards: when > 0 the run launches this
  /// many genic-worker processes and ships the verdict-only determinism /
  /// transition-injectivity / ambiguity chunks to them (crash isolation;
  /// see engine/WorkerSupervisor.h). 0 keeps every scan in-process —
  /// byte-identical output either way.
  unsigned WorkerProcs = 0;
  /// Explicit genic-worker binary path; empty resolves GENIC_WORKER, then
  /// the directory of the running executable.
  std::string WorkerBinary;
  /// Trace-request epoch: every span recorded during the run is tagged
  /// "req":TraceId so concurrent requests stay distinguishable in one
  /// trace. 0 leaves spans untagged (the single-run CLI contract). serve()
  /// assigns a fresh nonzero epoch when left 0.
  uint64_t TraceId = 0;
};

/// What serve() returns for one request.
struct EngineResponse {
  GenicReport Report;
  /// Snapshot of the request's metrics registry at run end.
  MetricsSnapshot Metrics;
  /// suggestedExitCode(Report).
  int Exit = 0;
  /// The request hit a warm pool entry (parse/lower were skipped).
  bool WarmHit = false;
  /// Keep-alive for the solver context the report's machines reference;
  /// the report is valid for exactly as long as this is held.
  std::shared_ptr<ProgramPool::Entry> Keep;
};

/// Live introspection snapshot for statusz: every in-flight request with
/// its elapsed time, current pipeline phase, and worker-process slots, plus
/// the warm pool's resident entries.
struct EngineStatus {
  /// Mirror of WorkerSupervisor::SlotState (kept separate so this header
  /// does not pull in the IPC layer).
  struct WorkerSlot {
    unsigned Index = 0;
    int Pid = -1;
    bool Busy = false;
    bool Dead = false;
    unsigned Restarts = 0;
  };
  struct Request {
    uint64_t TraceId = 0;
    uint64_t ElapsedUs = 0;
    /// "setup", "phase.determinism", "phase.injectivity",
    /// "phase.inversion", or "finalize". Static literal.
    const char *Phase = "setup";
    bool Warm = false;
    unsigned WorkerProcs = 0;
    std::vector<WorkerSlot> Workers;
  };
  std::vector<Request> InFlight;
  std::vector<ProgramPool::EntryInfo> Pool;
  ProgramPool::Stats PoolStats;
  size_t PoolCapacity = 0;
  size_t PoolSize = 0;
};

/// A re-entrant inversion engine: safe for concurrent serve() calls from
/// multiple threads, with all request state confined to the call.
class InversionEngine {
public:
  explicit InversionEngine(EngineConfig Config = EngineConfig());
  ~InversionEngine();

  InversionEngine(const InversionEngine &) = delete;
  InversionEngine &operator=(const InversionEngine &) = delete;

  /// Runs the pipeline for \p Source on the caller-owned \p Ctx. Reports
  /// and machines reference Ctx's factory and must not outlive it. When
  /// \p Warm is given (serve() path), a present Warm->Lowered skips
  /// parse/lower, Warm->Banks seed the shared SygusEngine, and both are
  /// stored back for the next request on the same entry.
  Result<GenicReport> runOnSession(SolverContext &Ctx,
                                   const std::string &Source,
                                   const RequestContext &Req,
                                   ProgramPool::Entry *Warm = nullptr);

  /// Runs one request through the warm pool: checks out (or creates) the
  /// entry for \p Source, runs the pipeline on its context, and publishes
  /// the entry for the next request when the program lowered successfully.
  /// Parse and lowering failures surface as an error Result, like
  /// runOnSession.
  Result<EngineResponse> serve(const std::string &Source,
                               const RequestContext &Req);

  /// Engine-lifetime metrics: serve() request/outcome counters, warm-pool
  /// hit/miss/eviction counters, and the request-latency histogram. This is
  /// what genicd's /metrics verb snapshots; per-request metrics go to
  /// RequestContext::Metrics instead.
  MetricsRegistry &metrics() { return EngineRegistry; }

  /// Live daemon-introspection snapshot (the statusz payload's engine
  /// half): in-flight requests with current phase and worker slots, plus
  /// the warm pool's contents. Safe to call concurrently with serve().
  EngineStatus status() const;

  ProgramPool &pool() { return Pool; }
  const EngineConfig &config() const { return Config; }

  /// Implementation detail of the in-flight table (defined in the .cpp);
  /// public only so the registration scope can name it.
  struct InFlight;

private:
  EngineConfig Config;
  ProgramPool Pool;
  MetricsRegistry EngineRegistry;
  std::atomic<uint64_t> NextRequestId{1};
  mutable std::mutex InFlightMu;
  std::map<uint64_t, std::shared_ptr<InFlight>> InFlightTable;
};

/// One single-run program analysis session — the historical GenicTool
/// interface, now a thin shell over InversionEngine::runOnSession. Owns the
/// root solver context (term factory + solver), so reports and machines
/// must not outlive the tool. Worker sessions everywhere in the pipeline
/// are copy-on-write forks of this context's factory (see
/// solver/SolverContext.h).
class GenicTool {
public:
  explicit GenicTool() : GenicTool(InverterOptions()) {}
  explicit GenicTool(InverterOptions Options);
  ~GenicTool();

  /// Parses, lowers, checks determinism, and runs the program's operations.
  /// Operations can be forced regardless of the program text via
  /// \p ForceInjectivity / \p ForceInvert.
  Result<GenicReport> run(const std::string &Source,
                          bool ForceInjectivity = false,
                          bool ForceInvert = false);

  TermFactory &factory() { return Ctx.factory(); }
  Solver &solver() { return Ctx.solver(); }

  /// The request every run() uses: set its budget, fault plan and worker
  /// processes here. run() fills in the forced operations and points
  /// Metrics at metrics().
  RequestContext &request() { return Req; }

  /// The run's metrics: query-latency histograms recorded live at the
  /// solver chokepoint plus the counters the run's sessions drain into it
  /// (run() resets the registry first, so the contents always describe
  /// the most recent run).
  MetricsRegistry &metrics() { return Registry; }

private:
  SolverContext Ctx;
  InversionEngine Engine;
  RequestContext Req;
  MetricsRegistry Registry;
};

} // namespace genic

#endif // GENIC_ENGINE_INVERSIONENGINE_H
