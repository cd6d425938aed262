//===- genic/Genic.h - Run reports and report formatters --------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The report side of the GENIC tool: everything one program analysis run
/// measures — per-phase outcomes and wall-clock times, per-rule inversion
/// records, SyGuS call records, the emitted inverse program — plus the
/// formatters that render a report for humans (outcome/stats) and machines
/// (genic-metrics-v1 JSON) and the CLI exit-code policy.
///
/// The pipeline that produces these reports lives in
/// engine/InversionEngine.h; this header deliberately knows nothing about
/// solver contexts or scheduling so that report consumers (tests, benches,
/// the daemon protocol layer) can stay decoupled from the engine.
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_GENIC_GENIC_H
#define GENIC_GENIC_GENIC_H

#include "solver/Solver.h"
#include "support/Metrics.h"
#include "support/Result.h"
#include "sygus/Inverter.h"
#include "transducer/Determinism.h"
#include "transducer/Injectivity.h"

#include <optional>
#include <string>
#include <vector>

namespace genic {

/// Wall-clock phase timings of one run, populated from the span recorder
/// (each phase's TraceSpan doubles as its stopwatch). Everything here is
/// timing — never part of the structural report contract, so none of it is
/// expected to be stable across --jobs values or machines.
struct PhaseTimings {
  double DeterminismSeconds = 0;
  double InjectivitySeconds = 0;
  double InversionSeconds = 0;
  /// Whole run() wall clock (parse + lower + all phases).
  double TotalSeconds = 0;
  /// Seconds left on the global deadline at exit; -1 when no deadline was
  /// set.
  double DeadlineRemainingSeconds = -1;
};

/// Everything measured for one program (one Table 1 row).
struct GenicReport {
  /// How far one pipeline phase got. NotRun covers both "not requested"
  /// and "skipped after an earlier phase degraded"; Timeout covers the
  /// global deadline and per-query budget exhaustion; SolverError covers
  /// solver exceptions (including injected faults) surfacing past retry.
  enum class PhaseOutcome { NotRun, Ok, Timeout, SolverError };

  // Program shape (Table 1's states/trans/auxFun/max-l/size columns).
  std::string EntryName;
  unsigned NumStates = 0;
  unsigned NumTransitions = 0;
  unsigned NumAuxFuncs = 0;
  unsigned MaxLookahead = 0;
  size_t SourceBytes = 0;
  std::string Theory; // "Int" or "BitVec n"

  // isDet column.
  bool Deterministic = false;
  std::string DeterminismDetail;
  PhaseOutcome DeterminismPhase = PhaseOutcome::NotRun;

  // isInj column (present when the program asked for it).
  std::optional<InjectivityResult> Injectivity;
  bool InjectivityRequested = false;
  PhaseOutcome InjectivityPhase = PhaseOutcome::NotRun;

  // inversion columns (present when the program asked for it).
  bool InversionRequested = false;
  PhaseOutcome InversionPhase = PhaseOutcome::NotRun;
  std::optional<InversionOutcome> Inversion;
  std::string InverseSource;
  size_t InverseSourceBytes = 0;
  std::vector<SygusEngine::CallRecord> SygusCalls;

  // Performance counters of the run (printed under genic-cli --stats).
  // SolverStats covers the shared session (determinism, injectivity, guard
  // simplification merges); WorkerStats aggregates the per-rule inversion
  // sessions; EvalStats is the shared engine's compiled-eval cache;
  // CheckerStats aggregates the pooled worker sessions leased by the
  // parallel determinism/injectivity checks (CheckerSessions of them).
  Solver::Stats SolverStats;
  Inverter::WorkerStats WorkerStats;
  CompiledEvalCache::Stats EvalStats;
  unsigned CheckerSessions = 0;
  Solver::Stats CheckerStats;
  /// Enumeration-bank reuse of the shared engine (aux inversion); the
  /// workers' reuse counters live in WorkerStats. On a warm-pool run these
  /// are deltas over the adopted store, so cold and warm runs report the
  /// same thing: reuse traffic caused by this request.
  uint64_t BankReuseHits = 0;
  uint64_t BankReuseMisses = 0;

  // Robustness accounting (printed under genic-cli --stats and by
  // formatOutcomeReport). Counters aggregate the shared session, the
  // pooled checker sessions, and the per-rule worker sessions.
  uint64_t RetriesAttempted = 0; ///< escalated solver retries after Unknown
  uint64_t QueriesTimedOut = 0;  ///< queries still Unknown after retry
  uint64_t QueriesCancelled = 0; ///< queries refused: deadline exhausted
  uint64_t InjectedFaults = 0;   ///< faults fired by --fault-inject
  unsigned RulesDegraded = 0;    ///< rules with Timeout/SolverError outcome
  /// Why the run degraded (empty for a clean run): the phase and status
  /// message of the first budget/solver failure.
  std::string DegradeDetail;
  /// Whether the global deadline had expired by the end of the run.
  bool DeadlineExpired = false;

  // Out-of-process shard supervision (all zero unless the request ran with
  // worker processes; see engine/WorkerSupervisor.h). Deliberately absent
  // from formatOutcomeReport — the structural outcome is pinned identical
  // across worker counts — and rendered by formatStatsReport only when
  // nonzero, so --worker-procs 0 output is unchanged.
  uint64_t WorkerShards = 0;         ///< shards shipped to worker processes
  uint64_t WorkerCrashes = 0;        ///< worker processes lost mid-shard
  uint64_t WorkerRestarts = 0;       ///< slots respawned after a crash
  uint64_t WorkerShardsDegraded = 0; ///< shards degraded past the retry

  /// Per-phase wall clock (the Table 1 timing columns), measured by the
  /// phase trace spans.
  PhaseTimings Timings;

  // The machines, for round-trip testing by callers.
  std::optional<Seft> Machine;
  std::optional<Seft> InverseMachine;
};

/// Process exit codes of the genic CLI, separating "the program is not
/// invertible" from "the budget ran out" from "the solver failed". The
/// genicd protocol maps these one-to-one onto API error codes (see
/// engine/Serve.h).
enum ExitCode {
  ExitOk = 0,              ///< every requested phase succeeded
  ExitError = 1,           ///< generic failure (parse/lowering/internal)
  ExitUsage = 2,           ///< bad command line
  ExitNotInvertible = 3,   ///< a phase completed with a negative verdict
  ExitBudgetExhausted = 4, ///< the global or per-query budget ran out
  ExitInternalError = 5,   ///< a solver error surfaced past retry
};

/// Renders the structured per-rule outcome report: phase outcomes, the
/// per-rule Inverted/NotInjective/Timeout/SolverError classification with
/// retry counts, and the degradation detail. Deliberately timing-free so
/// the report is byte-identical across --jobs values under the same fault
/// schedule (wall-clock lives in the --stats output instead).
std::string formatOutcomeReport(const GenicReport &Report);

/// Renders the --stats block: program shape, per-rule inversion records,
/// SyGuS call log, cache and session counters, robustness counters, and the
/// phase timings. Pure function of the report so tests can pin its shape;
/// the CLI just prints it.
std::string formatStatsReport(const GenicReport &Report);

/// formatStatsReport plus a "z3 contexts" line (contexts created and the
/// peak alive at once, from the `solver.backend.*` metrics) and a "solver
/// query latency" block: one line per
/// `solver.query.us.*` histogram in \p Snapshot with the query count,
/// estimated p50/p90/p99 (interpolated from the log2 buckets, see
/// support/Prometheus.h) and the recorded max.
std::string formatStatsReport(const GenicReport &Report,
                              const MetricsSnapshot &Snapshot);

/// Renders the machine-readable run report (schema "genic-metrics-v1"):
/// a "structural" section derived from the report alone — same contract as
/// formatOutcomeReport, byte-identical across --jobs values under a fixed
/// fault schedule — plus "counters"/"gauges"/"histograms" sections from the
/// registry snapshot and an isolated "timings" section. One key per line,
/// sections sorted, so line-based tools can diff the structural subset.
std::string formatMetricsJson(const GenicReport &Report,
                              const MetricsSnapshot &Snapshot);

/// Renders a bare registry snapshot under the same "genic-metrics-v1"
/// schema: the counters/gauges/histograms sections byte-for-byte as
/// formatMetricsJson would emit them, without the report-derived
/// structural/timings sections. This is what genicd's /metrics verb serves
/// (process-wide metrics describe no single run).
std::string formatMetricsSnapshotJson(const MetricsSnapshot &Snapshot);

/// The exit code a CLI should use for \p Report, most severe first:
/// solver errors beat budget exhaustion beats negative verdicts beats ok.
int suggestedExitCode(const GenicReport &Report);

} // namespace genic

#endif // GENIC_GENIC_GENIC_H
