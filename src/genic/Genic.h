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

  // Robustness outcome (the run's counters, retries and timeouts
  // included, live in its metrics registry; see formatStatsReport).
  unsigned RulesDegraded = 0; ///< rules with Timeout/SolverError outcome
  /// Why the run degraded (empty for a clean run): the phase and status
  /// message of the first budget/solver failure.
  std::string DegradeDetail;
  /// Whether the global deadline had expired by the end of the run.
  bool DeadlineExpired = false;

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

/// Renders the --stats block: per-rule inversion records and the SyGuS
/// call log from \p Report; the cache, session, robustness, worker-process
/// and incremental counters, the "z3 contexts" line (contexts created and
/// the peak alive at once) and a "solver query latency" block from the
/// run's registry \p Snapshot — one line per `solver.query.us.*`
/// histogram with the query count, estimated p50/p90/p99 (interpolated
/// from the log2 buckets, see support/Prometheus.h) and the recorded max.
/// Pure function of its inputs so tests can pin its shape; the CLI just
/// prints it.
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
