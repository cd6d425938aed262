//===- genic/Genic.cpp -------------------------------------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "genic/Genic.h"

#include "support/Prometheus.h"

#include <cstdio>
#include <iterator>
#include <sstream>

using namespace genic;

std::string genic::formatOutcomeReport(const GenicReport &Report) {
  std::ostringstream Out;
  auto Phase = [&](const char *Name, GenicReport::PhaseOutcome O,
                   const std::string &Verdict) {
    Out << "  " << Name << ": ";
    switch (O) {
    case GenicReport::PhaseOutcome::NotRun:
      Out << "not run";
      break;
    case GenicReport::PhaseOutcome::Ok:
      Out << Verdict;
      break;
    case GenicReport::PhaseOutcome::Timeout:
      Out << "timeout";
      break;
    case GenicReport::PhaseOutcome::SolverError:
      Out << "solver error";
      break;
    }
    Out << "\n";
  };

  Out << "outcome report for " << Report.EntryName << "\n";
  Phase("determinism", Report.DeterminismPhase,
        Report.Deterministic
            ? "deterministic"
            : "nondeterministic (" + Report.DeterminismDetail + ")");
  if (Report.InjectivityRequested || Report.Injectivity) {
    std::string Verdict = "-";
    if (Report.Injectivity)
      Verdict = Report.Injectivity->Injective
                    ? "injective"
                    : "not injective" +
                          (Report.Injectivity->Detail.empty()
                               ? std::string()
                               : " (" + Report.Injectivity->Detail + ")");
    Phase("injectivity", Report.InjectivityPhase, Verdict);
  }
  if (Report.InversionRequested || Report.Inversion) {
    std::string Verdict = "-";
    if (Report.Inversion) {
      size_t Total = Report.Inversion->Records.size();
      size_t Done = 0;
      for (const RuleInversionRecord &R : Report.Inversion->Records)
        Done += R.Inverted;
      Verdict = std::to_string(Done) + "/" + std::to_string(Total) +
                " rules inverted";
    }
    Phase("inversion", Report.InversionPhase, Verdict);
    if (Report.Inversion)
      for (const RuleInversionRecord &R : Report.Inversion->Records) {
        Out << "    rule " << R.Rule << ": " << toString(R.Outcome);
        if (R.Retries)
          Out << " (retries " << R.Retries << ")";
        if (!R.Error.empty())
          Out << " — " << R.Error;
        Out << "\n";
      }
  }
  if (!Report.DegradeDetail.empty())
    Out << "  degraded: " << Report.DegradeDetail << "\n";
  if (Report.DeadlineExpired)
    Out << "  global deadline exhausted\n";
  return Out.str();
}

std::string genic::formatStatsReport(const GenicReport &R) {
  std::ostringstream Out;
  char Buf[256];
  auto P = [&](const char *Fmt, auto... Args) {
    std::snprintf(Buf, sizeof(Buf), Fmt, Args...);
    Out << Buf;
  };
  if (R.Inversion) {
    Out << "\nper-rule inversion:\n";
    for (const RuleInversionRecord &Rec : R.Inversion->Records)
      P("  rule %-3u %-4s %7.3fs  %s\n", Rec.Rule,
        Rec.Inverted ? "ok" : "FAIL", Rec.Seconds, Rec.Error.c_str());
    Out << "SyGuS calls (size, seconds, outcome):\n";
    for (const SygusEngine::CallRecord &C : R.SygusCalls)
      P("  %3u  %7.3fs  %s  (%u CEGIS iterations)\n", C.ResultSize,
        C.Seconds, C.Success ? "ok" : "fail", C.CegisIterations);
  }
  auto PrintCaches = [&](const Solver::Stats &S) {
    P("  sat cache %llu hit / %llu miss / %llu evicted, model "
      "cache %llu/%llu/%llu, projection cache %llu/%llu/%llu\n",
      (unsigned long long)S.CacheHits, (unsigned long long)S.CacheMisses,
      (unsigned long long)S.CacheEvictions,
      (unsigned long long)S.ModelCacheHits,
      (unsigned long long)S.ModelCacheMisses,
      (unsigned long long)S.ModelCacheEvictions,
      (unsigned long long)S.ProjCacheHits,
      (unsigned long long)S.ProjCacheMisses,
      (unsigned long long)S.ProjCacheEvictions);
  };
  const Solver::Stats &S = R.SolverStats;
  P("solver (shared): %llu sat queries, %llu QE calls (%llu fallbacks)\n",
    (unsigned long long)S.SatQueries, (unsigned long long)S.QeCalls,
    (unsigned long long)S.QeFallbacks);
  PrintCaches(S);
  if (R.CheckerSessions) {
    const Solver::Stats &C = R.CheckerStats;
    P("solver (%u checker sessions): %llu sat queries\n", R.CheckerSessions,
      (unsigned long long)C.SatQueries);
    PrintCaches(C);
  }
  if (R.WorkerStats.Sessions) {
    const Solver::Stats &W = R.WorkerStats.Smt;
    P("solver (%u worker sessions): %llu sat queries\n",
      R.WorkerStats.Sessions, (unsigned long long)W.SatQueries);
    PrintCaches(W);
    P("worker forks: %llu nodes cloned in, %llu cloned out, "
      "bank reuse %llu hit / %llu miss\n",
      (unsigned long long)R.WorkerStats.CloneInNodes,
      (unsigned long long)R.WorkerStats.CloneOutNodes,
      (unsigned long long)R.WorkerStats.BankReuseHits,
      (unsigned long long)R.WorkerStats.BankReuseMisses);
    const CompiledEvalCache::Stats &E = R.WorkerStats.Eval;
    P("compiled eval (worker sessions): %llu executions, %llu "
      "programs compiled, %llu cache hits\n",
      (unsigned long long)E.Evals, (unsigned long long)E.Compiles,
      (unsigned long long)E.hits());
  }
  const CompiledEvalCache::Stats &E = R.EvalStats;
  P("compiled eval (shared engine): %llu executions, %llu "
    "programs compiled, %llu cache hits\n",
    (unsigned long long)E.Evals, (unsigned long long)E.Compiles,
    (unsigned long long)E.hits());
  P("bank reuse (shared engine): %llu hit / %llu miss\n",
    (unsigned long long)R.BankReuseHits,
    (unsigned long long)R.BankReuseMisses);
  P("robustness: %llu retries attempted, %llu queries timed out, "
    "%llu cancelled, %llu faults injected, %u rules degraded\n",
    (unsigned long long)R.RetriesAttempted,
    (unsigned long long)R.QueriesTimedOut,
    (unsigned long long)R.QueriesCancelled,
    (unsigned long long)R.InjectedFaults, R.RulesDegraded);
  if (R.WorkerShards || R.WorkerCrashes)
    P("worker procs: %llu shards dispatched, %llu crashes, %llu restarts, "
      "%llu shards degraded\n",
      (unsigned long long)R.WorkerShards,
      (unsigned long long)R.WorkerCrashes,
      (unsigned long long)R.WorkerRestarts,
      (unsigned long long)R.WorkerShardsDegraded);
  {
    Solver::Stats Inc = R.SolverStats;
    Inc += R.CheckerStats;
    Inc += R.WorkerStats.Smt;
    if (Inc.ScopePushes || Inc.AssumptionBatches || Inc.IncrementalHits)
      P("incremental: %llu scope pushes / %llu pops, %llu assumption "
        "batches (%llu literals), %llu incremental hits / %llu full "
        "restarts, scoped cache %llu hit / %llu miss / %llu evicted\n",
        (unsigned long long)Inc.ScopePushes,
        (unsigned long long)Inc.ScopePops,
        (unsigned long long)Inc.AssumptionBatches,
        (unsigned long long)Inc.AssumptionLiterals,
        (unsigned long long)Inc.IncrementalHits,
        (unsigned long long)Inc.FullRestarts,
        (unsigned long long)Inc.ScopedCacheHits,
        (unsigned long long)Inc.ScopedCacheMisses,
        (unsigned long long)Inc.ScopedCacheEvictions);
  }
  if (R.Timings.DeadlineRemainingSeconds >= 0)
    P("deadline: %.3fs remaining at exit%s\n",
      R.Timings.DeadlineRemainingSeconds,
      R.DeadlineExpired ? " (EXPIRED)" : "");
  return Out.str();
}

std::string genic::formatStatsReport(const GenicReport &R,
                                     const MetricsSnapshot &Snapshot) {
  std::string Out = formatStatsReport(R);
  char Buf[256];
  auto Contexts = Snapshot.Counters.find("solver.backend.contexts");
  if (Contexts != Snapshot.Counters.end()) {
    auto Peak = Snapshot.Gauges.find("solver.backend.peak_live");
    std::snprintf(Buf, sizeof(Buf),
                  "z3 contexts: %llu created, peak %lld live\n",
                  (unsigned long long)Contexts->second,
                  Peak == Snapshot.Gauges.end() ? 0LL
                                                : (long long)Peak->second);
    Out += Buf;
  }
  bool Headed = false;
  for (const auto &[Name, H] : Snapshot.Histograms) {
    if (Name.rfind("solver.query.us.", 0) != 0)
      continue;
    if (!Headed) {
      Out += "solver query latency (us):\n";
      Headed = true;
    }
    std::snprintf(Buf, sizeof(Buf),
                  "  %-44s %7llu queries  p50 %.0f  p90 %.0f  p99 %.0f  "
                  "max %llu\n",
                  Name.c_str(), (unsigned long long)H.Count,
                  histogramQuantileUs(H, 0.5), histogramQuantileUs(H, 0.9),
                  histogramQuantileUs(H, 0.99), (unsigned long long)H.MaxUs);
    Out += Buf;
  }
  return Out;
}

namespace {

std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

const char *phaseString(GenicReport::PhaseOutcome O) {
  switch (O) {
  case GenicReport::PhaseOutcome::NotRun:
    return "not-run";
  case GenicReport::PhaseOutcome::Ok:
    return "ok";
  case GenicReport::PhaseOutcome::Timeout:
    return "timeout";
  case GenicReport::PhaseOutcome::SolverError:
    return "solver-error";
  }
  return "not-run";
}

/// The registry sections shared by formatMetricsJson and
/// formatMetricsSnapshotJson: counters, gauges, and histograms, name-sorted,
/// one key per line. Ends after the histograms' closing "  }" with no comma
/// or newline so callers control what follows (a timings section or the end
/// of the document).
void appendRegistrySections(std::ostringstream &Out,
                            const MetricsSnapshot &Snapshot) {
  Out << "  \"counters\": {\n";
  for (auto It = Snapshot.Counters.begin(); It != Snapshot.Counters.end();
       ++It)
    Out << "    \"" << jsonEscape(It->first) << "\": " << It->second
        << (std::next(It) != Snapshot.Counters.end() ? "," : "") << "\n";
  Out << "  },\n";
  Out << "  \"gauges\": {\n";
  for (auto It = Snapshot.Gauges.begin(); It != Snapshot.Gauges.end(); ++It)
    Out << "    \"" << jsonEscape(It->first) << "\": " << It->second
        << (std::next(It) != Snapshot.Gauges.end() ? "," : "") << "\n";
  Out << "  },\n";
  Out << "  \"histograms\": {\n";
  for (auto It = Snapshot.Histograms.begin();
       It != Snapshot.Histograms.end(); ++It) {
    const MetricsSnapshot::Histogram &H = It->second;
    Out << "    \"" << jsonEscape(It->first) << "\": {\"count\": " << H.Count
        << ", \"sum_us\": " << H.SumUs << ", \"max_us\": " << H.MaxUs
        << ", \"buckets\": [";
    for (unsigned I = 0; I < MetricsHistogram::NumBuckets; ++I)
      Out << (I ? "," : "") << H.Buckets[I];
    Out << "]}" << (std::next(It) != Snapshot.Histograms.end() ? "," : "")
        << "\n";
  }
  Out << "  }";
}

} // namespace

std::string genic::formatMetricsJson(const GenicReport &R,
                                     const MetricsSnapshot &Snapshot) {
  std::ostringstream Out;
  char Buf[64];
  auto Num = [&](double V) {
    std::snprintf(Buf, sizeof(Buf), "%.6f", V);
    return std::string(Buf);
  };

  Out << "{\n";
  Out << "  \"schema\": \"genic-metrics-v1\",\n";

  // Structural section: a pure function of the report's jobs-invariant
  // fields (the same contract formatOutcomeReport keeps) — never timings,
  // never query counts. Byte-identical across --jobs under a fixed fault
  // schedule.
  Out << "  \"structural\": {\n";
  Out << "    \"entry\": \"" << jsonEscape(R.EntryName) << "\",\n";
  Out << "    \"states\": " << R.NumStates << ",\n";
  Out << "    \"transitions\": " << R.NumTransitions << ",\n";
  Out << "    \"auxFuncs\": " << R.NumAuxFuncs << ",\n";
  Out << "    \"maxLookahead\": " << R.MaxLookahead << ",\n";
  Out << "    \"sourceBytes\": " << R.SourceBytes << ",\n";
  Out << "    \"theory\": \"" << jsonEscape(R.Theory) << "\",\n";
  Out << "    \"phases\": {\n";
  Out << "      \"determinism\": \"" << phaseString(R.DeterminismPhase)
      << "\",\n";
  Out << "      \"injectivity\": \"" << phaseString(R.InjectivityPhase)
      << "\",\n";
  Out << "      \"inversion\": \"" << phaseString(R.InversionPhase) << "\"\n";
  Out << "    },\n";
  Out << "    \"deterministic\": " << (R.Deterministic ? "true" : "false")
      << ",\n";
  Out << "    \"determinismDetail\": \"" << jsonEscape(R.DeterminismDetail)
      << "\",\n";
  if (R.Injectivity)
    Out << "    \"injective\": "
        << (R.Injectivity->Injective ? "true" : "false") << ",\n"
        << "    \"injectivityDetail\": \""
        << jsonEscape(R.Injectivity->Detail) << "\",\n";
  else
    Out << "    \"injective\": null,\n";
  if (R.Inversion) {
    Out << "    \"inversionComplete\": "
        << (R.Inversion->complete() ? "true" : "false") << ",\n";
    Out << "    \"inverseSourceBytes\": " << R.InverseSourceBytes << ",\n";
    Out << "    \"rules\": [\n";
    for (size_t I = 0; I < R.Inversion->Records.size(); ++I) {
      const RuleInversionRecord &Rec = R.Inversion->Records[I];
      Out << "      {\"rule\": " << Rec.Rule << ", \"outcome\": \""
          << toString(Rec.Outcome) << "\", \"retries\": " << Rec.Retries
          << ", \"error\": \"" << jsonEscape(Rec.Error) << "\"}"
          << (I + 1 < R.Inversion->Records.size() ? "," : "") << "\n";
    }
    Out << "    ],\n";
  } else {
    Out << "    \"inversionComplete\": null,\n";
  }
  Out << "    \"rulesDegraded\": " << R.RulesDegraded << ",\n";
  Out << "    \"degradeDetail\": \"" << jsonEscape(R.DegradeDetail)
      << "\",\n";
  Out << "    \"deadlineExpired\": "
      << (R.DeadlineExpired ? "true" : "false") << "\n";
  Out << "  },\n";

  // Registry sections: maps are name-sorted, one key per line. Counts here
  // (solver queries, cache traffic) legitimately vary with --jobs.
  appendRegistrySections(Out, Snapshot);
  Out << ",\n";

  // Timing section: isolated so nothing above has to be wall-clock stable.
  Out << "  \"timings\": {\n";
  Out << "    \"determinism_seconds\": "
      << Num(R.Timings.DeterminismSeconds) << ",\n";
  Out << "    \"injectivity_seconds\": "
      << Num(R.Timings.InjectivitySeconds) << ",\n";
  Out << "    \"inversion_seconds\": " << Num(R.Timings.InversionSeconds)
      << ",\n";
  Out << "    \"total_seconds\": " << Num(R.Timings.TotalSeconds) << ",\n";
  Out << "    \"deadline_remaining_seconds\": "
      << Num(R.Timings.DeadlineRemainingSeconds) << "\n";
  Out << "  }\n";
  Out << "}\n";
  return Out.str();
}

std::string genic::formatMetricsSnapshotJson(const MetricsSnapshot &Snapshot) {
  std::ostringstream Out;
  Out << "{\n";
  Out << "  \"schema\": \"genic-metrics-v1\",\n";
  appendRegistrySections(Out, Snapshot);
  Out << "\n";
  Out << "}\n";
  return Out.str();
}

int genic::suggestedExitCode(const GenicReport &Report) {
  using PO = GenicReport::PhaseOutcome;
  bool SolverErr = Report.DeterminismPhase == PO::SolverError ||
                   Report.InjectivityPhase == PO::SolverError ||
                   Report.InversionPhase == PO::SolverError;
  bool Budget = Report.DeadlineExpired ||
                Report.DeterminismPhase == PO::Timeout ||
                Report.InjectivityPhase == PO::Timeout ||
                Report.InversionPhase == PO::Timeout;
  bool Negative = false;
  if (Report.DeterminismPhase == PO::Ok && !Report.Deterministic)
    Negative = true;
  if (Report.Injectivity && !Report.Injectivity->Injective)
    Negative = true;
  if (Report.Inversion)
    for (const RuleInversionRecord &R : Report.Inversion->Records)
      switch (R.Outcome) {
      case RuleOutcome::Inverted:
        break;
      case RuleOutcome::NotInjective:
        Negative = true;
        break;
      case RuleOutcome::Timeout:
        Budget = true;
        break;
      case RuleOutcome::SolverError:
        SolverErr = true;
        break;
      }
  if (SolverErr)
    return ExitInternalError;
  if (Budget)
    return ExitBudgetExhausted;
  if (Negative)
    return ExitNotInvertible;
  return ExitOk;
}
