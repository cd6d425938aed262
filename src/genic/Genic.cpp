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

std::string genic::formatStatsReport(const GenicReport &R,
                                     const MetricsSnapshot &Snapshot) {
  std::ostringstream Out;
  char Buf[512];
  auto P = [&](const char *Fmt, auto... Args) {
    std::snprintf(Buf, sizeof(Buf), Fmt, Args...);
    Out << Buf;
  };
  auto Counter = [&Snapshot](const std::string &Name) -> unsigned long long {
    auto It = Snapshot.Counters.find(Name);
    return It == Snapshot.Counters.end() ? 0 : It->second;
  };
  auto Gauge = [&Snapshot](const std::string &Name) -> long long {
    auto It = Snapshot.Gauges.find(Name);
    return It == Snapshot.Gauges.end() ? 0 : It->second;
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
  auto PrintCaches = [&](const std::string &Family) {
    auto C = [&](const char *Name) {
      return Counter("solver." + Family + ".cache." + Name);
    };
    P("  sat cache %llu hit / %llu miss / %llu evicted, model "
      "cache %llu/%llu/%llu, projection cache %llu/%llu/%llu, image "
      "values %llu evaluated / %llu solved, %llu plain fallbacks\n",
      C("sat.hits"), C("sat.misses"), C("sat.evictions"), C("model.hits"),
      C("model.misses"), C("model.evictions"), C("proj.hits"),
      C("proj.misses"), C("proj.evictions"),
      Counter("solver." + Family + ".image.values.evaluated"),
      Counter("solver." + Family + ".image.values.solved"),
      Counter("solver." + Family + ".plain.fallbacks"));
  };
  P("solver (shared): %llu sat queries, %llu QE calls (%llu fallbacks)\n",
    Counter("solver.shared.sat_queries"), Counter("solver.shared.qe_calls"),
    Counter("solver.shared.qe_fallbacks"));
  PrintCaches("shared");
  if (long long Checkers = Gauge("sessions.checker")) {
    P("solver (%lld checker sessions): %llu sat queries\n", Checkers,
      Counter("solver.checker.sat_queries"));
    PrintCaches("checker");
  }
  if (long long Workers = Gauge("sessions.worker")) {
    P("solver (%lld worker sessions): %llu sat queries\n", Workers,
      Counter("solver.worker.sat_queries"));
    PrintCaches("worker");
    P("worker forks: %llu nodes cloned out, bank reuse %llu hit / %llu "
      "miss\n",
      Counter("worker.clone_out_nodes"), Counter("bank.worker.reuse_hits"),
      Counter("bank.worker.reuse_misses"));
  }
  auto PrintEval = [&](const std::string &Family, const char *Label) {
    P("concrete eval (%s): %llu inputs evaluated\n", Label,
      Counter("eval." + Family + ".evals"));
  };
  if (Gauge("sessions.worker"))
    PrintEval("worker", "worker sessions");
  PrintEval("shared", "shared engine");
  P("bank reuse (shared engine): %llu hit / %llu miss\n",
    Counter("bank.shared.reuse_hits"), Counter("bank.shared.reuse_misses"));
  P("robustness: %llu retries attempted, %llu queries timed out, "
    "%llu cancelled, %llu faults injected, %u rules degraded\n",
    Counter("run.retries_attempted"), Counter("run.queries_timed_out"),
    Counter("run.queries_cancelled"), Counter("run.injected_faults"),
    R.RulesDegraded);
  if (Counter("workerproc.shards") || Counter("workerproc.crashes"))
    P("worker procs: %llu shards dispatched, %llu crashes, %llu restarts, "
      "%llu shards degraded\n",
      Counter("workerproc.shards"), Counter("workerproc.crashes"),
      Counter("workerproc.restarts"), Counter("workerproc.degraded"));
  auto Sum = [&](const char *Name) {
    unsigned long long Total = 0;
    for (const char *Family : {"shared", "checker", "worker"})
      Total += Counter(std::string("solver.") + Family + "." + Name);
    return Total;
  };
  if (Sum("scope.pushes") || Sum("assumption.batches") ||
      Sum("incremental.hits"))
    P("incremental: %llu scope pushes / %llu pops, %llu assumption "
      "batches (%llu literals), %llu incremental hits / %llu full "
      "restarts\n",
      Sum("scope.pushes"), Sum("scope.pops"), Sum("assumption.batches"),
      Sum("assumption.literals"), Sum("incremental.hits"),
      Sum("incremental.full_restarts"));
  if (R.Timings.DeadlineRemainingSeconds >= 0)
    P("deadline: %.3fs remaining at exit%s\n",
      R.Timings.DeadlineRemainingSeconds,
      R.DeadlineExpired ? " (EXPIRED)" : "");
  if (Snapshot.Counters.count("solver.backend.contexts"))
    P("z3 contexts: %llu created, peak %lld live\n",
      Counter("solver.backend.contexts"), Gauge("solver.backend.peak_live"));
  bool Headed = false;
  for (const auto &[Name, H] : Snapshot.Histograms) {
    if (Name.rfind("solver.query.us.", 0) != 0)
      continue;
    if (!Headed) {
      Out << "solver query latency (us):\n";
      Headed = true;
    }
    P("  %-44s %7llu queries  p50 %.0f  p90 %.0f  p99 %.0f  max %llu\n",
      Name.c_str(), (unsigned long long)H.Count, histogramQuantileUs(H, 0.5),
      histogramQuantileUs(H, 0.9), histogramQuantileUs(H, 0.99),
      (unsigned long long)H.MaxUs);
  }
  return Out.str();
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
