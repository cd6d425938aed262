//===- tools/genic-cli.cpp - The genic command-line tool ------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end mirroring the original GENIC tool:
///
///   genic run PROGRAM.genic            # perform the program's operations
///   genic invert PROGRAM.genic         # force inversion, print the inverse
///   genic check PROGRAM.genic          # force determinism + injectivity
///   genic eval PROGRAM.genic v1 v2 ... # run the transformation on a list
///   genic corpus [NAME]                # list / print the Table 1 programs
///   genic verify ENC.genic DEC.genic   # test that two programs invert
///                                      # each other (randomized, both ways)
///
/// Options:
///   --no-aux       disable auxiliary-function inversion (§6 optimization 1)
///   --no-mining    disable grammar mining / variable reduction (§6 opt. 2)
///   --no-slice     disable the bit-slice synthesis strategy
///   --jobs N       run the determinism/injectivity checks and rule
///                  inversion on N worker threads (output is identical for
///                  every N; default 1)
///   --worker-procs N  ship the verdict-only verification shards to N
///                  out-of-process genic-worker processes, so a solver
///                  crash kills a child, not the run (a shard that fails
///                  twice degrades its phase to a solver error, exit 5);
///                  0 (default) keeps everything in-process; output is
///                  byte-identical either way
///   --worker-binary PATH  explicit genic-worker path (default: env
///                  GENIC_WORKER, then next to the genic executable)
///   --entry NAME   override the entry transformation
///   --stats        print SyGuS call records, per-rule timings,
///                  solver/evaluator cache counters, and robustness
///                  counters (retries, timeouts, degraded rules)
///   --timeout-seconds S  global wall-clock budget for run/check/invert;
///                  on exhaustion a partial outcome report is printed and
///                  the exit code is 4 (budget exhausted)
///   --solver-timeout-ms N  per-query Z3 soft timeout (further clamped to
///                  the remaining global budget)
///   --fault-inject SPEC  deterministic solver fault injection for
///                  testing, SPEC = kind@N[xC][:scope] (see
///                  solver/FaultInjector.h); env GENIC_FAULT_INJECT is
///                  used when the flag is absent
///   --slow-query-ms N  arm the stuck-query watch: solver queries that
///                  time out or run past N ms count into the
///                  solver.slowquery.* metrics (see --stats and
///                  --metrics-json)
///   --trace-out FILE  record a span trace of the run and write it as
///                  Chrome trace-event JSON (load in Perfetto or
///                  chrome://tracing; validate with tools/trace-lint)
///   --metrics-json FILE  write the machine-readable run report: the
///                  structural outcome (jobs-invariant), all registry
///                  counters/gauges, the per-phase solver-query latency
///                  histograms, and the isolated timing section
///   --decode-file IN --decode-out OUT  after inverting (implied), compile
///                  the inverse to bytecode and stream-decode file IN to
///                  file OUT through runtime/StreamDecoder (chunked; never
///                  materializes the whole input). A rejected input exits
///                  3, budget exhaustion mid-stream exits 4 with the
///                  partial output written; both flags must come together
///
/// Exit codes: 0 ok, 1 generic error, 2 usage, 3 not invertible /
/// negative verdict / rejected decode input, 4 budget exhausted,
/// 5 internal solver error.
///
//===----------------------------------------------------------------------===//

#include "coders/Corpus.h"
#include "engine/InversionEngine.h"
#include "genic/Lower.h"
#include "genic/Parser.h"
#include "runtime/StreamDecoder.h"
#include "solver/QueryWatch.h"
#include "support/Deadline.h"
#include "support/StringUtils.h"
#include "support/Trace.h"
#include "transducer/Sampling.h"

#include <algorithm>
#include <random>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace genic;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: genic <run|invert|check|eval> PROGRAM.genic [values...]\n"
      "       genic corpus [NAME] | genic verify ENC.genic DEC.genic\n"
      "  options: --no-aux --no-mining --no-slice --jobs N --entry NAME "
      "--stats\n"
      "           --timeout-seconds S --solver-timeout-ms N "
      "--fault-inject SPEC\n"
      "           --trace-out FILE --metrics-json FILE\n"
      "           --worker-procs N --worker-binary PATH --slow-query-ms N\n"
      "           --decode-file IN --decode-out OUT\n");
  return ExitUsage;
}

Result<std::string> readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return Status::error("cannot open " + Path);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Parses a symbol argument ("42", "-3", "#x3d", "0x3d") into a Value of
/// the machine's input type.
Result<Value> parseSymbol(const std::string &Text, const Type &Ty) {
  try {
    if (Ty.isInt())
      return Value::intVal(std::stoll(Text));
    std::string Hex = Text;
    int Base = 10;
    if (startsWith(Hex, "#x") || startsWith(Hex, "0x")) {
      Hex = Hex.substr(2);
      Base = 16;
    }
    return Value::bitVecVal(std::stoull(Hex, nullptr, Base), Ty.width());
  } catch (...) {
    return Status::error("cannot parse symbol '" + Text + "' as " + Ty.str());
  }
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Command, Path, Entry;
  std::vector<std::string> Symbols;
  InverterOptions Options;
  bool Stats = false;
  double TimeoutSeconds = 0;
  std::optional<unsigned> SolverTimeoutMs;
  std::optional<std::string> FaultSpec;
  std::string TraceOut, MetricsJsonOut;
  std::string DecodeFile, DecodeOut;
  unsigned WorkerProcs = 0;
  std::string WorkerBinary;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--no-aux") {
      Options.UseAuxInversion = false;
    } else if (Arg == "--no-mining") {
      Options.UseMining = false;
    } else if (Arg == "--no-slice") {
      Options.Engine.EnableBitSlice = false;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--jobs") {
      if (++I >= Argc)
        return usage();
      try {
        Options.Jobs = std::max(1, std::stoi(Argv[I]));
      } catch (...) {
        return usage();
      }
    } else if (Arg == "--entry") {
      if (++I >= Argc)
        return usage();
      Entry = Argv[I];
    } else if (Arg == "--timeout-seconds") {
      if (++I >= Argc)
        return usage();
      try {
        TimeoutSeconds = std::stod(Argv[I]);
      } catch (...) {
        return usage();
      }
    } else if (Arg == "--solver-timeout-ms") {
      if (++I >= Argc)
        return usage();
      try {
        SolverTimeoutMs = static_cast<unsigned>(std::stoul(Argv[I]));
      } catch (...) {
        return usage();
      }
    } else if (Arg == "--fault-inject") {
      if (++I >= Argc)
        return usage();
      FaultSpec = Argv[I];
    } else if (Arg == "--trace-out") {
      if (++I >= Argc)
        return usage();
      TraceOut = Argv[I];
    } else if (Arg == "--metrics-json") {
      if (++I >= Argc)
        return usage();
      MetricsJsonOut = Argv[I];
    } else if (Arg == "--worker-procs") {
      if (++I >= Argc)
        return usage();
      try {
        WorkerProcs = static_cast<unsigned>(std::stoul(Argv[I]));
      } catch (...) {
        return usage();
      }
    } else if (Arg == "--worker-binary") {
      if (++I >= Argc)
        return usage();
      WorkerBinary = Argv[I];
    } else if (Arg == "--slow-query-ms") {
      if (++I >= Argc)
        return usage();
      try {
        // Arms the process-wide stuck-query watch: solver queries that
        // time out or run past the threshold count into
        // solver.slowquery.* (see --stats / --metrics-json output).
        QueryWatch::global().arm(std::stoull(Argv[I]));
      } catch (...) {
        return usage();
      }
    } else if (Arg == "--decode-file") {
      if (++I >= Argc)
        return usage();
      DecodeFile = Argv[I];
    } else if (Arg == "--decode-out") {
      if (++I >= Argc)
        return usage();
      DecodeOut = Argv[I];
    } else if (startsWith(Arg, "--")) {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return usage();
    } else if (Command.empty()) {
      Command = Arg;
    } else if (Path.empty()) {
      Path = Arg;
    } else {
      Symbols.push_back(Arg);
    }
  }
  if (Command == "corpus") {
    if (Path.empty()) {
      for (const CoderSpec &Spec : coderCorpus())
        std::printf("%s\n", Spec.name().c_str());
      return 0;
    }
    for (const CoderSpec &Spec : coderCorpus())
      if (Spec.name() == Path || Spec.Family + "-" + Spec.Variant == Path) {
        std::fputs(Spec.Source.c_str(), stdout);
        return 0;
      }
    std::fprintf(stderr, "unknown corpus program '%s' (try `genic "
                         "corpus` for the list)\n",
                 Path.c_str());
    return 1;
  }
  if (Command.empty() || Path.empty())
    return usage();

  Result<std::string> Source = readFile(Path);
  if (!Source) {
    std::fprintf(stderr, "error: %s\n", Source.status().message().c_str());
    return 1;
  }

  if (Command == "eval") {
    TermFactory F;
    Result<AstProgram> Ast = parseGenic(*Source);
    if (!Ast) {
      std::fprintf(stderr, "error: %s\n", Ast.status().message().c_str());
      return 1;
    }
    Result<LoweredProgram> P = lowerProgram(F, *Ast, Entry);
    if (!P) {
      std::fprintf(stderr, "error: %s\n", P.status().message().c_str());
      return 1;
    }
    ValueList Input;
    for (const std::string &S : Symbols) {
      Result<Value> V = parseSymbol(S, P->Machine.inputType());
      if (!V) {
        std::fprintf(stderr, "error: %s\n", V.status().message().c_str());
        return 1;
      }
      Input.push_back(*V);
    }
    auto Outputs = P->Machine.transduce(Input);
    if (Outputs.empty()) {
      std::printf("%s: undefined on %s\n", P->EntryName.c_str(),
                  toString(Input).c_str());
      return 1;
    }
    for (const ValueList &Out : Outputs)
      std::printf("%s\n", toString(Out).c_str());
    return 0;
  }

  if (Command == "verify") {
    if (Symbols.size() != 1)
      return usage();
    Result<std::string> Source2 = readFile(Symbols[0]);
    if (!Source2) {
      std::fprintf(stderr, "error: %s\n",
                   Source2.status().message().c_str());
      return 1;
    }
    // Each program gets its own factory/solver: both may define auxiliary
    // functions with the same names (E, B, D, ...), and the machines only
    // meet through concrete value lists.
    TermFactory FA, FB;
    Solver SlvA(FA), SlvB(FB);
    Result<AstProgram> AstA = parseGenic(*Source);
    Result<AstProgram> AstB = parseGenic(*Source2);
    if (!AstA || !AstB) {
      std::fprintf(stderr, "error: %s\n",
                   (AstA ? AstB.status() : AstA.status()).message().c_str());
      return 1;
    }
    Result<LoweredProgram> A = lowerProgram(FA, *AstA, Entry);
    Result<LoweredProgram> B = lowerProgram(FB, *AstB);
    if (!A || !B) {
      std::fprintf(stderr, "error: %s\n",
                   (A ? B.status() : A.status()).message().c_str());
      return 1;
    }
    std::mt19937_64 Rng(std::random_device{}());
    auto Direction = [&](const Seft &Enc, Solver &EncSolver, const Seft &Dec,
                         const char *Tag) {
      for (unsigned Trial = 0; Trial < 100; ++Trial) {
        Result<ValueList> In =
            randomAcceptedInput(Enc, EncSolver, Rng, Trial % 7);
        if (!In) {
          std::fprintf(stderr, "error sampling %s: %s\n", Tag,
                       In.status().message().c_str());
          return false;
        }
        auto Mid = Enc.transduce(*In, 2);
        if (Mid.size() != 1) {
          std::fprintf(stderr, "%s is not functional on %s\n", Tag,
                       toString(*In).c_str());
          return false;
        }
        auto Back = Dec.transduce(Mid[0], 2);
        if (Back.size() != 1 || Back[0] != *In) {
          std::printf("counterexample (%s): input %s encodes to %s, "
                      "which decodes to %s\n",
                      Tag, toString(*In).c_str(), toString(Mid[0]).c_str(),
                      Back.empty() ? "nothing"
                                   : toString(Back[0]).c_str());
          return false;
        }
      }
      return true;
    };
    bool Forward =
        Direction(A->Machine, SlvA, B->Machine, A->EntryName.c_str());
    bool Backward =
        Direction(B->Machine, SlvB, A->Machine, B->EntryName.c_str());
    if (Forward && Backward) {
      std::printf("OK: %s and %s invert each other on 200 randomized "
                  "round-trips\n",
                  A->EntryName.c_str(), B->EntryName.c_str());
      return 0;
    }
    return 1;
  }

  bool ForceInjective = Command == "check";
  bool ForceInvert = Command == "invert";
  if (Command != "run" && Command != "check" && Command != "invert")
    return usage();
  if (!Symbols.empty()) {
    std::fprintf(stderr, "error: unexpected argument '%s'\n",
                 Symbols[0].c_str());
    return usage();
  }
  if (DecodeFile.empty() != DecodeOut.empty()) {
    std::fprintf(stderr,
                 "error: --decode-file and --decode-out go together\n");
    return usage();
  }
  if (!DecodeFile.empty())
    ForceInvert = true; // Decoding runs the inverse; make sure we build it.

  GenicTool Tool(Options);
  if (SolverTimeoutMs)
    Tool.solver().setTimeoutMs(*SolverTimeoutMs);
  RequestContext &Req = Tool.request();
  Req.BudgetSeconds = TimeoutSeconds;
  if (!FaultSpec)
    if (const char *Env = std::getenv("GENIC_FAULT_INJECT"))
      if (*Env)
        FaultSpec = Env;
  if (FaultSpec) {
    Result<FaultPlan> Plan = parseFaultPlan(*FaultSpec);
    if (!Plan) {
      std::fprintf(stderr, "error: %s\n", Plan.status().message().c_str());
      return usage();
    }
    Req.Faults = *Plan;
  }
  Req.WorkerProcs = WorkerProcs;
  Req.WorkerBinary = WorkerBinary;
  if (!TraceOut.empty()) {
    TraceRecorder::global().enable();
    TraceRecorder::global().nameThisThread("main");
  }
  Result<GenicReport> Report =
      Tool.run(*Source, ForceInjective, ForceInvert);

  // Streaming decode rides after the run so its spans land in the same
  // trace and its counters in the same metrics snapshot.
  int DecodeExit = ExitOk;
  std::string DecodeSummary, DecodeStatsText;
  if (Report && !DecodeFile.empty()) {
    const GenicReport &R = *Report;
    if (!R.InverseMachine || !R.Inversion || !R.Inversion->complete()) {
      std::fprintf(stderr, "error: --decode-file needs a fully inverted "
                           "machine (inversion did not complete)\n");
      DecodeExit = ExitNotInvertible;
    } else {
      TraceSpan Span("decode.stream", "decode");
      Result<CompiledSeft> Compiled = CompiledSeft::compile(*R.InverseMachine);
      std::ifstream In(DecodeFile, std::ios::binary);
      std::ofstream Out;
      if (Compiled)
        Out.open(DecodeOut, std::ios::binary | std::ios::trunc);
      if (!Compiled) {
        std::fprintf(stderr, "error: %s\n",
                     Compiled.status().message().c_str());
        DecodeExit = ExitError;
      } else if (!In || !Out) {
        std::fprintf(stderr, "error: cannot open %s\n",
                     !In ? DecodeFile.c_str() : DecodeOut.c_str());
        DecodeExit = ExitError;
      } else {
        StreamDecoderOptions DecodeOpts;
        DecodeOpts.Metrics = &Tool.metrics();
        if (TimeoutSeconds > 0)
          DecodeOpts.Cancel = CancellationToken(Deadline::after(
              std::max(0.0, R.Timings.DeadlineRemainingSeconds)));
        StreamDecoder Decoder(*Compiled, DecodeOpts);

        Status DecodeStatus = Status::ok();
        std::vector<uint8_t> Chunk(256 * 1024), Produced;
        while (In) {
          In.read(reinterpret_cast<char *>(Chunk.data()), Chunk.size());
          std::streamsize Got = In.gcount();
          if (Got <= 0)
            break;
          Produced.clear();
          DecodeStatus = Decoder.feed(
              std::span<const uint8_t>(Chunk.data(), size_t(Got)), Produced);
          Out.write(reinterpret_cast<const char *>(Produced.data()),
                    std::streamsize(Produced.size()));
          if (!DecodeStatus.isOk())
            break;
        }
        if (DecodeStatus.isOk()) {
          Produced.clear();
          DecodeStatus = Decoder.finish(Produced);
          Out.write(reinterpret_cast<const char *>(Produced.data()),
                    std::streamsize(Produced.size()));
        }
        Out.flush();

        double Seconds = Span.seconds();
        const StreamDecoder::Stats &DS = Decoder.stats();
        MetricsRegistry &Reg = Tool.metrics();
        Reg.counter("decode.rules.fired").set(DS.RulesFired);
        Reg.counter("decode.rules.fused").set(Compiled->fusedRules());

        char Buf[256];
        std::snprintf(Buf, sizeof(Buf),
                      "decoded:       %llu -> %llu bytes (%.1f MB/s)\n",
                      (unsigned long long)DS.BytesIn,
                      (unsigned long long)DS.BytesOut,
                      Seconds > 0 ? DS.BytesIn / Seconds / 1e6 : 0.0);
        DecodeSummary = Buf;
        std::snprintf(Buf, sizeof(Buf),
                      "decode rules: %u of %u fused; %llu rules fired\n",
                      Compiled->fusedRules(), Compiled->numRules(),
                      (unsigned long long)DS.RulesFired);
        DecodeStatsText = Buf;

        if (!DecodeStatus.isOk()) {
          std::fprintf(stderr, "decode error: %s\n",
                       DecodeStatus.message().c_str());
          DecodeExit = DecodeStatus.isBudget()
                           ? ExitBudgetExhausted
                           : DecodeStatus.code() == StatusCode::SolverError
                                 ? ExitInternalError
                                 : ExitNotInvertible;
        }
      }
    }
  }

  if (!TraceOut.empty()) {
    TraceRecorder::global().disable();
    if (Status St = TraceRecorder::global().writeJson(TraceOut); !St)
      std::fprintf(stderr, "warning: %s\n", St.message().c_str());
  }
  if (!Report) {
    std::fprintf(stderr, "error: %s\n", Report.status().message().c_str());
    return ExitError;
  }
  const GenicReport &R = *Report;
  if (!MetricsJsonOut.empty()) {
    std::ofstream MOut(MetricsJsonOut);
    if (!MOut)
      std::fprintf(stderr, "warning: cannot open %s\n",
                   MetricsJsonOut.c_str());
    else
      MOut << formatMetricsJson(R, Tool.metrics().snapshot());
  }

  std::printf("%s: %u state(s), %u rule(s), %u auxiliary function(s), "
              "lookahead %u, theory %s\n",
              R.EntryName.c_str(), R.NumStates, R.NumTransitions,
              R.NumAuxFuncs, R.MaxLookahead, R.Theory.c_str());
  if (R.DeterminismPhase == GenicReport::PhaseOutcome::Ok)
    std::printf("deterministic: %s (%.3fs)%s%s\n",
                R.Deterministic ? "yes" : "NO",
                R.Timings.DeterminismSeconds, R.Deterministic ? "" : " — ",
                R.DeterminismDetail.c_str());
  if (R.Injectivity) {
    std::printf("injective:     %s (%.3fs)\n",
                R.Injectivity->Injective ? "yes" : "NO",
                R.Timings.InjectivitySeconds);
    if (!R.Injectivity->Injective) {
      std::printf("  %s\n", R.Injectivity->Detail.c_str());
      if (R.Injectivity->Witness)
        std::printf("  witnesses: %s and %s\n",
                    toString(R.Injectivity->Witness->first).c_str(),
                    toString(R.Injectivity->Witness->second).c_str());
    }
  }
  if (R.Inversion) {
    std::printf("inverted:      %s (%.3fs total, %.3fs max rule)\n",
                R.Inversion->complete() ? "yes" : "PARTIALLY",
                R.Timings.InversionSeconds, R.Inversion->maxRuleSeconds());
    std::printf("\n%s", R.InverseSource.c_str());
  }
  if (!DecodeSummary.empty())
    std::fputs(DecodeSummary.c_str(), stdout);
  std::printf("\n%s", formatOutcomeReport(R).c_str());
  if (Stats) {
    std::fputs(formatStatsReport(R, Tool.metrics().snapshot()).c_str(),
               stdout);
    std::fputs(DecodeStatsText.c_str(), stdout);
  }
  // Exit-code severities are numerically ordered (5 solver error > 4 budget
  // > 3 negative verdict > 1 error > 0), so max picks the worst of the
  // pipeline's and the decode's outcome.
  return std::max(suggestedExitCode(R), DecodeExit);
}
