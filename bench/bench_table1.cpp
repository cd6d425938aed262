//===- bench/bench_table1.cpp - Reproduces Table 1 -------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table 1 of the paper: for each of the 14 real coders, program shape
/// (states, rules, auxiliary functions, max lookahead, source size, theory),
/// the time to check determinism (isDet), injectivity (isInj), and to invert
/// (total and max single rule), and whether every rule was inverted (res).
///
/// The paper's numbers (Intel i7 4.00GHz, Java + external SyGuS solver) are
/// printed alongside for shape comparison; absolute times differ by design.
/// Each inverse is additionally validated by round-tripping random inputs,
/// which the paper did by manual inspection.
///
//===----------------------------------------------------------------------===//

#include "coders/Corpus.h"
#include "engine/InversionEngine.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

using namespace genic;

namespace {

struct PaperRow {
  double IsDet, IsInj, Total, MaxTr;
  const char *Res;
};

// Table 1 of the paper, in corpus order.
const PaperRow PaperRows[14] = {
    {0.05, 2.20, 9.32, 5.18, "ok"},    // BASE64 encoder
    {0.14, 2.92, 33.66, 19.24, "ok"},  // BASE64 decoder
    {0.03, 2.28, 10.30, 6.06, "ok"},   // mod BASE64 encoder
    {0.08, 2.73, 34.43, 21.64, "ok"},  // mod BASE64 decoder
    {0.19, 6.45, 20.55, 9.06, "ok"},   // BASE32 encoder
    {0.18, 4.66, 138.46, 53.05, "ok"}, // BASE32 decoder
    {0.03, 0.30, 2.10, 2.10, "ok"},    // BASE16 encoder
    {0.03, 0.15, 1.92, 1.13, "ok"},    // BASE16 decoder
    {0.17, 1.05, 80.17, 69.20, "3/4"}, // UTF-8 encoder
    {0.19, 0.86, 8.13, 3.57, "ok"},    // UTF-8 decoder
    {0.06, 0.64, 31.19, 30.56, "ok"},  // UTF-16 encoder
    {0.12, 0.87, 3.17, 2.72, "ok"},    // UTF-16 decoder
    {0.03, 2.85, 6.14, 4.06, "ok"},    // UU encoder
    {0.07, 2.95, 24.16, 18.56, "ok"},  // UU decoder
};

bool roundTrips(const CoderSpec &Spec, const GenicReport &Report) {
  std::mt19937_64 Rng(2026);
  for (unsigned Len : {0u, 1u, 2u, 3u, 4u, 5u, 9u, 17u}) {
    Symbols In = Spec.MakeInput(Rng, Len);
    ValueList Input;
    for (uint64_t V : In)
      Input.push_back(Value::bitVecVal(V, Spec.SymbolBits));
    auto Mid = Report.Machine->transduceFunctional(Input);
    if (!Mid)
      return false;
    auto Back = Report.InverseMachine->transduce(*Mid, 2);
    if (Back.size() != 1 || Back[0] != Input)
      return false;
  }
  return true;
}

/// Machine-readable mirror of the printed table, one object per program,
/// so before/after comparisons diff data instead of screen-scraped text.
class JsonWriter {
public:
  void beginProgram(const std::string &Name) {
    if (!First)
      Body << ",\n";
    First = false;
    Body << "    {\"program\": \"" << Name << "\"";
  }
  void field(const char *Key, const std::string &V) {
    Body << ", \"" << Key << "\": \"" << V << "\"";
  }
  void field(const char *Key, double V) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.4f", V);
    Body << ", \"" << Key << "\": " << Buf;
  }
  void field(const char *Key, uint64_t V) {
    Body << ", \"" << Key << "\": " << V;
  }
  void field(const char *Key, bool V) {
    Body << ", \"" << Key << "\": " << (V ? "true" : "false");
  }
  void endProgram() { Body << "}"; }

  void write(const std::string &Path, unsigned Jobs, unsigned Total,
             double SumDet, double SumInj, double SumInv, unsigned Inverted) {
    std::ofstream Out(Path);
    Out << "{\n  \"bench\": \"table1\",\n  \"jobs\": " << Jobs
        << ",\n  \"programs\": [\n"
        << Body.str() << "\n  ],\n  \"summary\": {\"inverted\": " << Inverted
        << ", \"total\": " << Total << ", \"sumIsDet\": " << SumDet
        << ", \"sumIsInj\": " << SumInj << ", \"sumInversion\": " << SumInv
        << "}\n}\n";
    std::printf("wrote %s\n", Path.c_str());
  }

private:
  std::ostringstream Body;
  bool First = true;
};

/// Pulls one numeric field per program out of a previously written JSON
/// file, keyed by program name. The writer emits one program object per
/// line, so line-local string slicing is enough — no JSON parser needed.
std::map<std::string, double> readBaselineField(const std::string &Path,
                                                const char *Field) {
  const std::string Needle = std::string("\"") + Field + "\": ";
  std::map<std::string, double> Out;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    size_t NameAt = Line.find("\"program\": \"");
    size_t FieldAt = Line.find(Needle);
    if (NameAt == std::string::npos || FieldAt == std::string::npos)
      continue;
    size_t NameBegin = NameAt + std::strlen("\"program\": \"");
    size_t NameEnd = Line.find('"', NameBegin);
    if (NameEnd == std::string::npos)
      continue;
    Out[Line.substr(NameBegin, NameEnd - NameBegin)] =
        std::atof(Line.c_str() + FieldAt + Needle.size());
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Jobs = 1;
  unsigned WorkerProcs = 0;
  std::string WorkerBinary;
  std::string JsonPath = "BENCH_table1.json";
  std::string Only;
  std::string BaselinePath;
  double MaxRegressPct = -1;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--jobs") && I + 1 < Argc)
      Jobs = std::max(1, std::atoi(Argv[++I]));
    else if (!std::strcmp(Argv[I], "--worker-procs") && I + 1 < Argc)
      WorkerProcs = std::max(0, std::atoi(Argv[++I]));
    else if (!std::strcmp(Argv[I], "--worker-binary") && I + 1 < Argc)
      WorkerBinary = Argv[++I];
    else if (!std::strcmp(Argv[I], "--json") && I + 1 < Argc)
      JsonPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--only") && I + 1 < Argc)
      Only = Argv[++I];
    else if (!std::strcmp(Argv[I], "--baseline") && I + 1 < Argc)
      BaselinePath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--max-regress") && I + 1 < Argc)
      MaxRegressPct = std::atof(Argv[++I]);
    else {
      std::fprintf(stderr,
                   "usage: %s [--jobs N] [--worker-procs N] "
                   "[--worker-binary PATH]\n"
                   "          [--json FILE] [--only SUBSTR]\n"
                   "          [--baseline FILE] [--max-regress PCT]\n"
                   "  --worker-procs run verification shards in N worker "
                   "processes (0 = in-process);\n"
                   "                 measures the IPC overhead of crash "
                   "isolation\n"
                   "  --only         run only programs whose name contains "
                   "SUBSTR\n"
                   "  --baseline     committed BENCH_table1.json to compare "
                   "isInj and inversion times against\n"
                   "  --max-regress  fail (exit 1) when isInj or inversion "
                   "exceeds the baseline by\n"
                   "                 more than PCT%% plus a 0.5s absolute "
                   "slack\n",
                   Argv[0]);
      return 2;
    }
  }

  std::printf("Table 1: performance and effectiveness of GENIC on 14 "
              "encoders and decoders (--jobs %u)\n", Jobs);
  std::printf("(paper values in [brackets]; absolute times are not "
              "comparable across testbeds)\n\n");

  Table T;
  T.setHeader({"program", "states", "trans", "auxFun", "maxL", "size(B)",
               "isDet", "isInj", "inv-total", "inv-max-tr", "res",
               "roundtrip", "theory"});

  std::map<std::string, double> BaselineInj, BaselineInv;
  if (!BaselinePath.empty()) {
    BaselineInj = readBaselineField(BaselinePath, "isInjSeconds");
    BaselineInv = readBaselineField(BaselinePath, "inversionSeconds");
  }
  std::vector<std::string> Regressions;

  JsonWriter Json;
  unsigned Inverted = 0, Ran = 0;
  double SumDet = 0, SumInj = 0, SumInv = 0;
  for (size_t I = 0; I < coderCorpus().size(); ++I) {
    const CoderSpec &Spec = coderCorpus()[I];
    const PaperRow &Paper = PaperRows[I];
    if (!Only.empty() && Spec.name().find(Only) == std::string::npos)
      continue;
    ++Ran;
    InverterOptions Options;
    Options.Jobs = Jobs;
    GenicTool Tool(Options);
    Tool.request().WorkerProcs = WorkerProcs;
    Tool.request().WorkerBinary = WorkerBinary;
    Result<GenicReport> Report = Tool.run(Spec.Source);
    if (!Report) {
      T.addRow({Spec.name(), "-", "-", "-", "-", "-", "-", "-", "-", "-",
                "error: " + Report.status().message()});
      Json.beginProgram(Spec.name());
      Json.field("error", Report.status().message());
      Json.endProgram();
      continue;
    }
    const GenicReport &R = *Report;
    unsigned Done = 0;
    for (const RuleInversionRecord &Rec : R.Inversion->Records)
      Done += Rec.Inverted ? 1 : 0;
    std::string Res =
        R.Inversion->complete()
            ? "ok"
            : std::to_string(Done) + "/" +
                  std::to_string(R.Inversion->Records.size());
    Inverted += R.Inversion->complete() ? 1 : 0;
    SumDet += R.Timings.DeterminismSeconds;
    SumInj += R.Timings.InjectivitySeconds;
    SumInv += R.Timings.InversionSeconds;

    auto Timed = [](double Mine, double Theirs) {
      return formatSeconds(Mine) + " [" + formatSeconds(Theirs) + "]";
    };
    T.addRow({Spec.name(), std::to_string(R.NumStates),
              std::to_string(R.NumTransitions), std::to_string(R.NumAuxFuncs),
              std::to_string(R.MaxLookahead), std::to_string(R.SourceBytes),
              Timed(R.Timings.DeterminismSeconds, Paper.IsDet),
              Timed(R.Timings.InjectivitySeconds, Paper.IsInj),
              Timed(R.Timings.InversionSeconds, Paper.Total),
              Timed(R.Inversion->maxRuleSeconds(), Paper.MaxTr),
              Res + " [" + Paper.Res + "]",
              R.Inversion->complete() && roundTrips(Spec, R) ? "ok" : "FAIL",
              R.Theory});

    Json.beginProgram(Spec.name());
    Json.field("states", (uint64_t)R.NumStates);
    Json.field("transitions", (uint64_t)R.NumTransitions);
    Json.field("auxFuncs", (uint64_t)R.NumAuxFuncs);
    Json.field("maxLookahead", (uint64_t)R.MaxLookahead);
    Json.field("isDetSeconds", R.Timings.DeterminismSeconds);
    Json.field("isInjSeconds", R.Timings.InjectivitySeconds);
    Json.field("inversionSeconds", R.Timings.InversionSeconds);
    Json.field("maxRuleSeconds", R.Inversion->maxRuleSeconds());
    Json.field("res", Res);
    Json.field("roundtrip", R.Inversion->complete() && roundTrips(Spec, R));
    // Cache counters come from the metrics registry (same values that
    // --metrics-json reports); key names predate the registry and are kept
    // so committed baselines stay comparable.
    MetricsSnapshot Snap = Tool.metrics().snapshot();
    auto Counter = [&Snap](const char *Name) -> uint64_t {
      auto It = Snap.Counters.find(Name);
      return It == Snap.Counters.end() ? 0 : It->second;
    };
    Json.field("sharedSatHits", Counter("solver.shared.cache.sat.hits"));
    Json.field("sharedSatMisses", Counter("solver.shared.cache.sat.misses"));
    Json.field("workerSatHits", Counter("solver.worker.cache.sat.hits"));
    Json.field("workerSatMisses", Counter("solver.worker.cache.sat.misses"));
    auto Gauge = [&Snap](const char *Name) -> uint64_t {
      auto It = Snap.Gauges.find(Name);
      return It == Snap.Gauges.end() ? 0 : (uint64_t)It->second;
    };
    Json.field("workerSessions", Gauge("sessions.worker"));
    Json.field("compiledEvals",
               Counter("eval.shared.evals") + Counter("eval.worker.evals"));
    Json.field("compiledPrograms", Counter("eval.shared.compiles") +
                                       Counter("eval.worker.compiles"));
    Json.endProgram();

    // Percentage bound plus an absolute slack so sub-second programs don't
    // trip on scheduler noise.
    auto Gate = [&](const std::map<std::string, double> &Baseline,
                    const char *What, double Mine) {
      auto BaseIt = Baseline.find(Spec.name());
      if (BaseIt == Baseline.end() || MaxRegressPct < 0)
        return;
      double Bound = BaseIt->second * (1 + MaxRegressPct / 100) + 0.5;
      if (Mine > Bound) {
        char Buf[160];
        std::snprintf(Buf, sizeof(Buf),
                      "%s: %s %.2fs exceeds baseline %.2fs (bound %.2fs)",
                      Spec.name().c_str(), What, Mine, BaseIt->second, Bound);
        Regressions.push_back(Buf);
      }
    };
    Gate(BaselineInj, "isInj", R.Timings.InjectivitySeconds);
    Gate(BaselineInv, "inversion", R.Timings.InversionSeconds);
  }
  std::printf("%s\n", T.render().c_str());
  if (Ran == 0) {
    std::fprintf(stderr, "no program matches --only %s\n", Only.c_str());
    return 2;
  }
  std::printf("summary: %u/%u programs fully inverted (paper: 13/14); "
              "avg isDet %.2fs (paper avg 0.1s), avg isInj %.2fs (paper avg "
              "2.2s), avg inversion %.2fs (paper avg 25s)\n",
              Inverted, Ran, SumDet / Ran, SumInj / Ran, SumInv / Ran);
  std::printf("note: rule counts include explicit `[] -> []` finalizers and "
              "the Cartesian-split UTF-8 classes; see EXPERIMENTS.md\n");
  Json.write(JsonPath, Jobs, Ran, SumDet, SumInj, SumInv, Inverted);
  for (const std::string &R : Regressions)
    std::fprintf(stderr, "REGRESSION: %s\n", R.c_str());
  return Regressions.empty() ? 0 : 1;
}
