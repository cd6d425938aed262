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
#include <random>
#include <string>

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

} // namespace

int main(int Argc, char **Argv) {
  unsigned Jobs = 1;
  unsigned WorkerProcs = 0;
  std::string WorkerBinary;
  std::string Only;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--jobs") && I + 1 < Argc)
      Jobs = std::max(1, std::atoi(Argv[++I]));
    else if (!std::strcmp(Argv[I], "--worker-procs") && I + 1 < Argc)
      WorkerProcs = std::max(0, std::atoi(Argv[++I]));
    else if (!std::strcmp(Argv[I], "--worker-binary") && I + 1 < Argc)
      WorkerBinary = Argv[++I];
    else if (!std::strcmp(Argv[I], "--only") && I + 1 < Argc)
      Only = Argv[++I];
    else {
      std::fprintf(stderr,
                   "usage: %s [--jobs N] [--worker-procs N] "
                   "[--worker-binary PATH]\n"
                   "          [--only SUBSTR]\n"
                   "  --worker-procs run verification shards in N worker "
                   "processes (0 = in-process);\n"
                   "                 measures the IPC overhead of crash "
                   "isolation\n"
                   "  --only         run only programs whose name contains "
                   "SUBSTR\n",
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
  return 0;
}
