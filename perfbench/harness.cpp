//===- perfbench/harness.cpp - In-process half of the genic benchmark -----===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The part of the benchmark that has to link against the library. run.py
/// drives the CLI and the daemon as separate processes; this program does
/// what only in-process code can:
///
///   programs corpus DIR            write the 14 Table-1 sources to DIR
///   programs multistate DIR SEED N write N seeded multi-state programs
///   verify MANIFEST                check inverses against native oracles
///   probe OUT JOBS WPROCS FILE...  per-layer spans around each module's
///                                  public entry points (traced run)
///   stream SEED SECONDS TRACE OUT  the stream-codec workload
///
/// Spans are written as tab-separated lines (name, req, id, parent, start
/// and duration in microseconds of CLOCK_MONOTONIC) for run.py to merge
/// into one Chrome trace. Every other result is one JSON object on the
/// last line of standard output.
///
//===----------------------------------------------------------------------===//

#include "automata/Ambiguity.h"
#include "coders/Corpus.h"
#include "coders/Synthetic.h"
#include "engine/InversionEngine.h"
#include "genic/Genic.h"
#include "genic/Lower.h"
#include "genic/Parser.h"
#include "runtime/StreamDecoder.h"
#include "solver/QueryCache.h"
#include "solver/SolverContext.h"
#include "solver/SolverSessionPool.h"
#include "transducer/Determinism.h"
#include "transducer/Injectivity.h"
#include "transducer/Sampling.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <time.h>

using namespace genic;

namespace {

uint64_t nowUs() {
  timespec T;
  clock_gettime(CLOCK_MONOTONIC, &T);
  return uint64_t(T.tv_sec) * 1000000 + uint64_t(T.tv_nsec) / 1000;
}

double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans kept in memory and written when the command ends. Disabled
/// recorders cost one branch per span, which is what the tracing-overhead
/// comparison measures against.
class Spans {
public:
  struct Rec {
    std::string Name;
    uint64_t Req, Id, Parent, Start, Dur;
  };

  bool Enabled = false;

  /// Opens a span under the innermost open one; returns its id (0 when
  /// disabled).
  uint64_t open(const std::string &Name, uint64_t Req) {
    if (!Enabled)
      return 0;
    uint64_t Id = NextId++;
    Open.push_back(Recs.size());
    Recs.push_back({Name, Req, Id, Stack.empty() ? 0 : Stack.back(), nowUs(),
                    0});
    Stack.push_back(Id);
    return Id;
  }
  /// Records a child of span \p Parent that the benchmark did not time
  /// itself (a duration the program reports).
  uint64_t child(const std::string &Name, uint64_t Req, uint64_t Parent,
                 uint64_t Start, uint64_t Dur) {
    if (!Enabled || !Parent)
      return 0;
    Recs.push_back({Name, Req, NextId, Parent, Start, Dur});
    return NextId++;
  }
  const Rec *find(uint64_t Id) const {
    for (const Rec &R : Recs)
      if (R.Id == Id)
        return &R;
    return nullptr;
  }

  void close() {
    if (!Enabled)
      return;
    Rec &R = Recs[Open.back()];
    R.Dur = nowUs() - R.Start;
    Open.pop_back();
    Stack.pop_back();
  }

  void write(const std::string &Path) const {
    std::ofstream Out(Path);
    for (const Rec &R : Recs)
      Out << R.Name << '\t' << R.Req << '\t' << R.Id << '\t' << R.Parent
          << '\t' << R.Start << '\t' << R.Dur << '\n';
  }

private:
  std::vector<Rec> Recs;
  std::vector<size_t> Open;
  std::vector<uint64_t> Stack;
  uint64_t NextId = 1;
};

Spans TheSpans;

double cpuSeconds() {
  rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return RU.ru_utime.tv_sec + RU.ru_utime.tv_usec / 1e6 + RU.ru_stime.tv_sec +
         RU.ru_stime.tv_usec / 1e6;
}

/// RAII span; also a stopwatch whether or not recording is on.
class Span {
public:
  Span(const std::string &Name, uint64_t Req)
      : Start(nowS()), Id(TheSpans.open(Name, Req)) {}
  uint64_t id() const { return Id; }
  ~Span() {
    if (!Closed)
      TheSpans.close();
  }
  double close() {
    if (!Closed)
      TheSpans.close();
    Closed = true;
    return nowS() - Start;
  }

private:
  double Start;
  uint64_t Id;
  bool Closed = false;
};

/// Lays the phase times a pipeline run reports (GenicReport::Timings) out
/// as children of its closed span \p Run, in pipeline order and ending at
/// the span's end: the program reports durations, not start times.
void phaseChildren(const GenicReport &R, uint64_t Req, uint64_t Run) {
  const Spans::Rec *Parent = TheSpans.find(Run);
  if (!Parent)
    return;
  const PhaseTimings &T = R.Timings;
  uint64_t Det = T.DeterminismSeconds * 1e6, Inj = T.InjectivitySeconds * 1e6,
           Inv = T.InversionSeconds * 1e6;
  uint64_t End = Parent->Start + Parent->Dur;
  uint64_t At = End - std::min(Parent->Dur, Det + Inj + Inv);
  for (auto [Name, Dur] : {std::pair<const char *, uint64_t>{
                               "transducer.det", Det},
                           {"transducer.inj", Inj},
                           {"sygus.invert", Inv}}) {
    Dur = std::min(Dur, End - At);
    TheSpans.child(Name, Req, Run, At, Dur);
    At += Dur;
  }
}

unsigned cegisIterations(const GenicReport &R) {
  unsigned Iters = 0;
  for (const SygusEngine::CallRecord &C : R.SygusCalls)
    Iters += C.CegisIterations;
  return Iters;
}

/// Minimal JSON object writer for the one-line results.
class Json {
public:
  Json &num(const std::string &K, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.9g", V);
    return raw(K, Buf);
  }
  Json &raw(const std::string &K, const std::string &V) {
    Body += (Body.empty() ? "" : ",") + ("\"" + K + "\":" + V);
    return *this;
  }
  std::string text() const { return "{" + Body + "}"; }

private:
  std::string Body;
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream S;
  S << In.rdbuf();
  return S.str();
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  Out << Text;
  return bool(Out);
}

ValueList toValues(const Symbols &S, unsigned Bits) {
  ValueList Out;
  Out.reserve(S.size());
  for (uint64_t V : S)
    Out.push_back(Value::bitVecVal(V, Bits));
  return Out;
}

std::vector<uint8_t> toBytes(const Symbols &S, unsigned Bps) {
  std::vector<uint8_t> Out;
  Out.reserve(S.size() * Bps);
  for (uint64_t V : S)
    for (unsigned I = 0; I != Bps; ++I)
      Out.push_back(uint8_t(V >> (8 * I)));
  return Out;
}

/// Source with its isInjective operation removed: the stream-codec set-up
/// needs the inverse, not the verdict.
std::string withoutInjectivityOp(std::string Source) {
  size_t Pos = Source.find("isInjective");
  if (Pos == std::string::npos)
    return Source;
  size_t End = Source.find('\n', Pos);
  Source.erase(Pos, End == std::string::npos ? End : End - Pos + 1);
  return Source;
}

//===----------------------------------------------------------------------===//
// programs
//===----------------------------------------------------------------------===//

/// Shape of a makeRandomLiaProgram source: its continuing rules (one line
/// each, "... :: R<target>(tail)" under "trans R<state>") and whether every
/// state is reachable from the entry R0.
struct LiaShape {
  unsigned Rules = 0;
  bool AllReachable = false;
};

LiaShape liaShape(const std::string &Source, unsigned States) {
  LiaShape Shape;
  std::vector<std::vector<unsigned>> Succ(States);
  std::istringstream In(Source);
  unsigned From = 0;
  for (std::string Line; std::getline(In, Line);) {
    if (Line.rfind("trans R", 0) == 0)
      From = std::atoi(Line.c_str() + 7);
    size_t At = Line.rfind(":: R");
    if (At == std::string::npos || From >= States)
      continue;
    ++Shape.Rules;
    unsigned To = std::atoi(Line.c_str() + At + 4);
    if (To < States)
      Succ[From].push_back(To);
  }
  std::vector<bool> Seen(States, false);
  std::vector<unsigned> Work = {0};
  Seen[0] = true;
  while (!Work.empty()) {
    unsigned Q = Work.back();
    Work.pop_back();
    for (unsigned T : Succ[Q])
      if (!Seen[T])
        Seen[T] = true, Work.push_back(T);
  }
  Shape.AllReachable = std::find(Seen.begin(), Seen.end(), false) == Seen.end();
  return Shape;
}

/// The multi-state draw of invert-multistate: N random LIA programs with
/// 2, 3, ..., 8, 2, ... states whose generator seeds derive from the
/// workload seed, plus the fixed ST family S_1..S_3 (makeStProgram). The
/// shape — states and rules — is fixed so that a pass costs about the same
/// on every seed; the seed draws the machines.
int cmdPrograms(int Argc, char **Argv) {
  if (Argc < 2)
    return 2;
  std::string Kind = Argv[0], Dir = Argv[1];
  unsigned Index = 0;
  auto Emit = [&](const std::string &Label, const std::string &Source) {
    char Name[32];
    std::snprintf(Name, sizeof(Name), "/%02u.genic", Index++);
    if (!writeFile(Dir + Name, Source))
      return false;
    std::printf("%s%s\t%s\n", Dir.c_str(), Name, Label.c_str());
    return true;
  };
  if (Kind == "corpus") {
    for (const CoderSpec &Spec : coderCorpus())
      if (!Emit(Spec.name(), Spec.Source))
        return 1;
    return 0;
  }
  if (Kind == "multistate" && Argc == 4) {
    std::mt19937_64 Rng(std::strtoull(Argv[2], nullptr, 10) * 7919 + 17);
    unsigned N = std::atoi(Argv[3]);
    for (unsigned I = 0; I != N; ++I) {
      unsigned States = 2 + I % 7;
      // The generator gives each state one or two continuing rules with
      // random targets; draw until every state is reachable and the
      // machine has the middle rule count, 3 * States / 2.
      uint64_t Seed;
      std::string Source;
      LiaShape Shape;
      do {
        Seed = Rng() % 1000000;
        Source = makeRandomLiaProgram(Seed, States);
        Shape = liaShape(Source, States);
      } while (!Shape.AllReachable || Shape.Rules != 3 * States / 2);
      if (!Emit("lia seed " + std::to_string(Seed) + " states " +
                    std::to_string(States),
                Source))
        return 1;
    }
    for (unsigned K = 1; K <= 3; ++K)
      if (!Emit("st " + std::to_string(K), makeStProgram(K)))
        return 1;
    return 0;
  }
  return 2;
}

//===----------------------------------------------------------------------===//
// verify
//===----------------------------------------------------------------------===//

/// A lowered program kept together with the factory that owns its terms.
struct Loaded {
  std::unique_ptr<SolverContext> Ctx = std::make_unique<SolverContext>();
  std::optional<LoweredProgram> P;
  std::string Error;
};

Loaded load(const std::string &Source) {
  Loaded L;
  Result<AstProgram> Ast = parseGenic(Source);
  if (!Ast) {
    L.Error = "parse: " + Ast.status().message();
    return L;
  }
  Result<LoweredProgram> P = lowerProgram(L.Ctx->factory(), *Ast);
  if (!P) {
    L.Error = "lower: " + P.status().message();
    return L;
  }
  L.P = std::move(*P);
  return L;
}

/// Round trip of a corpus coder against its native oracles: for seeded
/// inputs x, the CLI's inverse must map Oracle(x) back to x, and agree with
/// InverseOracle on it.
std::string verifyCorpus(const CoderSpec &Spec, const Seft &Inverse,
                         uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  for (unsigned Len : {0u, 1u, 2u, 3u, 5u, 17u, 64u, 255u}) {
    Symbols X = Spec.MakeInput(Rng, Len);
    MaybeSymbols Y = Spec.Oracle(X);
    if (!Y)
      return "native oracle rejected its own sampler's input";
    MaybeSymbols Back = Spec.InverseOracle(*Y);
    if (!Back || *Back != X)
      return "native oracles disagree (test data bug)";
    unsigned OutBits = Inverse.outputType().width();
    auto Got = Inverse.transduceFunctional(
        toValues(*Y, Inverse.inputType().width()));
    if (!Got || *Got != toValues(X, OutBits))
      return "inverse does not map Oracle(x) back to x at length " +
             std::to_string(Len);
  }
  return "";
}

/// Round trip of a multi-state program: the inverse must map the forward
/// image of randomly walked accepted inputs back to exactly that input.
std::string verifyRoundTrip(const Seft &Forward, const Seft &Inverse,
                            Solver &S, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  for (unsigned Steps : {0u, 1u, 2u, 4u, 8u, 16u}) {
    Result<ValueList> X = randomAcceptedInput(Forward, S, Rng, Steps);
    if (!X)
      return "sampling: " + X.status().message();
    auto Y = Forward.transduceFunctional(*X);
    if (!Y)
      return "forward machine rejected a sampled input";
    std::vector<ValueList> Back = Inverse.transduce(*Y, 2);
    if (Back.size() != 1 || Back[0] != *X)
      return "inverse is not a function back to the input at " +
             std::to_string(Steps) + " steps";
  }
  return "";
}

/// MANIFEST lines: KIND \t KEY \t SOURCE_FILE \t INVERSE_FILE, KIND being
/// "corpus" (KEY = corpus index) or "roundtrip" (KEY = sampling seed).
/// Prints "ok" or "FAIL <reason>" per line, in order.
int cmdVerify(int Argc, char **Argv) {
  if (Argc != 1)
    return 2;
  std::ifstream In(Argv[0]);
  std::string Line;
  while (std::getline(In, Line)) {
    std::vector<std::string> F;
    std::stringstream SS(Line);
    for (std::string Tok; std::getline(SS, Tok, '\t');)
      F.push_back(Tok);
    if (F.size() != 4) {
      std::printf("FAIL malformed manifest line\n");
      continue;
    }
    Loaded Inv = load(readFile(F[3]));
    std::string Why = Inv.Error;
    if (Why.empty() && F[0] == "corpus") {
      unsigned I = std::atoi(F[1].c_str());
      Why = I < coderCorpus().size()
                ? verifyCorpus(coderCorpus()[I], Inv.P->Machine, 1000 + I)
                : "no such corpus program";
    } else if (Why.empty()) {
      Loaded Fwd = load(readFile(F[2]));
      Why = Fwd.Error.empty()
                ? verifyRoundTrip(Fwd.P->Machine, Inv.P->Machine,
                                  Fwd.Ctx->solver(),
                                  std::strtoull(F[1].c_str(), nullptr, 10))
                : "forward " + Fwd.Error;
    }
    std::printf("%s\n", Why.empty() ? "ok" : ("FAIL " + Why).c_str());
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// probe
//===----------------------------------------------------------------------===//

/// The pipeline of one program, one public entry point per span: parse,
/// lower, determinism, then the injectivity check composed from its parts
/// (transition injectivity, output projections, trim, the Lemma 4.14
/// product), then inversion. Returns false when a verdict differs from the
/// known answer (every probed program is injective by construction).
bool probeLayers(const std::string &Source, unsigned Jobs, uint64_t Req,
                 Json &Out) {
  Span Root("bench.program", Req);
  SolverContext Ctx;
  Span ParseSpan("genic.parse", Req);
  Result<AstProgram> Ast = parseGenic(Source);
  double Parse = ParseSpan.close();
  if (!Ast)
    return false;
  Span LowerSpan("genic.lower", Req);
  Result<LoweredProgram> P = lowerProgram(Ctx.factory(), *Ast);
  double Lower = LowerSpan.close();
  if (!P)
    return false;
  const Seft &M = P->Machine;
  Solver &S = Ctx.solver();
  SolverSessionPool Sessions(Ctx.factory(), S);
  GuardOverlapCache Overlaps;

  Span DetSpan("transducer.det", Req);
  DeterminismOptions DetOpts;
  DetOpts.Jobs = Jobs;
  DetOpts.Sessions = &Sessions;
  auto Det = checkDeterminism(M, S, DetOpts);
  DetSpan.close();
  if (!Det || Det->has_value())
    return false;

  InjectivityOptions InjOpts;
  InjOpts.Jobs = Jobs;
  InjOpts.Sessions = &Sessions;
  InjOpts.Overlaps = &Overlaps;
  Span InjSpan("transducer.inj", Req);
  Span TiSpan("transducer.ti", Req);
  auto Ti = checkTransitionInjectivity(M, S, InjOpts);
  double TiS = TiSpan.close();
  if (!Ti || Ti->has_value())
    return false;
  Span ProjSpan("transducer.outproj", Req);
  auto AO = buildOutputAutomaton(M, S, /*AllowHull=*/true, InjOpts);
  double ProjS = ProjSpan.close();
  if (!AO)
    return false;
  Span TrimSpan("automata.trim", Req);
  auto Trimmed = trim(*AO, S);
  double TrimS = TrimSpan.close();
  if (!Trimmed)
    return false;
  AmbiguityOptions AmbOpts;
  AmbOpts.Jobs = Jobs;
  AmbOpts.Sessions = &Sessions;
  AmbOpts.Overlaps = &Overlaps;
  AmbOpts.Hull = true;
  Span ProductSpan("automata.product", Req);
  auto Amb = checkAmbiguity(*Trimmed, S, AmbOpts);
  double ProductS = ProductSpan.close();
  if (!Amb)
    return false;
  if (Amb->has_value()) {
    // A hull witness the exact round must refute: run the whole check, as
    // the pipeline's CEGAR loop would.
    Span Exact("transducer.inj_exact", Req);
    auto Inj = checkInjectivity(M, S, InjOpts);
    if (!Inj || !Inj->Injective)
      return false;
  }
  InjSpan.close();

  InverterOptions Opts;
  Opts.Jobs = Jobs;
  Inverter Inv(S, Opts);
  Span InvSpan("sygus.invert", Req);
  auto Inverted = Inv.invert(M, P->AuxFuncs);
  InvSpan.close();
  if (!Inverted || !Inverted->complete())
    return false;

  Out.num("parse_s", Parse)
      .num("lower_s", Lower)
      .num("det_pairs", determinismPairList(M).size())
      .num("ti_s", TiS)
      .num("outproj_s", ProjS)
      .num("trim_s", TrimS)
      .num("product_s", ProductS)
      .num("max_rule_s", Inverted->maxRuleSeconds())
      .num("wall_s", Root.close());
  return true;
}

/// Traced run of an invert workload. For each program: the layer probe
/// untraced and traced (their wall-clock difference is the tracing
/// overhead), then InversionEngine::runOnSession — the CLI's pipeline —
/// with a request metrics registry, whose genic-metrics-v1 export is
/// written to OUT.<i>.json. With WPROCS > 0 runOnSession also runs without
/// worker processes, so the difference is the ipc layer's cost.
///
/// The probe runs in-process, so its sub-phase split (ti, outproj, trim,
/// product) is that of the in-process executor. The phase totals det_s,
/// inj_s and invert_s come from the runOnSession report of the workload's
/// own configuration, worker processes included.
int cmdProbe(int Argc, char **Argv) {
  if (Argc < 5)
    return 2;
  std::string OutPrefix = Argv[0];
  unsigned Jobs = std::atoi(Argv[1]);
  unsigned WProcs = std::atoi(Argv[2]);
  std::string WorkerBinary = Argv[3];
  std::vector<std::string> Files(Argv + 4, Argv + Argc);

  double Untraced = 0, Traced = 0;
  bool AllOk = true;
  std::string PerProgram;
  for (size_t I = 0; I != Files.size(); ++I) {
    std::string Source = readFile(Files[I]);
    uint64_t Req = I + 1;
    // Alternate which probe runs first so warm-up does not bias the
    // tracing-overhead comparison.
    Json Discard, Layers;
    bool Ok = true;
    for (bool Trace : {I % 2 == 0, I % 2 != 0}) {
      TheSpans.Enabled = Trace;
      double T0 = nowS();
      Ok = probeLayers(Source, Jobs, Req, Trace ? Layers : Discard) && Ok;
      (Trace ? Traced : Untraced) += nowS() - T0;
    }

    // The workload's own configuration exports its metrics; with worker
    // processes the in-process run is the ipc layer's baseline.
    TheSpans.Enabled = true;
    InversionEngine Engine;
    std::string MetricsPath = OutPrefix + "." + std::to_string(I) + ".json";
    auto RunOnce = [&](unsigned Procs, bool Export) {
      SolverContext Ctx;
      MetricsRegistry Registry;
      RequestContext Rq;
      Rq.Jobs = Jobs;
      Rq.WorkerProcs = Procs;
      Rq.WorkerBinary = WorkerBinary;
      Rq.Metrics = &Registry;
      Span S("engine.runOnSession", Req);
      Result<GenicReport> R = Engine.runOnSession(Ctx, Source, Rq);
      double Wall = S.close();
      if (!R || suggestedExitCode(*R) != ExitOk)
        return -1.0;
      phaseChildren(*R, Req, S.id());
      if (Export) {
        writeFile(MetricsPath, formatMetricsJson(*R, Registry.snapshot()));
        Layers.num("cegis_iters", cegisIterations(*R))
            .num("det_s", R->Timings.DeterminismSeconds)
            .num("inj_s", R->Timings.InjectivitySeconds)
            .num("invert_s", R->Timings.InversionSeconds);
      }
      return Wall;
    };
    double Local = RunOnce(0, WProcs == 0);
    Ok = Ok && Local >= 0;
    if (WProcs) {
      double Remote = RunOnce(WProcs, true);
      Ok = Ok && Remote >= 0;
      Layers.num("ipc_overhead_s", Remote - Local);
    }
    AllOk = AllOk && Ok;
    Layers.num("ok", Ok);
    PerProgram += (PerProgram.empty() ? "" : ",") + Layers.text();
  }
  TheSpans.write(OutPrefix + ".spans");
  Json Summary;
  Summary.num("ok", AllOk)
      .num("untraced_s", Untraced)
      .num("traced_s", Traced)
      .raw("programs", "[" + PerProgram + "]");
  std::printf("%s\n", Summary.text().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// stream
//===----------------------------------------------------------------------===//

struct Codec {
  std::string Name;
  std::optional<CompiledSeft> Machine;
  unsigned InBps = 1;
  std::vector<uint8_t> Input, Expected;
  /// Seeded 1..64-byte feed sizes covering Input.
  std::vector<size_t> SmallFeeds;
};

/// Streams \p C.Input through \p D in \p Feeds (or 64 KiB chunks when
/// empty); returns false when the output differs from the native oracle's.
bool streamOnce(Codec &C, StreamDecoder &D, const std::vector<size_t> *Feeds,
                std::vector<uint8_t> &Sink, uint64_t Req, bool SpanFeeds) {
  D.reset();
  Sink.clear();
  constexpr size_t Bulk = 64 * 1024;
  size_t Pos = 0, K = 0;
  while (Pos < C.Input.size()) {
    size_t N = Feeds ? (*Feeds)[K++] : std::min(Bulk, C.Input.size() - Pos);
    if (SpanFeeds)
      TheSpans.open("runtime.feed", Req);
    bool Ok =
        D.feed(std::span<const uint8_t>(C.Input.data() + Pos, N), Sink)
            .isOk();
    if (SpanFeeds)
      TheSpans.close();
    if (!Ok)
      return false;
    Pos += N;
  }
  Span Finish("runtime.finish", Req);
  return D.finish(Sink).isOk() && Sink == C.Expected;
}

/// The stream-codec workload. Set-up parses and lowers the 14 forward
/// corpus programs, inverts the 7 encoders with InversionEngine, and
/// compiles all 21 machines; the measured part streams a seeded payload
/// through every machine in 64 KiB feeds and in seeded 1..64-byte feeds,
/// whole passes until SECONDS have elapsed. Every output is compared with
/// the corpus's native oracle.
int cmdStream(int Argc, char **Argv) {
  if (Argc != 4)
    return 2;
  uint64_t Seed = std::strtoull(Argv[0], nullptr, 10);
  double Seconds = std::atof(Argv[1]);
  bool Trace = std::atoi(Argv[2]) != 0;
  std::string OutPrefix = Argv[3];
  constexpr unsigned PayloadSymbols = 48 * 1024;
  TheSpans.Enabled = Trace;

  // --- set-up --------------------------------------------------------------
  double SetupStart = nowS();
  uint64_t Req = 1;
  InversionEngine Engine;
  std::vector<Codec> Codecs;
  std::vector<std::unique_ptr<SolverContext>> Keep;
  double CompileS = 0, InvertS = 0, MaxRuleS = 0;
  unsigned CegisIters = 0;
  uint64_t Fused = 0, Rules = 0, Failed = 0, Attempted = 0;
  std::string SetupMetrics;
  for (const CoderSpec &Spec : coderCorpus()) {
    std::mt19937_64 Rng(Seed * 1000003 + Codecs.size());
    Symbols X = Spec.MakeInput(Rng, PayloadSymbols);
    MaybeSymbols Y = Spec.Oracle(X);
    ++Attempted;
    if (!Y) {
      ++Failed;
      continue;
    }
    // Forward machine: the program as written.
    Span Prog("bench.setup_program", Req);
    Keep.push_back(std::make_unique<SolverContext>());
    Span ParseSpan("genic.parse", Req);
    Result<AstProgram> Ast = parseGenic(Spec.Source);
    ParseSpan.close();
    Span LowerSpan("genic.lower", Req);
    Result<LoweredProgram> P =
        Ast ? lowerProgram(Keep.back()->factory(), *Ast)
            : Result<LoweredProgram>(Ast.status());
    LowerSpan.close();
    std::vector<std::pair<const Seft *, bool>> Machines;
    if (P)
      Machines.push_back({&P->Machine, false});
    // Inverse machine of each encoder, synthesized by the engine.
    Result<GenicReport> Inverted = Status::error("not an encoder");
    if (Spec.Variant == "encoder") {
      ++Attempted;
      MetricsRegistry Registry;
      RequestContext Rq;
      Rq.ForceInvert = true;
      Rq.Jobs = 4;
      Rq.Metrics = &Registry;
      Keep.push_back(std::make_unique<SolverContext>());
      Span InvSpan("engine.runOnSession", Req);
      Inverted = Engine.runOnSession(
          *Keep.back(), withoutInjectivityOp(Spec.Source), Rq);
      InvertS += InvSpan.close();
      if (Inverted && Inverted->InverseMachine) {
        phaseChildren(*Inverted, Req, InvSpan.id());
        CegisIters += cegisIterations(*Inverted);
        MaxRuleS += Inverted->Inversion->maxRuleSeconds();
        Machines.push_back({&*Inverted->InverseMachine, true});
        SetupMetrics += (SetupMetrics.empty() ? "" : "\n\x1e\n") +
                        formatMetricsJson(*Inverted, Registry.snapshot());
      } else {
        ++Failed;
      }
    }
    for (auto [M, IsInverse] : Machines) {
      Span CompileSpan("runtime.compile", Req);
      Result<CompiledSeft> Compiled = CompiledSeft::compile(*M);
      CompileS += CompileSpan.close();
      if (!Compiled) {
        ++Failed;
        continue;
      }
      Codec C;
      C.Name = Spec.name() + (IsInverse ? " inverse" : "");
      unsigned InBits = M->inputType().width();
      unsigned OutBits = M->outputType().width();
      C.InBps = InBits / 8;
      // The forward machine reads X and must write Oracle(X); the inverse
      // reads Oracle(X) and must write X.
      const Symbols &In = IsInverse ? *Y : X;
      const Symbols &Want = IsInverse ? X : *Y;
      C.Input = toBytes(In, InBits / 8);
      C.Expected = toBytes(Want, OutBits / 8);
      std::mt19937_64 FeedRng(Seed * 31 + Codecs.size());
      for (size_t Pos = 0; Pos < C.Input.size();) {
        size_t N = std::min<size_t>(1 + FeedRng() % 64, C.Input.size() - Pos);
        C.SmallFeeds.push_back(N);
        Pos += N;
      }
      Fused += Compiled->fusedRules();
      Rules += Compiled->numRules();
      C.Machine.emplace(std::move(*Compiled));
      Codecs.push_back(std::move(C));
    }
    ++Req;
  }
  double SetupS = nowS() - SetupStart;
  writeFile(OutPrefix + ".setup_metrics", SetupMetrics);

  // --- measured passes -----------------------------------------------------
  // A pass streams every codec once in bulk feeds and once in small feeds.
  // Only the first pass is traced: one span per bulk feed, one per codec
  // for the small-feed loop (per-call spans would dwarf 1-byte feeds).
  std::vector<double> BulkS, SmallS, PerStream;
  uint64_t InBytes = 0, RulesFired = 0, FeedCalls = 0, Passes = 0;
  std::vector<uint8_t> Sink;
  double Start = nowS(), CpuStart = cpuSeconds();
  do {
    double Bulk = 0, Small = 0;
    for (Codec &C : Codecs) {
      StreamDecoder D(*C.Machine);
      ++Attempted;
      double T0 = nowS();
      bool Ok;
      {
        Span S("runtime.stream_bulk", Req);
        Ok = streamOnce(C, D, nullptr, Sink, Req, Trace && Passes == 0);
      }
      Bulk += nowS() - T0;
      PerStream.push_back(nowS() - T0);
      if (!Ok)
        ++Failed;
      if (Passes == 0) {
        RulesFired += D.stats().RulesFired;
        FeedCalls += D.stats().Chunks;
        InBytes += C.Input.size();
      }
      ++Attempted;
      T0 = nowS();
      {
        Span S("runtime.stream_small", Req);
        Ok = streamOnce(C, D, &C.SmallFeeds, Sink, Req, false);
      }
      Small += nowS() - T0;
      PerStream.push_back(nowS() - T0);
      if (!Ok)
        ++Failed;
      if (Passes == 0) {
        RulesFired += D.stats().RulesFired;
        FeedCalls += D.stats().Chunks;
      }
      ++Req;
    }
    BulkS.push_back(Bulk);
    SmallS.push_back(Small);
    ++Passes;
    TheSpans.Enabled = false;
  } while (nowS() - Start < Seconds);
  double CpuPerPass = (cpuSeconds() - CpuStart) / Passes;
  if (Trace)
    TheSpans.write(OutPrefix + ".spans");

  auto Median = [](std::vector<double> V) {
    std::sort(V.begin(), V.end());
    size_t N = V.size();
    return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
  };
  // Highest percentile of the per-stream times with at least ten samples
  // beyond it (0 when a run has fewer than 11 streams).
  std::vector<double> Sorted = PerStream;
  std::sort(Sorted.begin(), Sorted.end());
  size_t TailAt = Sorted.size() >= 11 ? Sorted.size() - 11 : 0;
  rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  std::string Bulks, Smalls;
  for (size_t I = 0; I != BulkS.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%s%.9g", I ? "," : "", BulkS[I]);
    Bulks += Buf;
    std::snprintf(Buf, sizeof(Buf), "%s%.9g", I ? "," : "", SmallS[I]);
    Smalls += Buf;
  }
  Json Out;
  Out.num("setup_s", SetupS)
      .num("invert_s", InvertS)
      .num("compile_s", CompileS)
      .num("cegis_iters", CegisIters)
      .num("max_rule_s", MaxRuleS)
      .num("codecs", Codecs.size())
      .num("fused_rules", Fused)
      .num("rules", Rules)
      .num("passes", Passes)
      .num("pass_bytes", InBytes)
      .num("bulk_median_s", Median(BulkS))
      .num("small_median_s", Median(SmallS))
      .raw("bulk_s", "[" + Bulks + "]")
      .raw("small_s", "[" + Smalls + "]")
      .num("rules_fired", RulesFired)
      .num("feed_calls", FeedCalls)
      .num("attempted", Attempted)
      .num("failed", Failed)
      .num("stream_median_s", Median(PerStream))
      .num("streams", PerStream.size())
      .num("stream_tail_pct", Sorted.size() >= 11
                                  ? 100.0 * (TailAt + 1) / Sorted.size()
                                  : 0.0)
      .num("stream_tail_s", Sorted.size() >= 11 ? Sorted[TailAt] : 0.0)
      .num("cpu_s", CpuPerPass)
      .num("peak_rss_mb", RU.ru_maxrss / 1024.0);
  std::printf("%s\n", Out.text().c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Cmd = Argc > 1 ? Argv[1] : "";
  int Rc = 2;
  if (Cmd == "programs")
    Rc = cmdPrograms(Argc - 2, Argv + 2);
  else if (Cmd == "verify")
    Rc = cmdVerify(Argc - 2, Argv + 2);
  else if (Cmd == "probe")
    Rc = cmdProbe(Argc - 2, Argv + 2);
  else if (Cmd == "stream")
    Rc = cmdStream(Argc - 2, Argv + 2);
  if (Rc == 2)
    std::fprintf(stderr,
                 "usage: perfbench-harness programs corpus DIR\n"
                 "       perfbench-harness programs multistate DIR SEED N\n"
                 "       perfbench-harness verify MANIFEST\n"
                 "       perfbench-harness probe OUT JOBS WPROCS WORKER "
                 "FILE...\n"
                 "       perfbench-harness stream SEED SECONDS TRACE OUT\n");
  return Rc;
}
