//===- bench/bench_decode.cpp - Decode throughput: bytecode vs evaluator ---===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MB/s axis next to Table 1's synthesis times: for each coder, invert
/// the program, then decode a large encoded payload twice — once through
/// the recursive term evaluator (Seft::transduceFunctional, the
/// verification path) and once through the compiled streaming runtime
/// (CompiledSeft + StreamDecoder, the deployment path) — and report both
/// throughputs and the speedup. Streaming output is verified byte-identical
/// to the evaluator's on a fresh input at several chunkings before any
/// timing is trusted.
///
/// Throughput counts encoded-stream bytes (the decoder's input), MB = 1e6.
/// The evaluator baseline runs on a smaller payload: transduce() recurses
/// once per fired rule, so evaluator depth — not time — caps its input
/// size. MB/s is size-invariant for both paths (each is a linear sweep).
///
/// With --baseline BENCH_decode.json --max-regress PCT the bench exits 1
/// when a program's bytecode MB/s drops more than PCT% below the committed
/// baseline; a full-corpus run also fails when fewer than 10 of 14 coders
/// reach the 5x speedup bar.
///
//===----------------------------------------------------------------------===//

#include "coders/Corpus.h"
#include "engine/InversionEngine.h"
#include "runtime/StreamDecoder.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

using namespace genic;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Strips the isInjective operation (not needed for inversion; the 32-bit
/// coders' projections take minutes).
std::string withoutInjectivityOp(std::string Source) {
  size_t Pos = Source.find("isInjective");
  if (Pos == std::string::npos)
    return Source;
  size_t End = Source.find('\n', Pos);
  Source.erase(Pos, End == std::string::npos ? End : End - Pos + 1);
  return Source;
}

ValueList toValues(const Symbols &S, unsigned Bits) {
  ValueList Out;
  for (uint64_t V : S)
    Out.push_back(Value::bitVecVal(V, Bits));
  return Out;
}

std::vector<uint8_t> serialize(const ValueList &Symbols, unsigned Bps) {
  std::vector<uint8_t> Bytes;
  Bytes.reserve(Symbols.size() * Bps);
  for (const Value &V : Symbols) {
    uint64_t Raw = V.getBits();
    for (unsigned I = 0; I != Bps; ++I)
      Bytes.push_back(static_cast<uint8_t>(Raw >> (8 * I)));
  }
  return Bytes;
}

/// Times `Body()` until MinSeconds have elapsed (at least once); returns
/// seconds per iteration.
template <typename F> double timeLoop(double MinSeconds, F Body) {
  unsigned Iters = 0;
  double Start = now(), Elapsed = 0;
  do {
    Body();
    ++Iters;
    Elapsed = now() - Start;
  } while (Elapsed < MinSeconds);
  return Elapsed / Iters;
}

/// One-object-per-line JSON mirror of the printed table (same shape as
/// bench_table1's, so readBaselineField-style line slicing works).
class JsonWriter {
public:
  void beginProgram(const std::string &Name) {
    if (!First)
      Body << ",\n";
    First = false;
    Body << "    {\"program\": \"" << Name << "\"";
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

  void write(const std::string &Path, uint64_t Payload, unsigned Total,
             unsigned Fast, double MeanSpeedup) {
    std::ofstream Out(Path);
    char Mean[32];
    std::snprintf(Mean, sizeof(Mean), "%.2f", MeanSpeedup);
    Out << "{\n  \"bench\": \"decode\",\n  \"payloadSymbols\": " << Payload
        << ",\n  \"programs\": [\n" << Body.str()
        << "\n  ],\n  \"summary\": {\"programs\": " << Total
        << ", \"fastCoders\": " << Fast << ", \"meanSpeedup\": " << Mean
        << "}\n}\n";
    std::printf("wrote %s\n", Path.c_str());
  }

private:
  std::ostringstream Body;
  bool First = true;
};

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

/// Streaming parity against the evaluator at several chunkings on a small
/// fresh input; returns false (and prints) on the first mismatch.
bool checkParity(const CoderSpec &Spec, const Seft &Machine,
                 const Seft &Inverse, const CompiledSeft &Compiled) {
  std::mt19937_64 Rng(407);
  for (unsigned Len : {0u, 5u, 64u, 509u}) {
    ValueList Input = toValues(Spec.MakeInput(Rng, Len), Spec.SymbolBits);
    auto Mid = Machine.transduceFunctional(Input);
    if (!Mid)
      return false;
    auto Reference = Inverse.transduceFunctional(*Mid);
    if (!Reference)
      return false;
    for (size_t Chunk : {size_t(1), size_t(7), size_t(4096), size_t(0)}) {
      StreamDecoderOptions Opts;
      Opts.CheckAmbiguity = true;
      StreamDecoder D(Compiled, Opts);
      ValueList Out;
      Status S = Status::ok();
      for (size_t Pos = 0; S.isOk() && Pos < Mid->size();) {
        size_t N = Chunk ? std::min(Chunk, Mid->size() - Pos)
                         : 1 + Rng() % std::min<size_t>(64, Mid->size());
        N = std::min(N, Mid->size() - Pos);
        S = D.feedSymbols(std::span<const Value>(Mid->data() + Pos, N), Out);
        Pos += N;
      }
      if (S.isOk())
        S = D.finishSymbols(Out);
      if (!S.isOk() || Out != *Reference) {
        std::fprintf(stderr,
                     "PARITY MISMATCH: %s len %u chunk %zu: %s\n",
                     Spec.name().c_str(), Len, Chunk,
                     S.isOk() ? "outputs differ" : S.message().c_str());
        return false;
      }
    }
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  // Seft::transduce recurses once per fired rule; encoding the 64Ki-symbol
  // payload with it needs far more than the default 8 MiB of stack.
  struct rlimit RL;
  if (getrlimit(RLIMIT_STACK, &RL) == 0 && RL.rlim_cur != RLIM_INFINITY) {
    RL.rlim_cur = RL.rlim_max == RLIM_INFINITY
                      ? rlim_t{1} << 30
                      : std::min<rlim_t>(RL.rlim_max, rlim_t{1} << 30);
    setrlimit(RLIMIT_STACK, &RL);
  }

  unsigned Jobs = 1;
  std::string JsonPath = "BENCH_decode.json";
  std::string Only, BaselinePath;
  double MaxRegressPct = -1;
  uint64_t PayloadSymbols = 65536;
  uint64_t EvalPayloadSymbols = 8192; // Bounded by evaluator recursion depth.
  double MinSeconds = 0.25;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--jobs") && I + 1 < Argc)
      Jobs = std::max(1, std::atoi(Argv[++I]));
    else if (!std::strcmp(Argv[I], "--json") && I + 1 < Argc)
      JsonPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--only") && I + 1 < Argc)
      Only = Argv[++I];
    else if (!std::strcmp(Argv[I], "--baseline") && I + 1 < Argc)
      BaselinePath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--max-regress") && I + 1 < Argc)
      MaxRegressPct = std::atof(Argv[++I]);
    else if (!std::strcmp(Argv[I], "--payload") && I + 1 < Argc)
      PayloadSymbols = std::strtoull(Argv[++I], nullptr, 10);
    else if (!std::strcmp(Argv[I], "--min-seconds") && I + 1 < Argc)
      MinSeconds = std::atof(Argv[++I]);
    else {
      std::fprintf(stderr,
                   "usage: %s [--jobs N] [--json FILE] [--only SUBSTR]\n"
                   "          [--baseline FILE] [--max-regress PCT]\n"
                   "          [--payload SYMBOLS] [--min-seconds S]\n"
                   "  --baseline     committed BENCH_decode.json to compare "
                   "bytecode MB/s against\n"
                   "  --max-regress  fail (exit 1) when bytecode MB/s drops "
                   "more than PCT%% below the baseline\n",
                   Argv[0]);
      return 2;
    }
  }
  EvalPayloadSymbols = std::min(EvalPayloadSymbols, PayloadSymbols);

  std::printf("Decode throughput: compiled streaming runtime vs term "
              "evaluator (payload %llu symbols)\n\n",
              (unsigned long long)PayloadSymbols);
  std::printf("%-22s %12s %14s %14s %9s %7s\n", "program", "encoded(B)",
              "evaluator MB/s", "bytecode MB/s", "speedup", "parity");

  std::map<std::string, double> Baseline;
  if (!BaselinePath.empty())
    Baseline = readBaselineField(BaselinePath, "bytecodeMBps");
  std::vector<std::string> Regressions;

  JsonWriter Json;
  unsigned Ran = 0, Fast = 0, ParityFailures = 0;
  double SpeedupSum = 0;
  for (const CoderSpec &Spec : coderCorpus()) {
    if (!Only.empty() && Spec.name().find(Only) == std::string::npos)
      continue;
    ++Ran;

    InverterOptions Options;
    Options.Jobs = Jobs;
    GenicTool Tool(Options);
    Result<GenicReport> Report =
        Tool.run(withoutInjectivityOp(Spec.Source), false, true);
    if (!Report || !Report->Inversion || !Report->Inversion->complete()) {
      std::fprintf(stderr, "%s: inversion failed, skipping\n",
                   Spec.name().c_str());
      Json.beginProgram(Spec.name());
      Json.field("parity", false);
      Json.endProgram();
      ++ParityFailures;
      continue;
    }
    const Seft &Machine = *Report->Machine;
    const Seft &Inverse = *Report->InverseMachine;

    double CompileStart = now();
    Result<CompiledSeft> Compiled = CompiledSeft::compile(Inverse);
    double CompileSeconds = now() - CompileStart;
    if (!Compiled) {
      std::fprintf(stderr, "%s: %s\n", Spec.name().c_str(),
                   Compiled.status().message().c_str());
      ++ParityFailures;
      continue;
    }

    bool Parity = checkParity(Spec, Machine, Inverse, *Compiled);
    if (!Parity)
      ++ParityFailures;

    // Payloads. The encoded stream is what both decoders consume.
    std::mt19937_64 Rng(1009);
    ValueList Input =
        toValues(Spec.MakeInput(Rng, (unsigned)PayloadSymbols),
                 Spec.SymbolBits);
    auto Mid = Machine.transduceFunctional(Input);
    ValueList EvalInput =
        toValues(Spec.MakeInput(Rng, (unsigned)EvalPayloadSymbols),
                 Spec.SymbolBits);
    auto EvalMid = Machine.transduceFunctional(EvalInput);
    if (!Mid || !EvalMid) {
      std::fprintf(stderr, "%s: machine rejected its own sampler's input\n",
                   Spec.name().c_str());
      ++ParityFailures;
      continue;
    }
    unsigned InBps = Inverse.inputType().width() / 8;
    uint64_t EncodedBytes = Mid->size() * InBps;
    uint64_t EvalEncodedBytes = EvalMid->size() * InBps;

    // Evaluator baseline: whole-input transduction, smaller payload (see
    // file comment).
    double EvalSeconds = timeLoop(MinSeconds, [&] {
      auto Out = Inverse.transduceFunctional(*EvalMid);
      if (!Out || Out->size() != EvalInput.size())
        std::abort(); // Timing a wrong decode would be meaningless.
    });
    double EvalMBps = EvalEncodedBytes / EvalSeconds / 1e6;

    // Streaming runtime: byte API in 64 KiB chunks (symbol API where the
    // alphabet is not byte-framable).
    std::vector<uint8_t> MidBytes = serialize(*Mid, InBps);
    constexpr size_t FeedChunk = 64 * 1024;
    StreamDecoder Decoder(*Compiled);
    std::vector<uint8_t> ByteSink;
    ValueList SymbolSink;
    double StreamSeconds = timeLoop(MinSeconds, [&] {
      Decoder.reset();
      bool Ok = true;
      if (InBps != 0) {
        ByteSink.clear();
        for (size_t Pos = 0; Ok && Pos < MidBytes.size(); Pos += FeedChunk) {
          size_t N = std::min(FeedChunk, MidBytes.size() - Pos);
          Ok = Decoder
                   .feed(std::span<const uint8_t>(MidBytes.data() + Pos, N),
                         ByteSink)
                   .isOk();
        }
        Ok = Ok && Decoder.finish(ByteSink).isOk();
      } else {
        SymbolSink.clear();
        for (size_t Pos = 0; Ok && Pos < Mid->size(); Pos += FeedChunk) {
          size_t N = std::min(FeedChunk, Mid->size() - Pos);
          Ok = Decoder
                   .feedSymbols(
                       std::span<const Value>(Mid->data() + Pos, N),
                       SymbolSink)
                   .isOk();
        }
        Ok = Ok && Decoder.finishSymbols(SymbolSink).isOk();
      }
      if (!Ok)
        std::abort(); // Same: a failed decode must not be timed.
    });
    double StreamMBps = EncodedBytes / StreamSeconds / 1e6;
    double Speedup = StreamMBps / EvalMBps;
    SpeedupSum += Speedup;
    Fast += Speedup >= 5.0 ? 1 : 0;

    std::printf("%-22s %12llu %14.2f %14.2f %8.1fx %7s\n",
                Spec.name().c_str(), (unsigned long long)EncodedBytes,
                EvalMBps, StreamMBps, Speedup, Parity ? "ok" : "FAIL");

    Json.beginProgram(Spec.name());
    Json.field("encodedBytes", EncodedBytes);
    Json.field("compileSeconds", CompileSeconds);
    Json.field("evaluatorMBps", EvalMBps);
    Json.field("bytecodeMBps", StreamMBps);
    Json.field("speedup", Speedup);
    Json.field("parity", Parity);
    Json.field("rulesFired", Decoder.stats().RulesFired);
    Json.field("rulesFused", uint64_t(Compiled->fusedRules()));
    Json.field("rulesTotal", uint64_t(Compiled->numRules()));
    Json.endProgram();

    auto BaseIt = Baseline.find(Spec.name());
    if (BaseIt != Baseline.end() && MaxRegressPct >= 0) {
      // Throughput gate: lower is worse. Small absolute slack so coders in
      // the single-MB/s range don't trip on scheduler noise.
      double Bound = BaseIt->second * (1 - MaxRegressPct / 100) - 0.5;
      if (StreamMBps < Bound) {
        char Buf[160];
        std::snprintf(Buf, sizeof(Buf),
                      "%s: bytecode %.2f MB/s below baseline %.2f MB/s "
                      "(bound %.2f)",
                      Spec.name().c_str(), StreamMBps, BaseIt->second, Bound);
        Regressions.push_back(Buf);
      }
    }
  }

  if (Ran == 0) {
    std::fprintf(stderr, "no program matches --only %s\n", Only.c_str());
    return 2;
  }
  std::printf("\nsummary: %u/%u coders at >= 5x over the evaluator; mean "
              "speedup %.1fx\n",
              Fast, Ran, SpeedupSum / Ran);
  Json.write(JsonPath, PayloadSymbols, Ran, Fast, SpeedupSum / Ran);
  for (const std::string &R : Regressions)
    std::fprintf(stderr, "REGRESSION: %s\n", R.c_str());
  if (ParityFailures) {
    std::fprintf(stderr, "%u parity failures\n", ParityFailures);
    return 1;
  }
  // The acceptance bar only binds when the whole corpus ran.
  if (Only.empty() && Ran == coderCorpus().size() && Fast < 10) {
    std::fprintf(stderr,
                 "FAIL: only %u/%u coders reached the 5x speedup bar\n",
                 Fast, Ran);
    return 1;
  }
  return Regressions.empty() ? 0 : 1;
}
