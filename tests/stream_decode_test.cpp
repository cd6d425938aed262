//===- tests/stream_decode_test.cpp - Streaming decode vs the evaluator ---===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The correctness bar of the streaming decode runtime: for every Table-1
/// coder (and the synthetic Int corpus), chunked bytecode decoding through
/// StreamDecoder is byte-identical to whole-input term evaluation through
/// Seft::transduce — same outputs on valid inputs, same rejections on
/// malformed ones — at every chunking (1, 7, 4096, random splits). The
/// per-coder suites run with CheckAmbiguity on, so any live violation of
/// the Def. 3.7 assumptions behind greedy dispatch fails loudly instead of
/// silently diverging.
///
/// Suites: StreamParity/* needs the full inversion pipeline (solver);
/// StreamDecoderUnit.* and StreamDecodeSynthetic.* cover the runtime on
/// hand-built and synthetic machines. CI's sanitizer stages filter to
/// the cheap suites plus one corpus row.
///
//===----------------------------------------------------------------------===//

#include "runtime/StreamDecoder.h"

#include "coders/Corpus.h"
#include "runtime/FusedRule.h"
#include "coders/Synthetic.h"
#include "engine/InversionEngine.h"
#include "term/TermFactory.h"

#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <thread>
#include <type_traits>

using namespace genic;

namespace {

ValueList toValues(const Symbols &S, unsigned Bits) {
  ValueList Out;
  for (uint64_t V : S)
    Out.push_back(Value::bitVecVal(V, Bits));
  return Out;
}

/// Strips the isInjective operation from a program's source (the 32-bit
/// coders' image projections take minutes; inversion does not need them).
std::string withoutInjectivityOp(std::string Source) {
  size_t Pos = Source.find("isInjective");
  if (Pos == std::string::npos)
    return Source;
  size_t End = Source.find('\n', Pos);
  Source.erase(Pos, End == std::string::npos ? End : End - Pos + 1);
  return Source;
}

/// Decodes \p Input through a fresh StreamDecoder, splitting it into the
/// chunk sizes \p Cuts yields (a callback so callers can do fixed-size or
/// random splits). Returns the concatenated output and the final status.
template <typename NextCut>
std::pair<ValueList, Status> streamDecode(const CompiledSeft &M,
                                          const ValueList &Input,
                                          NextCut Cuts,
                                          StreamDecoderOptions Opts = {}) {
  StreamDecoder D(M, std::move(Opts));
  ValueList Out;
  size_t Pos = 0;
  while (Pos < Input.size()) {
    size_t N = std::min(Input.size() - Pos, std::max<size_t>(1, Cuts()));
    Status S = D.feedSymbols(
        std::span<const Value>(Input.data() + Pos, N), Out);
    if (!S.isOk())
      return {Out, S};
    Pos += N;
  }
  return {Out, D.finishSymbols(Out)};
}

std::pair<ValueList, Status> streamDecodeChunked(const CompiledSeft &M,
                                                 const ValueList &Input,
                                                 size_t Chunk,
                                                 StreamDecoderOptions Opts = {}) {
  return streamDecode(M, Input, [Chunk] { return Chunk; }, std::move(Opts));
}

/// Byte-API variant over a whole byte string split into \p Chunk-sized
/// feeds.
std::pair<std::vector<uint8_t>, Status>
streamDecodeBytes(const CompiledSeft &M, const std::vector<uint8_t> &Input,
                  size_t Chunk, StreamDecoderOptions Opts = {}) {
  StreamDecoder D(M, std::move(Opts));
  std::vector<uint8_t> Out;
  for (size_t Pos = 0; Pos < Input.size(); Pos += Chunk) {
    size_t N = std::min(Chunk, Input.size() - Pos);
    Status S =
        D.feed(std::span<const uint8_t>(Input.data() + Pos, N), Out);
    if (!S.isOk())
      return {Out, S};
  }
  return {Out, D.finish(Out)};
}

std::vector<uint8_t> serialize(const ValueList &Symbols, unsigned Bps) {
  std::vector<uint8_t> Bytes;
  for (const Value &V : Symbols) {
    uint64_t Raw = V.getBits();
    for (unsigned I = 0; I != Bps; ++I)
      Bytes.push_back(static_cast<uint8_t>(Raw >> (8 * I)));
  }
  return Bytes;
}

// ---------------------------------------------------------------------------
// Corpus differential fuzz: every coder, every chunking
// ---------------------------------------------------------------------------

class StreamParity : public ::testing::TestWithParam<size_t> {
protected:
  const CoderSpec &spec() const { return coderCorpus()[GetParam()]; }
};

std::string parityName(const ::testing::TestParamInfo<size_t> &Info) {
  std::string Name = coderCorpus()[Info.param].name();
  for (char &C : Name)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

TEST_P(StreamParity, MatchesEvaluatorAtAllChunkings) {
  const CoderSpec &Spec = spec();
  GenicTool Tool;
  Result<GenicReport> Report =
      Tool.run(withoutInjectivityOp(Spec.Source), false, true);
  ASSERT_TRUE(Report.isOk()) << Report.status().message();
  ASSERT_TRUE(Report->Inversion && Report->Inversion->complete());
  const Seft &Machine = *Report->Machine;
  const Seft &Inverse = *Report->InverseMachine;

  Result<CompiledSeft> Compiled = CompiledSeft::compile(Inverse);
  ASSERT_TRUE(Compiled.isOk()) << Compiled.status().message();
  StreamDecoderOptions Checked;
  Checked.CheckAmbiguity = true;

  unsigned InBps = Inverse.inputType().width() / 8;
  unsigned OutBps = Inverse.outputType().width() / 8;

  std::mt19937_64 Rng(101 + GetParam());
  for (unsigned Len : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 12u, 31u, 64u}) {
    ValueList Input = toValues(Spec.MakeInput(Rng, Len), Spec.SymbolBits);
    auto Mid = Machine.transduceFunctional(Input);
    ASSERT_TRUE(Mid.has_value());
    auto Reference = Inverse.transduceFunctional(*Mid);
    ASSERT_TRUE(Reference.has_value());

    for (size_t Chunk : {size_t(1), size_t(7), size_t(4096)}) {
      auto [Out, S] = streamDecodeChunked(*Compiled, *Mid, Chunk, Checked);
      EXPECT_TRUE(S.isOk()) << Spec.name() << " len " << Len << " chunk "
                            << Chunk << ": " << S.message();
      EXPECT_EQ(Out, *Reference) << Spec.name() << " len " << Len
                                 << " chunk " << Chunk;
    }
    auto [Out, S] = streamDecode(
        *Compiled, *Mid, [&Rng] { return Rng() % 9; }, Checked);
    EXPECT_TRUE(S.isOk()) << S.message();
    EXPECT_EQ(Out, *Reference) << Spec.name() << " random splits";

    // Byte-API parity under the little-endian framing.
    std::vector<uint8_t> MidBytes = serialize(*Mid, InBps);
    for (size_t Chunk : {size_t(1), size_t(7), size_t(4096)}) {
      auto [OutBytes, BS] =
          streamDecodeBytes(*Compiled, MidBytes, Chunk, Checked);
      EXPECT_TRUE(BS.isOk()) << BS.message();
      EXPECT_EQ(OutBytes, serialize(*Reference, OutBps))
          << Spec.name() << " byte chunk " << Chunk;
    }

    // A stream ending inside a symbol frame is rejected, not truncated.
    if (InBps > 1 && !MidBytes.empty()) {
      std::vector<uint8_t> Torn(MidBytes.begin(), MidBytes.end() - 1);
      auto [OutBytes, BS] = streamDecodeBytes(*Compiled, Torn, 4096);
      EXPECT_FALSE(BS.isOk()) << Spec.name() << ": torn frame accepted";
    }
  }

  // Rejection parity: random (mostly malformed) inputs are rejected by the
  // stream exactly when the evaluator rejects them — and accepted ones
  // produce identical output.
  unsigned Bits = Inverse.inputType().width();
  unsigned Rejected = 0;
  for (int Trial = 0; Trial < 60; ++Trial) {
    ValueList In;
    unsigned Len = Rng() % 9;
    for (unsigned I = 0; I < Len; ++I)
      In.push_back(Value::bitVecVal(Rng() % 3 ? 0x20 + Rng() % 0x60
                                              : Rng(),
                                    Bits));
    auto Reference = Inverse.transduce(In, 2);
    auto [Out, S] = streamDecodeChunked(*Compiled, In, 3, Checked);
    if (Reference.empty()) {
      EXPECT_FALSE(S.isOk())
          << Spec.name() << ": stream accepted " << toString(In)
          << " which the evaluator rejects";
      ++Rejected;
    } else {
      EXPECT_TRUE(S.isOk()) << S.message();
      EXPECT_EQ(Out, Reference.front()) << Spec.name();
    }
  }
  if (Spec.Variant == "encoder")
    EXPECT_GT(Rejected, 0u) << "sampling produced no invalid inputs";
}

INSTANTIATE_TEST_SUITE_P(AllCoders, StreamParity,
                         ::testing::Range<size_t>(0, 14), parityName);

// ---------------------------------------------------------------------------
// Synthetic Int corpus (symbol API; no byte framing exists for Int)
// ---------------------------------------------------------------------------

TEST(StreamDecodeSynthetic, StFamilyAndRandomLiaParity) {
  std::mt19937_64 Rng(23);
  std::vector<std::string> Sources = {makeStProgram(1), makeStProgram(3)};
  for (uint64_t Seed = 0; Seed < 4; ++Seed)
    Sources.push_back(makeRandomLiaProgram(Seed, 1 + Seed % 4));

  for (const std::string &Source : Sources) {
    GenicTool Tool;
    Result<GenicReport> Report = Tool.run(Source, false, true);
    ASSERT_TRUE(Report.isOk()) << Report.status().message();
    if (!Report->Inversion || !Report->Inversion->complete())
      continue; // Synthetic negatives are not this test's concern.
    const Seft &Machine = *Report->Machine;
    const Seft &Inverse = *Report->InverseMachine;
    Result<CompiledSeft> Compiled = CompiledSeft::compile(Inverse);
    ASSERT_TRUE(Compiled.isOk()) << Compiled.status().message();
    StreamDecoderOptions Checked;
    Checked.CheckAmbiguity = true;

    for (int Trial = 0; Trial < 25; ++Trial) {
      ValueList In;
      unsigned Triples = Rng() % 5;
      for (unsigned I = 0; I < Triples; ++I) {
        In.push_back(Value::intVal(Rng() % 100));
        In.push_back(Value::intVal(static_cast<int64_t>(Rng() % 200) - 100));
        In.push_back(Value::intVal(static_cast<int64_t>(Rng() % 200) - 100));
      }
      auto Mid = Machine.transduceFunctional(In);
      if (!Mid)
        continue;
      auto Reference = Inverse.transduceFunctional(*Mid);
      ASSERT_TRUE(Reference.has_value());
      for (size_t Chunk : {size_t(1), size_t(2), size_t(4096)}) {
        auto [Out, S] = streamDecodeChunked(*Compiled, *Mid, Chunk, Checked);
        EXPECT_TRUE(S.isOk()) << S.message() << "\n" << Source;
        EXPECT_EQ(Out, *Reference) << Source;
      }
      auto [Out, S] = streamDecode(
          *Compiled, *Mid, [&Rng] { return Rng() % 4; }, Checked);
      EXPECT_TRUE(S.isOk()) << S.message();
      EXPECT_EQ(Out, *Reference);
    }

    // Int alphabets have no byte framing: the byte API must refuse.
    if (&Source == &Sources.front()) {
      StreamDecoder D(*Compiled);
      std::vector<uint8_t> Sink;
      std::vector<uint8_t> Junk = {1, 2, 3};
      Status S = D.feed(Junk, Sink);
      EXPECT_FALSE(S.isOk());
      EXPECT_EQ(S.code(), StatusCode::Error);
    }
  }
}

// ---------------------------------------------------------------------------
// Unit coverage on hand-built machines (no solver needed)
// ---------------------------------------------------------------------------

class StreamDecoderUnit : public ::testing::Test {
protected:
  TermFactory F;
  Type I = Type::intTy();
  TermRef X0 = F.mkVar(0, I);
  TermRef X1 = F.mkVar(1, I);

  /// Example 4.5's machine: a lookahead-1 chain competing with a
  /// lookahead-2 finalizer under disjoint guards — exactly the shape the
  /// greedy dispatch argument covers.
  Seft example45() {
    Seft A(2, 0, I, I);
    A.addTransition({0, 1, 1, F.mkIntOp(Op::IntGt, X0, F.mkInt(0)),
                     {F.mkIntOp(Op::IntSub, X0, F.mkInt(5))}});
    A.addTransition({1, Seft::FinalState, 1,
                     F.mkIntOp(Op::IntGt, X0, F.mkInt(0)),
                     {F.mkIntOp(Op::IntSub, X0, F.mkInt(5))}});
    A.addTransition({0, Seft::FinalState, 2,
                     F.mkAnd(F.mkIntOp(Op::IntLt, X0, F.mkInt(0)),
                             F.mkIntOp(Op::IntLt, X1, F.mkInt(0))),
                     {F.mkIntOp(Op::IntAdd, X0, F.mkInt(5)),
                      F.mkIntOp(Op::IntAdd, X1, F.mkInt(5))}});
    return A;
  }

  /// A byte-alphabet identity machine with a lookahead-0 finalizer.
  Seft byteIdentity() {
    Type B = Type::bitVecTy(8);
    Seft A(1, 0, B, B);
    TermRef V0 = F.mkVar(0, B);
    A.addTransition({0, 0, 1, F.mkTrue(), {V0}});
    A.addTransition({0, Seft::FinalState, 0, F.mkTrue(), {}});
    return A;
  }

  static ValueList ints(std::initializer_list<int64_t> Vs) {
    ValueList L;
    for (int64_t V : Vs)
      L.push_back(Value::intVal(V));
    return L;
  }
};

TEST_F(StreamDecoderUnit, MatchesTransduceOnExample45) {
  Seft A = example45();
  Result<CompiledSeft> C = CompiledSeft::compile(A);
  ASSERT_TRUE(C.isOk());
  for (const ValueList &In :
       {ints({5, 5}), ints({-5, -5}), ints({7, 9}), ints({}), ints({5}),
        ints({5, -5}), ints({-5, 5}), ints({5, 5, 5}), ints({0, 0})}) {
    auto Reference = A.transduce(In, 2);
    for (size_t Chunk : {size_t(1), size_t(2), size_t(16)}) {
      auto [Out, S] = streamDecodeChunked(*C, In, Chunk);
      if (Reference.empty())
        EXPECT_FALSE(S.isOk()) << toString(In);
      else {
        EXPECT_TRUE(S.isOk()) << toString(In) << ": " << S.message();
        EXPECT_EQ(Out, Reference.front()) << toString(In);
      }
    }
  }
}

TEST_F(StreamDecoderUnit, CarriedStateStaysWithinLookahead) {
  // A looping lookahead-3 machine: symbol-at-a-time feeding parks at most
  // lookahead-1 symbols between pumps, however long the stream runs.
  Seft A(1, 0, I, I);
  TermRef X2 = F.mkVar(2, I);
  A.addTransition({0, 0, 3, F.mkTrue(), {X0, X1, X2}});
  A.addTransition({0, Seft::FinalState, 0, F.mkTrue(), {}});
  Result<CompiledSeft> C = CompiledSeft::compile(A);
  ASSERT_TRUE(C.isOk());
  EXPECT_EQ(C->lookahead(), 3u);
  StreamDecoder D(*C);
  ValueList Out;
  for (int I = 0; I < 300; ++I) {
    Value V = Value::intVal(I);
    ASSERT_TRUE(D.feedSymbols(std::span<const Value>(&V, 1), Out).isOk());
    EXPECT_LT(D.carriedSymbols(), size_t(C->lookahead()));
  }
}

TEST_F(StreamDecoderUnit, ResetClearsErrorAndState) {
  Seft A = example45();
  Result<CompiledSeft> C = CompiledSeft::compile(A);
  ASSERT_TRUE(C.isOk());
  StreamDecoder D(*C);
  ValueList Out;
  // 0 passes no guard; with StallBound(p)=3 symbols buffered the reject is
  // definite mid-stream, before any finish().
  ValueList Bad = ints({0, 0, 0});
  EXPECT_FALSE(D.feedSymbols(Bad, Out).isOk());
  // Sticky: the same error again.
  EXPECT_FALSE(D.feedSymbols(Bad, Out).isOk());
  D.reset();
  Out.clear();
  ValueList Good = ints({7, 9});
  ASSERT_TRUE(D.feedSymbols(Good, Out).isOk());
  ASSERT_TRUE(D.finishSymbols(Out).isOk());
  EXPECT_EQ(Out, ints({2, 4}));
  EXPECT_TRUE(D.finished());
  EXPECT_EQ(D.stats().SymbolsIn, 2u);
  EXPECT_EQ(D.stats().SymbolsOut, 2u);
  // The stream is closed: feeding again is an error until reset().
  EXPECT_FALSE(D.feedSymbols(Good, Out).isOk());
}

TEST_F(StreamDecoderUnit, ByteApiFramesAndCountsBytes) {
  Seft A = byteIdentity();
  Result<CompiledSeft> C = CompiledSeft::compile(A);
  ASSERT_TRUE(C.isOk());
  MetricsRegistry Registry;
  StreamDecoderOptions Opts;
  Opts.Metrics = &Registry;
  StreamDecoder D(*C, Opts);
  std::vector<uint8_t> In = {'a', 'b', 'c'}, Out;
  ASSERT_TRUE(D.feed(In, Out).isOk());
  ASSERT_TRUE(D.finish(Out).isOk());
  EXPECT_EQ(Out, In);
  EXPECT_EQ(D.stats().BytesIn, 3u);
  EXPECT_EQ(D.stats().BytesOut, 3u);
  EXPECT_EQ(D.stats().Chunks, 1u);
  MetricsSnapshot Snap = Registry.snapshot();
  EXPECT_EQ(Snap.Counters["decode.bytes"], 3u);
  EXPECT_EQ(Snap.Counters["decode.symbols"], 3u);
  EXPECT_EQ(Snap.Histograms["decode.chunk.us"].Count, 1u);
}

TEST_F(StreamDecoderUnit, TypeMismatchedSymbolIsAnError) {
  Seft A = byteIdentity();
  Result<CompiledSeft> C = CompiledSeft::compile(A);
  ASSERT_TRUE(C.isOk());
  StreamDecoder D(*C);
  ValueList Out;
  ValueList Wrong = ints({1});
  Status S = D.feedSymbols(Wrong, Out);
  EXPECT_FALSE(S.isOk());
  EXPECT_EQ(S.code(), StatusCode::Error);
}

TEST_F(StreamDecoderUnit, AmbiguityCheckCatchesConflictingRules) {
  // Two always-true rules with different outputs: a Def. 3.7 violation the
  // greedy dispatch would silently paper over.
  Seft A(1, 0, I, I);
  A.addTransition({0, 0, 1, F.mkTrue(), {X0}});
  A.addTransition({0, 0, 1, F.mkTrue(), {F.mkIntOp(Op::IntAdd, X0,
                                                   F.mkInt(1))}});
  A.addTransition({0, Seft::FinalState, 0, F.mkTrue(), {}});
  Result<CompiledSeft> C = CompiledSeft::compile(A);
  ASSERT_TRUE(C.isOk());

  ValueList In = ints({4});
  ValueList Out;
  // Greedy mode fires the first rule and moves on.
  StreamDecoder Greedy(*C);
  ASSERT_TRUE(Greedy.feedSymbols(In, Out).isOk());
  EXPECT_EQ(Out, ints({4}));
  // Checked mode reports the conflict.
  StreamDecoderOptions Opts;
  Opts.CheckAmbiguity = true;
  StreamDecoder Checked(*C, Opts);
  Out.clear();
  Status S = Checked.feedSymbols(In, Out);
  ASSERT_FALSE(S.isOk());
  EXPECT_NE(S.message().find("ambiguous"), std::string::npos) << S.message();
}

TEST_F(StreamDecoderUnit, CancellationDegradesToPartialOutput) {
  Seft A = byteIdentity();
  Result<CompiledSeft> C = CompiledSeft::compile(A);
  ASSERT_TRUE(C.isOk());

  CancellationToken Token((Deadline::never()));
  StreamDecoderOptions Opts;
  Opts.Cancel = Token;
  StreamDecoder D(*C, Opts);
  std::vector<uint8_t> In = {'x', 'y'}, Out;
  ASSERT_TRUE(D.feed(In, Out).isOk());
  EXPECT_EQ(Out.size(), 2u);

  // Budget exhausted mid-stream: the next feed fails Cancelled, output
  // produced so far stands, and the failure is sticky.
  Token.cancel();
  Status S = D.feed(In, Out);
  EXPECT_FALSE(S.isOk());
  EXPECT_EQ(S.code(), StatusCode::Cancelled);
  EXPECT_TRUE(S.isBudget());
  EXPECT_EQ(Out.size(), 2u);
  std::vector<uint8_t> Sink;
  EXPECT_EQ(D.finish(Sink).code(), StatusCode::Cancelled);

  // An already-expired deadline cancels before any work.
  StreamDecoderOptions Expired;
  Expired.Cancel = CancellationToken(Deadline::after(0));
  StreamDecoder D2(*C, Expired);
  Out.clear();
  EXPECT_EQ(D2.feed(In, Out).code(), StatusCode::Cancelled);
  EXPECT_TRUE(Out.empty());
}

TEST_F(StreamDecoderUnit, InPumpCancellationInterruptsOneFeed) {
  // The periodic in-pump check: cancel the shared token from another
  // thread while one large feed is running. The feed must come back
  // Cancelled with only a prefix of the output produced. The input is big
  // enough (8M rule firings) that the 10ms-delayed cancel always lands
  // mid-pump.
  Seft A = byteIdentity();
  Result<CompiledSeft> C = CompiledSeft::compile(A);
  ASSERT_TRUE(C.isOk());
  // Pre-built symbols so the feed's time is all pump (the byte-framing
  // loop would otherwise absorb the cancellation into the entry check).
  ValueList Big(8u << 20, Value::bitVecVal('z', 8)), Out;

  CancellationToken Token((Deadline::never()));
  StreamDecoderOptions Opts;
  Opts.Cancel = Token;
  StreamDecoder D(*C, Opts);
  std::thread Canceller([Token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Token.cancel();
  });
  Status S = D.feedSymbols(Big, Out);
  Canceller.join();
  EXPECT_EQ(S.code(), StatusCode::Cancelled);
  EXPECT_TRUE(S.isBudget());
  // Partial output: something was decoded, but not everything.
  EXPECT_GT(Out.size(), 0u);
  EXPECT_LT(Out.size(), Big.size());

  // A live token lets the same feed run to completion.
  Out.clear();
  StreamDecoder Live(*C);
  ASSERT_TRUE(Live.feedSymbols(Big, Out).isOk());
  EXPECT_EQ(Out.size(), Big.size());
  EXPECT_EQ(Live.stats().RulesFired, Big.size());
}

TEST_F(StreamDecoderUnit, FeedAfterFinishDoesNotTouchByteState) {
  // A 16-bit alphabet exercises the partial-symbol carry; a feed rejected
  // for coming after finish() must not count bytes or park any in it.
  Type B16 = Type::bitVecTy(16);
  Seft A(1, 0, B16, B16);
  TermRef V0 = F.mkVar(0, B16);
  A.addTransition({0, 0, 1, F.mkTrue(), {V0}});
  A.addTransition({0, Seft::FinalState, 0, F.mkTrue(), {}});
  Result<CompiledSeft> C = CompiledSeft::compile(A);
  ASSERT_TRUE(C.isOk());
  StreamDecoder D(*C);
  std::vector<uint8_t> In = {1, 2}, Out;
  ASSERT_TRUE(D.feed(In, Out).isOk());
  ASSERT_TRUE(D.finish(Out).isOk());
  std::vector<uint8_t> Odd = {3};
  EXPECT_FALSE(D.feed(Odd, Out).isOk());
  EXPECT_EQ(D.stats().BytesIn, 2u);
  EXPECT_EQ(Out, In);
}

TEST_F(StreamDecoderUnit, CompiledMachinesSurviveVectorGrowth) {
  // Rules point into the machine's fused-program store, so a growing
  // vector must move machines, never copy them.
  static_assert(!std::is_copy_constructible_v<CompiledSeft>);
  Seft A = example45();
  std::vector<CompiledSeft> Machines;
  for (unsigned K = 0; K != 9; ++K) {
    Result<CompiledSeft> C = CompiledSeft::compile(A);
    ASSERT_TRUE(C.isOk());
    Machines.push_back(std::move(*C));
  }
  ValueList In = ints({5, 5});
  auto Reference = A.transduce(In, 2);
  ASSERT_EQ(Reference.size(), 1u);
  for (const CompiledSeft &M : Machines) {
    auto [Out, S] = streamDecodeChunked(M, In, 1);
    EXPECT_TRUE(S.isOk()) << S.message();
    EXPECT_EQ(Out, Reference.front());
  }
}

// ---------------------------------------------------------------------------
// Fused-tier regression: no branch fusion across a jump join
// ---------------------------------------------------------------------------

TEST_F(StreamDecoderUnit, IteGuardElseTailBranchesOnBothPaths) {
  // guard = ite(x0 > 0, x1 > 10, x1 < 0): the else-arm's trailing compare
  // sits immediately before the then-arm's join, so the branch on the
  // guard's value must not fuse into it — the then path would jump past
  // the fused branch with its own boolean stranded on the stack and fire
  // the rule on a false guard.
  TermRef Guard = F.mkIte(F.mkIntOp(Op::IntGt, X0, F.mkInt(0)),
                          F.mkIntOp(Op::IntGt, X1, F.mkInt(10)),
                          F.mkIntOp(Op::IntLt, X1, F.mkInt(0)));
  std::vector<TermRef> Outputs = {F.mkIntOp(Op::IntAdd, X0, X1)};
  std::optional<FusedRuleProgram> P = fuseRule(Guard, Outputs, 2, I);
  ASSERT_TRUE(P.has_value());

  auto Run = [&](int64_t A, int64_t B) {
    Value Window[2] = {Value::intVal(A), Value::intVal(B)};
    std::vector<uint64_t> Stack(P->StackDepth);
    ValueList Out;
    bool Fired = runFusedRule(*P, Window, Out, Stack.data());
    return std::make_pair(Fired, Out);
  };
  auto [FiredTT, OutTT] = Run(5, 20); // cond true, then true: fires.
  EXPECT_TRUE(FiredTT);
  EXPECT_EQ(OutTT, ints({25}));
  auto [FiredTF, OutTF] = Run(5, 3); // cond true, then false: no fire.
  EXPECT_FALSE(FiredTF);
  EXPECT_TRUE(OutTF.empty());
  auto [FiredFT, OutFT] = Run(-1, -5); // cond false, else true: fires.
  EXPECT_TRUE(FiredFT);
  EXPECT_EQ(OutFT, ints({-6}));
  auto [FiredFF, OutFF] = Run(-1, 5); // cond false, else false: no fire.
  EXPECT_FALSE(FiredFF);
  EXPECT_TRUE(OutFF.empty());
}

TEST_F(StreamDecoderUnit, IteGuardMachineMatchesTransduce) {
  // The same join shape end-to-end: a machine whose guard rejection goes
  // through the fused tier must reject exactly like the evaluator.
  Seft A(1, 0, I, I);
  TermRef Guard = F.mkIte(F.mkIntOp(Op::IntGt, X0, F.mkInt(0)),
                          F.mkIntOp(Op::IntGt, X1, F.mkInt(10)),
                          F.mkIntOp(Op::IntLt, X1, F.mkInt(0)));
  A.addTransition({0, 0, 2, Guard, {F.mkIntOp(Op::IntAdd, X0, X1)}});
  A.addTransition({0, Seft::FinalState, 0, F.mkTrue(), {}});
  Result<CompiledSeft> C = CompiledSeft::compile(A);
  ASSERT_TRUE(C.isOk());
  for (const ValueList &In :
       {ints({5, 20}), ints({5, 3}), ints({-1, -5}), ints({-1, 5}),
        ints({5, 20, -1, -5}), ints({5, 3, 5, 20}), ints({})}) {
    auto Reference = A.transduce(In, 2);
    for (size_t Chunk : {size_t(1), size_t(2)}) {
      auto [Out, S] = streamDecodeChunked(*C, In, Chunk);
      if (Reference.empty())
        EXPECT_FALSE(S.isOk()) << toString(In);
      else {
        EXPECT_TRUE(S.isOk()) << toString(In) << ": " << S.message();
        EXPECT_EQ(Out, Reference.front()) << toString(In);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Unfused rules run through eval()
// ---------------------------------------------------------------------------

TEST_F(StreamDecoderUnit, UnfusedRuleMatchesTransduce) {
  // ite(x0 == 0, x5 == 1, true) at lookahead 1 reads x5, outside the rule
  // window, on the branch taken when x0 == 0: there the guard is undefined
  // and the rule does not fire. fuseRule rejects out-of-window variables,
  // so this rule runs through eval() while its lookahead-2 sibling (for
  // x0 == 0, x1 == 7) fuses.
  Seft A(1, 0, I, I);
  TermRef X5 = F.mkVar(5, I);
  TermRef Unfused = F.mkIte(F.mkEq(X0, F.mkInt(0)), F.mkEq(X5, F.mkInt(1)),
                            F.mkTrue());
  A.addTransition({0, 0, 1, Unfused, {F.mkIntOp(Op::IntAdd, X0, F.mkInt(1))}});
  A.addTransition({0, 0, 2,
                   F.mkAnd(F.mkEq(X0, F.mkInt(0)), F.mkEq(X1, F.mkInt(7))),
                   {F.mkIntOp(Op::IntSub, X1, X0), X0}});
  A.addTransition({0, Seft::FinalState, 0, F.mkTrue(), {}});
  Result<CompiledSeft> C = CompiledSeft::compile(A);
  ASSERT_TRUE(C.isOk());
  EXPECT_EQ(C->numRules(), 3u);
  EXPECT_LT(C->fusedRules(), C->numRules());
  EXPECT_GT(C->fusedRules(), 0u);

  std::mt19937_64 Rng(7);
  std::vector<ValueList> Inputs = {ints({}),        ints({1, 2, 3}),
                                   ints({0, 7, 5}), ints({0}),
                                   ints({0, 1}),    ints({4, 0, 7, 0, 7, -2}),
                                   ints({0, 7, 0})};
  for (unsigned K = 0; K != 200; ++K) {
    ValueList In;
    for (size_t N = Rng() % 12; N; --N) {
      static constexpr int64_t Pool[] = {0, 0, 7, 1, 5, -3};
      In.push_back(Value::intVal(Pool[Rng() % 6]));
    }
    Inputs.push_back(std::move(In));
  }
  for (bool Audit : {false, true}) {
    StreamDecoderOptions Opts;
    Opts.CheckAmbiguity = Audit;
    for (const ValueList &In : Inputs) {
      auto Reference = A.transduce(In, 2);
      ASSERT_LE(Reference.size(), 1u) << toString(In);
      for (size_t Chunk : {size_t(1), size_t(2), size_t(3), size_t(64)}) {
        auto [Out, S] = streamDecodeChunked(*C, In, Chunk, Opts);
        if (Reference.empty()) {
          EXPECT_FALSE(S.isOk()) << toString(In) << " chunk " << Chunk;
        } else {
          EXPECT_TRUE(S.isOk()) << toString(In) << ": " << S.message();
          EXPECT_EQ(Out, Reference.front())
              << toString(In) << " chunk " << Chunk << " audit " << Audit;
        }
      }
      auto [Out, S] =
          streamDecode(*C, In, [&Rng] { return Rng() % 4 + 1; }, Opts);
      EXPECT_EQ(S.isOk(), !Reference.empty()) << toString(In);
      if (S.isOk() && !Reference.empty())
        EXPECT_EQ(Out, Reference.front()) << toString(In);
    }
  }
}

} // namespace
