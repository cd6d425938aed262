//===- runtime/StreamDecoder.cpp -------------------------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "runtime/StreamDecoder.h"

#include "support/Trace.h"
#include "term/Eval.h"

#include <string>

using namespace genic;

namespace {
/// Rule firings between cancellation-token reads. A rule is a handful of
/// bytecode instructions, so this bounds the overshoot past a deadline to
/// microseconds while keeping the atomic read off the per-symbol path.
constexpr unsigned CancelCheckInterval = 256;
} // namespace

StreamDecoder::StreamDecoder(const CompiledSeft &Machine,
                             StreamDecoderOptions Options)
    : M(Machine), Opts(std::move(Options)), Q(Machine.initial()),
      FusedStack(Machine.maxFusedStack()),
      CancelCheckCountdown(CancelCheckInterval) {
  if (Opts.Metrics) {
    BytesCtr = &Opts.Metrics->counter("decode.bytes");
    SymbolsCtr = &Opts.Metrics->counter("decode.symbols");
    ChunkHist = &Opts.Metrics->histogram("decode.chunk.us");
  }
}

unsigned StreamDecoder::bytesPerSymbol(const Type &T) {
  if (!T.isBitVec() || T.width() % 8 != 0)
    return 0;
  return T.width() / 8;
}

void StreamDecoder::reset() {
  Q = M.initial();
  Buf.clear();
  Pos = 0;
  OutScratch.clear();
  SymScratch.clear();
  PendingBytes.clear();
  CancelCheckCountdown = CancelCheckInterval;
  Sticky = Status::ok();
  Ended = false;
  TheStats = Stats();
}

bool StreamDecoder::tryRule(const CompiledSeftRule &R, ValueList &Out) {
  // Fast tier: guard, inlined aux calls, and outputs in one unboxed
  // program (runtime/FusedRule.h). It rolls its outputs back itself on a
  // non-firing rule, so outside the ambiguity audit (which compares
  // per-rule outputs, staged in OutScratch) it writes straight to Out.
  if (R.Fused && !Opts.CheckAmbiguity)
    return runFusedRule(*R.Fused, Buf.data() + Pos, Out, FusedStack.data());

  OutScratch.clear();
  if (R.Fused) {
    if (!runFusedRule(*R.Fused, Buf.data() + Pos, OutScratch,
                      FusedStack.data()))
      return false;
  } else {
    Env Window(Buf.data() + Pos, R.Lookahead);
    if (!evalBool(R.Guard, Window))
      return false;
    for (TermRef F : R.Outputs) {
      std::optional<Value> V = eval(F, Window);
      if (!V)
        return false; // Undefined output: the non-symbolic rule doesn't exist.
      OutScratch.push_back(*V);
    }
  }
  Out.insert(Out.end(), OutScratch.begin(), OutScratch.end());
  return true;
}

Status StreamDecoder::pump(ValueList &Out) {
  while (true) {
    size_t Avail = Buf.size() - Pos;
    if (Avail == 0)
      return Status::ok();
    const CompiledSeftState &St = M.state(Q);

    const CompiledSeftRule *Fired = nullptr;
    ValueList FirstOutputs; // CheckAmbiguity only.
    for (const CompiledSeftRule &R : St.Continuing) {
      if (R.Lookahead > Avail)
        continue;
      if (Fired && !Opts.CheckAmbiguity)
        break;
      if (!Fired) {
        if (tryRule(R, Out)) {
          Fired = &R;
          if (Opts.CheckAmbiguity)
            FirstOutputs = OutScratch;
        }
        continue;
      }
      // Ambiguity audit: a sibling that also fires must be the same rule in
      // disguise (Def. 3.7 case (a)), i.e. agree on effect.
      ValueList Probe;
      if (!tryRule(R, Probe))
        continue;
      if (R.To != Fired->To || R.Lookahead != Fired->Lookahead ||
          OutScratch != FirstOutputs)
        return fail(Status::error(
            "streaming decode: ambiguous dispatch at state q" +
            std::to_string(Q) + " (rules #" + std::to_string(Fired->Index) +
            " and #" + std::to_string(R.Index) +
            " both fire with different effects)"));
    }

    if (!Fired) {
      if (Avail >= St.StallBound)
        // Every continuing guard was evaluable and false, and more input
        // than any finalizer's lookahead remains: definite reject.
        return fail(Status::error(
            "streaming decode: input rejected at state q" + std::to_string(Q) +
            " after " + std::to_string(TheStats.SymbolsIn - Avail) +
            " symbols (no rule applies)"));
      return Status::ok(); // Need more input to decide.
    }

    TheStats.SymbolsOut += Fired->Outputs.size();
    ++TheStats.RulesFired;
    Q = Fired->To;
    Pos += Fired->Lookahead;

    if (--CancelCheckCountdown == 0) {
      CancelCheckCountdown = CancelCheckInterval;
      if (Opts.Cancel.cancelled())
        return fail(Status::cancelled(
            "streaming decode: budget exhausted mid-stream after " +
            std::to_string(TheStats.SymbolsOut) + " output symbols"));
    }
  }
}

Status StreamDecoder::feedSymbols(std::span<const Value> Chunk,
                                  ValueList &Out) {
  if (!Sticky.isOk())
    return Sticky;
  if (Ended)
    return fail(Status::error("streaming decode: feed() after finish()"));
  if (Opts.Cancel.cancelled())
    return fail(Status::cancelled("streaming decode: budget exhausted"));

  TraceSpan Span("decode.feed", "decode");
  Span.arg("symbols", static_cast<int64_t>(Chunk.size()));

  ++TheStats.Chunks;
  TheStats.SymbolsIn += Chunk.size();
  if (SymbolsCtr)
    SymbolsCtr->add(Chunk.size());

  const Type &InTy = M.inputType();
  for (const Value &V : Chunk) {
    if (V.type() != InTy)
      return fail(Status::error(
          "streaming decode: input symbol of type " + V.type().str() +
          ", machine reads " + InTy.str()));
    Buf.push_back(V);
  }

  Status S = pump(Out);

  // Compact the consumed prefix so the carried state stays O(lookahead):
  // after a quiescent pump at most StallBound-1 symbols remain.
  Buf.erase(Buf.begin(), Buf.begin() + Pos);
  Pos = 0;

  if (ChunkHist)
    ChunkHist->observe(static_cast<uint64_t>(Span.seconds() * 1e6));
  return S;
}

Status StreamDecoder::finishSymbols(ValueList &Out) {
  if (!Sticky.isOk())
    return Sticky;
  if (Ended)
    return fail(Status::error("streaming decode: finish() called twice"));
  if (Opts.Cancel.cancelled())
    return fail(Status::cancelled("streaming decode: budget exhausted"));

  TraceSpan Span("decode.finish", "decode");

  // Feeds leave the decoder quiescent, but an empty stream (no feed at all)
  // or a feed of zero symbols must still work.
  if (Status S = pump(Out); !S.isOk())
    return S;

  size_t Avail = Buf.size() - Pos;
  const CompiledSeftState &St = M.state(Q);

  // Only finalizers with exactly the remaining lookahead can end the run;
  // pump() already established that no continuing rule fires (and shorter
  // continuing rules could only lead to configurations this loop handles
  // after pump() takes them).
  const CompiledSeftRule *Fired = nullptr;
  ValueList FirstOutputs;
  for (const CompiledSeftRule &R : St.Finalizers) {
    if (R.Lookahead != Avail)
      continue;
    if (Fired && !Opts.CheckAmbiguity)
      break;
    if (!Fired) {
      if (tryRule(R, Out)) {
        Fired = &R;
        if (Opts.CheckAmbiguity)
          FirstOutputs = OutScratch;
      }
      continue;
    }
    ValueList Probe;
    if (!tryRule(R, Probe))
      continue;
    if (OutScratch != FirstOutputs) // Def. 3.7 case (b): must agree.
      return fail(Status::error(
          "streaming decode: ambiguous finalizers at state q" +
          std::to_string(Q) + " (rules #" + std::to_string(Fired->Index) +
          " and #" + std::to_string(R.Index) + " disagree)"));
  }

  if (!Fired)
    return fail(Status::error(
        "streaming decode: input rejected at end of stream (state q" +
        std::to_string(Q) + ", " + std::to_string(Avail) +
        " trailing symbols, no finalizer applies)"));

  TheStats.SymbolsOut += Fired->Outputs.size();
  ++TheStats.RulesFired;
  Pos += Fired->Lookahead;
  Buf.erase(Buf.begin(), Buf.begin() + Pos);
  Pos = 0;
  Ended = true;
  return Status::ok();
}

Status StreamDecoder::feed(std::span<const uint8_t> Chunk,
                           std::vector<uint8_t> &Out) {
  if (!Sticky.isOk())
    return Sticky;
  // Mirror feedSymbols() before touching the byte-framing state: a
  // rejected feed must not mutate the partial-symbol carry or the byte
  // counters.
  if (Ended)
    return fail(Status::error("streaming decode: feed() after finish()"));
  if (Opts.Cancel.cancelled())
    return fail(Status::cancelled("streaming decode: budget exhausted"));
  unsigned InBps = bytesPerSymbol(M.inputType());
  unsigned OutBps = bytesPerSymbol(M.outputType());
  if (InBps == 0 || OutBps == 0)
    return fail(Status::error(
        "streaming decode: byte API needs byte-aligned bit-vector alphabets "
        "(machine reads " + M.inputType().str() + ", writes " +
        M.outputType().str() + "); use the symbol API"));

  // Frame bytes into little-endian symbols, carrying a partial symbol.
  ValueList Symbols;
  Symbols.reserve((PendingBytes.size() + Chunk.size()) / InBps + 1);
  if (InBps == 1) {
    // Byte-wide symbols (most of the corpus): no partial-symbol carry.
    for (uint8_t B : Chunk)
      Symbols.push_back(Value::bitVecVal(B, 8));
  } else {
    for (uint8_t B : Chunk) {
      PendingBytes.push_back(B);
      if (PendingBytes.size() == InBps) {
        uint64_t Raw = 0;
        for (unsigned I = 0; I != InBps; ++I)
          Raw |= uint64_t(PendingBytes[I]) << (8 * I);
        Symbols.push_back(Value::bitVecVal(Raw, M.inputType().width()));
        PendingBytes.clear();
      }
    }
  }

  TheStats.BytesIn += Chunk.size();
  if (BytesCtr)
    BytesCtr->add(Chunk.size());

  SymScratch.clear();
  Status S = feedSymbols(Symbols, SymScratch);

  // Serialize even on failure: output decoded before the failure is the
  // partial result the caller reports.
  serializeOut(OutBps, Out);
  return S;
}

void StreamDecoder::serializeOut(unsigned OutBps, std::vector<uint8_t> &Out) {
  Out.reserve(Out.size() + SymScratch.size() * OutBps);
  if (OutBps == 1) {
    for (const Value &V : SymScratch)
      Out.push_back(static_cast<uint8_t>(V.getBits()));
  } else {
    for (const Value &V : SymScratch) {
      uint64_t Raw = V.getBits();
      for (unsigned I = 0; I != OutBps; ++I)
        Out.push_back(static_cast<uint8_t>(Raw >> (8 * I)));
    }
  }
  TheStats.BytesOut += SymScratch.size() * OutBps;
}

Status StreamDecoder::finish(std::vector<uint8_t> &Out) {
  if (!Sticky.isOk())
    return Sticky;
  unsigned InBps = bytesPerSymbol(M.inputType());
  unsigned OutBps = bytesPerSymbol(M.outputType());
  if (InBps == 0 || OutBps == 0)
    return fail(Status::error(
        "streaming decode: byte API needs byte-aligned bit-vector alphabets "
        "(machine reads " + M.inputType().str() + ", writes " +
        M.outputType().str() + "); use the symbol API"));
  if (!PendingBytes.empty())
    return fail(Status::error(
        "streaming decode: stream ends inside a symbol (" +
        std::to_string(PendingBytes.size()) + " of " + std::to_string(InBps) +
        " bytes)"));

  SymScratch.clear();
  Status S = finishSymbols(SymScratch);
  serializeOut(OutBps, Out);
  return S;
}
