//===- runtime/CompiledSeft.h - Bytecode lowering of an s-EFT -------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lowering pass under the streaming decode runtime: an s-EFT (usually a
/// synthesized inverse, transducer/Invert.h) is compiled ONCE per machine:
/// each rule's guard, outputs and inlined auxiliary calls become one fused
/// program over raw words (runtime/FusedRule.h), and the rules are bucketed
/// into per-state dispatch tables. Running a fused rule is one flat
/// instruction sweep over the window span with no allocation. A rule
/// outside the fused fragment keeps its guard and output terms and runs
/// through eval() of term/Eval.h on the window; every corpus rule fuses.
///
/// This is the interpretive-overhead gap the streaming runtime closes
/// (ROADMAP item 2): Seft::transduce() re-walks guard and output terms
/// recursively for every window and allocates a fresh window vector per rule
/// attempt, which is fine for verification round-trips but 1-2 orders of
/// magnitude too slow to serve as a codec. bench_decode measures the gap as
/// an MB/s axis.
///
/// Dispatch correctness rests on Definition 3.7 determinism, which the
/// pipeline enforces on source programs and which §7.1 observes for every
/// synthesized inverse (e2e_test re-verifies it for the corpus):
///
///  (a) two continuing rules of one state whose guards can both hold are the
///      same rule in disguise (same lookahead, target, equivalent outputs),
///      so firing the FIRST continuing rule whose guard holds is canonical —
///      even before longer-lookahead siblings have enough buffered symbols
///      to be evaluable, their guards are disjoint from the fired one;
///  (b) two finalizers only compete at equal lookahead, where their outputs
///      agree;
///  (c) a continuing rule with lookahead <= a finalizer's lookahead is
///      guard-disjoint from it, so mid-stream (where at least one more
///      symbol than any viable finalizer's lookahead remains) a firing
///      continuing rule can never belong to a run that instead finalizes.
///
/// Together these make single-pass greedy dispatch byte-identical to the
/// backtracking term evaluator; runtime/StreamDecoder.h carries the
/// streaming state. The relation is re-checked wholesale by the
/// differential fuzz in tests/stream_decode_test.cpp.
///
/// Lifetime: unfused rules reference the machine's terms, so the
/// TermFactory owning them must outlive the CompiledSeft. A CompiledSeft
/// is immutable after compile(); each StreamDecoder keeps its own scratch
/// stack.
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_RUNTIME_COMPILEDSEFT_H
#define GENIC_RUNTIME_COMPILEDSEFT_H

#include "runtime/FusedRule.h"
#include "support/Result.h"
#include "transducer/Seft.h"

#include <deque>
#include <vector>

namespace genic {

/// One lowered rule: its fused program plus the structural fields dispatch
/// needs. The fused program is owned by the machine.
struct CompiledSeftRule {
  /// Guard + inlined aux calls + outputs as one unboxed program
  /// (runtime/FusedRule.h). Null when the rule is outside the fused
  /// fragment; it then runs eval() on Guard and Outputs, which is
  /// semantically identical.
  const FusedRuleProgram *Fused = nullptr;
  TermRef Guard = nullptr;
  std::vector<TermRef> Outputs;
  unsigned Lookahead = 0;
  /// Target state; Seft::FinalState for finalizers.
  unsigned To = 0;
  /// Index of the rule in the source machine's transition list (error
  /// messages and traces refer to rules by this).
  unsigned Index = 0;
};

/// The dispatch table of one state.
struct CompiledSeftState {
  /// Non-finalizer rules in transition order (the order the term evaluator
  /// tries them in).
  std::vector<CompiledSeftRule> Continuing;
  /// Finalizer rules in transition order.
  std::vector<CompiledSeftRule> Finalizers;
  /// Max lookahead over Continuing; 0 when the state has none.
  unsigned MaxContinuingLookahead = 0;
  /// Max lookahead over Finalizers; 0 when the state has none.
  unsigned MaxFinalizerLookahead = 0;
  bool HasFinalizer = false;
  /// Mid-stream stall bound: once this many symbols are buffered and no
  /// continuing rule fires, no rule of this state can ever fire — every
  /// continuing guard was evaluable and false, and more input than any
  /// finalizer's lookahead remains — so the input is rejected. Equals
  /// max(MaxContinuingLookahead, MaxFinalizerLookahead + 1); 0 for a dead
  /// state (reject immediately).
  unsigned StallBound = 0;
};

/// A machine lowered to bytecode dispatch tables; see file comment. Build
/// with compile(), execute through runtime/StreamDecoder.h.
class CompiledSeft {
public:
  /// Lowers \p Machine, fusing every rule it can. The machine's term
  /// factory must outlive the result.
  static Result<CompiledSeft> compile(const Seft &Machine);

  unsigned numStates() const { return States.size(); }
  unsigned initial() const { return Initial; }
  const Type &inputType() const { return InputType; }
  const Type &outputType() const { return OutputType; }
  /// Maximum lookahead over all rules — the streaming decoder's carried
  /// window never exceeds max(Lookahead + 1, 1) symbols.
  unsigned lookahead() const { return MaxLookahead; }
  const CompiledSeftState &state(unsigned Q) const { return States[Q]; }

  /// Scratch words a fused rule execution needs; the decoder sizes its
  /// stack to this once. 0 when no rule fused.
  unsigned maxFusedStack() const { return MaxFusedStack; }
  /// How many of numRules() compiled to the fused (unboxed, call-inlined)
  /// tier; the rest run on eval().
  unsigned fusedRules() const { return NumFusedRules; }
  unsigned numRules() const { return NumRules; }

  /// Rules point into FusedStore: a move keeps them valid, a copy would
  /// leave them pointing into the source.
  CompiledSeft(CompiledSeft &&) = default;
  CompiledSeft &operator=(CompiledSeft &&) = default;
  CompiledSeft(const CompiledSeft &) = delete;
  CompiledSeft &operator=(const CompiledSeft &) = delete;

private:
  CompiledSeft() = default;

  // The deque keeps fused programs at stable addresses as rules point in,
  // across moves too.
  std::deque<FusedRuleProgram> FusedStore;
  std::vector<CompiledSeftState> States;
  unsigned Initial = 0;
  unsigned MaxLookahead = 0;
  unsigned MaxFusedStack = 0;
  unsigned NumFusedRules = 0;
  unsigned NumRules = 0;
  Type InputType;
  Type OutputType;
};

} // namespace genic

#endif // GENIC_RUNTIME_COMPILEDSEFT_H
