//===- runtime/FusedRule.h - One rule as one unboxed program ---------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fast tier of the s-EFT lowering (runtime/CompiledSeft.h): a whole
/// rule — guard, auxiliary-function calls, and every output — fused into a
/// single flat program over raw 64-bit words. Where eval() (term/Eval.h)
/// walks each term recursively and boxes every intermediate in a typed
/// Value, the fused tier:
///
///  - resolves all types at COMPILE time (terms are statically typed), so
///    execution touches bare uint64_t: bools as 0/1, integers as their
///    two's-complement pattern, bit-vectors masked to width;
///  - INLINES auxiliary function calls — the GENIC lowering only produces
///    non-recursive aux functions, so a call becomes "args into stack
///    slots, domain predicate, body", with no frame allocation;
///  - folds the whole rule into one program: the guard feeds a conditional
///    abort, outputs append straight to the result list, and "rule does
///    not fire" (guard false, domain violated) is a single Fail opcode —
///    legal because every context maps undefined to exactly that outcome
///    (an undefined guard rejects like a false one, an undefined output
///    means the non-symbolic rule does not exist; see Seft::transduce);
///  - fuses constant right-hand operands into the instruction, which
///    collapses the compare-against-literal ladders that dominate
///    synthesized inverse guards to one instruction per compare;
///  - compiles guards, domains, and ite conditions in CONDITION context
///    (jump threading): nested and/or trees become straight-line chains of
///    compare-and-branch instructions with no boolean materialization, and
///    a comparison feeding a branch fuses with it into one instruction.
///
/// fuseRule() is total-or-nothing: any construct it cannot prove out
/// statically (a variable outside the rule window, a type mismatch, a
/// recursive aux cycle, an oversized program) yields nullopt and the rule
/// runs through eval() instead, so fusion is purely an optimization and
/// never changes semantics. The differential fuzz in
/// tests/stream_decode_test.cpp holds both paths to Seft::transduce.
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_RUNTIME_FUSEDRULE_H
#define GENIC_RUNTIME_FUSEDRULE_H

#include "term/Term.h"
#include "term/Value.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace genic {

/// One instruction of a fused rule program. 16 bytes; constants live
/// inline in Imm rather than behind a pool indirection.
struct FusedInstr {
  enum class K : uint8_t {
    PushConst,   // push Imm
    PushVar,     // push Window[A] (raw)
    PushSlot,    // push Stack[A] (inlined call argument)
    BoolNot,     // a ^ 1
    CmpEq,       // a == b (same static type, canonical patterns)
    CmpULe, CmpULt, CmpUGe, CmpUGt,   // unsigned at any width
    CmpSLe, CmpSLt, CmpSGe, CmpSGt,   // sign-extended at width W
    Implies,     // !a | b
    AddMask, SubMask, MulMask,        // wrap, then mask to width W
    AndBits, OrBits, XorBits,         // operands masked => result masked
    Shl, Lshr, Ashr,                  // SMT-LIB: shift >= W saturates
    NegMask,     // (~a + 1) masked (unary)
    NotMask,     // ~a masked (unary)
    Jump,            // pc := A
    JumpIfFalsePop,  // pop; if zero pc := A
    JumpIfTruePop,   // pop; if nonzero pc := A
    Ret,             // pop result, drop A argument slots, push result
    EmitBool, EmitInt, EmitBv,        // pop and append to the output list
    End,             // the rule fired; outputs are complete
    Fail,            // the rule does not fire
  };
  K Kind;
  /// RhsImm: the right-hand operand of a binary op is Imm, not the stack.
  /// BrFalse/BrTrue (comparisons only): instead of pushing the result,
  /// branch to A when it is false/true — a compare that fed a conditional
  /// jump, fused.
  uint8_t Flags = 0;
  /// Bit width for masked/shift/signed ops and EmitBv (64 for integers).
  uint16_t W = 0;
  /// Jump/branch target, window index, stack slot, or Ret argument count.
  uint32_t A = 0;
  /// Inline constant (PushConst or a fused right-hand operand).
  uint64_t Imm = 0;

  static constexpr uint8_t RhsImm = 1;
  static constexpr uint8_t BrFalse = 2;
  static constexpr uint8_t BrTrue = 4;
};

/// A fused rule: run it on a window of Lookahead input symbols; it either
/// appends the rule's outputs and reports "fired" or leaves the output
/// list unchanged.
struct FusedRuleProgram {
  std::vector<FusedInstr> Code;
  /// Exact operand-stack high-water mark, statically known.
  unsigned StackDepth = 0;
  unsigned NumOutputs = 0;
};

/// Fuses one rule. \p Guard and \p Outputs are the rule's terms over
/// Var(0..Lookahead-1) of \p InputType. Returns nullopt when the rule uses
/// something the fused tier does not model (see file comment); the caller
/// falls back to eval().
std::optional<FusedRuleProgram> fuseRule(TermRef Guard,
                                         const std::vector<TermRef> &Outputs,
                                         unsigned Lookahead,
                                         const Type &InputType);

/// Executes \p P on \p Window (>= the rule's lookahead symbols, all of the
/// machine's input type — the decoder's feed path guarantees both).
/// \p Stack must hold at least P.StackDepth words. Appends the outputs to
/// \p Out and returns true iff the rule fired; on false, \p Out is
/// untouched.
bool runFusedRule(const FusedRuleProgram &P, const Value *Window,
                  ValueList &Out, uint64_t *Stack);

} // namespace genic

#endif // GENIC_RUNTIME_FUSEDRULE_H
