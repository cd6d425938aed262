//===- runtime/FusedRule.cpp -----------------------------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "runtime/FusedRule.h"

#include <algorithm>
#include <cassert>

using namespace genic;

namespace {

using K = FusedInstr::K;

/// Fusion gives up rather than emit a program this large; eval() handles
/// pathological rules.
constexpr size_t MaxCode = 1u << 16;
constexpr unsigned MaxStack = 1024;

int64_t signExtend(uint64_t X, unsigned W) {
  if (W >= 64)
    return static_cast<int64_t>(X);
  uint64_t Sign = uint64_t{1} << (W - 1);
  return static_cast<int64_t>((X ^ Sign) - Sign);
}

/// Comparison kinds are contiguous; a compare feeding a conditional jump
/// fuses with it (FusedInstr::BrFalse/BrTrue).
bool isCmp(K Kind) { return Kind >= K::CmpEq && Kind <= K::CmpSGt; }

/// Single-pass compiler. Tracks the virtual stack depth so inlined call
/// arguments get absolute slot addresses (every jump in the emitted code
/// joins points of equal depth, so depths are static). Boolean terms in
/// condition position — guards, aux-function domains, ite conditions —
/// compile by jump threading (cond()): and/or trees become chains of
/// compare-and-branch with no materialized booleans. Any construct outside
/// the modeled fragment clears Ok and the caller falls back to eval().
class Fuser {
public:
  Fuser(unsigned Lookahead, const Type &InputType)
      : Lookahead(Lookahead), InputType(InputType) {
    Frames.push_back(Frame{nullptr, 0, {}});
  }

  std::optional<FusedRuleProgram> fuse(TermRef Guard,
                                       const std::vector<TermRef> &Outputs) {
    if (!Guard->type().isBool())
      return std::nullopt;
    PatchList GuardTrue, GuardFalse;
    cond(Guard, GuardTrue, GuardFalse, /*FallThroughTrue=*/true);
    patch(GuardTrue);
    failOn(GuardFalse);
    for (TermRef O : Outputs) {
      compile(O);
      const Type &Ty = O->type();
      if (Ty.isBool())
        emit({K::EmitBool});
      else if (Ty.isInt())
        emit({K::EmitInt});
      else
        emit({K::EmitBv, 0, static_cast<uint16_t>(Ty.width())});
      pop();
    }
    emit({K::End});
    uint32_t FailAt = emit({K::Fail});
    for (uint32_t Fix : FailFixes)
      P.Code[Fix].A = FailAt;
    if (!Ok)
      return std::nullopt;
    assert(Depth == 0 && "fused rule must consume its whole stack");
    P.NumOutputs = Outputs.size();
    return std::move(P);
  }

private:
  struct Frame {
    const FuncDef *F; // null: the rule window (PushVar)
    unsigned Base;    // first argument slot of an inlined call
    std::vector<Type> ArgTypes;
  };
  using PatchList = std::vector<uint32_t>;

  void push() {
    ++Depth;
    P.StackDepth = std::max(P.StackDepth, Depth);
    if (Depth > MaxStack)
      Ok = false;
  }
  void pop(unsigned N = 1) { Depth -= N; }

  uint32_t emit(FusedInstr I) {
    P.Code.push_back(I);
    if (P.Code.size() > MaxCode)
      Ok = false;
    return static_cast<uint32_t>(P.Code.size() - 1);
  }
  uint32_t here() const { return static_cast<uint32_t>(P.Code.size()); }

  /// Points every branch in \p L at the next instruction. That position
  /// becomes a jump join, so raise the fusion barrier: an instruction
  /// ending exactly there must not absorb a later branch (branchLeaf).
  void patch(PatchList &L) {
    if (!L.empty())
      Barrier = here();
    for (uint32_t Fix : L)
      P.Code[Fix].A = here();
    L.clear();
  }
  /// Resolves one deferred jump to the next instruction; a join point like
  /// patch(), so it raises the fusion barrier too.
  void patchOne(uint32_t Fix) {
    Barrier = here();
    P.Code[Fix].A = here();
  }
  /// Defers branches in \p L to the shared trailing Fail.
  void failOn(PatchList &L) {
    FailFixes.insert(FailFixes.end(), L.begin(), L.end());
    L.clear();
  }

  /// The boolean on top of the stack becomes a conditional jump appended to
  /// \p L; a just-emitted comparison absorbs the jump instead — unless a
  /// jump joins right after it (the comparison is below the fusion
  /// barrier, e.g. it is the tail of a boolean ite's else-arm): the
  /// joining path would skip the fused branch with its own boolean
  /// stranded on the stack, so such a comparison gets an explicit
  /// JumpIf*Pop that both paths execute.
  void branchLeaf(bool JumpOnTrue, PatchList &L) {
    if (!Ok || P.Code.empty()) {
      Ok = false;
      return;
    }
    FusedInstr &Last = P.Code.back();
    if (here() > Barrier && isCmp(Last.Kind) &&
        !(Last.Flags & (FusedInstr::BrFalse | FusedInstr::BrTrue))) {
      Last.Flags |= JumpOnTrue ? FusedInstr::BrTrue : FusedInstr::BrFalse;
      L.push_back(static_cast<uint32_t>(P.Code.size() - 1));
    } else {
      L.push_back(emit({JumpOnTrue ? K::JumpIfTruePop : K::JumpIfFalsePop}));
    }
    pop();
  }

  /// Compiles boolean term \p T in condition position. One outcome falls
  /// through the emitted code (true when \p FallThroughTrue); every branch
  /// taken on the other outcome — and on early-decided operands of nested
  /// and/or — is appended to \p TrueFix / \p FalseFix for the caller to
  /// point somewhere. Net stack effect zero on every path.
  void cond(TermRef T, PatchList &TrueFix, PatchList &FalseFix,
            bool FallThroughTrue) {
    if (!Ok)
      return;
    switch (T->op()) {
    case Op::And:
    case Op::Or: {
      bool IsAnd = T->op() == Op::And;
      size_t N = T->arity();
      if (N == 0) {
        Ok = false; // Empty connective: the factory never builds one.
        return;
      }
      for (size_t I = 0; I + 1 < N; ++I) {
        // Left-to-right with short-circuit, matching eval(): a deciding
        // operand hides the undefinedness of the operands after it.
        PatchList Local;
        if (IsAnd)
          cond(T->child(I), Local, FalseFix, /*FallThroughTrue=*/true);
        else
          cond(T->child(I), TrueFix, Local, /*FallThroughTrue=*/false);
        patch(Local); // Undecided: fall into the next operand's test.
      }
      cond(T->child(N - 1), TrueFix, FalseFix, FallThroughTrue);
      return;
    }
    case Op::Not:
      cond(T->child(0), FalseFix, TrueFix, !FallThroughTrue);
      return;
    case Op::Const: {
      bool V = T->constValue().rawBits() != 0;
      if (V != FallThroughTrue)
        (V ? TrueFix : FalseFix).push_back(emit({K::Jump}));
      return;
    }
    default:
      // Comparisons, calls, ites, variables: evaluate, then branch on the
      // result (comparisons fuse with the branch).
      compile(T);
      if (!Ok)
        return;
      if (FallThroughTrue)
        branchLeaf(/*JumpOnTrue=*/false, FalseFix);
      else
        branchLeaf(/*JumpOnTrue=*/true, TrueFix);
      return;
    }
  }

  /// Compiles a binary operator; a constant right-hand side is folded into
  /// the instruction. Net stack effect +1.
  void binary(K Kind, uint16_t W, TermRef A, TermRef B) {
    compile(A);
    if (B->op() == Op::Const) {
      emit({Kind, FusedInstr::RhsImm, W, 0, B->constValue().rawBits()});
      return;
    }
    compile(B);
    emit({Kind, 0, W});
    pop();
  }

  /// Requires both operands to have the same type; mismatches (which
  /// eval() maps to undefined at runtime) are left to eval().
  bool sameType(TermRef T) {
    return T->arity() == 2 && T->child(0)->type() == T->child(1)->type();
  }

  /// Compiles \p T in value position: net stack effect +1.
  void compile(TermRef T) {
    if (!Ok)
      return;
    switch (T->op()) {
    case Op::Const:
      emit({K::PushConst, 0, 0, 0, T->constValue().rawBits()});
      push();
      return;

    case Op::Var: {
      const Frame &F = Frames.back();
      unsigned Index = T->varIndex();
      if (!F.F) {
        // A variable of the rule window. Out-of-range or mistyped
        // variables evaluate to undefined only when reached, which eval()
        // models; don't fuse.
        if (Index >= Lookahead || T->type() != InputType) {
          Ok = false;
          return;
        }
        emit({K::PushVar, 0, 0, Index});
      } else {
        if (Index >= F.ArgTypes.size() || T->type() != F.ArgTypes[Index]) {
          Ok = false;
          return;
        }
        emit({K::PushSlot, 0, 0, F.Base + Index});
      }
      push();
      return;
    }

    case Op::Ite: {
      PatchList CondTrue, CondFalse;
      cond(T->child(0), CondTrue, CondFalse, /*FallThroughTrue=*/true);
      patch(CondTrue);
      unsigned D0 = Depth;
      compile(T->child(1));
      uint32_t ToEnd = emit({K::Jump});
      patch(CondFalse);
      Depth = D0; // The else path enters without the then value.
      compile(T->child(2));
      patchOne(ToEnd);
      return;
    }

    case Op::And:
    case Op::Or: {
      // Materialize a boolean from the threaded-condition form.
      PatchList TrueFix, FalseFix;
      cond(T, TrueFix, FalseFix, /*FallThroughTrue=*/true);
      patch(TrueFix);
      emit({K::PushConst, 0, 0, 0, 1});
      push();
      uint32_t ToEnd = emit({K::Jump});
      patch(FalseFix);
      pop();
      emit({K::PushConst, 0, 0, 0, 0});
      push();
      patchOne(ToEnd);
      return;
    }

    case Op::Not:
      compile(T->child(0));
      emit({K::BoolNot});
      return;

    case Op::Eq:
    case Op::Iff:
      // Raw patterns are canonical per type (bools 0/1, bit-vectors
      // masked), so same-typed equality is word equality.
      if (!sameType(T)) {
        Ok = false;
        return;
      }
      binary(K::CmpEq, 0, T->child(0), T->child(1));
      return;

    case Op::Implies:
      // Eager like applyOp (only And/Or/Ite short-circuit).
      binary(K::Implies, 0, T->child(0), T->child(1));
      return;

    case Op::IntAdd:
      binary(K::AddMask, 64, T->child(0), T->child(1));
      return;
    case Op::IntSub:
      binary(K::SubMask, 64, T->child(0), T->child(1));
      return;
    case Op::IntMul:
      binary(K::MulMask, 64, T->child(0), T->child(1));
      return;
    case Op::IntNeg:
      compile(T->child(0));
      emit({K::NegMask, 0, 64});
      return;
    case Op::IntLe:
      binary(K::CmpSLe, 64, T->child(0), T->child(1));
      return;
    case Op::IntLt:
      binary(K::CmpSLt, 64, T->child(0), T->child(1));
      return;
    case Op::IntGe:
      binary(K::CmpSGe, 64, T->child(0), T->child(1));
      return;
    case Op::IntGt:
      binary(K::CmpSGt, 64, T->child(0), T->child(1));
      return;

    case Op::BvNeg:
    case Op::BvNot:
      compile(T->child(0));
      emit({T->op() == Op::BvNeg ? K::NegMask : K::NotMask, 0,
            static_cast<uint16_t>(T->type().width())});
      return;

    case Op::BvAdd:
    case Op::BvSub:
    case Op::BvMul:
    case Op::BvAnd:
    case Op::BvOr:
    case Op::BvXor:
    case Op::BvShl:
    case Op::BvLshr:
    case Op::BvAshr:
    case Op::BvUle:
    case Op::BvUlt:
    case Op::BvUge:
    case Op::BvUgt:
    case Op::BvSle:
    case Op::BvSlt:
    case Op::BvSge:
    case Op::BvSgt: {
      if (!sameType(T) || !T->child(0)->type().isBitVec()) {
        Ok = false;
        return;
      }
      uint16_t W = static_cast<uint16_t>(T->child(0)->type().width());
      K Kind;
      switch (T->op()) {
      case Op::BvAdd: Kind = K::AddMask; break;
      case Op::BvSub: Kind = K::SubMask; break;
      case Op::BvMul: Kind = K::MulMask; break;
      case Op::BvAnd: Kind = K::AndBits; break;
      case Op::BvOr:  Kind = K::OrBits; break;
      case Op::BvXor: Kind = K::XorBits; break;
      case Op::BvShl: Kind = K::Shl; break;
      case Op::BvLshr: Kind = K::Lshr; break;
      case Op::BvAshr: Kind = K::Ashr; break;
      case Op::BvUle: Kind = K::CmpULe; break;
      case Op::BvUlt: Kind = K::CmpULt; break;
      case Op::BvUge: Kind = K::CmpUGe; break;
      case Op::BvUgt: Kind = K::CmpUGt; break;
      case Op::BvSle: Kind = K::CmpSLe; break;
      case Op::BvSlt: Kind = K::CmpSLt; break;
      case Op::BvSge: Kind = K::CmpSGe; break;
      default:        Kind = K::CmpSGt; break;
      }
      binary(Kind, W, T->child(0), T->child(1));
      return;
    }

    case Op::Call: {
      const FuncDef *F = T->callee();
      // The GENIC lowering only emits non-recursive aux functions; a cycle
      // would make inlining diverge, so leave it to eval().
      if (!F || T->arity() != F->ParamTypes.size() ||
          std::find(Active.begin(), Active.end(), F) != Active.end()) {
        Ok = false;
        return;
      }
      Frame Callee{F, 0, {}};
      for (unsigned I = 0; I != T->arity(); ++I) {
        TermRef Arg = T->child(I);
        if (Arg->type() != F->ParamTypes[I]) {
          Ok = false; // Mistyped application: left to eval().
          return;
        }
        compile(Arg);
        Callee.ArgTypes.push_back(Arg->type());
      }
      Callee.Base = Depth - static_cast<unsigned>(T->arity());
      Active.push_back(F);
      Frames.push_back(std::move(Callee));
      if (F->Domain) {
        if (!F->Domain->type().isBool()) {
          Ok = false;
          return;
        }
        PatchList DomTrue, DomFalse;
        cond(F->Domain, DomTrue, DomFalse, /*FallThroughTrue=*/true);
        patch(DomTrue);
        failOn(DomFalse); // Outside the domain: undefined, no fire.
      }
      compile(F->Body);
      Frames.pop_back();
      Active.pop_back();
      emit({K::Ret, 0, 0, static_cast<uint32_t>(T->arity())});
      pop(static_cast<unsigned>(T->arity()));
      return;
    }
    }
    Ok = false; // Unreachable with a complete Op switch; belt-and-braces.
  }

  unsigned Lookahead;
  const Type &InputType;
  FusedRuleProgram P;
  unsigned Depth = 0;
  /// Positions below this are reachable via a resolved jump join; a
  /// comparison ending at or before it cannot fuse with a branch.
  uint32_t Barrier = 0;
  bool Ok = true;
  std::vector<Frame> Frames;
  std::vector<const FuncDef *> Active;
  PatchList FailFixes;
};

} // namespace

std::optional<FusedRuleProgram>
genic::fuseRule(TermRef Guard, const std::vector<TermRef> &Outputs,
                unsigned Lookahead, const Type &InputType) {
  return Fuser(Lookahead, InputType).fuse(Guard, Outputs);
}

// The right-hand operand of a binary instruction: inline constant or stack.
#define GENIC_RHS                                                            \
  uint64_t B = (I.Flags & FusedInstr::RhsImm) ? I.Imm : S[--SP]

// A comparison: pops its operand(s) and either pushes the boolean or, when
// fused with a branch, jumps on the matching outcome.
#define GENIC_CMP_CASE(KIND, EXPR)                                           \
  case K::KIND: {                                                            \
    GENIC_RHS;                                                               \
    uint64_t Av = S[--SP];                                                   \
    bool C = (EXPR);                                                         \
    if (uint8_t Br = I.Flags & (FusedInstr::BrFalse | FusedInstr::BrTrue)) { \
      if (C == (Br == FusedInstr::BrTrue))                                   \
        PC = I.A - 1;                                                        \
    } else {                                                                 \
      S[SP++] = C;                                                           \
    }                                                                        \
    break;                                                                   \
  }

// An ALU op: rewrites the new top of stack in place.
#define GENIC_ALU_CASE(KIND, EXPR)                                           \
  case K::KIND: {                                                            \
    GENIC_RHS;                                                               \
    uint64_t &Av = S[SP - 1];                                                \
    Av = (EXPR);                                                             \
    break;                                                                   \
  }

bool genic::runFusedRule(const FusedRuleProgram &P, const Value *Window,
                         ValueList &Out, uint64_t *S) {
  const size_t OutMark = Out.size();
  size_t SP = 0;
  const FusedInstr *Code = P.Code.data();
  // Every program ends in End or Fail and all jumps are forward, so the
  // loop terminates without a bound check.
  for (uint32_t PC = 0;; ++PC) {
    const FusedInstr &I = Code[PC];
    switch (I.Kind) {
    case K::PushConst:
      S[SP++] = I.Imm;
      break;
    case K::PushVar:
      S[SP++] = Window[I.A].rawBits();
      break;
    case K::PushSlot:
      S[SP++] = S[I.A];
      break;
    case K::BoolNot:
      S[SP - 1] ^= 1;
      break;
    case K::NegMask:
      S[SP - 1] = (~S[SP - 1] + 1) & Value::maskOf(I.W);
      break;
    case K::NotMask:
      S[SP - 1] = ~S[SP - 1] & Value::maskOf(I.W);
      break;
    case K::Jump:
      PC = I.A - 1; // Loop increment lands on A.
      break;
    case K::JumpIfFalsePop:
      if (!S[--SP])
        PC = I.A - 1;
      break;
    case K::JumpIfTruePop:
      if (S[--SP])
        PC = I.A - 1;
      break;
    case K::Ret: {
      uint64_t R = S[--SP];
      SP -= I.A;
      S[SP++] = R;
      break;
    }
    case K::EmitBool:
      Out.push_back(Value::boolVal(S[--SP] != 0));
      break;
    case K::EmitInt:
      Out.push_back(Value::intVal(static_cast<int64_t>(S[--SP])));
      break;
    case K::EmitBv:
      Out.push_back(Value::bitVecVal(S[--SP], I.W));
      break;
    case K::End:
      assert(SP == 0 && "fused rule must consume its whole stack");
      return true;
    case K::Fail:
      Out.resize(OutMark);
      return false;

      GENIC_CMP_CASE(CmpEq, Av == B)
      GENIC_CMP_CASE(CmpULe, Av <= B)
      GENIC_CMP_CASE(CmpULt, Av < B)
      GENIC_CMP_CASE(CmpUGe, Av >= B)
      GENIC_CMP_CASE(CmpUGt, Av > B)
      GENIC_CMP_CASE(CmpSLe, signExtend(Av, I.W) <= signExtend(B, I.W))
      GENIC_CMP_CASE(CmpSLt, signExtend(Av, I.W) < signExtend(B, I.W))
      GENIC_CMP_CASE(CmpSGe, signExtend(Av, I.W) >= signExtend(B, I.W))
      GENIC_CMP_CASE(CmpSGt, signExtend(Av, I.W) > signExtend(B, I.W))

      GENIC_ALU_CASE(Implies, (Av ^ 1) | B)
      GENIC_ALU_CASE(AddMask, (Av + B) & Value::maskOf(I.W))
      GENIC_ALU_CASE(SubMask, (Av - B) & Value::maskOf(I.W))
      GENIC_ALU_CASE(MulMask, (Av * B) & Value::maskOf(I.W))
      GENIC_ALU_CASE(AndBits, Av & B)
      GENIC_ALU_CASE(OrBits, Av | B)
      GENIC_ALU_CASE(XorBits, Av ^ B)
      // SMT-LIB semantics: shifting by >= width yields zero (Ashr
      // saturates to the sign bit).
      GENIC_ALU_CASE(Shl, B >= I.W ? 0 : (Av << B) & Value::maskOf(I.W))
      GENIC_ALU_CASE(Lshr, B >= I.W ? 0 : Av >> B)
      GENIC_ALU_CASE(
          Ashr, B >= I.W
                    ? ((Av >> (I.W - 1)) & 1 ? Value::maskOf(I.W) : 0)
                    : ((Av >> (I.W - 1)) & 1
                           ? (Av >> B) |
                                 (Value::maskOf(I.W) &
                                  ~(Value::maskOf(I.W) >> B))
                           : Av >> B))
    }
  }
}

#undef GENIC_RHS
#undef GENIC_CMP_CASE
#undef GENIC_ALU_CASE
