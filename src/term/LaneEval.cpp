//===- term/LaneEval.cpp ---------------------------------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "term/LaneEval.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <vector>

using namespace genic;

namespace {

/// One lane of intermediate values. Each evalNode frame keeps its own on
/// the stack, so an evaluation allocates nothing (unless a node has more
/// than InlineOperands operands); recursion is as deep as the auxiliary
/// bodies a candidate calls.
using LaneBuffer = std::array<uint64_t, MaxLanes>;
constexpr size_t InlineOperands = 4;

/// The lanes whose word is nonzero (boolean true).
uint64_t truthy(const uint64_t *V, size_t N) {
  uint64_t M = 0;
  for (size_t E = 0; E != N; ++E)
    M |= uint64_t{V[E] != 0} << E;
  return M;
}

uint64_t undefined(size_t N, uint64_t *Out) {
  std::fill_n(Out, N, 0);
  return 0;
}

template <typename Fn>
void map1(const Lane &A, size_t N, uint64_t *Out, Fn F) {
  for (size_t E = 0; E != N; ++E)
    Out[E] = F(A.Raw[E]);
}

template <typename Fn>
void map2(const Lane &A, const Lane &B, size_t N, uint64_t *Out, Fn F) {
  for (size_t E = 0; E != N; ++E)
    Out[E] = F(A.Raw[E], B.Raw[E]);
}

/// Writes and/or results: lanes in \p Decided take !IsAnd, every other
/// lane IsAnd (the value of a lane no operand decided).
void writeFold(bool IsAnd, uint64_t Decided, size_t N, uint64_t *Out) {
  for (size_t E = 0; E != N; ++E)
    Out[E] = (Decided >> E & 1) ? !IsAnd : IsAnd;
}

/// applyOp() over lanes, without clearing undefined lanes (every lane
/// < N of Out is written; only the returned lanes are meaningful).
uint64_t applyNode(Op O, LaneEnv Args, uint64_t Mask, size_t N,
                   uint64_t *Out) {
  switch (O) {
  case Op::Var:
  case Op::Const:
  case Op::Call:
    return undefined(N, Out);
  case Op::Eq:
    if (Args[0].Ty != Args[1].Ty) {
      std::fill_n(Out, N, 0); // Values of different types never compare equal.
      return Mask;
    }
    map2(Args[0], Args[1], N, Out, [](uint64_t A, uint64_t B) {
      return uint64_t{A == B};
    });
    return Mask;
  case Op::Ite:
    for (size_t E = 0; E != N; ++E)
      Out[E] = Args[0].Raw[E] ? Args[1].Raw[E] : Args[2].Raw[E];
    return Mask;
  case Op::Not:
    map1(Args[0], N, Out, [](uint64_t A) { return uint64_t{A == 0}; });
    return Mask;
  case Op::And:
  case Op::Or: {
    bool IsAnd = O == Op::And;
    uint64_t Open = Mask, Decided = 0;
    for (const Lane &A : Args) {
      if (!A.Ty.isBool()) {
        Open = 0;
        break;
      }
      uint64_t True = truthy(A.Raw, N);
      Decided |= Open & (IsAnd ? ~True : True);
      Open &= IsAnd ? True : ~True;
    }
    writeFold(IsAnd, Decided, N, Out);
    return Decided | Open;
  }
  case Op::Implies:
    map2(Args[0], Args[1], N, Out, [](uint64_t A, uint64_t B) {
      return uint64_t{A == 0 || B != 0};
    });
    return Mask;
  case Op::Iff:
    map2(Args[0], Args[1], N, Out, [](uint64_t A, uint64_t B) {
      return uint64_t{(A != 0) == (B != 0)};
    });
    return Mask;
  // Int lanes hold two's-complement patterns, so wrapping unsigned
  // arithmetic gives the patterns of the int64 results.
  case Op::IntNeg:
    map1(Args[0], N, Out, [](uint64_t A) { return uint64_t{0} - A; });
    return Mask;
  case Op::IntAdd:
    map2(Args[0], Args[1], N, Out, [](uint64_t A, uint64_t B) { return A + B; });
    return Mask;
  case Op::IntSub:
    map2(Args[0], Args[1], N, Out, [](uint64_t A, uint64_t B) { return A - B; });
    return Mask;
  case Op::IntMul:
    map2(Args[0], Args[1], N, Out, [](uint64_t A, uint64_t B) { return A * B; });
    return Mask;
  case Op::IntLe:
  case Op::IntLt:
  case Op::IntGe:
  case Op::IntGt:
    map2(Args[0], Args[1], N, Out, [O](uint64_t A, uint64_t B) {
      int64_t SA = static_cast<int64_t>(A), SB = static_cast<int64_t>(B);
      bool R = O == Op::IntLe   ? SA <= SB
               : O == Op::IntLt ? SA < SB
               : O == Op::IntGe ? SA >= SB
                                : SA > SB;
      return uint64_t{R};
    });
    return Mask;
  default:
    break;
  }

  // Bit-vector operators, as applyBvOp().
  if (!Args[0].Ty.isBitVec())
    return undefined(N, Out);
  const unsigned W = Args[0].Ty.width();
  const uint64_t M = Value::maskOf(W);
  if (O == Op::BvNeg) {
    map1(Args[0], N, Out, [M](uint64_t A) { return (~A + 1) & M; });
    return Mask;
  }
  if (O == Op::BvNot) {
    map1(Args[0], N, Out, [M](uint64_t A) { return ~A & M; });
    return Mask;
  }
  if (Args.size() < 2 || Args[1].Ty != Args[0].Ty)
    return undefined(N, Out);
  const Lane &L = Args[0], &R = Args[1];
  auto SignExtend = [W](uint64_t X) {
    if (W == 64)
      return static_cast<int64_t>(X);
    uint64_t SignBit = uint64_t{1} << (W - 1);
    return static_cast<int64_t>((X ^ SignBit) - SignBit);
  };
  switch (O) {
  case Op::BvAdd:
    map2(L, R, N, Out, [M](uint64_t A, uint64_t B) { return (A + B) & M; });
    return Mask;
  case Op::BvSub:
    map2(L, R, N, Out, [M](uint64_t A, uint64_t B) { return (A - B) & M; });
    return Mask;
  case Op::BvMul:
    map2(L, R, N, Out, [M](uint64_t A, uint64_t B) { return (A * B) & M; });
    return Mask;
  case Op::BvAnd:
    map2(L, R, N, Out, [M](uint64_t A, uint64_t B) { return A & B & M; });
    return Mask;
  case Op::BvOr:
    map2(L, R, N, Out, [M](uint64_t A, uint64_t B) { return (A | B) & M; });
    return Mask;
  case Op::BvXor:
    map2(L, R, N, Out, [M](uint64_t A, uint64_t B) { return (A ^ B) & M; });
    return Mask;
  case Op::BvShl:
    // SMT-LIB semantics: shifting by >= width yields zero.
    map2(L, R, N, Out, [W, M](uint64_t A, uint64_t B) {
      return B >= W ? 0 : (A << B) & M;
    });
    return Mask;
  case Op::BvLshr:
    map2(L, R, N, Out, [W, M](uint64_t A, uint64_t B) {
      return B >= W ? 0 : (A >> B) & M;
    });
    return Mask;
  case Op::BvAshr:
    map2(L, R, N, Out, [W, M](uint64_t A, uint64_t B) {
      bool Sign = (A >> (W - 1)) & 1;
      if (B >= W)
        return Sign ? M : 0;
      uint64_t Shifted = A >> B;
      if (Sign)
        Shifted |= M & ~(M >> B);
      return Shifted & M;
    });
    return Mask;
  case Op::BvUle:
    map2(L, R, N, Out, [](uint64_t A, uint64_t B) { return uint64_t{A <= B}; });
    return Mask;
  case Op::BvUlt:
    map2(L, R, N, Out, [](uint64_t A, uint64_t B) { return uint64_t{A < B}; });
    return Mask;
  case Op::BvUge:
    map2(L, R, N, Out, [](uint64_t A, uint64_t B) { return uint64_t{A >= B}; });
    return Mask;
  case Op::BvUgt:
    map2(L, R, N, Out, [](uint64_t A, uint64_t B) { return uint64_t{A > B}; });
    return Mask;
  case Op::BvSle:
    map2(L, R, N, Out, [&](uint64_t A, uint64_t B) {
      return uint64_t{SignExtend(A) <= SignExtend(B)};
    });
    return Mask;
  case Op::BvSlt:
    map2(L, R, N, Out, [&](uint64_t A, uint64_t B) {
      return uint64_t{SignExtend(A) < SignExtend(B)};
    });
    return Mask;
  case Op::BvSge:
    map2(L, R, N, Out, [&](uint64_t A, uint64_t B) {
      return uint64_t{SignExtend(A) >= SignExtend(B)};
    });
    return Mask;
  case Op::BvSgt:
    map2(L, R, N, Out, [&](uint64_t A, uint64_t B) {
      return uint64_t{SignExtend(A) > SignExtend(B)};
    });
    return Mask;
  default:
    return undefined(N, Out);
  }
}

uint64_t evalNode(TermRef T, LaneEnv Env, uint64_t Mask, size_t N,
                  uint64_t *Out);

uint64_t callNode(const FuncDef *F, LaneEnv Args, uint64_t Mask, size_t N,
                  uint64_t *Out) {
  if (F->Domain && Mask) {
    // evalBool(): an undefined or non-boolean domain value rejects.
    LaneBuffer D;
    uint64_t Holds = evalNode(F->Domain, Args, Mask, N, D.data());
    Mask = F->Domain->type().isBool() ? Holds & truthy(D.data(), N) : 0;
  }
  return evalNode(F->Body, Args, Mask, N, Out);
}

/// eval() over lanes; like applyNode, leaves undefined lanes unspecified.
uint64_t evalNode(TermRef T, LaneEnv Env, uint64_t Mask, size_t N,
                  uint64_t *Out) {
  if (Mask == 0)
    return undefined(N, Out);
  switch (T->op()) {
  case Op::Const:
    std::fill_n(Out, N, T->constValue().rawBits());
    return Mask;
  case Op::Var: {
    unsigned I = T->varIndex();
    if (I >= Env.size() || Env[I].Ty != T->type())
      return undefined(N, Out);
    std::copy_n(Env[I].Raw, N, Out);
    return Mask;
  }
  case Op::Ite: {
    // Each lane evaluates only its taken branch, so an untaken branch may
    // be undefined there.
    LaneBuffer Cond, Else;
    uint64_t Decided = evalNode(T->child(0), Env, Mask, N, Cond.data());
    uint64_t True = truthy(Cond.data(), N);
    uint64_t ThenLanes = Decided & True, ElseLanes = Decided & ~True;
    uint64_t Defined = evalNode(T->child(1), Env, ThenLanes, N, Out);
    Defined |= evalNode(T->child(2), Env, ElseLanes, N, Else.data());
    for (size_t E = 0; E != N; ++E)
      if (ElseLanes >> E & 1)
        Out[E] = Else[E];
    return Defined;
  }
  case Op::And:
  case Op::Or: {
    // Left to right per lane: a deciding operand hides the undefinedness
    // of the operands after it, and an undefined one before any deciding
    // operand makes the lane undefined.
    bool IsAnd = T->op() == Op::And;
    LaneBuffer V;
    uint64_t Open = Mask, Decided = 0;
    for (TermRef C : T->children()) {
      if (!Open)
        break;
      uint64_t Defined = evalNode(C, Env, Open, N, V.data());
      uint64_t True = truthy(V.data(), N);
      Decided |= Defined & (IsAnd ? ~True : True);
      Open &= Defined & (IsAnd ? True : ~True);
    }
    writeFold(IsAnd, Decided, N, Out);
    return Decided | Open;
  }
  default: {
    // Strict operators and calls: a lane needs every operand defined.
    const size_t Arity = T->arity();
    std::array<LaneBuffer, InlineOperands> Raw;
    std::array<Lane, InlineOperands> Args;
    std::vector<LaneBuffer> BigRaw;
    std::vector<Lane> BigArgs;
    LaneBuffer *RawAt = Raw.data();
    Lane *ArgAt = Args.data();
    if (Arity > InlineOperands) {
      BigRaw.resize(Arity);
      BigArgs.resize(Arity);
      RawAt = BigRaw.data();
      ArgAt = BigArgs.data();
    }
    uint64_t Defined = Mask;
    for (size_t I = 0; I != Arity; ++I) {
      Defined &= evalNode(T->child(I), Env, Defined, N, RawAt[I].data());
      ArgAt[I] = Lane{RawAt[I].data(), T->child(I)->type()};
    }
    LaneEnv ArgEnv(ArgAt, Arity);
    if (T->op() == Op::Call)
      return callNode(T->callee(), ArgEnv, Defined, N, Out);
    return applyNode(T->op(), ArgEnv, Defined, N, Out);
  }
  }
}

/// Zeroes the lanes outside \p Defined, the public output convention.
uint64_t clearUndefined(uint64_t Defined, size_t N, uint64_t *Out) {
  for (size_t E = 0; E != N; ++E)
    if (!(Defined >> E & 1))
      Out[E] = 0;
  return Defined;
}

} // namespace

uint64_t genic::evalLanes(TermRef T, LaneEnv Env, uint64_t Defined,
                          size_t NumEx, uint64_t *Out) {
  assert(NumEx <= MaxLanes && "more examples than lanes");
  return clearUndefined(
      evalNode(T, Env, Defined & laneMask(NumEx), NumEx, Out), NumEx, Out);
}

uint64_t genic::evalBoolLanes(TermRef T, LaneEnv Env, uint64_t Defined,
                              size_t NumEx) {
  if (!T->type().isBool())
    return 0;
  LaneBuffer V;
  return evalLanes(T, Env, Defined, NumEx, V.data()) & truthy(V.data(), NumEx);
}

uint64_t genic::callLanes(const FuncDef *F, LaneEnv Args, uint64_t Defined,
                          size_t NumEx, uint64_t *Out) {
  assert(NumEx <= MaxLanes && "more examples than lanes");
  return clearUndefined(
      callNode(F, Args, Defined & laneMask(NumEx), NumEx, Out), NumEx, Out);
}

uint64_t genic::applyLanes(Op O, LaneEnv Args, uint64_t Defined,
                           size_t NumEx, uint64_t *Out) {
  assert(NumEx <= MaxLanes && "more examples than lanes");
  return clearUndefined(
      applyNode(O, Args, Defined & laneMask(NumEx), NumEx, Out), NumEx, Out);
}
