//===- sygus/Enumerator.cpp ------------------------------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "sygus/Enumerator.h"

#include "support/Timer.h"
#include "term/LaneEval.h"

#include <bit>
#include <cassert>
#include <cstdio>
#include <deque>

using namespace genic;

namespace {

using Sig = ObsSig;
using Entry = BankEntry;

static_assert(Enumerator::MaxExamples <= MaxLanes,
              "every example set the enumerator accepts fits one lane mask");

} // namespace

Enumerator::Enumerator(TermFactory &F, const Grammar &G,
                       std::vector<std::vector<Value>> Examples, Config C)
    : Factory(F), G(G), Examples(std::move(Examples)), Cfg(C) {}

std::optional<TermRef>
Enumerator::findMatching(const std::vector<Value> &Target) {
  assert(Target.size() == Examples.size() &&
         "one target output per example");
  LastStats = Stats();
  if (Examples.size() > MaxExamples) {
    // Truncating here would silently synthesize against a subset of the
    // spec; fail instead and let the caller shrink the example set.
    std::fprintf(stderr,
                 "genic: enumerator given %zu examples, cap is %zu "
                 "(64-bit packed signatures); rejecting\n",
                 Examples.size(), MaxExamples);
    LastStats.RejectedOversized = true;
    return std::nullopt;
  }
  Timer Clock;
  const size_t NumEx = Examples.size();

  Sig TargetSig;
  TargetSig.Raw.reserve(NumEx);
  for (const Value &V : Target)
    TargetSig.Raw.push_back(V.rawBits());
  TargetSig.Defined = laneMask(NumEx);

  // Seed the banks from the persistent store when one is configured: sizes
  // 1..CompletedThrough were fully enumerated by an earlier call over the
  // same (grammar, examples) pair, so this call scans them for a match and
  // resumes enumeration after them. Term pointers in the seeded banks are
  // valid because the store's owner shares this enumerator's factory.
  EnumeratorBanks Work;
  if (Cfg.BankStore) {
    if (std::optional<EnumeratorBanks> Stored =
            Cfg.BankStore->take(G, Examples)) {
      Work = std::move(*Stored);
      LastStats.ReusedBank = true;
    }
  }

  // Banks live in a deque and are all registered up front, and each bank's
  // size-indexed slots are pre-allocated, so no reference into the bank
  // structure is invalidated while enumeration loops iterate over it (only
  // the slot currently being filled grows, and nothing holds references
  // into it).
  std::deque<TypeBank> &Banks = Work.Banks;
  auto BankOf = [&](const Type &Ty) -> TypeBank & {
    for (TypeBank &B : Banks) {
      if (!(B.Ty == Ty))
        continue;
      if (B.BySize.size() < size_t{Cfg.MaxSize} + 2)
        B.BySize.resize(size_t{Cfg.MaxSize} + 2);
      return B;
    }
    Banks.push_back(TypeBank{Ty, {}, {}});
    Banks.back().BySize.resize(size_t{Cfg.MaxSize} + 2);
    return Banks.back();
  };
  BankOf(G.ResultType);
  for (const Type &Ty : G.VarTypes)
    BankOf(Ty);
  for (const Value &C : G.Constants)
    BankOf(C.type());
  for (const FuncDef *Fn : G.Funcs) {
    BankOf(Fn->ReturnType);
    for (const Type &Ty : Fn->ParamTypes)
      BankOf(Ty);
  }
  if (G.EnableIte)
    BankOf(Type::boolTy());

  std::optional<TermRef> Found;
  size_t TotalKept = Work.TotalKept;

  // Rolls back every size past the completed watermark (a size cut short
  // by a match or budget would otherwise poison later resumes) and puts
  // the banks back into the store.
  auto Commit = [&] {
    LastStats.TermsKept = TotalKept;
    LastStats.Exhausted = !Found && Work.CompletedThrough >= Cfg.MaxSize;
    if (!Cfg.BankStore)
      return;
    size_t Dropped = 0;
    for (TypeBank &B : Work.Banks) {
      for (size_t Sz = size_t{Work.CompletedThrough} + 1;
           Sz < B.BySize.size(); ++Sz) {
        if (B.BySize[Sz].empty())
          continue;
        for (const Entry &E : B.BySize[Sz])
          B.Seen.erase(E.S);
        Dropped += B.BySize[Sz].size();
        B.BySize[Sz].clear();
      }
    }
    Work.TotalKept = TotalKept - Dropped;
    Cfg.BankStore->put(G, Examples, std::move(Work));
  };

  // A seeded bank may already hold a matching term in a completed size.
  // Slot order is insertion order, so the first hit is exactly the term a
  // fresh enumeration would have returned; sizes past MaxSize are skipped
  // to keep the result identical to an unseeded run of this budget.
  if (LastStats.ReusedBank) {
    TypeBank &RB = BankOf(G.ResultType);
    unsigned ScanThrough =
        std::min(Work.CompletedThrough, Cfg.MaxSize);
    for (size_t Sz = 1; Sz <= ScanThrough && !Found; ++Sz) {
      if (RB.BySize.size() <= Sz)
        break;
      for (const Entry &E : RB.BySize[Sz]) {
        if (E.S == TargetSig) {
          Found = E.T;
          break;
        }
      }
    }
    if (Found) {
      LastStats.SizeReached = Work.CompletedThrough;
      Commit();
      return Found;
    }
  }

  // Inserts a term with signature S into its bank (unless observationally
  // equivalent to an existing one) and checks it against the target.
  auto Insert = [&](TermRef T, const Type &Ty, Sig S, unsigned Size) {
    TypeBank &B = BankOf(Ty);
    if (!B.Seen.insert(S).second)
      return;
    assert(B.BySize.size() > Size && "bank slots pre-allocated");
    if (Ty == G.ResultType && S == TargetSig && !Found)
      Found = T;
    B.BySize[Size].push_back(Entry{T, std::move(S)});
    ++TotalKept;
  };

  // --- Size 1: variables and constants -------------------------------------
  if (Work.CompletedThrough < 1) {
    for (unsigned I : G.UsableVars) {
      Sig S;
      S.Raw.reserve(NumEx);
      for (size_t E = 0; E != NumEx; ++E)
        S.Raw.push_back(Examples[E][I].rawBits());
      S.Defined = TargetSig.Defined;
      Insert(Factory.mkVar(I, G.VarTypes[I]), G.VarTypes[I], std::move(S), 1);
    }
    for (const Value &C : G.Constants) {
      Sig S;
      S.Raw.assign(NumEx, C.rawBits());
      S.Defined = TargetSig.Defined;
      Insert(Factory.mkConst(C), C.type(), std::move(S), 1);
    }
    Work.CompletedThrough = 1;
    if (Found) {
      LastStats.SizeReached = 1;
      Commit();
      return Found;
    }
  }

  // Evaluates one combination on every example at once, straight on its
  // children's signature lanes, and inserts it. A lane takes part only
  // where every child is defined (applyOp() is strict); then operator \p O,
  // or auxiliary function \p Callee when set, decides the lane. One
  // scratch signature serves every candidate, and only an insert copies it.
  Sig Scratch;
  Scratch.Raw.assign(NumEx, 0);
  auto Combine = [&](auto MakeTerm, std::span<const Entry *const> Children,
                     std::span<const Type> ChildTypes, const Type &ResultTy,
                     unsigned Size, Op O, const FuncDef *Callee = nullptr) {
    ++LastStats.CandidatesTried;
    assert(Children.size() <= 3 && "operators and calls take <= 3 operands");
    Lane Args[3];
    uint64_t Defined = TargetSig.Defined;
    for (size_t C = 0; C != Children.size(); ++C) {
      Defined &= Children[C]->S.Defined;
      Args[C] = Lane{Children[C]->S.Raw.data(), ChildTypes[C]};
    }
    // Fully-undefined combinations are useless.
    if (Defined == 0)
      return;
    LastStats.CandidateEvals += std::popcount(Defined);
    LaneEnv Env(Args, Children.size());
    Scratch.Defined =
        Callee ? callLanes(Callee, Env, Defined, NumEx, Scratch.Raw.data())
               : applyLanes(O, Env, Defined, NumEx, Scratch.Raw.data());
    if (Scratch.Defined == 0)
      return;
    TypeBank &B = BankOf(ResultTy);
    if (B.Seen.count(Scratch))
      return; // Skip building the term for observational duplicates.
    Insert(MakeTerm(), ResultTy, Scratch, Size);
  };

  auto IsCommutative = [](Op O) {
    return O == Op::IntAdd || O == Op::IntMul || O == Op::BvAdd ||
           O == Op::BvAnd || O == Op::BvOr || O == Op::BvXor;
  };

  // --- Sizes (CompletedThrough+1)..MaxSize -----------------------------------
  for (unsigned Size = std::max(2u, Work.CompletedThrough + 1);
       Size <= Cfg.MaxSize; ++Size) {
    LastStats.SizeReached = Size;
    if (Clock.seconds() > Cfg.TimeoutSeconds || TotalKept > Cfg.MaxTerms ||
        Cfg.Cancel.cancelled()) {
      LastStats.TimedOut =
          Clock.seconds() > Cfg.TimeoutSeconds || Cfg.Cancel.cancelled();
      break;
    }

    for (Op O : G.Ops) {
      bool IsInt = O >= Op::IntAdd && O <= Op::IntGt;
      bool Unary = O == Op::IntNeg || O == Op::BvNeg || O == Op::BvNot;
      bool IsCompare = O == Op::IntLe || O == Op::IntLt || O == Op::IntGe ||
                       O == Op::IntGt || O == Op::BvUle || O == Op::BvUlt ||
                       O == Op::BvUge || O == Op::BvUgt;
      if (IsCompare && !G.EnableIte)
        continue;
      for (TypeBank &B : Banks) {
        // Iterate over a stable copy of the bank list: Insert may grow it.
        if (IsInt != B.Ty.isInt())
          continue;
        if (!IsInt && !B.Ty.isBitVec())
          continue;
        Type OperandTy = B.Ty;
        Type ResultTy = IsCompare ? Type::boolTy() : OperandTy;
        Type ChildTypes[2] = {OperandTy, OperandTy};
        if (Unary) {
          unsigned CS = Size - 1;
          if (B.BySize.size() <= CS)
            continue;
          for (const Entry &C : B.BySize[CS]) {
            const Entry *Cs[1] = {&C};
            Combine(
                [&] {
                  return IsInt ? Factory.mkIntOp(O, C.T)
                               : Factory.mkBvOp(O, C.T);
                },
                Cs, std::span<const Type>(ChildTypes, 1), ResultTy, Size, O);
          }
          continue;
        }
        for (unsigned LS = 1; LS + 1 < Size; ++LS) {
          unsigned RS = Size - 1 - LS;
          if (IsCommutative(O) && LS > RS)
            continue;
          if (B.BySize.size() <= LS || B.BySize.size() <= RS)
            continue;
          const auto &Ls = B.BySize[LS];
          const auto &Rs = B.BySize[RS];
          for (size_t I = 0; I != Ls.size(); ++I) {
            size_t JBegin = (IsCommutative(O) && LS == RS) ? I : 0;
            for (size_t J = JBegin; J != Rs.size(); ++J) {
              const Entry *Cs[2] = {&Ls[I], &Rs[J]};
              Combine(
                  [&] {
                    return IsInt ? Factory.mkIntOp(O, Ls[I].T, Rs[J].T)
                                 : Factory.mkBvOp(O, Ls[I].T, Rs[J].T);
                  },
                  Cs, std::span<const Type>(ChildTypes, 2), ResultTy, Size,
                  O);
            }
          }
          if (Clock.seconds() > Cfg.TimeoutSeconds ||
              TotalKept > Cfg.MaxTerms || Cfg.Cancel.cancelled())
            break;
        }
      }
    }

    // Auxiliary function components.
    for (const FuncDef *Fn : G.Funcs) {
      unsigned A = Fn->arity();
      if (A == 0 || A > 3 || Size < A + 1)
        continue;
      // Enumerate operand size compositions summing to Size - 1.
      std::vector<const Entry *> Chosen(A);
      std::vector<unsigned> Sizes(A, 1);
      auto Recurse = [&](auto &&Self, unsigned Pos,
                         unsigned Remaining) -> void {
        if (Found)
          return;
        if (Pos + 1 == A) {
          Sizes[Pos] = Remaining;
          // All operand sizes fixed; iterate entries.
          auto Iterate = [&](auto &&Me, unsigned P) -> void {
            if (Found)
              return;
            if (P == A) {
              Combine(
                  [&] {
                    std::vector<TermRef> Args;
                    for (const Entry *C : Chosen)
                      Args.push_back(C->T);
                    return Factory.mkCall(Fn, std::move(Args));
                  },
                  std::span<const Entry *const>(Chosen.data(), A),
                  std::span<const Type>(Fn->ParamTypes.data(), A),
                  Fn->ReturnType, Size, Op::Call, Fn);
              return;
            }
            TypeBank &B = BankOf(Fn->ParamTypes[P]);
            if (B.BySize.size() <= Sizes[P])
              return;
            // A reference stays valid: BySize was sized up front, and
            // Insert only appends to slot Size, while operands come from
            // smaller sizes.
            for (const Entry &C : B.BySize[Sizes[P]]) {
              Chosen[P] = &C;
              Me(Me, P + 1);
            }
          };
          Iterate(Iterate, 0);
          return;
        }
        for (unsigned S = 1; S + (A - Pos - 1) <= Remaining; ++S) {
          Sizes[Pos] = S;
          Self(Self, Pos + 1, Remaining - S);
        }
      };
      Recurse(Recurse, 0, Size - 1);
    }

    // ite(cond, then, else) over comparisons, when enabled.
    if (G.EnableIte && Size >= 4) {
      TypeBank &BoolBank = BankOf(Type::boolTy());
      for (unsigned CS = 1; CS + 2 < Size; ++CS) {
        if (BoolBank.BySize.size() <= CS)
          continue;
        // References stay valid, as for the aux-call operands above.
        const std::vector<Entry> &Conds = BoolBank.BySize[CS];
        for (unsigned TS = 1; CS + TS + 1 < Size; ++TS) {
          unsigned ES = Size - 1 - CS - TS;
          TypeBank &RB = BankOf(G.ResultType);
          if (RB.BySize.size() <= TS || RB.BySize.size() <= ES)
            continue;
          const std::vector<Entry> &Thens = RB.BySize[TS];
          const std::vector<Entry> &Elses = RB.BySize[ES];
          Type ChildTypes[3] = {Type::boolTy(), G.ResultType, G.ResultType};
          for (const Entry &C : Conds)
            for (const Entry &T : Thens)
              for (const Entry &E : Elses) {
                const Entry *Cs[3] = {&C, &T, &E};
                Combine(
                    [&] { return Factory.mkIte(C.T, T.T, E.T); }, Cs,
                    std::span<const Type>(ChildTypes, 3), G.ResultType, Size,
                    Op::Ite);
              }
        }
      }
    }

    // The size is fully enumerated — and safe to resume past — only if no
    // match ended the Funcs walk early and no budget cut a loop short
    // (both clocks are monotone, so still being within budget here means
    // no inner break fired during this size).
    if (!Found && Clock.seconds() <= Cfg.TimeoutSeconds &&
        TotalKept <= Cfg.MaxTerms && !Cfg.Cancel.cancelled())
      Work.CompletedThrough = Size;

    if (Found)
      break;
  }

  Commit();
  return Found;
}
