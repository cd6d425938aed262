//===- term/CompiledEval.cpp -----------------------------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "term/CompiledEval.h"

#include <cassert>

using namespace genic;

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

const CompiledEvalCache::CompiledFunc &
CompiledEvalCache::getFunc(const FuncDef *F) {
  auto It = Funcs.find(F);
  if (It != Funcs.end())
    return *It->second;
  // Register before compiling the body so (hypothetical) recursive callees
  // terminate; aux functions are non-recursive by construction of the
  // GENIC lowering, but a cycle must not hang the compiler.
  FuncStorage.push_back(CompiledFunc{F, {}, nullptr});
  CompiledFunc &CF = FuncStorage.back();
  Funcs.emplace(F, &CF);
  compileInto(CF.Body, F->Body);
  if (F->Domain) {
    CF.Domain = std::make_unique<CompiledProgram>();
    compileInto(*CF.Domain, F->Domain);
  }
  return CF;
}

void CompiledEvalCache::compileInto(CompiledProgram &P, TermRef T) {
  using IKind = CompiledProgram::IKind;
  using Instr = CompiledProgram::Instr;

  auto Emit = [&](Instr I) {
    P.Code.push_back(I);
    return static_cast<uint32_t>(P.Code.size() - 1);
  };
  auto Here = [&] { return static_cast<uint32_t>(P.Code.size()); };

  auto Go = [&](auto &&Self, TermRef Node) -> void {
    switch (Node->op()) {
    case Op::Const: {
      P.ConstPool.push_back(Node->constValue());
      Emit({IKind::PushConst, Op::Const, 0,
            static_cast<uint32_t>(P.ConstPool.size() - 1)});
      return;
    }
    case Op::Var: {
      P.VarPool.emplace_back(Node->varIndex(), Node->type());
      Emit({IKind::PushVar, Op::Var, 0,
            static_cast<uint32_t>(P.VarPool.size() - 1)});
      return;
    }
    case Op::Ite: {
      // cond; jf L_else; then; jmp L_end; L_else: else; L_end:
      Self(Self, Node->child(0));
      uint32_t ToElse = Emit({IKind::JumpIfFalsePop, Op::Ite, 0, 0});
      Self(Self, Node->child(1));
      uint32_t ToEnd = Emit({IKind::Jump, Op::Ite, 0, 0});
      P.Code[ToElse].A = Here();
      Self(Self, Node->child(2));
      P.Code[ToEnd].A = Here();
      return;
    }
    case Op::And:
    case Op::Or: {
      // Left-to-right with short-circuit, matching eval(): a deciding
      // operand hides the undefinedness of the operands after it.
      bool IsAnd = Node->op() == Op::And;
      std::vector<uint32_t> Outs;
      for (TermRef C : Node->children()) {
        Self(Self, C);
        Outs.push_back(Emit(
            {IsAnd ? IKind::JumpIfFalsePop : IKind::JumpIfTruePop,
             Node->op(), 0, 0}));
      }
      Emit({IKind::PushBool, Node->op(), 0, IsAnd ? 1u : 0u});
      uint32_t ToEnd = Emit({IKind::Jump, Node->op(), 0, 0});
      for (uint32_t Fix : Outs)
        P.Code[Fix].A = Here();
      Emit({IKind::PushBool, Node->op(), 0, IsAnd ? 0u : 1u});
      P.Code[ToEnd].A = Here();
      return;
    }
    case Op::Call: {
      for (TermRef C : Node->children())
        Self(Self, C);
      const CompiledFunc &CF = getFunc(Node->callee());
      P.FuncPool.push_back(&CF);
      Emit({IKind::Call, Op::Call, static_cast<uint16_t>(Node->arity()),
            static_cast<uint32_t>(P.FuncPool.size() - 1)});
      return;
    }
    default: {
      for (TermRef C : Node->children())
        Self(Self, C);
      Emit({IKind::Apply, Node->op(), static_cast<uint16_t>(Node->arity()),
            0});
      return;
    }
    }
  };
  Go(Go, T);
}

const CompiledProgram &CompiledEvalCache::compile(TermRef T) {
  ++TheStats.Lookups;
  auto It = Programs.find(T);
  if (It != Programs.end())
    return *It->second;
  ++TheStats.Compiles;
  auto P = std::make_unique<CompiledProgram>();
  compileInto(*P, T);
  return *Programs.emplace(T, std::move(P)).first->second;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

std::optional<Value> CompiledEvalCache::run(const CompiledProgram &P,
                                            Env Environment) {
  using IKind = CompiledProgram::IKind;
  const size_t Base = Stack.size();
  // Undefinedness aborts the whole program: every skipped operand was
  // skipped by a short-circuit jump, so an executed undefined poisons the
  // result exactly as in the recursive eval().
  auto Undefined = [&]() -> std::optional<Value> {
    Stack.resize(Base);
    return std::nullopt;
  };

  for (size_t PC = 0, End = P.Code.size(); PC != End; ++PC) {
    const CompiledProgram::Instr &I = P.Code[PC];
    switch (I.Kind) {
    case IKind::PushConst:
      Stack.push_back(P.ConstPool[I.A]);
      break;
    case IKind::PushVar: {
      const auto &[Index, Ty] = P.VarPool[I.A];
      if (Index >= Environment.size() || Environment[Index].type() != Ty)
        return Undefined();
      Stack.push_back(Environment[Index]);
      break;
    }
    case IKind::PushBool:
      Stack.push_back(Value::boolVal(I.A != 0));
      break;
    case IKind::Apply: {
      std::span<const Value> Args(Stack.data() + (Stack.size() - I.Argc),
                                  I.Argc);
      std::optional<Value> V = applyOp(I.O, Args);
      if (!V)
        return Undefined();
      Stack.resize(Stack.size() - I.Argc);
      Stack.push_back(*V);
      break;
    }
    case IKind::Call: {
      const auto &CF = *static_cast<const CompiledFunc *>(P.FuncPool[I.A]);
      // Copy the arguments out: nested frames share the stack vector, and
      // a push in the callee may reallocate it under a borrowed span.
      std::vector<Value> Args(Stack.end() - I.Argc, Stack.end());
      Stack.resize(Stack.size() - I.Argc);
      if (CF.Domain) {
        std::optional<Value> D = run(*CF.Domain, Args);
        if (!D || !D->type().isBool() || !D->getBool())
          return Undefined(); // Partial function outside its domain.
      }
      std::optional<Value> V = run(CF.Body, Args);
      if (!V)
        return Undefined();
      Stack.push_back(*V);
      break;
    }
    case IKind::Jump:
      PC = I.A - 1; // Loop increment lands on A.
      break;
    case IKind::JumpIfFalsePop: {
      bool Taken = !Stack.back().getBool();
      Stack.pop_back();
      if (Taken)
        PC = I.A - 1;
      break;
    }
    case IKind::JumpIfTruePop: {
      bool Taken = Stack.back().getBool();
      Stack.pop_back();
      if (Taken)
        PC = I.A - 1;
      break;
    }
    }
  }
  assert(Stack.size() == Base + 1 && "program must leave exactly one value");
  Value Result = Stack.back();
  Stack.resize(Base);
  return Result;
}

std::optional<Value> CompiledEvalCache::runProgram(const CompiledProgram &P,
                                                   Env Environment) {
  ++TheStats.Evals;
  return run(P, Environment);
}

bool CompiledEvalCache::runProgramBool(const CompiledProgram &P,
                                       Env Environment) {
  std::optional<Value> V = runProgram(P, Environment);
  return V && V->type().isBool() && V->getBool();
}

std::optional<Value> CompiledEvalCache::eval(TermRef T, Env Environment) {
  const CompiledProgram &P = compile(T);
  ++TheStats.Evals;
  return run(P, Environment);
}

bool CompiledEvalCache::evalBool(TermRef T, Env Environment) {
  std::optional<Value> V = eval(T, Environment);
  return V && V->type().isBool() && V->getBool();
}

std::optional<Value> CompiledEvalCache::callFunc(const FuncDef *F,
                                                 std::span<const Value> Args) {
  const CompiledFunc &CF = getFunc(F);
  ++TheStats.Evals;
  if (CF.Domain) {
    std::optional<Value> D = run(*CF.Domain, Args);
    if (!D || !D->type().isBool() || !D->getBool())
      return std::nullopt;
  }
  return run(CF.Body, Args);
}
