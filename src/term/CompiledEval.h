//===- term/CompiledEval.h - Flat register-machine term evaluation --------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiled evaluation of terms: a term is flattened once into a postorder
/// stack-machine program (a flat instruction buffer with jump-based
/// short-circuiting for ite/and/or and sub-programs for auxiliary-function
/// calls), and the program is then executed many times without re-walking
/// the tree. This is the throughput layer for terms evaluated many times
/// on one example each: guard sampling and example induction in SyGuS,
/// projection-image walks, and the streaming decode runtime. Replacing the
/// recursive eval() — hash-map memo, per-node argument vectors, pointer
/// chasing — with a linear sweep over a few bytes per node is worth 3-10x
/// there. (The enumerator's candidates, each evaluated once on every
/// example, use the lane evaluator of term/LaneEval.h instead.)
///
/// Semantics are exactly those of eval() in term/Eval.h, including
/// left-to-right short-circuiting of and/or, laziness of ite branches, and
/// "undefined" propagation through partial auxiliary functions (domain
/// failure or an unbound/mistyped variable aborts the program and yields
/// std::nullopt). tests/compiled_eval_test.cpp holds the parity property.
///
/// Programs are cached per TermRef. Hash-consing makes the pointer a
/// canonical key: structurally equal terms of one factory share a program.
/// Like the factory itself, a cache is NOT thread-safe — parallel inversion
/// gives each worker session its own cache.
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_TERM_COMPILEDEVAL_H
#define GENIC_TERM_COMPILEDEVAL_H

#include "term/Eval.h"
#include "term/Term.h"

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

namespace genic {

/// One flattened term. Build via CompiledEvalCache; execute via the cache's
/// eval entry points (execution needs the cache's compiled callees).
class CompiledProgram {
public:
  /// Number of instructions (roughly the term's operator count; useful in
  /// micro-benchmarks and tests).
  size_t codeSize() const { return Code.size(); }

private:
  friend class CompiledEvalCache;

  enum class IKind : uint8_t {
    PushConst,       // push ConstPool[A]
    PushVar,         // push Env[VarPool[A].first], type-checked
    PushBool,        // push boolVal(A != 0)
    Apply,           // pop Argc, push applyOp(O, args)
    Call,            // pop Argc, run FuncPool[A] (domain then body), push
    Jump,            // pc = A
    JumpIfFalsePop,  // pop; if false pc = A
    JumpIfTruePop,   // pop; if true pc = A
  };

  struct Instr {
    IKind Kind;
    Op O = Op::Const;   // Apply only
    uint16_t Argc = 0;  // Apply/Call only
    uint32_t A = 0;     // pool index / jump target / bool payload
  };

  std::vector<Instr> Code;
  std::vector<Value> ConstPool;
  std::vector<std::pair<unsigned, Type>> VarPool; // (index, expected type)
  std::vector<const void *> FuncPool;             // CompiledFunc, cache-owned
};

/// Owner of compiled programs for one session. Compiles lazily, caches by
/// TermRef (and by FuncDef for auxiliary callees), and executes with a
/// reused value stack so steady-state evaluation allocates nothing.
class CompiledEvalCache {
public:
  CompiledEvalCache() = default;
  CompiledEvalCache(const CompiledEvalCache &) = delete;
  CompiledEvalCache &operator=(const CompiledEvalCache &) = delete;

  /// Compiles \p T (or retrieves the cached program) and evaluates it under
  /// \p Environment. Agrees with eval(T, Environment) on every input.
  std::optional<Value> eval(TermRef T, Env Environment);

  /// Boolean evaluation mapping "undefined" to false, like evalBool().
  bool evalBool(TermRef T, Env Environment);

  /// Applies auxiliary function \p F to \p Args: undefined when the domain
  /// predicate rejects (or is itself undefined on) the arguments, otherwise
  /// the body's value. One compiled program per callee, shared by every
  /// call site.
  std::optional<Value> callFunc(const FuncDef *F, std::span<const Value> Args);

  /// Compiles without evaluating (for benchmarks and warm-up). The returned
  /// reference stays valid for the cache's lifetime, so callers on a hot
  /// loop can compile once and execute through runProgram() — skipping the
  /// per-eval cache probe entirely. The streaming decode runtime
  /// (runtime/CompiledSeft.h) compiles every rule of a machine this way.
  const CompiledProgram &compile(TermRef T);

  /// Executes a program previously returned by compile() under
  /// \p Environment. Semantics are exactly eval()'s on the program's source
  /// term; no cache lookup happens.
  std::optional<Value> runProgram(const CompiledProgram &P, Env Environment);

  /// Boolean execution mapping "undefined" to false, like evalBool().
  bool runProgramBool(const CompiledProgram &P, Env Environment);

  struct Stats {
    uint64_t Lookups = 0;  // program-cache probes
    uint64_t Compiles = 0; // probes that had to compile (misses)
    uint64_t Evals = 0;    // program executions
    uint64_t hits() const { return Lookups - Compiles; }
  };
  const Stats &stats() const { return TheStats; }
  void resetStats() { TheStats = Stats(); }

private:
  struct CompiledFunc {
    const FuncDef *F = nullptr;
    CompiledProgram Body;
    std::unique_ptr<CompiledProgram> Domain; // null when total
  };

  const CompiledFunc &getFunc(const FuncDef *F);
  void compileInto(CompiledProgram &P, TermRef T);
  std::optional<Value> run(const CompiledProgram &P, Env Environment);

  std::unordered_map<TermRef, std::unique_ptr<CompiledProgram>> Programs;
  std::unordered_map<const FuncDef *, CompiledFunc *> Funcs;
  std::deque<CompiledFunc> FuncStorage; // stable addresses for FuncPool
  std::vector<Value> Stack;             // reused execution stack
  Stats TheStats;
};

} // namespace genic

#endif // GENIC_TERM_COMPILEDEVAL_H
