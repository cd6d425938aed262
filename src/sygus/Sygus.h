//===- sygus/Sygus.h - CEGIS synthesis of recovery functions --------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SyGuS engine (§6): given a transition's image predicate (guard phi
/// and output functions f over inputs x) and a target expression t(x) —
/// usually a single input variable x_i — synthesize g over the outputs y
/// such that
///
///     forall x . phi(x)  ->  g(f(x)) = t(x).
///
/// The engine is counterexample-guided: it samples inputs satisfying phi,
/// asks the bottom-up enumerator for a term matching the target values on
/// the induced (y, t) examples, verifies the candidate with the SMT solver,
/// and turns verification failures into new examples.
///
/// Every call is recorded with its duration and the size of the synthesized
/// term; Figure 4 plots exactly this data.
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_SYGUS_SYGUS_H
#define GENIC_SYGUS_SYGUS_H

#include "solver/Solver.h"
#include "support/Result.h"
#include "sygus/BitSlice.h"
#include "sygus/EnumeratorBank.h"
#include "sygus/Grammar.h"
#include "term/CompiledEval.h"

#include <map>
#include <utility>
#include <vector>

namespace genic {

/// One synthesis obligation; see file comment.
struct SynthesisSpec {
  /// Guard and outputs over Var(0..NumInputs-1). The guard must already
  /// entail definedness of the outputs (callers conjoin aux-function
  /// domains).
  ImagePredicate Image;
  /// What to recover, over the same input variables.
  TermRef Target = nullptr;
};

/// Adds \p Eval and \p Bank to \p Registry's "eval.<family>.*" and
/// "bank.<family>.*" counters, the family given by \p Kind (see
/// counterFamily). Zero stats register the families at zero.
void recordEngineStats(MetricsRegistry &Registry, SolverSessionKind Kind,
                       const CompiledEvalCache::Stats &Eval,
                       const EnumeratorBankStore::Stats &Bank);

/// The CEGIS driver.
class SygusEngine {
public:
  struct Options {
    unsigned MaxTermSize = 25;
    double EnumTimeoutSeconds = 30;
    unsigned MaxCegisIterations = 16;
    unsigned NumExamples = 24;
    uint64_t Seed = 0x5eed5eed;
    /// Try the bit-slice candidate generator (sygus/BitSlice.h) before
    /// enumeration. Disable to reproduce the plain Enumerative-CEGIS
    /// behaviour of the original paper, including its UTF-8 failure.
    bool EnableBitSlice = true;
    /// Persist enumeration banks across CEGIS iterations and synthesize()
    /// calls, keyed by (grammar, examples) — see EnumeratorBank.h. A CEGIS
    /// counterexample grows the example set and therefore invalidates the
    /// pair; disable to re-enumerate from scratch on every call.
    bool ReuseBanks = true;
  };

  explicit SygusEngine(Solver &S) : SygusEngine(S, Options()) {}
  SygusEngine(Solver &S, Options O);

  /// Synthesizes g with forall x . phi(x) -> g(f(x)) = Target(x), as a term
  /// over Var(0..Image.arity()-1) drawn from \p G.
  Result<TermRef> synthesize(const SynthesisSpec &Spec, const Grammar &G);

  /// Record of one synthesize() call (success or failure) — Figure 4 data.
  struct CallRecord {
    double Seconds = 0;
    unsigned ResultSize = 0;
    bool Success = false;
    unsigned CegisIterations = 0;
  };
  const std::vector<CallRecord> &calls() const { return Calls; }
  void clearCalls() { Calls.clear(); }

  /// Merges call records produced by another engine (a parallel worker's
  /// private engine) into this one, preserving their order. The caller is
  /// responsible for appending workers in a deterministic order.
  void appendCalls(const std::vector<CallRecord> &Records) {
    Calls.insert(Calls.end(), Records.begin(), Records.end());
  }

  Solver &solver() { return S; }
  const Options &options() const { return Opts; }

  /// The engine-wide compiled-evaluation cache: sampling, example
  /// induction, bit-slice views, and the enumerator's aux-function inner
  /// loop all evaluate through it, so guards, outputs, and aux bodies are
  /// compiled once per engine rather than re-walked per example.
  CompiledEvalCache &evalCache() { return EvalCache; }
  const CompiledEvalCache &evalCache() const { return EvalCache; }

  /// The engine-wide persistent enumeration banks (used when
  /// Options::ReuseBanks is set; see EnumeratorBank.h). Bank reuse hit and
  /// miss counters live in its stats().
  const EnumeratorBankStore &bankStore() const { return BankStore; }

  /// Adds the compiled-eval and bank counters to the registry of the
  /// solver's control (see recordEngineStats; the family comes from the
  /// solver's session kind), then zeroes them. Like Solver::drainStats, an
  /// engine drains when its work for a request ends.
  void drainStats();

  /// Installs banks released by a previous engine over the same term
  /// factory (the warm-pool path: completed banks survive the request's
  /// engine and seed the next request on the same program). Bank terms are
  /// factory references, so adopted stores must come from an engine whose
  /// solver shared this engine's factory.
  void adoptBanks(EnumeratorBankStore Store) { BankStore = std::move(Store); }

  /// Releases the bank store for cross-request persistence, leaving this
  /// engine with a fresh empty store.
  EnumeratorBankStore releaseBanks() {
    return std::exchange(BankStore, EnumeratorBankStore());
  }

private:
  /// Input assignments satisfying the guard (outputs defined), mixing
  /// native random sampling with solver models for narrow guards.
  Result<std::vector<std::vector<Value>>>
  sampleInputs(const SynthesisSpec &Spec, unsigned Want);

  Solver &S;
  Options Opts;
  std::vector<CallRecord> Calls;
  CompiledEvalCache EvalCache;
  EnumeratorBankStore BankStore;
  /// Preimage tables for unary components, built on first use.
  std::map<const FuncDef *, std::optional<SliceWrapper>> WrapperCache;
};

} // namespace genic

#endif // GENIC_SYGUS_SYGUS_H
