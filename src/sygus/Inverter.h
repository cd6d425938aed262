//===- sygus/Inverter.h - The full inversion pipeline ----------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ties Theorem 5.4's per-rule inversion (transducer/Invert.h) to the SyGuS
/// machinery: auxiliary-function inversion, grammar mining, variable
/// reduction, and the CEGIS engine. The two §6 optimizations are
/// independently switchable, which is exactly the ablation Figure 5 runs
/// (all / only-aux / only-mining / none).
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_SYGUS_INVERTER_H
#define GENIC_SYGUS_INVERTER_H

#include "solver/SolverContext.h"
#include "support/Result.h"
#include "sygus/Sygus.h"
#include "transducer/Invert.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace genic {

struct InverterOptions {
  /// §6 optimization 1: invert auxiliary functions first and enrich the
  /// grammar with both the originals and the inverses.
  bool UseAuxInversion = true;
  /// §6 optimization 2: operator mining and variable reduction.
  bool UseMining = true;
  /// Worker threads for auxiliary-function and per-rule inversion (the
  /// paper's observation that rules invert independently). Every work item
  /// runs in a private copy-on-write fork of the shared session (see
  /// solver/SolverContext.h) regardless of this setting, so the inverse is
  /// bit-identical for every jobs value; >1 merely runs the forks
  /// concurrently.
  unsigned Jobs = 1;
  SygusEngine::Options Engine;
};

/// One inversion session; owns the CEGIS engine so call records accumulate
/// across rules (Figure 4's data set).
class Inverter {
public:
  explicit Inverter(Solver &S) : Inverter(S, InverterOptions()) {}
  Inverter(Solver &S, InverterOptions O);

  /// Inverts \p A. \p AuxFuncs are the program's auxiliary functions (§3.2);
  /// they participate in the grammar when aux inversion is enabled.
  /// Each aux and rule session drains its counters into the registry of
  /// S's control when its task ends (Solver::drainStats and
  /// SygusEngine::drainStats, family "worker"); the call also sets the
  /// "sessions.worker" gauge and adds the nodes its serial merges clone
  /// back to "worker.clone_out_nodes".
  Result<InversionOutcome>
  invert(const Seft &A, const std::vector<const FuncDef *> &AuxFuncs);

  /// Inverses synthesized for auxiliary functions during the last invert()
  /// call (for the program printer, which emits them as definitions).
  const std::vector<const FuncDef *> &synthesizedAux() const {
    return SynthesizedAux;
  }

  SygusEngine &engine() { return Engine; }
  const InverterOptions &options() const { return Opts; }

  /// Variable reduction's usable output indices, one list per input
  /// position of a rule (empty = no restriction).
  using OutputSubsets = std::vector<std::vector<unsigned>>;

  /// Persisted per-rule worker sessions: each entry is one rule's
  /// copy-on-write fork of the shared factory plus its private CEGIS
  /// engine, with the memoized importer, checkSat memo, compiled-eval
  /// cache, and enumeration banks all still warm, and the rule's variable
  /// reduction result (data only: it ran in a discarded child session, so
  /// the fork's memo cannot replay it). Its Z3 context is not kept: the
  /// rule task released it, and a repeat builds a fresh one for whatever
  /// its memos do not answer. The engine's warm-pool
  /// path keeps these resident across requests on the same program, so a
  /// repeat inversion replays its per-rule queries against hot caches
  /// instead of re-deriving everything in fresh forks. Reuse preserves
  /// bit-identical results: a reused fork re-interns the same terms it
  /// built last time (hash hits at the same ids), so canonicalization
  /// order — and therefore the synthesized inverse — is unchanged.
  struct RuleSessionBank {
    struct Entry {
      std::unique_ptr<SolverContext> Ctx;
      std::unique_ptr<SygusEngine> Engine;
      /// Absent until computed, and when a budget or solver failure cut
      /// the analysis short (a later request retries it).
      std::optional<OutputSubsets> Reduced;
    };
    std::vector<Entry> Rules;
    /// The inverses synthesized for auxiliary functions, in the order
    /// synthesizedAux() listed them. A repeat finds them registered in the
    /// shared factory and skips their synthesis, so it reports these.
    std::vector<const FuncDef *> Aux;
    bool empty() const { return Rules.empty(); }
  };

  /// Installs per-rule sessions released by a previous Inverter over the
  /// same shared factory. invert() reuses them only when the bank matches
  /// the automaton's rule count (one fork per rule, in rule order); a
  /// mismatched bank is dropped and fresh forks are created.
  void adoptRuleSessions(RuleSessionBank Bank) { Sessions = std::move(Bank); }

  /// Releases the per-rule sessions of the last invert() call for
  /// cross-request persistence, leaving this Inverter with none. The
  /// sessions reference the shared factory's frozen prefix; callers must
  /// keep the factory alive (the warm pool keeps both on the same entry).
  RuleSessionBank releaseRuleSessions() {
    RuleSessionBank Out = std::move(Sessions);
    Sessions = RuleSessionBank();
    return Out;
  }

private:
  Solver &S;
  InverterOptions Opts;
  SygusEngine Engine;
  std::vector<const FuncDef *> SynthesizedAux;
  RuleSessionBank Sessions;
};

} // namespace genic

#endif // GENIC_SYGUS_INVERTER_H
