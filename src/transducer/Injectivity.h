//===- transducer/Injectivity.h - §4: checking s-EFT injectivity ----------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The injectivity decision procedure of Section 4. By Theorem 4.6 an
/// unambiguous s-EFT is injective iff it is transition-injective (every rule
/// maps distinct input tuples to distinct output tuples, Definition 4.2) and
/// path-injective (distinct accepting paths produce distinct outputs,
/// Definition 4.4). Transition-injectivity is one satisfiability query per
/// rule (Lemma 4.7); path-injectivity reduces to unambiguity of the output
/// automaton A_O (Lemma 4.10), which is decidable when A_O is Cartesian
/// (Lemma 4.14) — and undecidable in general (Theorem 4.8), so the check
/// reports an error outside the Cartesian fragment.
///
/// A negative answer comes with a concrete counterexample: two distinct
/// input lists that the transducer maps to the same output list, matching
/// GENIC's isInjective operation (§3.4).
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_TRANSDUCER_INJECTIVITY_H
#define GENIC_TRANSDUCER_INJECTIVITY_H

#include "automata/Sefa.h"
#include "ipc/Shards.h"
#include "solver/QueryCache.h"
#include "solver/Solver.h"
#include "solver/SolverSessionPool.h"
#include "support/Result.h"
#include "transducer/Seft.h"

#include <optional>
#include <string>

namespace genic {

/// Parallelism knobs for the injectivity pipeline. The same options value
/// drives all three phases (transition-injectivity, output-automaton
/// projections, ambiguity product search); Jobs = 1 runs the identical
/// partitioned code paths inline, so results are byte-identical for every
/// Jobs value.
struct InjectivityOptions {
  unsigned Jobs = 1;
  /// Warm worker sessions for the verdict-only parallel queries; a private
  /// pool is created (and shared by every phase) when null.
  /// Term-producing stages (projections) use fresh per-task forks of \p S's
  /// factory instead — see SolverContext.h for the determinism contract.
  SolverSessionPool *Sessions = nullptr;
  /// Shared (guard, guard) overlap verdicts for the ambiguity product
  /// search. checkInjectivity creates one per call when null; a caller
  /// that runs the phases itself passes one to keep the verdicts of
  /// repeated searches over the same automaton.
  GuardOverlapCache *Overlaps = nullptr;
  /// When set, the verdict-only scans (transition-injectivity rules, the
  /// ambiguity product levels) ship their chunks to out-of-process workers;
  /// a shard the supervisor cannot complete degrades the phase to
  /// SolverError. Witness extraction and projections stay in-process — they
  /// produce terms, which never cross the process boundary.
  ShardDispatcher *Workers = nullptr;
};

/// The canonical scan order of Lemma 4.7: indices of the rules with a
/// non-zero lookahead. Coordinator and workers derive identical lists from
/// the same lowered program.
std::vector<unsigned> transitionInjectivityRules(const Seft &A);

/// Scans \p Rules[Begin..End) against a leased session; returns the first
/// index whose Lemma 4.7 query was sat or failed, or SIZE_MAX. The exact
/// chunk body of the parallel checkTransitionInjectivity, exported for the
/// worker binary.
size_t scanTransitionInjectivityShard(const Seft &A,
                                      const std::vector<unsigned> &Rules,
                                      SolverSessionPool &Pool, size_t Begin,
                                      size_t End);

/// A rule that conflates two input tuples (Definition 4.2 violated).
struct TransitionInjectivityViolation {
  unsigned Transition;
  /// Two distinct tuples of the rule's lookahead length with equal outputs.
  ValueList InputA;
  ValueList InputB;
};

/// Lemma 4.7: one satisfiability query per rule.
Result<std::optional<TransitionInjectivityViolation>>
checkTransitionInjectivity(const Seft &A, Solver &S);

/// As above with the per-rule queries fanned out over \p Opts.Jobs workers
/// in pooled sessions. The first violating rule (in index order) is
/// re-queried in the shared session for the witness model, so the result is
/// independent of scheduling.
Result<std::optional<TransitionInjectivityViolation>>
checkTransitionInjectivity(const Seft &A, Solver &S,
                           const InjectivityOptions &Opts);

/// Definition 4.9 with the epsilon-step collapsed: builds the output
/// automaton whose transition with id i carries one guard per output
/// position of rule i, each over Var(0). A guard is the exact projection
/// of the rule's image predicate (Solver::project) where it has a closed
/// form; otherwise (a bit-vector image at the enumeration cap) it is the
/// existential predicate phi(w) /\ Var(0) = f_j(w) itself, with free
/// witness variables w renamed apart per (rule, position) in rule/position
/// order, so the automaton is exact either way. Only the Lemma 4.14
/// product reads such guards: it asks for satisfiability, overlaps and
/// models, never a negation. For Cartesian predicates (Definition 4.12)
/// the conjunction of the positions is exact; otherwise it
/// over-approximates, which checkInjectivity compensates for by validating
/// ambiguity witnesses against the real transducer.
///
/// The per-(rule, position) projections — the dominant cost of the output
/// automaton — are fanned out over \p Opts.Jobs workers. Each projection
/// runs in a fresh private session whose factory history is a pure
/// function of that one rule (pooled sessions must not export terms, see
/// SolverSessionPool.h); results are cloned back into \p S's factory in
/// rule/position order, so the automaton is structurally identical for
/// every Jobs value, and in every process that lowered the same program.
Result<CartesianSefa>
buildOutputAutomaton(const Seft &A, Solver &S,
                     const InjectivityOptions &Opts = InjectivityOptions());

/// The same automaton; the flag is ignored. It chose between an
/// over-approximating hull and exact projections in an earlier two-round
/// check, and stays for callers written against that interface.
Result<CartesianSefa> buildOutputAutomaton(const Seft &A, Solver &S,
                                           bool AllowHull,
                                           const InjectivityOptions &Opts);

/// Outcome of the injectivity check.
struct InjectivityResult {
  bool Injective = false;
  /// When not injective: two distinct input lists with the same output.
  /// Absent only if witness reconstruction was impossible (epsilon-cycle
  /// ambiguity); Detail then explains.
  std::optional<std::pair<ValueList, ValueList>> Witness;
  std::string Detail;
};

/// Theorem 4.6 / Theorem 4.16: the full injectivity check. \p A must be
/// unambiguous (use checkDeterminism first; GENIC does). Equivalent to the
/// options overload with Jobs = 1.
Result<InjectivityResult> checkInjectivity(const Seft &A, Solver &S);

/// The full check with every phase parallelized per \p Opts. Verdicts and
/// witnesses are byte-identical for every Jobs value: parallel stages
/// either return plain verdicts (re-checked serially in \p S for the
/// winner) or terms built in per-task sessions that are pure functions of
/// their inputs, and all merges happen in fixed index order.
Result<InjectivityResult> checkInjectivity(const Seft &A, Solver &S,
                                           const InjectivityOptions &Opts);

/// A shortest-ish input list prefix driving \p A from the initial state to
/// \p ViaState, and a suffix from \p ViaState to acceptance, built from
/// guard models. Used for witness construction and by tests.
struct InputContext {
  ValueList Prefix;
  ValueList Suffix;
};
Result<InputContext> sampleInputContext(const Seft &A, Solver &S,
                                        unsigned ViaState);

} // namespace genic

#endif // GENIC_TRANSDUCER_INJECTIVITY_H
