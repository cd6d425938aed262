//===- automata/Ambiguity.h - Ambiguity check for Cartesian s-EFAs --------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision procedure of Lemma 4.14: whether a Cartesian s-EFA is
/// unambiguous, i.e. no list is accepted by two distinct paths. The paper's
/// construction expands each lookahead-k transition into k lookahead-1
/// transitions and runs a product construction tracking whether the two
/// simulated runs have diverged; a reachable diverged configuration that can
/// accept proves ambiguity, and a concrete witness list is extracted from
/// the models of the guards along the product path.
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_AUTOMATA_AMBIGUITY_H
#define GENIC_AUTOMATA_AMBIGUITY_H

#include "automata/Sefa.h"
#include "ipc/Shards.h"
#include "solver/QueryCache.h"
#include "solver/Solver.h"
#include "solver/SolverSessionPool.h"
#include "support/Result.h"

#include <memory>
#include <optional>

namespace genic {

/// A list accepted by at least two distinct paths.
struct AmbiguityWitness {
  ValueList Word;
  /// The two distinct accepting paths, as sequences of transition ids
  /// (SefaTransition::Id). When the ambiguity stems from an epsilon cycle
  /// (unboundedly many paths), the sequences are left empty.
  std::vector<unsigned> PathA;
  std::vector<unsigned> PathB;
};

/// Parallelism knobs for the Lemma 4.14 product search.
struct AmbiguityOptions {
  /// Worker threads for the per-level overlap queries of the product BFS;
  /// 1 runs the identical partitioned code path inline.
  unsigned Jobs = 1;
  /// Warm worker sessions to lease; a private pool is created when null.
  SolverSessionPool *Sessions = nullptr;
  /// Shared (guard, guard) overlap verdicts, keyed by the guards' TermRefs
  /// in the caller's factory. Pass the same cache to every checkAmbiguity
  /// call over one automaton so repeated searches stop re-discharging
  /// identical product queries; a private per-call cache is used when null.
  GuardOverlapCache *Overlaps = nullptr;
  /// When set, each BFS level's chunks are shipped to out-of-process
  /// workers instead of thread-pooled sessions. Valid only when \p A is
  /// the output automaton the workers can rebuild from their own copy of
  /// the loaded program (buildOutputAutomaton); the expanded product's
  /// structural fingerprint is checked per shard, and a shard the
  /// dispatcher cannot complete degrades the search to SolverError.
  ShardDispatcher *Workers = nullptr;
  /// Ignored. It named the hull or exact output automaton of an earlier
  /// two-round check, and stays for callers written against that
  /// interface; there is one output automaton now.
  bool Hull = true;
};

/// The worker-side half of the out-of-process ambiguity scan: owns one
/// trimmed-and-expanded product (the same construction checkAmbiguity
/// performs) and scans level chunks against it with exactly the in-process
/// chunk semantics — per-chunk new-key dedup, batch priming, first
/// finisher event, discoveries in scan order. Guard-overlap verdicts are
/// cached across calls, mirroring the coordinator's per-check cache.
class AmbiguityShardScanner {
public:
  /// Builds the product for \p Input, interning terms into \p S's factory.
  /// Fails if a guard query fails, or if the product is ambiguous before
  /// the search even starts (epsilon cycle, duplicate empty-word
  /// acceptance) — states the coordinator never ships shards from.
  static Result<std::unique_ptr<AmbiguityShardScanner>>
  create(const CartesianSefa &Input, Solver &S);

  ~AmbiguityShardScanner();

  /// Structural hash of the expanded product (state counts, piece
  /// topology, identities). The coordinator sends its own product's hash
  /// with every shard; a disagreement means the two processes derived
  /// different programs and the shard must be refused.
  uint64_t fingerprint() const;

  /// Scans \p LevelChunk (absolute frontier index of the first entry =
  /// \p CfgBase) against the visited-set snapshot \p VisitedKeys.
  /// Returns absolute indices; fails only on malformed input (a config
  /// naming a state outside the product).
  Result<AmbShardResult> scan(SolverSessionPool &Pool,
                              const std::vector<uint64_t> &VisitedKeys,
                              uint64_t CfgBase,
                              const std::vector<AmbShardConfig> &LevelChunk);

private:
  AmbiguityShardScanner();
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// Decides ambiguity of \p A (Lemma 4.14). Returns a witness list if \p A is
/// ambiguous, std::nullopt if it is unambiguous, or an error if the solver
/// cannot decide a guard query.
///
/// Thread safety: safe to call concurrently from multiple threads provided
/// each call uses a distinct Solver (and hence TermFactory) — the function
/// keeps no global or static state, but it interns terms into \p S's
/// factory and queries \p S, neither of which is synchronized. Equivalent
/// to the options overload with Jobs = 1.
Result<std::optional<AmbiguityWitness>> checkAmbiguity(const CartesianSefa &A,
                                                       Solver &S);

/// As above with the product-construction BFS parallelized level by level:
/// the frontier is partitioned into contiguous chunks fanned out over
/// \p Opts.Jobs workers, which classify guard overlaps in pooled sessions
/// against a read-only snapshot of the visited set, and a serial merge
/// replays their discoveries in configuration order. Because BFS discovery
/// order within a level is exactly the serial FIFO order, the merge visits
/// configurations in the order the serial search would, so verdicts,
/// witness words, and witness paths are byte-identical for every Jobs
/// value. The accepting configuration (if any) is re-examined in the
/// shared session \p S, which also builds the witness.
Result<std::optional<AmbiguityWitness>>
checkAmbiguity(const CartesianSefa &A, Solver &S,
               const AmbiguityOptions &Opts);

/// Removes transitions with unsatisfiable guards and states that are not
/// both reachable from the initial state and able to reach a finalizer.
/// States are renumbered; the initial state is kept even if dead (yielding
/// an automaton with no transitions).
///
/// Thread safety: as checkAmbiguity — concurrent calls are safe iff each
/// uses its own Solver/TermFactory session; no hidden shared state.
Result<CartesianSefa> trim(const CartesianSefa &A, Solver &S);

/// A shortest-ish accepted list passing through \p ViaState (which must be
/// reachable and co-reachable), built from guard models. Used for witness
/// extraction and by tests.
///
/// Thread safety: as checkAmbiguity — concurrent calls are safe iff each
/// uses its own Solver/TermFactory session; no hidden shared state.
Result<ValueList> sampleAcceptedVia(const CartesianSefa &A, Solver &S,
                                    unsigned ViaState);

} // namespace genic

#endif // GENIC_AUTOMATA_AMBIGUITY_H
