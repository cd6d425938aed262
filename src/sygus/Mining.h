//===- sygus/Mining.h - Grammar mining and variable reduction -------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// GENIC's second optimization (§6): shrink the SyGuS search space before
/// inverting a transition.
///
///  - Operator mining: a function built from "+" inverts with "-"; shifts
///    and masks invert with shifts and masks. Only operators relevant to
///    inverting those appearing in the transition (with auxiliary functions
///    inlined) are kept.
///  - Constant mining: the constants of the transition are added to the
///    literal pool (the paper adds all program constants; per-transition
///    constants are a superset of what that transition needs).
///  - Variable reduction (equations (1)-(2)): the recovery function for
///    input x_i often needs only a subset of the outputs y*. We use the
///    equivalent single-query formulation: y* suffices iff the outputs in
///    y* determine x_i, i.e.
///        unsat( phi(x) /\ phi(x') /\ /\_{j in y*} f_j(x) = f_j(x')
///               /\ x_i != x'_i ).
///    A greedy elimination pass yields a minimal (not necessarily minimum)
///    sufficient subset with at most |y| + 1 queries per input.
///
///    All inputs of a rule are reduced in one private child session, a
///    fork of the rule's session that is discarded afterwards. The child
///    asserts the two-copy formula once, with each equation f_j and each
///    disequation x_i != x'_i behind a selector literal, so every check
///    is one check-sat-assuming on the same backend solver. The rule's own
///    factory never interns a reduction term: commutative operands are
///    ordered by term id, so extra terms there would shift the ids of the
///    terms synthesis builds later and change the printed inverse
///    (DESIGN.md, "Variable reduction in a child session").
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_SYGUS_MINING_H
#define GENIC_SYGUS_MINING_H

#include "solver/Solver.h"
#include "support/Result.h"
#include "sygus/Grammar.h"

#include <vector>

namespace genic {

/// Builds the grammar for inverting a transition with image predicate \p P.
/// Variables are the transition's outputs; the result type is \p InputType.
/// \p Components are auxiliary functions to include (original and
/// synthesized inverses). With \p MineOps false, the full operator set of
/// the theory is used (constants are still mined — the paper treats
/// program-constant seeding as part of the base encoding, not the mining
/// optimization).
Grammar mineTransitionGrammar(TermFactory &F, const ImagePredicate &P,
                              Type InputType,
                              const std::vector<const FuncDef *> &Components,
                              bool MineOps);

/// The variable-reduction analysis for every input of a rule.
struct OutputReduction {
  /// Per input position x_i: sorted output indices that suffice to recover
  /// it, or why the analysis stopped. Requires the full output tuple to
  /// determine x_i (true for injective transitions); errors otherwise.
  std::vector<Result<std::vector<unsigned>>> Subsets;
  /// The child session's escalated retries (counted with the rule's
  /// retries) and sat queries (reported on the trace span).
  uint64_t Retries = 0;
  uint64_t Queries = 0;
};

/// Reduces every input of \p P in one child session forked from \p S
/// (see the file comment). Queries are counted in the calling thread's
/// metrics phase, and the child drains its counters into S's registry
/// before it is discarded; nothing is interned in S.factory().
OutputReduction sufficientOutputSubsets(Solver &S, const ImagePredicate &P,
                                        Type InputType);

/// sufficientOutputSubsets for the single input Var(XIndex).
Result<std::vector<unsigned>>
sufficientOutputSubset(Solver &S, const ImagePredicate &P, unsigned XIndex,
                       Type InputType);

/// Collects the operators (with aux calls inlined) in \p T into \p Ops and
/// its constants into \p Consts. Exposed for tests.
void collectOpsAndConstants(TermFactory &F, TermRef T, std::vector<Op> &Ops,
                            std::vector<Value> &Consts);

} // namespace genic

#endif // GENIC_SYGUS_MINING_H
