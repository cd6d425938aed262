//===- transducer/Composition.h - Bounded inverse verification ------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Symbolic verification that one transducer inverts another on all inputs
/// whose runs take at most K rules — the library-level counterpart of the
/// equivalence checking the paper cites for validating encoder/decoder
/// pairs (D'Antoni & Veanes, CAV'13), restricted to bounded path length so
/// that every obligation is a quantifier-free query:
///
///   for every A-path p (<= K rules) with symbolic input x:
///     coverage:   guard_p(x)  ->  some B-path accepts f_p(x)
///     identity:   guard_p(x) /\ guard_q(f_p(x))  ->  g_q(f_p(x)) = x
///
/// Theorem 5.4 guarantees unbounded correctness for inverses produced by
/// this library; this check independently validates that claim (and any
/// hand-written pair) up to the bound, returning a concrete counterexample
/// input on failure.
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_TRANSDUCER_COMPOSITION_H
#define GENIC_TRANSDUCER_COMPOSITION_H

#include "solver/Solver.h"
#include "support/Result.h"
#include "transducer/Seft.h"

#include <optional>
#include <string>

namespace genic {

/// A failure of B to invert A: a concrete input to A (whose image under A
/// either is rejected by B or maps back to something else).
struct CompositionCounterexample {
  ValueList Input;
  std::string Detail;
};

/// Verifies that for every input u accepted by \p A along a path of at most
/// \p MaxRules rules, \p B maps A(u) back to exactly u (with a unique
/// applicable B-path guard per check). Returns std::nullopt when verified,
/// a counterexample otherwise, or an error on solver failures. Both
/// machines must share one TermFactory. Each A-path's obligations run in
/// one scope on \p S with the path guard asserted once; \p S must not be
/// shared with another thread meanwhile.
Result<std::optional<CompositionCounterexample>>
verifyInverseBounded(const Seft &A, const Seft &B, Solver &S,
                     unsigned MaxRules);

} // namespace genic

#endif // GENIC_TRANSDUCER_COMPOSITION_H
