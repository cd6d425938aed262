//===- solver/ImagePredicate.h - Quantified output predicates -------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The predicate describing the possible outputs of one s-EFT transition
/// (Definition 4.9): for a transition with guard phi(x0..xn-1) and output
/// functions [f0..fk-1], the output automaton's guard is the k-ary predicate
///
///     psi(y0..yk-1)  =  exists x0..xn-1 . phi(x)  /\  /\_j yj = fj(x)
///
/// The term language is quantifier-free, so this existential predicate gets
/// its own representation. Solver::project turns it into unary predicates
/// (enumeration or quantifier elimination) where it can, whose conjunction
/// is the Cartesian guard of Definition 4.12; a wide bit-vector image
/// enters the output automaton as the existential predicate itself.
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_SOLVER_IMAGEPREDICATE_H
#define GENIC_SOLVER_IMAGEPREDICATE_H

#include "term/Term.h"
#include "term/Type.h"

#include <vector>

namespace genic {

/// The symbolic image of a guarded output tuple; see file comment.
///
/// Guard and every output are terms over Var(0..NumInputs-1). Callers are
/// responsible for conjoining auxiliary-function domain predicates into
/// Guard (TermFactory::calleeDomains) so that partiality is explicit.
struct ImagePredicate {
  TermRef Guard = nullptr;
  std::vector<TermRef> Outputs;
  unsigned NumInputs = 0;

  unsigned arity() const { return Outputs.size(); }
};

} // namespace genic

#endif // GENIC_SOLVER_IMAGEPREDICATE_H
