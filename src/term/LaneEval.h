//===- term/LaneEval.h - Term evaluation over example lanes ---------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluation over up to 64 examples at once. Each operand is bound to a
/// lane: a column of raw words, one per example, packed the way the
/// enumerator's observational-equivalence signatures pack them
/// (Value::rawBits(): bool as 0/1, Int as its two's-complement pattern,
/// bit-vectors zero-extended from their width). A mask names the examples
/// that take part; the result is the mask of examples on which the result
/// is defined, with the value on example e in Out[e]
/// (Value::fromRawBits() unpacks it).
///
/// Semantics are exactly those of eval() in term/Eval.h, applied to each
/// example on its own: ite evaluates only the taken branch of a lane,
/// and/or stop at the first deciding operand of a lane, a call needs every
/// argument defined and its domain to hold, and a variable that is unbound
/// or bound to a lane of another type is undefined. One walk serves every
/// example instead of one boxed evaluation per example. The enumerative
/// SyGuS engine evaluates each candidate this way (one operator, or one
/// auxiliary-function call, over its children's lanes); CEGIS evaluates
/// guards, outputs and targets on batches of sampled inputs, and the
/// projection walk of solver/Solver.cpp evaluates a centre's neighbours.
/// tests/lane_eval_test.cpp holds the parity property.
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_TERM_LANEEVAL_H
#define GENIC_TERM_LANEEVAL_H

#include "term/Term.h"

#include <cstddef>
#include <cstdint>
#include <span>

namespace genic {

/// Examples one lane evaluation covers: one bit of the mask each.
inline constexpr size_t MaxLanes = 64;

/// The mask of examples 0..NumEx-1.
inline uint64_t laneMask(size_t NumEx) {
  return NumEx >= 64 ? ~uint64_t{0} : (uint64_t{1} << NumEx) - 1;
}

/// One variable's lane: Raw[e] is its packed value on example e.
struct Lane {
  const uint64_t *Raw = nullptr;
  Type Ty;
};

/// A lane environment: Var(i) is bound to Env[i].
using LaneEnv = std::span<const Lane>;

/// Evaluates \p T on every example e < \p NumEx whose bit is set in
/// \p Defined, as eval() does on each example alone: Var(i) reads
/// Env[i].Raw[e]. Returns the examples where \p T is defined, a subset of
/// \p Defined; Out[e] holds the value there and 0 on every other
/// e < NumEx. NumEx must not exceed MaxLanes.
uint64_t evalLanes(TermRef T, LaneEnv Env, uint64_t Defined, size_t NumEx,
                   uint64_t *Out);

/// The examples among \p Defined (and e < \p NumEx) on which evalBool()
/// holds: \p T is boolean, defined and true.
uint64_t evalBoolLanes(TermRef T, LaneEnv Env, uint64_t Defined,
                       size_t NumEx);

/// Applies auxiliary function \p F to argument lanes on every example
/// e < \p NumEx whose bit is set in \p Defined, as a Call node does: Var(i)
/// of the domain and body reads Args[i].Raw[e]; undefined where the domain
/// rejects (or is itself undefined on) the arguments, else the body's
/// value. Returns the examples where the call is defined, a subset of
/// \p Defined; Out[e] holds the value there and 0 on every other
/// e < NumEx. NumEx must not exceed MaxLanes.
uint64_t callLanes(const FuncDef *F, LaneEnv Args, uint64_t Defined,
                   size_t NumEx, uint64_t *Out);

/// Applies the non-leaf, non-call operator \p O to operand lanes that are
/// all defined on \p Defined, like applyOp(): strict in every operand (ite
/// selects per lane; and/or fold). Undefined everywhere for operand types
/// applyOp() rejects. Output convention as callLanes.
uint64_t applyLanes(Op O, LaneEnv Args, uint64_t Defined, size_t NumEx,
                    uint64_t *Out);

} // namespace genic

#endif // GENIC_TERM_LANEEVAL_H
