//===- automata/Sefa.h - Cartesian symbolic extended finite automata ------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cartesian s-EFAs (Definition 4.12): extended symbolic finite automata
/// whose every guard is a conjunction of unary predicates, stored here in
/// already-decomposed form (one predicate per lookahead position). The
/// output automaton A_O of an s-EFT (Definition 4.9) is materialized in this
/// class after the solver's Cartesian decomposition, and the ambiguity check
/// of Lemma 4.14 runs on it.
///
/// Following the paper, acceptance is by finalizer transitions: a run ends
/// by taking a transition whose target is the virtual state FinalState with
/// exactly its lookahead symbols remaining (§3.3). Lookahead-0 transitions
/// are allowed; they consume nothing (they arise from s-EFT transitions with
/// empty output).
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_AUTOMATA_SEFA_H
#define GENIC_AUTOMATA_SEFA_H

#include "term/Term.h"
#include "term/Value.h"

#include <limits>
#include <string>
#include <vector>

namespace genic {

/// One transition of a Cartesian s-EFA.
struct SefaTransition {
  unsigned From = 0;
  /// Target state, or CartesianSefa::FinalState for a finalizer.
  unsigned To = 0;
  /// Unary guards over Var(0), one per consumed symbol; the transition's
  /// lookahead is Guards.size() and its guard is /\_i Guards[i](x_i). A
  /// guard may also mention other variables, read as existentially
  /// quantified witnesses (see buildOutputAutomaton); each guard's
  /// witnesses are its own.
  std::vector<TermRef> Guards;
  /// Path identity (Definition 3.4 paths are sequences of (state, rule)
  /// pairs): transitions derived from the same s-EFT rule share an Id.
  unsigned Id = 0;

  unsigned lookahead() const { return Guards.size(); }
};

/// A Cartesian s-EFA; see file comment.
class CartesianSefa {
public:
  static constexpr unsigned FinalState = std::numeric_limits<unsigned>::max();

  CartesianSefa(unsigned NumStates, unsigned Initial, Type InputType)
      : NumStates(NumStates), Initial(Initial), InputType(InputType) {}

  unsigned numStates() const { return NumStates; }
  unsigned initial() const { return Initial; }
  const Type &inputType() const { return InputType; }
  const std::vector<SefaTransition> &transitions() const {
    return Transitions;
  }

  /// Appends a state and returns its index.
  unsigned addState() { return NumStates++; }

  /// Appends a transition. Guards must be over Var(0) of the input type.
  void addTransition(SefaTransition T);

  /// Maximum lookahead over all transitions (0 for the empty automaton).
  unsigned lookahead() const;

  /// Whether the automaton accepts \p Word (some accepting path exists),
  /// ignoring guard satisfiability subtleties: guards are evaluated
  /// natively on the concrete symbols. Only quantifier-free guards over
  /// Var(0) evaluate; an output automaton has existential guards only on
  /// wide bit-vector images above the projection cap (Solver::project).
  bool accepts(const ValueList &Word) const;

  /// The number of distinct accepting paths of \p Word, saturating at
  /// \p Cap. Lookahead-0 self-reaching cycles also saturate at Cap.
  unsigned countAcceptingPaths(const ValueList &Word, unsigned Cap = 8) const;

  /// Renders the automaton for debugging.
  std::string str() const;

private:
  unsigned NumStates;
  unsigned Initial;
  Type InputType;
  std::vector<SefaTransition> Transitions;
};

} // namespace genic

#endif // GENIC_AUTOMATA_SEFA_H
