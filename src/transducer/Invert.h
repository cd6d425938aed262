//===- transducer/Invert.h - §5: inverting s-EFTs --------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inversion algorithm of Theorem 5.4: the inverse of an injective
/// unambiguous s-EFT is obtained by inverting every rule independently
/// (Definition 5.2). For a rule (p, l, phi, f, q) the inverse rule is
/// (p, k, psi, g, q) where
///
///   - k = |f| (the inverse reads what the rule wrote),
///   - psi(y) == exists x . phi(x) /\ y = f(x), computed quantifier-free by
///     the solver (quantifier elimination, §6), and
///   - g recovers the inputs: forall x . phi(x) -> g(f(x)) = x, which is a
///     syntax-guided synthesis problem (§6). The synthesis engine is
///     injected through a hook so this module stays independent of the
///     concrete SyGuS implementation.
///
/// Per-rule wall-clock times are recorded: Table 1 reports both the total
/// inversion time and the maximum single-rule time (the paper's max-tr),
/// and observes that rules can be inverted in parallel.
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_TRANSDUCER_INVERT_H
#define GENIC_TRANSDUCER_INVERT_H

#include "solver/Solver.h"
#include "support/Result.h"
#include "transducer/Seft.h"

#include <functional>
#include <optional>
#include <vector>

namespace genic {

/// Callback that synthesizes the recovery function g_i for one rule: a term
/// g over Var(0..P.arity()-1) (the outputs y) such that
///   forall x . P.Guard(x) -> g(P.Outputs(x)) = x_XIndex.
/// The paper observes (§6) that the g_i are independent, so they are
/// requested one at a time.
using RecoverySynthesizer =
    std::function<Result<TermRef>(const ImagePredicate &P, unsigned XIndex,
                                  Type InputType)>;

/// How the inversion of one rule ended. Timeout and SolverError are
/// degradations (the rule might well be invertible with more budget or a
/// healthy solver); NotInjective is a genuine negative — the rule has no
/// s-EFT inverse.
enum class RuleOutcome { Inverted, NotInjective, Timeout, SolverError };

const char *toString(RuleOutcome O);

/// Maps a per-rule failure status to its outcome class: budget statuses
/// (Timeout/Cancelled) degrade to Timeout, SolverError stays SolverError,
/// and everything else is a genuine NotInjective verdict.
RuleOutcome outcomeForStatus(const Status &St);

/// Timing and outcome per rule, feeding Table 1 and Figure 4.
struct RuleInversionRecord {
  unsigned Rule = 0;
  double Seconds = 0;
  bool Inverted = false;
  RuleOutcome Outcome = RuleOutcome::NotInjective;
  /// Escalated solver retries spent on this rule (stats delta).
  unsigned Retries = 0;
  std::string Error;
};

struct InversionOutcome {
  /// The inverse transducer. Present even on partial failure: rules that
  /// could not be inverted are simply missing (the paper's UTF-8 encoder
  /// row, where 3 of 4 rules inverted).
  Seft Inverse;
  std::vector<RuleInversionRecord> Records;

  /// Whether every rule was inverted.
  bool complete() const;
  /// Rules whose failure was a degradation (Timeout/SolverError), not a
  /// genuine non-injectivity verdict.
  unsigned degradedRules() const;
  /// Total and maximum per-rule times (Table 1's "total" and "max-tr").
  double totalSeconds() const;
  double maxRuleSeconds() const;
};

/// Inversion of a single rule: its record plus, when successful, the
/// inverse transition (absent for dead rules and failures).
struct RuleInversionResult {
  RuleInversionRecord Record;
  std::optional<SeftTransition> Transition;
};

/// The dead-rule check of rule \p T (position \p Index): whether its guard
/// can fire, decided on \p S. A rule that needs no synthesis gets its
/// finished result: a dead rule is Inverted with no transition, and a
/// failed check records its degraded outcome. A live rule gets
/// std::nullopt and goes to invertOneRule. The parallel driver runs it on
/// the shared session before the fan-out (Inverter.cpp), so a dead rule's
/// fork never builds a Z3 context and the sat memo answers a repeat.
std::optional<RuleInversionResult>
screenDeadRule(const SeftTransition &T, unsigned Index, Solver &S);

/// Inverts one live rule (Definition 5.2; see screenDeadRule). \p Index is
/// the rule's position in
/// its transducer (recorded for reporting); \p InputType and \p OutputType
/// are the owning transducer's alphabet types. All terms (input and output)
/// live in S.factory(). Rules are independent, so callers may run this for
/// different rules in different sessions concurrently — each session needs
/// its own TermFactory and Solver (neither is thread-safe); see
/// Inverter.cpp for the parallel driver.
RuleInversionResult invertOneRule(const SeftTransition &T, unsigned Index,
                                  const Type &InputType,
                                  const Type &OutputType, Solver &S,
                                  const RecoverySynthesizer &Synthesize);

/// Inverts \p A rule by rule in order, each screened by screenDeadRule
/// first, all on \p S. \p A must be injective
/// (checkInjectivity); the guard psi is computed in exact quantifier-free
/// form from the recoveries and the outputs with \p Synthesize. Per-rule
/// synthesis failures are recorded and skipped.
Result<InversionOutcome> invertSeft(const Seft &A, Solver &S,
                                    const RecoverySynthesizer &Synthesize);

} // namespace genic

#endif // GENIC_TRANSDUCER_INVERT_H
