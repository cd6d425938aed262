//===- sygus/Enumerator.h - Bottom-up enumeration with OE pruning ---------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The enumerative core of the SyGuS engine, modeled after the Enumerative
/// CEGIS solver the paper uses (the SyGuS-comp 2014 winner): terms are
/// enumerated bottom-up in order of size, and two terms that evaluate
/// identically on the current example set are observationally equivalent —
/// only the first is kept. The CEGIS driver asks for a term matching the
/// target outputs on the examples; enumeration by size means the first
/// match is a smallest one. A candidate is evaluated on every example at
/// once, straight on its children's signatures (term/LaneEval.h).
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_SYGUS_ENUMERATOR_H
#define GENIC_SYGUS_ENUMERATOR_H

#include "sygus/EnumeratorBank.h"
#include "sygus/Grammar.h"
#include "support/Deadline.h"
#include "term/Value.h"

#include <optional>
#include <vector>

namespace genic {

/// One bottom-up enumeration session over a fixed example set.
class Enumerator {
public:
  /// The one place the example cap lives: observational-equivalence
  /// signatures are packed into a 64-bit definedness mask, so an example
  /// set larger than this cannot be represented. Callers (the CEGIS driver
  /// in Sygus.cpp) must stay at or below it; the Enumerator rejects larger
  /// sets loudly instead of silently truncating.
  static constexpr size_t MaxExamples = 64;

  struct Config {
    /// Largest term size to enumerate. The paper reports that functions
    /// beyond ~25 operators are out of reach of existing solvers (§7.2/7.3).
    unsigned MaxSize = 25;
    /// Total bank-entry budget across all sizes and types.
    size_t MaxTerms = 400000;
    /// Wall-clock budget for one findMatching call.
    double TimeoutSeconds = 30;
    /// Optional persistent bank store (see EnumeratorBank.h). Not owned.
    /// When set, findMatching seeds its banks from the store entry for this
    /// (grammar, examples) pair, resumes enumeration past the completed
    /// sizes, and commits the banks back with partial sizes rolled back.
    EnumeratorBankStore *BankStore = nullptr;
    /// Global cancellation: enumeration stops at the same points the
    /// wall-clock budget is checked once the token fires (reported as
    /// TimedOut). Default token never cancels.
    CancellationToken Cancel;
  };

  /// \p Examples are environments for the grammar's variables: Examples[e]
  /// binds Var(i) to Examples[e][i]. At most MaxExamples examples are
  /// supported; larger sets make findMatching fail loudly.
  Enumerator(TermFactory &F, const Grammar &G,
             std::vector<std::vector<Value>> Examples)
      : Enumerator(F, G, std::move(Examples), Config()) {}
  Enumerator(TermFactory &F, const Grammar &G,
             std::vector<std::vector<Value>> Examples, Config C);

  /// Searches for a term of the grammar's result type whose value on every
  /// example equals \p Target. Returns std::nullopt when the budget is
  /// exhausted first. \p Target must have one entry per example.
  std::optional<TermRef> findMatching(const std::vector<Value> &Target);

  /// Statistics of the last findMatching call.
  struct Stats {
    size_t TermsKept = 0;       // distinct signatures retained
    size_t CandidatesTried = 0; // combinations evaluated
    uint64_t CandidateEvals = 0; // (candidate, example) lanes evaluated
    unsigned SizeReached = 0;
    bool TimedOut = false;
    /// No match, and every size up to MaxSize was fully enumerated (none
    /// cut short by the clock, MaxTerms, cancellation or the example cap).
    /// No term of size <= MaxSize then matches the target on these
    /// examples, nor on any example set that extends them: a signature
    /// restricted to the old examples is the old signature.
    bool Exhausted = false;
    bool RejectedOversized = false; // example set exceeded MaxExamples
    bool ReusedBank = false;        // seeded from the bank store
  };
  const Stats &stats() const { return LastStats; }

private:
  struct Impl;
  TermFactory &Factory;
  const Grammar &G;
  std::vector<std::vector<Value>> Examples;
  Config Cfg;
  Stats LastStats;
};

} // namespace genic

#endif // GENIC_SYGUS_ENUMERATOR_H
