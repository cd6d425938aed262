//===- tests/varreduce_test.cpp - Variable reduction vs its reference -----===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential test of §6 variable reduction. sufficientOutputSubsets
/// reduces every input of a rule in one child session with selector
/// literals; the reference below is the one-shot greedy reduction it
/// replaced (K + 1 flat isSat queries per input). Both must name the same
/// subset, or both fail, for every rule and input position of the 14
/// corpus coders, random multi-state LIA machines and the ST family. The
/// child session must also leave the rule's factory untouched.
///
//===----------------------------------------------------------------------===//

#include "coders/Corpus.h"
#include "coders/Synthetic.h"
#include "genic/Lower.h"
#include "genic/Parser.h"
#include "solver/SolverContext.h"
#include "sygus/Mining.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

using namespace genic;

namespace {

/// The one-shot greedy reduction, verbatim in behavior: every
/// determination check re-sends the whole two-copy formula through
/// isSat in \p S's own session.
Result<std::vector<unsigned>> referenceSubset(Solver &S,
                                              const ImagePredicate &P,
                                              unsigned XIndex,
                                              Type InputType) {
  TermFactory &F = S.factory();
  const unsigned N = P.NumInputs;
  const unsigned K = P.arity();
  std::vector<Type> Types(N, InputType);
  {
    std::unordered_set<TermRef> Visited;
    auto Note = [&](auto &&Self, TermRef T) -> void {
      if (!Visited.insert(T).second)
        return;
      if (T->isVar() && T->varIndex() < N)
        Types[T->varIndex()] = T->type();
      for (TermRef C : T->children())
        Self(Self, C);
    };
    Note(Note, F.inlineCalls(P.Guard));
    for (TermRef O : P.Outputs)
      Note(Note, F.inlineCalls(O));
  }
  auto Shift = [&](TermRef T) {
    std::vector<TermRef> Repl(N);
    for (unsigned I = 0; I < N; ++I)
      Repl[I] = F.mkVar(N + I, Types[I]);
    return F.substitute(T, Repl);
  };
  auto Determines = [&](const std::vector<unsigned> &Subset) -> Result<bool> {
    std::vector<TermRef> Conjuncts{P.Guard, Shift(P.Guard)};
    for (unsigned J : Subset)
      Conjuncts.push_back(F.mkEq(P.Outputs[J], Shift(P.Outputs[J])));
    Conjuncts.push_back(F.mkDistinct(F.mkVar(XIndex, Types[XIndex]),
                                     F.mkVar(N + XIndex, Types[XIndex])));
    Result<bool> Sat = S.isSat(F.mkAnd(std::move(Conjuncts)));
    if (!Sat)
      return Sat;
    return !*Sat;
  };

  std::vector<unsigned> Subset;
  for (unsigned J = 0; J < K; ++J)
    Subset.push_back(J);
  Result<bool> Full = Determines(Subset);
  if (!Full)
    return Full.status();
  if (!*Full)
    return Status::error("the outputs do not determine the input");
  for (unsigned J = K; J-- > 0;) {
    std::vector<unsigned> Without;
    for (unsigned M : Subset)
      if (M != J)
        Without.push_back(M);
    Result<bool> Ok = Determines(Without);
    if (!Ok)
      return Ok.status();
    if (*Ok)
      Subset = std::move(Without);
  }
  return Subset;
}

/// A corpus coder's name as a test-name label ("UTF_8_decoder").
std::string coderLabel(const CoderSpec &Spec) {
  std::string Label = Spec.name();
  for (char &C : Label)
    if (!std::isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Label;
}

/// A program under test: a corpus coder's label, "lia_<seed>_<states>" or
/// "st_<k>".
std::string sourceFor(const std::string &Label) {
  for (const CoderSpec &Spec : coderCorpus())
    if (coderLabel(Spec) == Label)
      return Spec.Source;
  unsigned A = 0, B = 0;
  if (std::sscanf(Label.c_str(), "lia_%u_%u", &A, &B) == 2)
    return makeRandomLiaProgram(A, B);
  if (std::sscanf(Label.c_str(), "st_%u", &A) == 1)
    return makeStProgram(A);
  ADD_FAILURE() << "unknown program label " << Label;
  return "";
}

std::vector<std::string> programLabels() {
  std::vector<std::string> Labels;
  for (const CoderSpec &Spec : coderCorpus())
    Labels.push_back(coderLabel(Spec));
  for (unsigned Seed : {1u, 2u, 3u})
    for (unsigned States = 2; States <= 8; ++States)
      Labels.push_back("lia_" + std::to_string(Seed) + "_" +
                       std::to_string(States));
  for (unsigned K = 1; K <= 3; ++K)
    Labels.push_back("st_" + std::to_string(K));
  return Labels;
}

class VarReduceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(VarReduceTest, SubsetsMatchTheOneShotReference) {
  SolverContext Ctx;
  Result<AstProgram> Ast = parseGenic(sourceFor(GetParam()));
  ASSERT_TRUE(Ast.isOk()) << Ast.status().message();
  Result<LoweredProgram> Prog = lowerProgram(Ctx.factory(), *Ast);
  ASSERT_TRUE(Prog.isOk()) << Prog.status().message();
  const Seft &M = Prog->Machine;

  unsigned Compared = 0;
  for (size_t Rule = 0; Rule != M.transitions().size(); ++Rule) {
    const SeftTransition &T = M.transitions()[Rule];
    if (T.Lookahead == 0 || T.Outputs.empty())
      continue;
    ImagePredicate P{T.Guard, T.Outputs, T.Lookahead};

    // Each side runs in its own fork of the program's session, as a
    // rule does in the pipeline.
    SolverContext Fork(Ctx);
    const size_t PoolBefore = Fork.factory().poolSize();
    OutputReduction New =
        sufficientOutputSubsets(Fork.solver(), P, M.inputType());
    EXPECT_EQ(Fork.factory().poolSize(), PoolBefore)
        << "reduction interned terms in the rule's factory";
    ASSERT_EQ(New.Subsets.size(), T.Lookahead);
    EXPECT_GT(New.Smt.SatQueries, 0u);

    SolverContext RefFork(Ctx);
    for (unsigned I = 0; I < T.Lookahead; ++I) {
      Result<std::vector<unsigned>> Ref =
          referenceSubset(RefFork.solver(), P, I, M.inputType());
      const Result<std::vector<unsigned>> &Got = New.Subsets[I];
      std::string Where = GetParam() + " rule " + std::to_string(Rule) +
                          " input " + std::to_string(I);
      ASSERT_EQ(Got.isOk(), Ref.isOk())
          << Where << ": "
          << (Got ? Ref.status().message() : Got.status().message());
      if (Got) {
        EXPECT_EQ(*Got, *Ref) << Where;
      }
      ++Compared;
    }
  }
  EXPECT_GT(Compared, 0u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Programs, VarReduceTest, ::testing::ValuesIn(programLabels()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

} // namespace
