//===- tests/parallel_injectivity_test.cpp - checker --jobs determinism ---===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel determinism/injectivity pipeline must be a pure scheduling
/// change: verdicts, details, and witnesses are byte-identical for every
/// jobs value, because workers export only semantic verdicts from pooled
/// sessions, term-producing projections run in fresh per-task sessions, and
/// all merges happen in fixed index order. These tests pin that property on
/// corpus coders end to end, on small hand-built machines whose witnesses
/// are inspected exactly, on the ambiguity product search directly, and on
/// concurrent use of the helpers whose thread-safety contract Ambiguity.h
/// documents.
///
/// Naming convention: tests prefixed Small / Concurrent are cheap and are
/// the ones ci.sh runs under ThreadSanitizer.
///
//===----------------------------------------------------------------------===//

#include "automata/Ambiguity.h"
#include "coders/Corpus.h"
#include "engine/InversionEngine.h"
#include "transducer/Determinism.h"
#include "transducer/Injectivity.h"

#include <gtest/gtest.h>

#include <thread>

using namespace genic;

namespace {

/// Strips the invert operation (inversion scheduling is pinned by
/// parallel_invert_test; this suite is about the checkers).
std::string withoutInvert(std::string Source) {
  size_t Pos = Source.find("\ninvert ");
  if (Pos != std::string::npos)
    Source.erase(Pos, Source.find('\n', Pos + 1) - Pos);
  return Source;
}

/// (family, variant) of a corpus coder. Held as strings, not `const char *`,
/// so gtest prints the values rather than their addresses and the test
/// names are the same in every build.
using CoderParam = std::pair<std::string, std::string>;

const CoderSpec &findCoder(const std::string &Family,
                           const std::string &Variant) {
  for (const CoderSpec &Spec : coderCorpus())
    if (Spec.Family == Family && Spec.Variant == Variant)
      return Spec;
  ADD_FAILURE() << "corpus is missing " << Family << " " << Variant;
  return coderCorpus().front();
}

/// Everything the checkers print or report, formatted so a mismatch shows
/// the exact field that diverged between jobs values.
std::string checkerSummary(const GenicReport &R) {
  std::string Out;
  Out += R.Deterministic ? "deterministic" : "NONDETERMINISTIC";
  Out += "\ndet-detail: " + R.DeterminismDetail;
  if (R.Injectivity) {
    Out += R.Injectivity->Injective ? "\ninjective" : "\nNONINJECTIVE";
    Out += "\ninj-detail: " + R.Injectivity->Detail;
    if (R.Injectivity->Witness)
      Out += "\nwitness: " + toString(R.Injectivity->Witness->first) +
             " vs " + toString(R.Injectivity->Witness->second);
  }
  return Out;
}

/// Runs the checkers at \p Jobs and returns the summary. The summary is
/// built while the tool is alive (reports reference terms the tool owns).
std::string checkWithJobs(const std::string &Source, unsigned Jobs) {
  InverterOptions Options;
  Options.Jobs = Jobs;
  GenicTool Tool(Options);
  Result<GenicReport> Report =
      Tool.run(Source, /*ForceInjectivity=*/true, /*ForceInvert=*/false);
  if (!Report.isOk()) {
    ADD_FAILURE() << Report.status().message();
    return "<error>";
  }
  EXPECT_TRUE(Report->Injectivity.has_value());
  return checkerSummary(*Report);
}

class ParallelInjectivityTest : public ::testing::TestWithParam<CoderParam> {};

TEST_P(ParallelInjectivityTest, VerdictIsByteIdenticalAcrossJobs) {
  const CoderSpec &Spec = findCoder(GetParam().first, GetParam().second);
  std::string Source = withoutInvert(Spec.Source);

  std::string Reference = checkWithJobs(Source, 1);
  ASSERT_NE(Reference, "<error>");

  for (unsigned Jobs : {2u, 8u}) {
    EXPECT_EQ(checkWithJobs(Source, Jobs), Reference)
        << "checker output differs between --jobs 1 and --jobs " << Jobs;
  }
}

// The corpus programs the tentpole targets: UTF-16/UTF-8 (the projection-
// heavy rows) and both BASE64 coders (many same-state rule pairs for the
// determinism scan).
INSTANTIATE_TEST_SUITE_P(
    Coders, ParallelInjectivityTest,
    ::testing::Values(CoderParam("UTF-8", "encoder"),
                      CoderParam("UTF-16", "encoder"),
                      CoderParam("BASE64", "encoder"),
                      CoderParam("BASE64", "decoder")),
    [](const ::testing::TestParamInfo<CoderParam> &Info) {
      std::string Name = Info.param.first + "_" + Info.param.second;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

class SmallParallelTest : public ::testing::Test {
protected:
  Type I = Type::intTy();

  /// x -> [x * x]: not injective (x and -x collide); the witness must be
  /// the same for every jobs value.
  Seft squareMachine(TermFactory &F) {
    TermRef X0 = F.mkVar(0, I);
    Seft A(1, 0, I, I);
    A.addTransition({0, Seft::FinalState, 1, F.mkTrue(),
                     {F.mkIntOp(Op::IntMul, X0, X0)}});
    return A;
  }

  /// Two overlapping same-state rules with different outputs:
  /// nondeterministic with a specific witness pair.
  Seft overlappingMachine(TermFactory &F) {
    TermRef X0 = F.mkVar(0, I);
    Seft A(1, 0, I, I);
    A.addTransition({0, Seft::FinalState, 1,
                     F.mkIntOp(Op::IntLt, X0, F.mkInt(10)), {X0}});
    A.addTransition({0, Seft::FinalState, 1,
                     F.mkIntOp(Op::IntGt, X0, F.mkInt(-10)),
                     {F.mkIntOp(Op::IntAdd, X0, F.mkInt(1))}});
    return A;
  }
};

TEST_F(SmallParallelTest, SmallInjectivityWitnessIsJobsInvariant) {
  std::optional<InjectivityResult> Reference;
  for (unsigned Jobs : {1u, 2u, 8u}) {
    TermFactory F;
    Solver S(F);
    Seft A = squareMachine(F);
    InjectivityOptions Opts;
    Opts.Jobs = Jobs;
    Result<InjectivityResult> R = checkInjectivity(A, S, Opts);
    ASSERT_TRUE(R.isOk()) << R.status().message();
    ASSERT_FALSE(R->Injective);
    ASSERT_TRUE(R->Witness.has_value());
    // The witness genuinely collides.
    EXPECT_NE(R->Witness->first, R->Witness->second);
    EXPECT_EQ(A.transduce(R->Witness->first),
              A.transduce(R->Witness->second));
    if (!Reference) {
      Reference = *R;
      continue;
    }
    EXPECT_EQ(R->Detail, Reference->Detail) << Jobs << " jobs";
    EXPECT_EQ(R->Witness->first, Reference->Witness->first);
    EXPECT_EQ(R->Witness->second, Reference->Witness->second);
  }
}

TEST_F(SmallParallelTest, SmallDeterminismViolationIsJobsInvariant) {
  std::optional<DeterminismViolation> Reference;
  for (unsigned Jobs : {1u, 2u, 8u}) {
    TermFactory F;
    Solver S(F);
    Seft A = overlappingMachine(F);
    DeterminismOptions Opts;
    Opts.Jobs = Jobs;
    Result<std::optional<DeterminismViolation>> R =
        checkDeterminism(A, S, Opts);
    ASSERT_TRUE(R.isOk()) << R.status().message();
    ASSERT_TRUE(R->has_value());
    if (!Reference) {
      Reference = **R;
      continue;
    }
    EXPECT_EQ((*R)->TransitionA, Reference->TransitionA) << Jobs << " jobs";
    EXPECT_EQ((*R)->TransitionB, Reference->TransitionB);
    EXPECT_EQ((*R)->Symbols, Reference->Symbols);
    EXPECT_EQ((*R)->Reason, Reference->Reason);
  }
}

TEST_F(SmallParallelTest, SmallAmbiguitySearchIsJobsInvariant) {
  // Example 4.5's output automaton: ambiguous, with a two-symbol witness
  // through distinct paths. The level-synchronized search must reproduce
  // the serial word and both paths exactly at every jobs value.
  std::optional<AmbiguityWitness> Reference;
  for (unsigned Jobs : {1u, 2u, 8u}) {
    TermFactory F;
    Solver S(F);
    TermRef X = F.mkVar(0, I);
    TermRef GtM5 = F.mkIntOp(Op::IntGt, X, F.mkInt(-5));
    TermRef Lt5 = F.mkIntOp(Op::IntLt, X, F.mkInt(5));
    CartesianSefa A(2, 0, I);
    A.addTransition({0, 1, {GtM5}, 0});
    A.addTransition({1, CartesianSefa::FinalState, {GtM5}, 1});
    A.addTransition({0, CartesianSefa::FinalState, {Lt5, Lt5}, 2});

    AmbiguityOptions Opts;
    Opts.Jobs = Jobs;
    Result<std::optional<AmbiguityWitness>> R = checkAmbiguity(A, S, Opts);
    ASSERT_TRUE(R.isOk()) << R.status().message();
    ASSERT_TRUE(R->has_value());
    EXPECT_GE(A.countAcceptingPaths((*R)->Word), 2u);
    if (!Reference) {
      Reference = **R;
      continue;
    }
    EXPECT_EQ((*R)->Word, Reference->Word) << Jobs << " jobs";
    EXPECT_EQ((*R)->PathA, Reference->PathA);
    EXPECT_EQ((*R)->PathB, Reference->PathB);
  }
}

TEST_F(SmallParallelTest, SmallUnambiguousStaysUnambiguousAcrossJobs) {
  for (unsigned Jobs : {1u, 2u, 8u}) {
    TermFactory F;
    Solver S(F);
    TermRef X = F.mkVar(0, I);
    CartesianSefa A(2, 0, I);
    A.addTransition({0, 1, {F.mkIntOp(Op::IntGt, X, F.mkInt(0))}, 0});
    A.addTransition(
        {1, CartesianSefa::FinalState, {F.mkIntOp(Op::IntGt, X, F.mkInt(0))},
         1});
    A.addTransition({0, CartesianSefa::FinalState,
                     {F.mkIntOp(Op::IntLt, X, F.mkInt(0)),
                      F.mkIntOp(Op::IntLt, X, F.mkInt(0))},
                     2});
    AmbiguityOptions Opts;
    Opts.Jobs = Jobs;
    Result<std::optional<AmbiguityWitness>> R = checkAmbiguity(A, S, Opts);
    ASSERT_TRUE(R.isOk()) << R.status().message();
    EXPECT_FALSE(R->has_value()) << Jobs << " jobs";
  }
}

TEST_F(SmallParallelTest, ConcurrentTrimAndSampleArePerSessionSafe) {
  // Ambiguity.h's contract: trim and sampleAcceptedVia are safe to call
  // concurrently as long as each call has its own Solver/TermFactory. Run
  // both from several threads over private sessions and check the results
  // agree with a serial reference.
  auto Build = [this](TermFactory &F) {
    TermRef X = F.mkVar(0, I);
    CartesianSefa A(3, 0, I);
    A.addTransition({0, 1, {F.mkIntOp(Op::IntGt, X, F.mkInt(0))}, 0});
    A.addTransition(
        {1, CartesianSefa::FinalState, {F.mkEq(X, F.mkInt(7))}, 1});
    // Dead rule (unsat guard) and dead state 2: trimmed away.
    A.addTransition({0, 2,
                     {F.mkAnd(F.mkIntOp(Op::IntLt, X, F.mkInt(0)),
                              F.mkIntOp(Op::IntGt, X, F.mkInt(0)))},
                     2});
    return A;
  };

  ValueList RefSample;
  size_t RefTransitions = 0;
  {
    TermFactory F;
    Solver S(F);
    CartesianSefa A = Build(F);
    Result<CartesianSefa> T = trim(A, S);
    ASSERT_TRUE(T.isOk()) << T.status().message();
    RefTransitions = T->transitions().size();
    Result<ValueList> W = sampleAcceptedVia(*T, S, T->initial());
    ASSERT_TRUE(W.isOk()) << W.status().message();
    RefSample = *W;
  }

  constexpr unsigned NumThreads = 8;
  std::vector<std::string> Errors(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned TI = 0; TI != NumThreads; ++TI)
    Threads.emplace_back([&, TI] {
      for (int Round = 0; Round != 4; ++Round) {
        TermFactory F;
        Solver S(F);
        CartesianSefa A = Build(F);
        Result<CartesianSefa> T = trim(A, S);
        if (!T) {
          Errors[TI] = T.status().message();
          return;
        }
        if (T->transitions().size() != RefTransitions) {
          Errors[TI] = "trim result differs";
          return;
        }
        Result<ValueList> W = sampleAcceptedVia(*T, S, T->initial());
        if (!W) {
          Errors[TI] = W.status().message();
          return;
        }
        if (*W != RefSample) {
          Errors[TI] = "sample differs: " + toString(*W);
          return;
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (unsigned TI = 0; TI != NumThreads; ++TI)
    EXPECT_EQ(Errors[TI], "") << "thread " << TI;
}

TEST_F(SmallParallelTest, ConcurrentCheckAmbiguityIsPerSessionSafe) {
  constexpr unsigned NumThreads = 4;
  std::vector<std::string> Errors(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned TI = 0; TI != NumThreads; ++TI)
    Threads.emplace_back([&, TI] {
      TermFactory F;
      Solver S(F);
      TermRef X = F.mkVar(0, I);
      CartesianSefa A(1, 0, I);
      A.addTransition({0, CartesianSefa::FinalState,
                       {F.mkIntOp(Op::IntLt, X, F.mkInt(10))}, 0});
      A.addTransition({0, CartesianSefa::FinalState,
                       {F.mkIntOp(Op::IntGt, X, F.mkInt(-10))}, 1});
      AmbiguityOptions Opts;
      Opts.Jobs = 2; // Nested parallelism inside each thread's session.
      Result<std::optional<AmbiguityWitness>> R = checkAmbiguity(A, S, Opts);
      if (!R) {
        Errors[TI] = R.status().message();
        return;
      }
      if (!R->has_value())
        Errors[TI] = "expected ambiguous";
    });
  for (std::thread &T : Threads)
    T.join();
  for (unsigned TI = 0; TI != NumThreads; ++TI)
    EXPECT_EQ(Errors[TI], "") << "thread " << TI;
}

} // namespace
