//===- tests/involution_test.cpp - Inverting the inverse ------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Definition 5.2 is symmetric: t inverts r iff r inverts t. As a system
/// property, inverting a synthesized inverse must yield a program
/// behaviourally equivalent to the original — the strongest cheap evidence
/// that the emitted guards are exact (an over-approximate guard would
/// accept junk whose image breaks the second inversion's round-trip).
///
//===----------------------------------------------------------------------===//

#include "engine/InversionEngine.h"

#include "coders/Corpus.h"

#include <gtest/gtest.h>

#include <random>

using namespace genic;

namespace {

class InvolutionTest : public ::testing::TestWithParam<size_t> {};

std::string involutionName(const ::testing::TestParamInfo<size_t> &Info) {
  std::string Name = coderCorpus()[Info.param].name();
  for (char &C : Name)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

TEST_P(InvolutionTest, DoubleInverseMatchesOriginal) {
  const CoderSpec &Spec = coderCorpus()[GetParam()];
  std::string Source = Spec.Source;
  size_t Pos = Source.find("isInjective");
  if (Pos != std::string::npos)
    Source.erase(Pos, Source.find('\n', Pos) - Pos + 1);

  GenicTool Tool;
  Result<GenicReport> First = Tool.run(Source);
  ASSERT_TRUE(First.isOk()) << First.status().message();
  ASSERT_TRUE(First->Inversion->complete());

  GenicTool Tool2;
  Result<GenicReport> Second =
      Tool2.run(First->InverseSource, false, /*ForceInvert=*/true);
  ASSERT_TRUE(Second.isOk()) << Second.status().message();
  ASSERT_TRUE(Second->Inversion->complete())
      << "double inversion incomplete";

  // The double inverse must agree with the original machine on valid
  // inputs and reject what it rejects (sampled).
  std::mt19937_64 Rng(900 + GetParam());
  for (unsigned Len : {0u, 1u, 2u, 3u, 5u, 8u}) {
    Symbols In = Spec.MakeInput(Rng, Len);
    ValueList Input;
    for (uint64_t V : In)
      Input.push_back(Value::bitVecVal(V, Spec.SymbolBits));
    auto A = First->Machine->transduce(Input, 2);
    auto B = Second->InverseMachine->transduce(Input, 2);
    EXPECT_EQ(A, B) << "double inverse diverges on valid input, length "
                    << Len;
  }
  for (int Trial = 0; Trial < 40; ++Trial) {
    ValueList Input;
    unsigned Len = Rng() % 6;
    for (unsigned I = 0; I < Len; ++I)
      Input.push_back(Value::bitVecVal(
          Rng() & Value::maskOf(Spec.SymbolBits), Spec.SymbolBits));
    EXPECT_EQ(First->Machine->transduce(Input, 2),
              Second->InverseMachine->transduce(Input, 2))
        << "double inverse diverges on " << toString(Input);
  }
}

// The six byte coders whose double inversion has always been fast.
INSTANTIATE_TEST_SUITE_P(FastCoders, InvolutionTest,
                         ::testing::Values<size_t>(0, 2, 6, 7, 12, 13),
                         involutionName);

// The other eight, 0.5-6 s each now that projection images come mostly
// from concrete evaluation. They include the BASE32 decoder and the UTF-8
// encoder, whose printed inverses move with solver models.
INSTANTIATE_TEST_SUITE_P(OtherCoders, InvolutionTest,
                         ::testing::Values<size_t>(1, 3, 4, 5, 8, 9, 10, 11),
                         involutionName);

} // namespace
