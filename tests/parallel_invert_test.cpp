//===- tests/parallel_invert_test.cpp - --jobs determinism ----------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel per-transition inversion must be a pure scheduling change: for
/// any jobs value the emitted inverse program is byte-identical, because
/// every rule runs in a private deterministic session and results merge in
/// rule order. These tests pin that property on corpus coders (including a
/// decoder, whose auxiliary functions are partial) and check the parallel
/// result still round-trips.
///
//===----------------------------------------------------------------------===//

#include "engine/InversionEngine.h"

#include "coders/Corpus.h"

#include <gtest/gtest.h>

#include <random>

using namespace genic;

namespace {

/// Strips the isInjective operation (exercised elsewhere; this test is
/// about inversion scheduling).
std::string withoutInjectivity(std::string Source) {
  size_t Pos = Source.find("isInjective");
  if (Pos != std::string::npos)
    Source.erase(Pos, Source.find('\n', Pos) - Pos + 1);
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

GenicTool makeTool(unsigned Jobs) {
  InverterOptions Options;
  Options.Jobs = Jobs;
  return GenicTool(Options);
}

/// Reports reference terms owned by their tool (see Genic.h), so the tool
/// must stay alive while a report's machines are used.
GenicReport invertWithJobs(GenicTool &Tool, const std::string &Source) {
  Result<GenicReport> Report = Tool.run(Source);
  EXPECT_TRUE(Report.isOk()) << Report.status().message();
  return *Report;
}

class ParallelInvertTest : public ::testing::TestWithParam<CoderParam> {};

TEST_P(ParallelInvertTest, OutputIsByteIdenticalAcrossJobs) {
  const CoderSpec &Spec = findCoder(GetParam().first, GetParam().second);
  std::string Source = withoutInjectivity(Spec.Source);

  GenicTool SerialTool = makeTool(1);
  GenicReport Serial = invertWithJobs(SerialTool, Source);
  ASSERT_TRUE(Serial.Inversion.has_value());
  ASSERT_TRUE(Serial.Inversion->complete());
  ASSERT_FALSE(Serial.InverseSource.empty());

  for (unsigned Jobs : {2u, 4u}) {
    GenicTool ParallelTool = makeTool(Jobs);
    GenicReport Parallel = invertWithJobs(ParallelTool, Source);
    ASSERT_TRUE(Parallel.Inversion.has_value()) << Jobs << " jobs";
    EXPECT_EQ(Parallel.InverseSource, Serial.InverseSource)
        << "inverse differs between --jobs 1 and --jobs " << Jobs;
    ASSERT_EQ(Parallel.Inversion->Records.size(),
              Serial.Inversion->Records.size());
    for (size_t R = 0; R < Serial.Inversion->Records.size(); ++R) {
      EXPECT_EQ(Parallel.Inversion->Records[R].Inverted,
                Serial.Inversion->Records[R].Inverted);
      EXPECT_EQ(Parallel.Inversion->Records[R].Error,
                Serial.Inversion->Records[R].Error);
    }
  }
}

TEST_P(ParallelInvertTest, ParallelInverseRoundTrips) {
  const CoderSpec &Spec = findCoder(GetParam().first, GetParam().second);
  GenicTool Tool = makeTool(4);
  GenicReport Report = invertWithJobs(Tool, withoutInjectivity(Spec.Source));
  ASSERT_TRUE(Report.Inversion.has_value());
  ASSERT_TRUE(Report.Inversion->complete());

  std::mt19937_64 Rng(0x70b5);
  for (unsigned Len : {0u, 1u, 2u, 4u, 6u}) {
    Symbols In = Spec.MakeInput(Rng, Len);
    ValueList Input;
    for (uint64_t V : In)
      Input.push_back(Value::bitVecVal(V, Spec.SymbolBits));
    auto Mid = Report.Machine->transduceFunctional(Input);
    if (!Mid)
      continue; // MakeInput may produce inputs the machine rejects at 0.
    auto Back = Report.InverseMachine->transduceFunctional(*Mid);
    ASSERT_TRUE(Back.has_value()) << "inverse rejects machine output";
    EXPECT_EQ(*Back, Input);
  }
}

// BASE16 is the cheapest corpus pair; the decoder's auxiliary functions
// are partial (domain-constrained), covering domain-check cloning. UU
// encoder adds a third machine with different aux structure.
INSTANTIATE_TEST_SUITE_P(
    Coders, ParallelInvertTest,
    ::testing::Values(CoderParam("BASE16", "encoder"),
                      CoderParam("BASE16", "decoder"),
                      CoderParam("UU", "encoder")),
    [](const ::testing::TestParamInfo<CoderParam> &Info) {
      return Info.param.first + "_" + Info.param.second;
    });

} // namespace
