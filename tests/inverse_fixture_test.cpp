//===- tests/inverse_fixture_test.cpp - Printed inverses stay put ----------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `genic invert` on each corpus coder in programs/ must print exactly the
/// committed text in tests/inverses/, at --jobs 1 and 4. The other
/// determinism tests compare runs of one build with each other; these
/// fixtures pin the output across builds, so a backend change that steers
/// Z3's models (and with them the synthesized terms) shows up as a diff,
/// not only a reordering of commutative operands. Timing figures are stripped from the status lines
/// the same way tests/inverses/regenerate.sh strips them; that script
/// regenerates the fixtures when a change to the inverses is intended.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <tuple>

namespace {

/// (program file stem, --jobs).
using FixtureParam = std::tuple<std::string, unsigned>;

const std::string Coders[] = {
    "BASE16_decoder",     "BASE16_encoder",     "BASE32_decoder",
    "BASE32_encoder",     "BASE64_decoder",     "BASE64_encoder",
    "UTF-16_decoder",     "UTF-16_encoder",     "UTF-8_decoder",
    "UTF-8_encoder",      "UU_decoder",         "UU_encoder",
    "mod_BASE64_decoder", "mod_BASE64_encoder"};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Runs \p Command and returns its standard output with the timing
/// parentheses dropped from the end of each line.
std::string normalizedOutput(const std::string &Command, int &ExitCode) {
  std::string Raw;
  FILE *P = popen(Command.c_str(), "r");
  if (!P) {
    ExitCode = -1;
    return Raw;
  }
  std::array<char, 4096> Buf;
  size_t N;
  while ((N = fread(Buf.data(), 1, Buf.size(), P)) > 0)
    Raw.append(Buf.data(), N);
  ExitCode = pclose(P);
  static const std::regex Timing(" \\([0-9]+\\.[0-9]+s[^)\\n]*\\)$");
  std::istringstream Lines(Raw);
  std::string Line, Out;
  while (std::getline(Lines, Line))
    Out += std::regex_replace(Line, Timing, "") + "\n";
  return Out;
}

class InverseFixtureTest : public ::testing::TestWithParam<FixtureParam> {};

TEST_P(InverseFixtureTest, GenicInvertPrintsTheFixture) {
  const auto &[Stem, Jobs] = GetParam();
  std::string Command = std::string(GENIC_CLI_BIN) + " invert " +
                        GENIC_PROGRAMS_DIR "/" + Stem + ".genic --jobs " +
                        std::to_string(Jobs) + " 2>/dev/null";
  int ExitCode = 0;
  std::string Actual = normalizedOutput(Command, ExitCode);
  EXPECT_EQ(ExitCode, 0) << Command;
  std::string Expected =
      readFile(std::string(GENIC_FIXTURE_DIR "/") + Stem + ".out");
  ASSERT_FALSE(Expected.empty()) << "missing fixture for " << Stem;
  EXPECT_EQ(Actual, Expected) << Command;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, InverseFixtureTest,
    ::testing::Combine(::testing::ValuesIn(Coders), ::testing::Values(1u, 4u)),
    // The "_inc_on" suffix dates from when the solver core had a one-shot
    // mode; it is kept so case names stay comparable across revisions.
    [](const ::testing::TestParamInfo<FixtureParam> &Info) {
      std::string Name = std::get<0>(Info.param) + "_jobs" +
                         std::to_string(std::get<1>(Info.param)) + "_inc_on";
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

} // namespace
