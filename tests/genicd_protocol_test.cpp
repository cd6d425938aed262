//===- tests/genicd_protocol_test.cpp - genicd wire protocol --------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the genicd NDJSON wire protocol (engine/Serve.h): the flat-JSON
/// parser's accepted and rejected shapes, escaping round-trips through
/// formatServeResponse, request validation diagnostics, and the exit-code
/// to API-code mapping both ways. The daemon and client share these
/// helpers, so this suite is the protocol's conformance test.
///
//===----------------------------------------------------------------------===//

#include "coders/Corpus.h"
#include "engine/Serve.h"
#include "genic/Genic.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace genic;

namespace {

//===----------------------------------------------------------------------===//
// Flat JSON parsing
//===----------------------------------------------------------------------===//

TEST(FlatJson, ParsesScalarsOfEveryType) {
  Result<FlatJson> R = parseFlatJson(
      R"({"s":"hi","n":4.5,"m":-3,"t":true,"f":false,"z":null})");
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_EQ(R->Strings.at("s"), "hi");
  EXPECT_DOUBLE_EQ(R->Numbers.at("n"), 4.5);
  EXPECT_DOUBLE_EQ(R->Numbers.at("m"), -3);
  EXPECT_TRUE(R->Bools.at("t"));
  EXPECT_FALSE(R->Bools.at("f"));
  // null keys are dropped, not errors.
  EXPECT_FALSE(R->has("z"));
  EXPECT_TRUE(R->has("s"));
}

TEST(FlatJson, ParsesEmptyObjectAndWhitespace) {
  EXPECT_TRUE(parseFlatJson("{}").isOk());
  EXPECT_TRUE(parseFlatJson("  { \"a\" : 1 , \"b\" : \"x\" }  ").isOk());
}

TEST(FlatJson, DecodesEscapes) {
  Result<FlatJson> R =
      parseFlatJson(R"({"k":"a\"b\\c\nd\teA"})");
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_EQ(R->Strings.at("k"), "a\"b\\c\nd\teA");
}

TEST(FlatJson, DecodesUnicodeEscapesToUtf8) {
  // One code point per UTF-8 length class, then a surrogate pair joined
  // into U+1F600; upper- and lower-case hex digits both parse.
  Result<FlatJson> R = parseFlatJson(
      R"({"k":"\u0041\u00a7\u00E9\u20ac\ud83d\ude00"})");
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_EQ(R->Strings.at("k"), "A\xc2\xa7\xc3\xa9\xe2\x82\xac"
                                "\xf0\x9f\x98\x80");
}

TEST(FlatJson, RejectsLoneSurrogates) {
  for (const char *Bad : {
           R"({"k":"\ud83d"})",        // high surrogate at end of string
           R"({"k":"\ud83dx"})",       // high surrogate, no escape after
           R"({"k":"\ud83d\u0041"})", // high surrogate + non-surrogate
           R"({"k":"\ud83d\ud83d"})", // high surrogate + high surrogate
           R"({"k":"\ude00"})",        // low surrogate with no high one
           R"({"k":"\u00g1"})",        // not a hex digit
           R"({"k":"\u00a"})",         // truncated escape
       })
    EXPECT_FALSE(parseFlatJson(Bad).isOk()) << "accepted: " << Bad;
}

/// Escapes \p S the way Python's json.dumps does by default
/// (ensure_ascii): every non-ASCII code point becomes \uXXXX, astral ones
/// as a surrogate pair. Expects well-formed UTF-8.
std::string asciiJsonEscape(const std::string &S) {
  std::string Out;
  char Buf[16];
  auto Escape = [&](unsigned U) {
    std::snprintf(Buf, sizeof(Buf), "\\u%04x", U);
    Out += Buf;
  };
  for (size_t I = 0; I < S.size();) {
    unsigned char B = S[I];
    if (B < 0x80) {
      Out += jsonEscapeString(std::string(1, S[I++]));
      continue;
    }
    unsigned Len = B >= 0xF0 ? 4 : B >= 0xE0 ? 3 : 2;
    unsigned V = B & (0x7F >> Len);
    for (unsigned J = 1; J < Len; ++J)
      V = (V << 6) | (static_cast<unsigned char>(S[I + J]) & 0x3F);
    I += Len;
    if (V >= 0x10000) {
      Escape(0xD800 + ((V - 0x10000) >> 10));
      Escape(0xDC00 + ((V - 0x10000) & 0x3FF));
    } else {
      Escape(V);
    }
  }
  return Out;
}

TEST(FlatJson, AcceptsPythonJsonDumpsRequests) {
  // Verbatim json.dumps output: the section sign of the mod-BASE64 header
  // comment arrives escaped.
  Result<ServeRequest> Line = parseServeRequest(
      R"json({"op": "invert", "id": 1, "source": "// Modified BASE64 )json"
      R"json((XML tokens, \u00a72).\n"})json");
  ASSERT_TRUE(Line.isOk()) << Line.status().message();
  EXPECT_EQ(Line->Source, "// Modified BASE64 (XML tokens, \xc2\xa7"
                          "2).\n");

  // The whole program, escaped the same way, round-trips byte-for-byte.
  const CoderSpec *ModB64 = nullptr;
  for (const CoderSpec &C : coderCorpus())
    if (C.name() == "mod BASE64 encoder")
      ModB64 = &C;
  ASSERT_NE(ModB64, nullptr);
  std::string Escaped = asciiJsonEscape(ModB64->Source);
  ASSERT_EQ(Escaped.find("\xc2"), std::string::npos);
  ASSERT_NE(Escaped.find("\\u00a7"), std::string::npos);
  Result<ServeRequest> Full = parseServeRequest(
      R"({"op": "invert", "id": 2, "source": ")" + Escaped + "\"}");
  ASSERT_TRUE(Full.isOk()) << Full.status().message();
  EXPECT_EQ(Full->Source, ModB64->Source);
}

TEST(FlatJson, RejectsMalformedLines) {
  for (const char *Bad : {
           "",                        // no object
           "not json",                // no object
           "{\"a\":1",                // unterminated
           "{\"a\":}",                // missing value
           "{\"a\" 1}",               // missing colon
           "{\"a\":1,}",              // trailing comma
           "{\"a\":1} trailing",      // bytes after the object
           "{\"a\":[1,2]}",           // nested array
           "{\"a\":{\"b\":1}}",       // nested object
           "{\"a\":1,\"a\":2}",       // duplicate key
           "{\"a\":\"unterminated}",  // unterminated string
           "{a:1}",                   // unquoted key
       })
    EXPECT_FALSE(parseFlatJson(Bad).isOk()) << "accepted: " << Bad;
}

TEST(FlatJson, EscapeRoundTrips) {
  const std::string Nasty =
      "quote\" backslash\\ newline\n tab\t cr\r bell\x07 text";
  Result<FlatJson> R =
      parseFlatJson("{\"k\":\"" + jsonEscapeString(Nasty) + "\"}");
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_EQ(R->Strings.at("k"), Nasty);
}

//===----------------------------------------------------------------------===//
// Request validation
//===----------------------------------------------------------------------===//

TEST(ServeRequestParse, AcceptsFullInvertRequest) {
  Result<ServeRequest> R = parseServeRequest(
      R"({"op":"invert","id":7,"source":"invert F","timeoutSeconds":2.5,)"
      R"("faultPlan":"unknown@1","jobs":4,"forceInjectivity":true,)"
      R"("forceInvert":true})");
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_EQ(R->Op, "invert");
  EXPECT_EQ(R->Id, 7u);
  EXPECT_EQ(R->Source, "invert F");
  EXPECT_DOUBLE_EQ(R->TimeoutSeconds, 2.5);
  EXPECT_EQ(R->FaultPlan, "unknown@1");
  ASSERT_TRUE(R->Jobs.has_value());
  EXPECT_EQ(*R->Jobs, 4u);
  EXPECT_TRUE(R->ForceInjectivity);
  EXPECT_TRUE(R->ForceInvert);
}

TEST(ServeRequestParse, DefaultsAreMinimal) {
  Result<ServeRequest> R = parseServeRequest(R"({"op":"ping"})");
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_EQ(R->Op, "ping");
  EXPECT_EQ(R->Id, 0u);
  EXPECT_FALSE(R->Jobs.has_value());
  EXPECT_DOUBLE_EQ(R->TimeoutSeconds, 0);
}

TEST(ServeRequestParse, AcceptsIntrospectionOps) {
  for (const char *Op : {"ping", "metrics", "statusz", "shutdown"}) {
    Result<ServeRequest> R =
        parseServeRequest("{\"op\":\"" + std::string(Op) + "\",\"id\":7}");
    ASSERT_TRUE(R.isOk()) << Op << ": " << R.status().message();
    EXPECT_EQ(R->Op, Op);
    EXPECT_EQ(R->Id, 7u);
  }
}

TEST(ServeRequestParse, RejectsInvalidRequests) {
  for (const char *Bad : {
           R"({"op":"launch"})",                      // unknown op
           R"({"op":"invert"})",                      // invert without source
           R"({"op":"invert","source":""})",          // empty source
           R"({"op":"invert","source":"x","id":-1})", // negative id
           R"({"op":"invert","source":"x","timeoutSeconds":-2})",
           R"({"op":"invert","source":"x","jobs":0})",
           R"({"op":"invert","source":"x","jobs":99999})",
           "{}", // op defaults to invert, which needs a source
       })
    EXPECT_FALSE(parseServeRequest(Bad).isOk()) << "accepted: " << Bad;
  // A missing op defaults to invert (the ServeRequest default), so a bare
  // source is a complete request.
  EXPECT_TRUE(parseServeRequest(R"({"source":"x"})").isOk());
}

//===----------------------------------------------------------------------===//
// Response formatting
//===----------------------------------------------------------------------===//

TEST(ServeResponseFormat, RoundTripsThroughTheParser) {
  ServeResponse R;
  R.Id = 42;
  R.Code = "not-invertible";
  R.Exit = ExitNotInvertible;
  R.Warm = true;
  R.Report = "outcome report for \"Enc\"\n  line two\n";
  R.Error = "rule 3: \"guard\" overlaps";
  std::string Line = formatServeResponse(R);
  ASSERT_FALSE(Line.empty());
  EXPECT_EQ(Line.back(), '\n');
  EXPECT_EQ(Line.find('\n'), Line.size() - 1) << "response must be one line";

  Result<FlatJson> Back = parseFlatJson(Line.substr(0, Line.size() - 1));
  ASSERT_TRUE(Back.isOk()) << Back.status().message();
  EXPECT_DOUBLE_EQ(Back->Numbers.at("id"), 42);
  EXPECT_EQ(Back->Strings.at("code"), "not-invertible");
  EXPECT_DOUBLE_EQ(Back->Numbers.at("exit"), ExitNotInvertible);
  EXPECT_TRUE(Back->Bools.at("warm"));
  EXPECT_EQ(Back->Strings.at("report"), R.Report);
  EXPECT_EQ(Back->Strings.at("error"), R.Error);
}

TEST(ServeResponseFormat, TimingFieldsEmittedOnlyWhenPresent) {
  ServeResponse R;
  R.Id = 9;
  std::string Bare = formatServeResponse(R);
  EXPECT_EQ(Bare.find("queueUs"), std::string::npos);

  R.HasTimings = true;
  R.QueueUs = 120;
  R.DetUs = 4000;
  R.InjUs = 0;
  R.InvUs = 2500000;
  R.TotalUs = 2510000;
  std::string Line = formatServeResponse(R);
  Result<FlatJson> Back = parseFlatJson(Line.substr(0, Line.size() - 1));
  ASSERT_TRUE(Back.isOk()) << Back.status().message();
  EXPECT_DOUBLE_EQ(Back->Numbers.at("queueUs"), 120);
  EXPECT_DOUBLE_EQ(Back->Numbers.at("detUs"), 4000);
  EXPECT_DOUBLE_EQ(Back->Numbers.at("injUs"), 0);
  EXPECT_DOUBLE_EQ(Back->Numbers.at("invUs"), 2500000);
  EXPECT_DOUBLE_EQ(Back->Numbers.at("totalUs"), 2510000);
  // Clients that predate the timing fields parse the same line: the flat
  // protocol tolerates extra keys.
  Result<ServeRequest> AsRequest = parseServeRequest(R"({"op":"ping"})");
  EXPECT_TRUE(AsRequest.isOk());
}

//===----------------------------------------------------------------------===//
// Exit code <-> API code mapping
//===----------------------------------------------------------------------===//

TEST(ApiCodes, MapsEveryExitCodeBothWays) {
  const struct {
    int Exit;
    const char *Code;
  } Table[] = {
      {ExitOk, "ok"},
      {ExitError, "error"},
      {ExitUsage, "bad-request"},
      {ExitNotInvertible, "not-invertible"},
      {ExitBudgetExhausted, "budget-exhausted"},
      {ExitInternalError, "solver-error"},
  };
  for (const auto &Row : Table) {
    EXPECT_STREQ(apiCodeForExit(Row.Exit), Row.Code);
    EXPECT_EQ(exitForApiCode(Row.Code), Row.Exit);
  }
  // Unknowns degrade to the generic error in both directions.
  EXPECT_STREQ(apiCodeForExit(77), "error");
  EXPECT_EQ(exitForApiCode("overloaded"), ExitError);
  EXPECT_EQ(exitForApiCode("no-such-code"), ExitError);
}

} // namespace
