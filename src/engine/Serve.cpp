//===- engine/Serve.cpp ---------------------------------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "engine/Serve.h"

#include "genic/Genic.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

using namespace genic;

namespace {

/// Cursor over one request/response line.
struct Cursor {
  const std::string &S;
  size_t At = 0;

  bool done() const { return At >= S.size(); }
  char peek() const { return S[At]; }
  void skipSpace() {
    while (At < S.size() && std::isspace(static_cast<unsigned char>(S[At])))
      ++At;
  }
  bool eat(char C) {
    skipSpace();
    if (done() || S[At] != C)
      return false;
    ++At;
    return true;
  }
};

/// Reads the four hex digits of a \uXXXX escape at the cursor into \p V.
bool parseHex4(Cursor &C, unsigned &V) {
  if (C.At + 4 > C.S.size())
    return false;
  V = 0;
  for (int I = 0; I < 4; ++I) {
    char H = C.S[C.At++];
    V <<= 4;
    if (H >= '0' && H <= '9')
      V |= H - '0';
    else if (H >= 'a' && H <= 'f')
      V |= H - 'a' + 10;
    else if (H >= 'A' && H <= 'F')
      V |= H - 'A' + 10;
    else
      return false;
  }
  return true;
}

/// Appends code point \p V (at most 0x10FFFF, not a surrogate) as UTF-8.
void appendUtf8(unsigned V, std::string &Out) {
  if (V < 0x80) {
    Out += static_cast<char>(V);
  } else if (V < 0x800) {
    Out += static_cast<char>(0xC0 | (V >> 6));
    Out += static_cast<char>(0x80 | (V & 0x3F));
  } else if (V < 0x10000) {
    Out += static_cast<char>(0xE0 | (V >> 12));
    Out += static_cast<char>(0x80 | ((V >> 6) & 0x3F));
    Out += static_cast<char>(0x80 | (V & 0x3F));
  } else {
    Out += static_cast<char>(0xF0 | (V >> 18));
    Out += static_cast<char>(0x80 | ((V >> 12) & 0x3F));
    Out += static_cast<char>(0x80 | ((V >> 6) & 0x3F));
    Out += static_cast<char>(0x80 | (V & 0x3F));
  }
}

/// Parses a JSON string at the cursor (opening quote already consumed is
/// NOT assumed — the cursor must sit on '"'). Handles every RFC 8259
/// escape: \uXXXX decodes to UTF-8, surrogate pairs join into one code
/// point, and a lone surrogate is rejected rather than guessed at.
bool parseJsonString(Cursor &C, std::string &Out) {
  C.skipSpace();
  if (C.done() || C.peek() != '"')
    return false;
  ++C.At;
  Out.clear();
  while (!C.done()) {
    char Ch = C.S[C.At++];
    if (Ch == '"')
      return true;
    if (Ch != '\\') {
      Out += Ch;
      continue;
    }
    if (C.done())
      return false;
    char E = C.S[C.At++];
    switch (E) {
    case '"':
      Out += '"';
      break;
    case '\\':
      Out += '\\';
      break;
    case '/':
      Out += '/';
      break;
    case 'n':
      Out += '\n';
      break;
    case 't':
      Out += '\t';
      break;
    case 'r':
      Out += '\r';
      break;
    case 'b':
      Out += '\b';
      break;
    case 'f':
      Out += '\f';
      break;
    case 'u': {
      unsigned V = 0;
      if (!parseHex4(C, V))
        return false;
      if (V >= 0xDC00 && V <= 0xDFFF)
        return false; // A low surrogate with no high surrogate before it.
      if (V >= 0xD800 && V <= 0xDBFF) {
        // A high surrogate must be followed by an escaped low surrogate;
        // the pair names one supplementary-plane code point.
        unsigned Lo = 0;
        if (C.S.compare(C.At, 2, "\\u") != 0)
          return false;
        C.At += 2;
        if (!parseHex4(C, Lo) || Lo < 0xDC00 || Lo > 0xDFFF)
          return false;
        V = 0x10000 + ((V - 0xD800) << 10) + (Lo - 0xDC00);
      }
      appendUtf8(V, Out);
      break;
    }
    default:
      return false;
    }
  }
  return false;
}

bool parseJsonNumber(Cursor &C, double &Out) {
  C.skipSpace();
  size_t Start = C.At;
  while (!C.done() &&
         (std::isdigit(static_cast<unsigned char>(C.peek())) ||
          C.peek() == '-' || C.peek() == '+' || C.peek() == '.' ||
          C.peek() == 'e' || C.peek() == 'E'))
    ++C.At;
  if (C.At == Start)
    return false;
  std::string Text = C.S.substr(Start, C.At - Start);
  char *End = nullptr;
  Out = std::strtod(Text.c_str(), &End);
  return End && *End == '\0';
}

bool matchWord(Cursor &C, const char *Word) {
  size_t Len = std::string(Word).size();
  if (C.S.compare(C.At, Len, Word) != 0)
    return false;
  C.At += Len;
  return true;
}

} // namespace

Result<FlatJson> genic::parseFlatJson(const std::string &Line) {
  Cursor C{Line};
  FlatJson Out;
  if (!C.eat('{'))
    return Status::error("expected '{' opening the request object");
  C.skipSpace();
  if (C.eat('}')) {
    C.skipSpace();
    if (!C.done())
      return Status::error("trailing bytes after the request object");
    return Out;
  }
  for (;;) {
    std::string Key;
    if (!parseJsonString(C, Key))
      return Status::error("expected a quoted key");
    if (!C.eat(':'))
      return Status::error("expected ':' after key \"" + Key + "\"");
    C.skipSpace();
    if (C.done())
      return Status::error("truncated value for key \"" + Key + "\"");
    if (Out.has(Key))
      return Status::error("duplicate key \"" + Key + "\"");
    char First = C.peek();
    if (First == '"') {
      std::string V;
      if (!parseJsonString(C, V))
        return Status::error("malformed string value for key \"" + Key +
                             "\"");
      Out.Strings[Key] = std::move(V);
    } else if (First == 't' && matchWord(C, "true")) {
      Out.Bools[Key] = true;
    } else if (First == 'f' && matchWord(C, "false")) {
      Out.Bools[Key] = false;
    } else if (First == 'n' && matchWord(C, "null")) {
      // Dropped: an absent and a null key read the same.
    } else if (First == '{' || First == '[') {
      return Status::error("nested value for key \"" + Key +
                           "\" (the protocol is flat)");
    } else {
      double V = 0;
      if (!parseJsonNumber(C, V))
        return Status::error("malformed value for key \"" + Key + "\"");
      Out.Numbers[Key] = V;
    }
    if (C.eat(','))
      continue;
    if (C.eat('}'))
      break;
    return Status::error("expected ',' or '}' after key \"" + Key + "\"");
  }
  C.skipSpace();
  if (!C.done())
    return Status::error("trailing bytes after the request object");
  return Out;
}

std::string genic::jsonEscapeString(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

Result<ServeRequest> genic::parseServeRequest(const std::string &Line) {
  Result<FlatJson> Parsed = parseFlatJson(Line);
  if (!Parsed)
    return Parsed.status();
  const FlatJson &J = *Parsed;

  ServeRequest R;
  if (auto It = J.Strings.find("op"); It != J.Strings.end())
    R.Op = It->second;
  if (R.Op != "invert" && R.Op != "ping" && R.Op != "metrics" &&
      R.Op != "statusz" && R.Op != "shutdown")
    return Status::error("unknown op \"" + R.Op + "\"");
  if (auto It = J.Numbers.find("id"); It != J.Numbers.end()) {
    if (It->second < 0)
      return Status::error("negative id");
    R.Id = static_cast<uint64_t>(It->second);
  }
  if (auto It = J.Strings.find("source"); It != J.Strings.end())
    R.Source = It->second;
  if (R.Op == "invert" && R.Source.empty())
    return Status::error("op \"invert\" requires a non-empty \"source\"");
  if (auto It = J.Numbers.find("timeoutSeconds"); It != J.Numbers.end()) {
    if (It->second < 0)
      return Status::error("negative timeoutSeconds");
    R.TimeoutSeconds = It->second;
  }
  if (auto It = J.Strings.find("faultPlan"); It != J.Strings.end())
    R.FaultPlan = It->second;
  if (auto It = J.Numbers.find("jobs"); It != J.Numbers.end()) {
    if (It->second < 1 || It->second > 1024)
      return Status::error("jobs out of range");
    R.Jobs = static_cast<unsigned>(It->second);
  }
  if (auto It = J.Bools.find("forceInjectivity"); It != J.Bools.end())
    R.ForceInjectivity = It->second;
  if (auto It = J.Bools.find("forceInvert"); It != J.Bools.end())
    R.ForceInvert = It->second;
  return R;
}

std::string genic::formatServeResponse(const ServeResponse &R) {
  std::string Out = "{\"id\":" + std::to_string(R.Id);
  Out += ",\"code\":\"" + jsonEscapeString(R.Code) + "\"";
  Out += ",\"exit\":" + std::to_string(R.Exit);
  Out += std::string(",\"warm\":") + (R.Warm ? "true" : "false");
  Out += ",\"report\":\"" + jsonEscapeString(R.Report) + "\"";
  Out += ",\"error\":\"" + jsonEscapeString(R.Error) + "\"";
  Out += ",\"payload\":\"" + jsonEscapeString(R.Payload) + "\"";
  if (R.HasTimings) {
    Out += ",\"queueUs\":" + std::to_string(R.QueueUs);
    Out += ",\"detUs\":" + std::to_string(R.DetUs);
    Out += ",\"injUs\":" + std::to_string(R.InjUs);
    Out += ",\"invUs\":" + std::to_string(R.InvUs);
    Out += ",\"totalUs\":" + std::to_string(R.TotalUs);
  }
  Out += "}\n";
  return Out;
}

const char *genic::apiCodeForExit(int ExitCode) {
  switch (ExitCode) {
  case ExitOk:
    return "ok";
  case ExitError:
    return "error";
  case ExitUsage:
    return "bad-request";
  case ExitNotInvertible:
    return "not-invertible";
  case ExitBudgetExhausted:
    return "budget-exhausted";
  case ExitInternalError:
    return "solver-error";
  }
  return "error";
}

int genic::exitForApiCode(const std::string &Code) {
  if (Code == "ok")
    return ExitOk;
  if (Code == "bad-request")
    return ExitUsage;
  if (Code == "not-invertible")
    return ExitNotInvertible;
  if (Code == "budget-exhausted")
    return ExitBudgetExhausted;
  if (Code == "solver-error")
    return ExitInternalError;
  return ExitError;
}
