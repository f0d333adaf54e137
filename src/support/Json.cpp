//===- support/Json.cpp - Minimal JSON reader -----------------------------===//

#include "support/Json.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

using namespace allocsim;

const JsonValue *JsonValue::get(const std::string &Key) const {
  if (ValueKind != Kind::Object)
    return nullptr;
  auto It = Object.find(Key);
  return It == Object.end() ? nullptr : &It->second;
}

namespace {

/// True if \p Token is a number by RFC 8259's grammar:
///   [ "-" ] ( "0" / [1-9] *DIGIT ) [ "." 1*DIGIT ]
///   [ ( "e" / "E" ) [ "-" / "+" ] 1*DIGIT ]
/// so no leading "+", no leading zero, and a digit on each side of ".".
bool isJsonNumber(const std::string &Token) {
  size_t I = 0;
  auto digits = [&] {
    const size_t Start = I;
    while (I < Token.size() &&
           std::isdigit(static_cast<unsigned char>(Token[I])))
      ++I;
    return I != Start;
  };
  auto skip = [&](const char *Chars) {
    if (I < Token.size() && std::strchr(Chars, Token[I]))
      ++I;
  };
  skip("-");
  if (I < Token.size() && Token[I] == '0')
    ++I;
  else if (!digits())
    return false;
  if (I < Token.size() && Token[I] == '.') {
    ++I;
    if (!digits())
      return false;
  }
  if (I < Token.size() && (Token[I] == 'e' || Token[I] == 'E')) {
    ++I;
    skip("+-");
    if (!digits())
      return false;
  }
  return I == Token.size();
}

} // namespace

namespace allocsim {

/// Recursive-descent parser over the whole input string.
class JsonParser {
public:
  JsonParser(const std::string &ParseText, std::string &ErrorOut)
      : Text(ParseText), Error(ErrorOut) {}

  bool run(JsonValue &Out) {
    if (!parseValue(Out))
      return false;
    skipSpace();
    if (Pos != Text.size())
      return fail("trailing input after JSON value");
    return true;
  }

private:
  bool fail(const std::string &Message) {
    Error = "offset " + std::to_string(Pos) + ": " + Message;
    return false;
  }

  void skipSpace() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool consume(char C, const char *What) {
    skipSpace();
    if (Pos >= Text.size() || Text[Pos] != C)
      return fail(std::string("expected ") + What);
    ++Pos;
    return true;
  }

  bool parseLiteral(const char *Literal, JsonValue &Out, JsonValue::Kind Kind,
                    bool BoolValue) {
    size_t Len = std::char_traits<char>::length(Literal);
    if (Text.compare(Pos, Len, Literal) != 0)
      return fail("bad literal");
    Pos += Len;
    Out.ValueKind = Kind;
    Out.Bool = BoolValue;
    return true;
  }

  bool parseString(std::string &Out) {
    if (!consume('"', "'\"'"))
      return false;
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
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
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I != 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad hex digit in \\u escape");
        }
        // Our emitters only \u-escape control bytes; encode the code point
        // as UTF-8 for completeness.
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    std::string Token = Text.substr(Start, Pos - Start);
    if (!isJsonNumber(Token))
      return fail(Token.empty() ? "unexpected character"
                                : "bad number '" + Token + "'");
    errno = 0;
    char *End = nullptr;
    double Value = std::strtod(Token.c_str(), &End);
    if (End != Token.c_str() + Token.size() || errno == ERANGE)
      return fail("bad number '" + Token + "'");
    Out.ValueKind = JsonValue::Kind::Number;
    Out.Number = Value;
    // Exact-integer sidecar: counters must round-trip without a double trip.
    if (Token.find_first_of(".eE") == std::string::npos) {
      errno = 0;
      if (Token[0] == '-') {
        long long I = std::strtoll(Token.c_str(), &End, 10);
        if (End == Token.c_str() + Token.size() && errno != ERANGE) {
          Out.IsInteger = true;
          Out.Int = I;
          Out.Uint = 0;
        }
      } else {
        unsigned long long U = std::strtoull(Token.c_str(), &End, 10);
        if (End == Token.c_str() + Token.size() && errno != ERANGE) {
          Out.IsInteger = true;
          Out.Uint = U;
          Out.Int = U <= static_cast<uint64_t>(INT64_MAX)
                        ? static_cast<int64_t>(U)
                        : 0;
        }
      }
    }
    return true;
  }

  bool parseValue(JsonValue &Out) {
    skipSpace();
    if (++Depth > MaxDepth)
      return fail("nesting too deep");
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    bool Ok = [&] {
      switch (Text[Pos]) {
      case '{': {
        ++Pos;
        Out.ValueKind = JsonValue::Kind::Object;
        skipSpace();
        if (Pos < Text.size() && Text[Pos] == '}') {
          ++Pos;
          return true;
        }
        for (;;) {
          std::string Key;
          skipSpace();
          if (!parseString(Key))
            return false;
          if (!consume(':', "':'"))
            return false;
          JsonValue Member;
          if (!parseValue(Member))
            return false;
          Out.Object[Key] = std::move(Member);
          skipSpace();
          if (Pos < Text.size() && Text[Pos] == ',') {
            ++Pos;
            continue;
          }
          return consume('}', "',' or '}'");
        }
      }
      case '[': {
        ++Pos;
        Out.ValueKind = JsonValue::Kind::Array;
        skipSpace();
        if (Pos < Text.size() && Text[Pos] == ']') {
          ++Pos;
          return true;
        }
        for (;;) {
          JsonValue Element;
          if (!parseValue(Element))
            return false;
          Out.Array.push_back(std::move(Element));
          skipSpace();
          if (Pos < Text.size() && Text[Pos] == ',') {
            ++Pos;
            continue;
          }
          return consume(']', "',' or ']'");
        }
      }
      case '"':
        Out.ValueKind = JsonValue::Kind::String;
        return parseString(Out.Str);
      case 't':
        return parseLiteral("true", Out, JsonValue::Kind::Bool, true);
      case 'f':
        return parseLiteral("false", Out, JsonValue::Kind::Bool, false);
      case 'n':
        return parseLiteral("null", Out, JsonValue::Kind::Null, false);
      default:
        return parseNumber(Out);
      }
    }();
    --Depth;
    return Ok;
  }

  static constexpr unsigned MaxDepth = 64;

  const std::string &Text;
  std::string &Error;
  size_t Pos = 0;
  unsigned Depth = 0;
};

} // namespace allocsim

bool JsonValue::parse(const std::string &Text, JsonValue &Out,
                      std::string &Error) {
  Out = JsonValue();
  JsonParser Parser(Text, Error);
  return Parser.run(Out);
}
