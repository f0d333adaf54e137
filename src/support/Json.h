//===- support/Json.h - Minimal JSON reader ---------------------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small recursive-descent JSON reader for the documents this repository
/// itself emits and commits (conformance expectation files, exported matrix
/// snapshots). The writers in this codebase build JSON by hand with stable
/// formatting; this is the matching read side, so committed artifacts can be
/// loaded back and compared without an external dependency.
///
/// Scope: the JSON subset our emitters produce — objects, arrays, strings
/// with the escapes jsonEscaped() writes, integers, doubles, booleans and
/// null. Numbers must follow RFC 8259's grammar (no leading "+" or zero, a
/// digit on each side of "."); they are parsed with strtod and additionally
/// kept as int64/uint64 when the text is an exact integer, because most
/// committed values are integer counters that must round-trip exactly.
///
/// Errors are reported by position ("offset N: message") through the bool
/// return + error string convention used by the spec parsers, not by
/// exception.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_SUPPORT_JSON_H
#define ALLOCSIM_SUPPORT_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace allocsim {

/// One parsed JSON value. Objects preserve no duplicate keys (last write
/// wins, matching every mainstream reader); object iteration is sorted by
/// key, which is also the order our emitters write.
class JsonValue {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  Kind kind() const { return ValueKind; }
  bool isNull() const { return ValueKind == Kind::Null; }
  bool isBool() const { return ValueKind == Kind::Bool; }
  bool isNumber() const { return ValueKind == Kind::Number; }
  bool isString() const { return ValueKind == Kind::String; }
  bool isArray() const { return ValueKind == Kind::Array; }
  bool isObject() const { return ValueKind == Kind::Object; }

  bool boolValue() const { return Bool; }
  /// The number as a double (always valid for numbers).
  double numberValue() const { return Number; }
  /// True when the source text was an exact (in-range) integer.
  bool isInteger() const { return IsInteger; }
  int64_t intValue() const { return Int; }
  uint64_t uintValue() const { return Uint; }
  const std::string &stringValue() const { return Str; }

  const std::vector<JsonValue> &array() const { return Array; }
  const std::map<std::string, JsonValue> &object() const { return Object; }

  /// Object member lookup; null when absent or this is not an object.
  const JsonValue *get(const std::string &Key) const;

  /// Parses \p Text entirely (trailing non-space input is an error).
  /// Returns false with a positioned message in \p Error on failure.
  static bool parse(const std::string &Text, JsonValue &Out,
                    std::string &Error);

private:
  friend class JsonParser;

  Kind ValueKind = Kind::Null;
  bool Bool = false;
  double Number = 0;
  bool IsInteger = false;
  int64_t Int = 0;
  uint64_t Uint = 0;
  std::string Str;
  std::vector<JsonValue> Array;
  std::map<std::string, JsonValue> Object;
};

} // namespace allocsim

#endif // ALLOCSIM_SUPPORT_JSON_H
