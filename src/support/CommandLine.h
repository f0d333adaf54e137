//===- support/CommandLine.h - Tiny flag parser -----------------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal --flag=value / --flag value parser for the benchmark and example
/// binaries. Unknown flags are fatal (they usually indicate a typo in an
/// experiment script). A flag registered with a "true" or "false" default is
/// a boolean switch: bare --flag means true, --flag=v and --flag v set it
/// when v is a boolean literal (true/false, 1/0, yes/no), and any other
/// --flag=v is a parse error.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_SUPPORT_COMMANDLINE_H
#define ALLOCSIM_SUPPORT_COMMANDLINE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace allocsim {

/// Parses argv into string-valued flags plus positional arguments.
class CommandLine {
public:
  /// Registers a flag with a default value and help text. Must be called for
  /// every flag before parse(); parse() rejects unregistered flags.
  void addFlag(const std::string &Name, const std::string &Default,
               const std::string &Help);

  /// Parses argv. Returns false (after printing usage) if --help was given
  /// or parsing failed.
  bool parse(int Argc, const char *const *Argv);

  /// Flag accessors; the flag must have been registered.
  const std::string &getString(const std::string &Name) const;
  int64_t getInt(const std::string &Name) const;
  double getDouble(const std::string &Name) const;
  bool getBool(const std::string &Name) const;
  /// Like getInt, but returns false with a diagnostic in \p Error when the
  /// value lies outside [Min, Max] (the range of the field it feeds).
  bool getIntInRange(const std::string &Name, int64_t Min, int64_t Max,
                     int64_t &Value, std::string &Error) const;
  /// Parses the flag as an unsigned 64-bit value (decimal, 0x hex or 0
  /// octal). Returns false with a diagnostic in \p Error on a sign, trailing
  /// junk or a value above 2^64-1, instead of saturating or wrapping.
  bool getUint64(const std::string &Name, uint64_t &Value,
                 std::string &Error) const;

  const std::vector<std::string> &positional() const { return Positional; }

  /// Prints usage to stderr.
  void printHelp(const char *Program) const;

private:
  struct Flag {
    std::string Value;
    std::string Default;
    std::string Help;
  };
  std::map<std::string, Flag> Flags;
  std::vector<std::string> Positional;
};

} // namespace allocsim

#endif // ALLOCSIM_SUPPORT_COMMANDLINE_H
