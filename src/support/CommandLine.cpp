//===- support/CommandLine.cpp - Tiny flag parser -------------------------===//

#include "support/CommandLine.h"

#include "support/Error.h"

#include <cassert>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace allocsim;

namespace {

/// Parses a boolean flag value; returns false when \p Text is not one.
bool parseBoolText(const std::string &Text, bool &Value) {
  if (Text == "true" || Text == "1" || Text == "yes")
    Value = true;
  else if (Text == "false" || Text == "0" || Text == "no")
    Value = false;
  else
    return false;
  return true;
}

} // namespace

void CommandLine::addFlag(const std::string &Name, const std::string &Default,
                          const std::string &Help) {
  assert(!Flags.count(Name) && "flag registered twice");
  Flags[Name] = Flag{Default, Default, Help};
}

bool CommandLine::parse(int Argc, const char *const *Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      printHelp(Argv[0]);
      return false;
    }
    if (Arg.rfind("--", 0) != 0) {
      Positional.push_back(Arg);
      continue;
    }
    auto Eq = Arg.find('=');
    bool HasValue = Eq != std::string::npos;
    std::string Name = HasValue ? Arg.substr(2, Eq - 2) : Arg.substr(2);
    std::string Value = HasValue ? Arg.substr(Eq + 1) : "";
    auto It = Flags.find(Name);
    if (It == Flags.end()) {
      std::fprintf(stderr, "error: unknown flag --%s\n", Name.c_str());
      printHelp(Argv[0]);
      return false;
    }
    bool Boolean =
        It->second.Default == "true" || It->second.Default == "false";
    bool Ignored = false;
    if (!HasValue && Boolean) {
      // A bare switch means true; it takes the next argument only when that
      // is a boolean literal (--csv false, --csv 1).
      Value = I + 1 < Argc && parseBoolText(Argv[I + 1], Ignored)
                  ? Argv[++I]
                  : "true";
    } else if (!HasValue) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: flag --%s needs a value\n",
                     Name.c_str());
        return false;
      }
      Value = Argv[++I];
    }
    if (Boolean && !parseBoolText(Value, Ignored)) {
      std::fprintf(stderr, "error: flag --%s expects a boolean, got '%s'\n",
                   Name.c_str(), Value.c_str());
      printHelp(Argv[0]);
      return false;
    }
    It->second.Value = Value;
  }
  return true;
}

const std::string &CommandLine::getString(const std::string &Name) const {
  auto It = Flags.find(Name);
  if (It == Flags.end())
    reportFatalError("unregistered flag queried: " + Name);
  return It->second.Value;
}

int64_t CommandLine::getInt(const std::string &Name) const {
  const std::string &Value = getString(Name);
  char *End = nullptr;
  int64_t Result = std::strtoll(Value.c_str(), &End, 0);
  if (End == Value.c_str() || *End != '\0')
    reportFatalError("flag --" + Name + " expects an integer, got '" + Value +
                     "'");
  return Result;
}

bool CommandLine::getIntInRange(const std::string &Name, int64_t Min,
                                int64_t Max, int64_t &Value,
                                std::string &Error) const {
  // strtoll saturates on overflow, so huge inputs land out of range too.
  Value = getInt(Name);
  if (Value >= Min && Value <= Max)
    return true;
  Error = "--" + Name + " must be in [" + std::to_string(Min) + ", " +
          std::to_string(Max) + "], got '" + getString(Name) + "'";
  return false;
}

bool CommandLine::getUint64(const std::string &Name, uint64_t &Value,
                            std::string &Error) const {
  const std::string &Text = getString(Name);
  // strtoull skips whitespace, accepts a sign and negates "-1" to 2^64-1;
  // only a leading digit is a valid start.
  char *End = nullptr;
  errno = 0;
  unsigned long long Parsed =
      std::isdigit(static_cast<unsigned char>(Text.c_str()[0]))
          ? std::strtoull(Text.c_str(), &End, 0)
          : 0;
  if (End == nullptr || *End != '\0' || errno == ERANGE) {
    Error = "--" + Name + " expects an unsigned 64-bit integer, got '" +
            Text + "'";
    return false;
  }
  Value = Parsed;
  return true;
}

double CommandLine::getDouble(const std::string &Name) const {
  const std::string &Value = getString(Name);
  char *End = nullptr;
  double Result = std::strtod(Value.c_str(), &End);
  if (End == Value.c_str() || *End != '\0')
    reportFatalError("flag --" + Name + " expects a number, got '" + Value +
                     "'");
  return Result;
}

bool CommandLine::getBool(const std::string &Name) const {
  const std::string &Value = getString(Name);
  bool Result = false;
  if (parseBoolText(Value, Result))
    return Result;
  reportFatalError("flag --" + Name + " expects a boolean, got '" + Value +
                   "'");
}

void CommandLine::printHelp(const char *Program) const {
  std::fprintf(stderr, "usage: %s [flags]\n", Program);
  for (const auto &[Name, F] : Flags)
    std::fprintf(stderr, "  --%-20s %s (default: %s)\n", Name.c_str(),
                 F.Help.c_str(), F.Default.c_str());
}
