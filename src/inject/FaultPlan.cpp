//===- inject/FaultPlan.cpp - Parsed fault-injection plan -----------------===//

#include "inject/FaultPlan.h"

#include "support/SpecParse.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

using namespace allocsim;

const char *allocsim::faultKindName(FaultKind Kind) {
  switch (Kind) {
  case FaultKind::Flip:
    return "flip";
  case FaultKind::Smash:
    return "smash";
  }
  return "?";
}

namespace {

SourceLoc locAt(size_t Offset) {
  return SourceLoc{1, static_cast<uint32_t>(Offset + 1)};
}

/// Parses a full-width unsigned decimal made of ASCII digits only (no sign,
/// no whitespace, so a negative value cannot wrap); false on anything else,
/// overflow included.
bool parseUnsigned64(const std::string &Text, uint64_t &Value) {
  if (Text.empty())
    return false;
  uint64_t Parsed = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    const uint64_t Digit = uint64_t(C - '0');
    if (Parsed > (UINT64_MAX - Digit) / 10)
      return false;
    Parsed = Parsed * 10 + Digit;
  }
  Value = Parsed;
  return true;
}

/// Parses a probability: a strtod-accepted literal in [0, 1] (so both
/// "0.25" and the scientific "1e-6" of the documented grammar work) that
/// starts with a digit or '.', so a blank or sign cannot lead it.
bool parseRate(const std::string &Text, double &Value) {
  if (Text.empty() || !(std::isdigit(static_cast<unsigned char>(Text[0])) ||
                        Text[0] == '.'))
    return false;
  errno = 0;
  char *End = nullptr;
  double Parsed = std::strtod(Text.c_str(), &End);
  if (errno != 0 || End != Text.c_str() + Text.size())
    return false;
  if (!(Parsed >= 0.0 && Parsed <= 1.0))
    return false;
  Value = Parsed;
  return true;
}

} // namespace

FaultPlan allocsim::parseFaultPlan(const std::string &Text,
                                   DiagEngine &Diags) {
  FaultPlan Plan;
  Plan.Spec = Text;
  if (Text.empty())
    return Plan;

  size_t ErrorsBefore = Diags.errorCount();
  for (const SpecKeyValue &Axis : parseSpecKeyValues(Text, Diags)) {
    SourceLoc Loc = locAt(Axis.Offset);
    auto badValue = [&](const std::string &Expected) {
      Diags.error("inject-bad-value", Loc,
                  "fault parameter '" + Axis.Key + "' expects " + Expected +
                      ", got '" + Axis.Value + "'");
    };
    if (Axis.Key == "oom:after") {
      uint64_t Bytes = 0;
      if (!parseUnsigned64(Axis.Value, Bytes))
        badValue("a byte count");
      else
        Plan.OomAfterBytes = Bytes;
    } else if (Axis.Key == "flip:rate") {
      if (!parseRate(Axis.Value, Plan.FlipRate))
        badValue("a probability in [0, 1]");
    } else if (Axis.Key == "smash:rate") {
      if (!parseRate(Axis.Value, Plan.SmashRate))
        badValue("a probability in [0, 1]");
    } else if (Axis.Key == "cell:rate") {
      if (!parseRate(Axis.Value, Plan.CellRate))
        badValue("a probability in [0, 1]");
    } else if (Axis.Key == "retry:limit") {
      uint64_t Limit = 0;
      if (!parseUnsigned64(Axis.Value, Limit) || Limit > 64)
        badValue("a retry count (at most 64)");
      else
        Plan.RetryLimit = static_cast<uint32_t>(Limit);
    } else if (Axis.Key == "seed") {
      uint64_t Seed = 0;
      if (!parseUnsigned64(Axis.Value, Seed)) {
        badValue("an unsigned seed");
      } else {
        Plan.Seed = Seed;
        Plan.SeedSet = true;
      }
    } else {
      Diags.error("inject-unknown-fault", Loc,
                  "unknown fault class or parameter '" + Axis.Key +
                      "' (known: oom:after, flip:rate, smash:rate, "
                      "cell:rate, retry:limit, seed)");
    }
  }

  Plan.Active = Diags.errorCount() == ErrorsBefore;
  return Plan;
}
