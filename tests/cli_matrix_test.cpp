//===- tests/cli_matrix_test.cpp - Spec parsing & CLI contract tests ------===//
//
// Covers the strict --caches/--paging/--matrix parsing (the old splitList
// silently swallowed empty items, trailing commas, and other malformed
// specs) at three levels: the parse functions directly, a fixed-budget
// mutation fuzz of parseMatrixSpec, and the installed allocsim_cli binary
// as a subprocess — bad specs must exit nonzero with a diagnostic, each
// single-axis flag must say what its --matrix axis says, good specs must
// run and emit valid JSON.
//
//===----------------------------------------------------------------------===//

#include "core/MatrixRunner.h"
#include "support/Rng.h"
#include "support/SpecParse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

using namespace allocsim;

#ifndef ALLOCSIM_CLI_PATH
#error "ALLOCSIM_CLI_PATH must point at the allocsim_cli binary"
#endif

namespace {

/// Runs the CLI with \p Args, discarding output; returns the exit status.
int runCli(const std::string &Args) {
  std::string Command =
      std::string(ALLOCSIM_CLI_PATH) + " " + Args + " >/dev/null 2>&1";
  int Status = std::system(Command.c_str());
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

/// Runs the CLI and captures combined stdout+stderr.
int runCliCapture(const std::string &Args, std::string &Output) {
  std::string Command =
      std::string(ALLOCSIM_CLI_PATH) + " " + Args + " 2>&1";
  FILE *Pipe = popen(Command.c_str(), "r");
  if (!Pipe)
    return -1;
  char Buffer[512];
  Output.clear();
  while (std::fgets(Buffer, sizeof(Buffer), Pipe))
    Output += Buffer;
  int Status = pclose(Pipe);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

/// Parses a two-cell matrix spec with \p Axis (e.g. "caches=16,64") added;
/// \p Error is the first error ("" when none).
bool parseWithAxis(const std::string &Axis, MatrixSpec &Spec,
                   std::string &Error) {
  DiagEngine Diags;
  bool Parsed = parseMatrixSpec("workloads=gs;allocators=BSD" +
                                    (Axis.empty() ? "" : ";" + Axis),
                                Spec, Diags);
  Error = Diags.firstError();
  return Parsed;
}

} // namespace

//===----------------------------------------------------------------------===//
// Parse-layer coverage
//===----------------------------------------------------------------------===//

TEST(SpecParseTest, SplitKeepsEmptyItems) {
  EXPECT_EQ(splitSpecList("", ',').size(), 0u);
  EXPECT_EQ(splitSpecList("16", ',').size(), 1u);
  EXPECT_EQ(splitSpecList("16,64", ',').size(), 2u);
  // The point of the fix: malformed lists stay visible.
  EXPECT_EQ(splitSpecList("16,,64", ',').size(), 3u);
  EXPECT_EQ(splitSpecList("16,", ',').size(), 2u);
  EXPECT_EQ(splitSpecList(",16", ',').size(), 2u);
}

TEST(SpecParseTest, UnsignedDiagnostics) {
  uint32_t Value = 0;
  std::string Error;
  EXPECT_TRUE(parseSpecUnsigned("512", "memory size (KB)", Value, Error));
  EXPECT_EQ(Value, 512u);

  EXPECT_FALSE(parseSpecUnsigned("", "memory size (KB)", Value, Error));
  EXPECT_NE(Error.find("missing"), std::string::npos);

  EXPECT_FALSE(parseSpecUnsigned("12abc", "memory size (KB)", Value, Error));
  EXPECT_NE(Error.find("12abc"), std::string::npos);

  EXPECT_FALSE(parseSpecUnsigned("0", "memory size (KB)", Value, Error));
  EXPECT_NE(Error.find("positive"), std::string::npos);

  EXPECT_FALSE(
      parseSpecUnsigned("99999999999", "memory size (KB)", Value, Error));
  EXPECT_NE(Error.find("out of range"), std::string::npos);
  EXPECT_FALSE(
      parseSpecUnsigned("4294967296", "memory size (KB)", Value, Error));
  EXPECT_NE(Error.find("out of range"), std::string::npos);
  EXPECT_TRUE(parseSpecUnsigned("4294967295", "memory size (KB)", Value,
                                Error));
  EXPECT_EQ(Value, 4294967295u);

  // Digits only: strtoul took a sign or leading blanks, and a negative
  // value wrapped (this one to 16).
  for (const char *Text : {"-18446744073709551600", "-1", "+25", " 512",
                           "512 ", "\t7", "0x10", "1e3"}) {
    EXPECT_FALSE(parseSpecUnsigned(Text, "memory size (KB)", Value, Error))
        << Text;
    EXPECT_NE(Error.find("not a number"), std::string::npos) << Error;
  }
}

TEST(SpecParseTest, UnsignedListDiagnostics) {
  // Number lists are the paging and penalty axes of a matrix spec.
  MatrixSpec Spec;
  std::string Error;
  EXPECT_TRUE(parseWithAxis("", Spec, Error));
  EXPECT_TRUE(Spec.PagingMemoryKb.empty());
  EXPECT_TRUE(parseWithAxis("paging=512,1024,2048", Spec, Error));
  EXPECT_EQ(Spec.PagingMemoryKb.size(), 3u);

  EXPECT_FALSE(parseWithAxis("paging=512,,1024", Spec, Error));
  EXPECT_NE(Error.find("empty item"), std::string::npos);
  EXPECT_FALSE(parseWithAxis("paging=512,", Spec, Error));
  EXPECT_NE(Error.find("empty item"), std::string::npos);
  EXPECT_FALSE(parseWithAxis("paging=512,slow", Spec, Error));
  EXPECT_NE(Error.find("slow"), std::string::npos);
  EXPECT_FALSE(parseWithAxis("penalty=+25", Spec, Error));
  EXPECT_NE(Error.find("not a number"), std::string::npos);
}

TEST(SpecParseTest, CacheSpecDiagnostics) {
  CacheConfig Config;
  std::string Error;
  EXPECT_TRUE(parseCacheSpec("16", Config, Error));
  EXPECT_EQ(Config.SizeBytes, 16u * 1024);
  EXPECT_EQ(Config.BlockBytes, 32u);
  EXPECT_EQ(Config.Assoc, 1u);
  EXPECT_TRUE(parseCacheSpec("64:16:4", Config, Error));
  EXPECT_EQ(Config.BlockBytes, 16u);
  EXPECT_EQ(Config.Assoc, 4u);

  EXPECT_FALSE(parseCacheSpec("16:32:4:9", Config, Error));
  EXPECT_NE(Error.find("expected sizeKB"), std::string::npos);
  EXPECT_FALSE(parseCacheSpec("16KB", Config, Error));
  EXPECT_NE(Error.find("not a number"), std::string::npos);
  // Power-of-two geometry violations are caught at parse time.
  EXPECT_FALSE(parseCacheSpec("17", Config, Error));
  EXPECT_NE(Error.find("invalid cache geometry"), std::string::npos);
  EXPECT_FALSE(parseCacheSpec("16:33", Config, Error));
  EXPECT_NE(Error.find("invalid cache geometry"), std::string::npos);
  EXPECT_FALSE(parseCacheSpec("-18446744073709551600", Config, Error));
  EXPECT_NE(Error.find("not a number"), std::string::npos);

  // The byte capacity is 32 bits: 4194303 KB is the largest size that
  // fits. 4194320 KB used to wrap to a 16K cache and 4194304 KB to 0.
  EXPECT_TRUE(parseCacheSpec("2097152", Config, Error));
  EXPECT_EQ(Config.SizeBytes, 2147483648u);
  EXPECT_FALSE(parseCacheSpec("4194303", Config, Error));
  EXPECT_NE(Error.find("invalid cache geometry"), std::string::npos);
  for (const char *Text : {"4194304", "4194320", "4194320:32:1"}) {
    EXPECT_FALSE(parseCacheSpec(Text, Config, Error)) << Text;
    EXPECT_NE(Error.find("out of range"), std::string::npos) << Error;
  }

  // Cache lists are the caches axis of a matrix spec.
  MatrixSpec Spec;
  EXPECT_TRUE(parseWithAxis("", Spec, Error));
  EXPECT_TRUE(Spec.Caches.empty());
  EXPECT_TRUE(parseWithAxis("caches=16,64:32:2", Spec, Error));
  EXPECT_EQ(Spec.Caches.size(), 2u);
  EXPECT_FALSE(parseWithAxis("caches=16,", Spec, Error));
  EXPECT_NE(Error.find("empty item"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Mutation fuzz of the matrix-spec grammar
//===----------------------------------------------------------------------===//

namespace {

/// The specs the project runs: the golden snapshot's, the README's and
/// CI's, then the two inputs every front end used to accept (a negative
/// size that strtoul wrapped to 16, a size whose byte count wrapped to 16K)
/// and the sign/blank forms of the same defect.
const char *const SpecCorpus[] = {
    "workloads=espresso,gs-small;allocators=FirstFit,QuickFit,BSD,"
    "BitmapFit,SpaceFit;caches=16;paging=256",
    "workloads=gs-small,espresso,make;allocators=FirstFit,G++,BSD,QuickFit;"
    "caches=16,32:32:2,64;paging=512,1024",
    "workloads=gs-small;allocators=FirstFit,QuickFit;caches=16;"
    "telemetry=full",
    "workloads=gs-small;allocators=FirstFit,BSD;caches=16",
    "workloads=espresso,make;allocators=FirstFit,BSD,bitmapfit,spacefit;"
    "caches=16,64",
    "workloads=gs-small,espresso,make;allocators=FirstFit,G++,BSD,QuickFit,"
    "bitmap-fit,space-fit;caches=16,32:32:2,64;paging=512,1024",
    "workloads=espresso;allocators=FirstFit,BSD;caches=16,64;"
    "penalty=25,100",
    "workloads=gs;allocators=BSD;caches=-18446744073709551600",
    "workloads=gs;allocators=BSD;caches=4194320",
    "workloads=gs;allocators=BSD;penalty=+25;paging= 512",
};

/// Items of the \p Key axis of an accepted spec (empty when absent).
std::vector<std::string> axisItems(const std::string &Text,
                                   const std::string &Key) {
  for (const std::string &Axis : splitSpecList(Text, ';'))
    if (Axis.compare(0, Key.size() + 1, Key + "=") == 0)
      return splitSpecList(Axis.substr(Key.size() + 1), ',');
  return {};
}

/// Value of a field of ASCII digits (saturating at 2^40), or -1 when the
/// field is empty or holds any other byte.
int64_t digitsValue(const std::string &Field) {
  if (Field.empty())
    return -1;
  int64_t Value = 0;
  for (char C : Field) {
    if (C < '0' || C > '9')
      return -1;
    Value = std::min<int64_t>(Value * 10 + (C - '0'), int64_t(1) << 40);
  }
  return Value;
}

/// Parses \p Text and checks the grammar's properties; returns "" when
/// they hold, else what broke. \p Parsed is what parseMatrixSpec returned.
std::string checkSpec(const std::string &Text, bool &Parsed) {
  MatrixSpec Spec;
  DiagEngine Diags;
  Parsed = parseMatrixSpec(Text, Spec, Diags);
  if (Parsed != (Diags.errorCount() == 0))
    return "returned " + std::to_string(Parsed) + " with " +
           std::to_string(Diags.errorCount()) + " errors";
  if (!Parsed)
    return "";

  std::vector<std::string> Caches = axisItems(Text, "caches");
  if (Caches.size() != Spec.Caches.size())
    return "cache count differs from the text";
  for (size_t I = 0; I != Caches.size(); ++I) {
    std::vector<std::string> Fields = splitSpecList(Caches[I], ':');
    for (const std::string &Field : Fields)
      if (digitsValue(Field) < 0)
        return "accepted cache field '" + Field + "'";
    if (!Spec.Caches[I].valid())
      return "accepted invalid cache '" + Caches[I] + "'";
    if (uint64_t(Spec.Caches[I].SizeBytes) !=
        uint64_t(digitsValue(Fields[0])) * 1024)
      return "cache '" + Caches[I] + "' became " +
             std::to_string(Spec.Caches[I].SizeBytes) + " bytes";
  }
  for (const auto &[Key, Values] :
       {std::pair{"paging", &Spec.PagingMemoryKb},
        std::pair{"penalty", &Spec.PenaltiesCycles}}) {
    std::vector<std::string> Items = axisItems(Text, Key);
    if (Items.empty())
      continue;
    if (Items.size() != Values->size())
      return std::string(Key) + " count differs from the text";
    for (size_t I = 0; I != Items.size(); ++I)
      if (digitsValue(Items[I]) != int64_t((*Values)[I]))
        return std::string("accepted ") + Key + " '" + Items[I] + "' as " +
               std::to_string((*Values)[I]);
  }
  return "";
}

/// One random edit of \p Text: replace, insert or delete bytes, duplicate
/// a range, splice in a range of another corpus spec, or swap a digit run
/// for a boundary number.
void mutateSpec(std::string &Text, Rng &R) {
  static const char Bytes[] = {'0', '1', '4', '9', ',', ';', ':', '=', '-',
                               '+', ' ', '\t', 'x', 'g', 's', '\0', '\xff'};
  static const char *const Numbers[] = {
      "0",       "4194303",    "4194304",    "4194320",
      "2097152", "4294967295", "4294967296", "18446744073709551616",
      "-1",      "+1",         "00016",      " 16"};
  auto Pos = [&](size_t Limit) { return size_t(R.nextBelow(Limit + 1)); };
  switch (R.nextBelow(6)) {
  case 0:
    if (!Text.empty())
      Text[Pos(Text.size() - 1)] = Bytes[R.nextBelow(sizeof(Bytes))];
    break;
  case 1:
    Text.insert(Pos(Text.size()), 1, Bytes[R.nextBelow(sizeof(Bytes))]);
    break;
  case 2: {
    size_t At = Pos(Text.size());
    Text.erase(At, 1 + R.nextBelow(4));
    break;
  }
  case 3: {
    size_t At = Pos(Text.size());
    std::string Range = Text.substr(At, 1 + R.nextBelow(8));
    Text.insert(Pos(Text.size()), Range);
    break;
  }
  case 4: {
    std::string Other = SpecCorpus[R.nextBelow(std::size(SpecCorpus))];
    size_t From = Pos(Other.size());
    Text.replace(Pos(Text.size()), R.nextBelow(8),
                 Other.substr(From, 1 + R.nextBelow(12)));
    break;
  }
  default: {
    size_t Start = Text.find_first_of("0123456789", Pos(Text.size()));
    if (Start == std::string::npos)
      break;
    size_t End = Text.find_first_not_of("0123456789", Start);
    Text.replace(Start, End == std::string::npos ? End : End - Start,
                 Numbers[R.nextBelow(std::size(Numbers))]);
    break;
  }
  }
}

} // namespace

TEST(SpecParseTest, MutatedSpecsDiagnoseOrParseExactly) {
  // Fixed seed and budget: every run checks the same inputs.
  bool Parsed = false;
  for (const char *Seed : SpecCorpus)
    ASSERT_EQ(checkSpec(Seed, Parsed), "") << "input: '" << Seed << "'";
  Rng R(0x5eedf00d);
  size_t Accepted = 0;
  for (unsigned Iter = 0; Iter != 20000; ++Iter) {
    std::string Text = SpecCorpus[R.nextBelow(std::size(SpecCorpus))];
    for (uint64_t Edits = 1 + R.nextBelow(4); Edits != 0; --Edits)
      mutateSpec(Text, R);
    ASSERT_EQ(checkSpec(Text, Parsed), "") << "input: '" << Text << "'";
    Accepted += Parsed;
  }
  // The budget reaches both sides of the grammar.
  EXPECT_GT(Accepted, 100u);
  EXPECT_LT(Accepted, 19000u);
}

//===----------------------------------------------------------------------===//
// CLI contract: exit codes and diagnostics
//===----------------------------------------------------------------------===//

TEST(CliMatrixTest, MalformedSpecsExitNonzeroWithDiagnostic) {
  struct BadInvocation {
    const char *Args;
    const char *ExpectInMessage;
  };
  const BadInvocation Bad[] = {
      {"--caches 16,,64", "empty item"},
      {"--caches 16,", "empty item"},
      {"--caches 16KB", "not a number"},
      {"--caches 17", "invalid cache geometry"},
      {"--paging 512,", "empty item"},
      {"--paging 512,slow", "not a number"},
      {"--paging 0", "positive"},
      {"--workload quake", "unknown workload"},
      {"--allocators FirstFit,Nope", "unknown allocator"},
      {"--matrix workloads=gs", "at least one allocator"},
      {"--matrix \"workloads=gs;allocators=BSD;caches=16,\"", "empty item"},
      // Spec numbers are digits only; strtoul used to wrap this one to 16.
      {"--caches -18446744073709551600", "not a number"},
      {"--matrix \"workloads=gs;allocators=BSD;caches=-18446744073709551600\"",
       "not a number"},
      {"--penalty +25", "not a number"},
      {"--matrix \"workloads=gs;allocators=BSD;penalty=+25\"", "not a number"},
      {"--paging \" 512\"", "not a number"},
      {"--matrix \"workloads=gs;allocators=BSD;paging= 512\"", "not a number"},
      // Cache sizes whose byte count would not fit 32 bits.
      {"--caches 4194320", "out of range"},
      {"--matrix \"workloads=gs;allocators=BSD;caches=4194320\"",
       "out of range"},
      {"--caches 4194304", "out of range"},
      {"--matrix \"workloads=gs;allocators=BSD;caches=4194304\"",
       "out of range"},
      // Numeric flags are range-checked instead of wrapping to 32 bits.
      {"--scale -8", "--scale must be in [1, 4294967295]"},
      {"--scale 0", "--scale must be in [1, 4294967295]"},
      {"--scale 4294967297", "--scale must be in [1, 4294967295]"},
      {"--jobs -1", "--jobs must be in [0, 4294967295]"},
      {"--conform true --conform-scale 0", "--conform-scale must be in"},
      {"--conform true --conform-scale -64", "--conform-scale must be in"},
      {"--check full --check-interval -1", "--check-interval must be in"},
      // --seed is a full unsigned 64-bit value: no sign, no junk, no
      // saturation.
      {"--seed -1", "--seed expects an unsigned 64-bit integer"},
      {"--seed 0x10000000000000000",
       "--seed expects an unsigned 64-bit integer"},
      {"--seed 12abc", "--seed expects an unsigned 64-bit integer"},
  };
  for (const BadInvocation &Invocation : Bad) {
    std::string Output;
    int Exit = runCliCapture(Invocation.Args, Output);
    EXPECT_EQ(Exit, 2) << Invocation.Args << "\n" << Output;
    EXPECT_NE(Output.find("allocsim_cli: error:"), std::string::npos)
        << Invocation.Args << "\n" << Output;
    EXPECT_NE(Output.find(Invocation.ExpectInMessage), std::string::npos)
        << Invocation.Args << "\n" << Output;
  }
  // --inject prints its plan's diagnostics with their column; plan numbers
  // are digits only, so -1 cannot wrap to "unlimited" and switch OOM off.
  const BadInvocation BadInject[] = {
      {"--inject \"oom:after= -1\"", "[inject-bad-value]"},
      {"--inject \"seed= -1\"", "[inject-bad-value]"},
      {"--inject \"retry:limit= 3\"", "[inject-bad-value]"},
      {"--inject \"flip:rate=+0.5\"", "[inject-bad-value]"},
  };
  for (const BadInvocation &Invocation : BadInject) {
    std::string Output;
    int Exit = runCliCapture(Invocation.Args, Output);
    EXPECT_EQ(Exit, 2) << Invocation.Args << "\n" << Output;
    EXPECT_NE(Output.find("--inject:1:1: error:"), std::string::npos)
        << Invocation.Args << "\n" << Output;
    EXPECT_NE(Output.find(Invocation.ExpectInMessage), std::string::npos)
        << Invocation.Args << "\n" << Output;
  }
}

TEST(CliMatrixTest, SingleAxisFlagsSayWhatTheirMatrixAxisSays) {
  // Each flag is one axis of the spec the run parses, so a bad value gets
  // the --matrix axis's message, word for word, and exit 2.
  const std::pair<const char *, const char *> Pairs[] = {
      {"--workload quake", "workloads=quake;allocators=BSD"},
      {"--allocators FirstFit,Nope", "workloads=gs;allocators=FirstFit,Nope"},
      {"--caches 16,,64", "workloads=gs;allocators=BSD;caches=16,,64"},
      {"--caches 4194320", "workloads=gs;allocators=BSD;caches=4194320"},
      {"--paging 512,slow", "workloads=gs;allocators=BSD;paging=512,slow"},
      {"--penalty +25", "workloads=gs;allocators=BSD;penalty=+25"},
  };
  for (const auto &[Flag, Matrix] : Pairs) {
    std::string FlagOutput, MatrixOutput;
    EXPECT_EQ(runCliCapture(Flag, FlagOutput), 2) << Flag;
    EXPECT_EQ(runCliCapture("--matrix \"" + std::string(Matrix) + "\"",
                            MatrixOutput),
              2)
        << Matrix;
    EXPECT_NE(FlagOutput.find("allocsim_cli: error:"), std::string::npos)
        << FlagOutput;
    EXPECT_EQ(FlagOutput, MatrixOutput) << Flag << " vs " << Matrix;
  }
}

TEST(CliMatrixTest, MalformedBooleanIsAUsageError) {
  // A bad boolean used to reach getBool's fatal error and abort.
  std::string Output;
  EXPECT_EQ(runCliCapture("--conform=maybe", Output), 2) << Output;
  EXPECT_NE(Output.find("flag --conform expects a boolean, got 'maybe'"),
            std::string::npos)
      << Output;
}

TEST(CliMatrixTest, GoodRunEmitsParseableJsonAndExitsZero) {
  std::string JsonPath = testing::TempDir() + "cli_matrix_test_out.json";
  int Exit = runCli(
      "--matrix \"workloads=espresso;allocators=FirstFit,BSD;caches=16\" "
      "--scale 512 --jobs 2 --out-json " +
      JsonPath);
  EXPECT_EQ(Exit, 0);

  std::ifstream In(JsonPath);
  ASSERT_TRUE(In) << "CLI did not write " << JsonPath;
  std::ostringstream Content;
  Content << In.rdbuf();
  std::string Json = Content.str();
  EXPECT_NE(Json.find("\"schema\": \"allocsim-matrix-v1\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"allocator\": \"BSD\""), std::string::npos);
  // Structural sanity: balanced braces/brackets, object at top level.
  long Braces = 0, Brackets = 0;
  bool InString = false;
  for (size_t I = 0; I != Json.size(); ++I) {
    char C = Json[I];
    if (C == '"' && (I == 0 || Json[I - 1] != '\\'))
      InString = !InString;
    if (InString)
      continue;
    Braces += C == '{' ? 1 : C == '}' ? -1 : 0;
    Brackets += C == '[' ? 1 : C == ']' ? -1 : 0;
  }
  EXPECT_EQ(Braces, 0);
  EXPECT_EQ(Brackets, 0);
  EXPECT_EQ(Json.front(), '{');
  std::remove(JsonPath.c_str());
}

TEST(CliMatrixTest, LegacySingleWorkloadFlagsStillWork) {
  int Exit = runCli("--workload make --allocators QuickFit --caches 16 "
                    "--scale 512");
  EXPECT_EQ(Exit, 0);
}

TEST(CliMatrixTest, SeedsAbove2To63EchoTheirOwnValues) {
  // strtoll used to saturate both of these to 9223372036854775807, so the
  // two runs wrote byte-identical JSON.
  const std::pair<const char *, const char *> Seeds[] = {
      {"0xdeadbeefcafef00d", "\"seed\": 16045690984503111693"},
      {"0xa5a5a5a5a5a5a5a5", "\"seed\": 11936128518282651045"}};
  for (const auto &[Flag, Echo] : Seeds) {
    std::string JsonPath = testing::TempDir() + "cli_matrix_test_seed.json";
    EXPECT_EQ(runCli("--matrix \"workloads=make;allocators=BSD\" "
                     "--scale 512 --seed " +
                     std::string(Flag) + " --out-json " + JsonPath),
              0)
        << Flag;
    std::ifstream In(JsonPath);
    ASSERT_TRUE(In) << "CLI did not write " << JsonPath;
    std::ostringstream Content;
    Content << In.rdbuf();
    EXPECT_NE(Content.str().find(Echo), std::string::npos)
        << Flag << "\n" << Content.str();
    std::remove(JsonPath.c_str());
  }
}
