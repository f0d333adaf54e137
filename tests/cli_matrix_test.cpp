//===- tests/cli_matrix_test.cpp - Spec parsing & CLI contract tests ------===//
//
// Covers the strict --caches/--paging/--matrix parsing (the old splitList
// silently swallowed empty items, trailing commas, and other malformed
// specs) at two levels: the parse functions directly, and the installed
// allocsim_cli binary as a subprocess — bad specs must exit nonzero with a
// diagnostic, good specs must run and emit valid JSON.
//
//===----------------------------------------------------------------------===//

#include "core/MatrixRunner.h"
#include "support/SpecParse.h"

#include <gtest/gtest.h>

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
}

TEST(SpecParseTest, UnsignedListDiagnostics) {
  std::vector<uint32_t> Values;
  std::string Error;
  EXPECT_TRUE(parseSpecUnsignedList("", "KB", Values, Error));
  EXPECT_TRUE(Values.empty());
  EXPECT_TRUE(parseSpecUnsignedList("512,1024,2048", "KB", Values, Error));
  EXPECT_EQ(Values.size(), 3u);

  EXPECT_FALSE(parseSpecUnsignedList("512,,1024", "KB", Values, Error));
  EXPECT_NE(Error.find("empty item"), std::string::npos);
  EXPECT_FALSE(parseSpecUnsignedList("512,", "KB", Values, Error));
  EXPECT_NE(Error.find("empty item"), std::string::npos);
  EXPECT_FALSE(parseSpecUnsignedList("512,slow", "KB", Values, Error));
  EXPECT_NE(Error.find("slow"), std::string::npos);
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

  std::vector<CacheConfig> Caches;
  EXPECT_TRUE(parseCacheList("", Caches, Error));
  EXPECT_TRUE(Caches.empty());
  EXPECT_TRUE(parseCacheList("16,64:32:2", Caches, Error));
  EXPECT_EQ(Caches.size(), 2u);
  EXPECT_FALSE(parseCacheList("16,", Caches, Error));
  EXPECT_NE(Error.find("empty item"), std::string::npos);
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
