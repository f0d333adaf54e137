//===- tests/support_test.cpp - Support library tests ---------------------===//

#include "support/CommandLine.h"
#include "support/FlatMap.h"
#include "support/Histogram.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <regex>
#include <sstream>
#include <unordered_map>

using namespace allocsim;

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 3);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng R(7);
  for (uint64_t Bound : {1ull, 2ull, 3ull, 17ull, 1000ull, 1ull << 40}) {
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(R.nextBelow(Bound), Bound);
  }
}

TEST(RngTest, NextBelowCoversSmallRange) {
  Rng R(9);
  bool Seen[5] = {};
  for (int I = 0; I < 500; ++I)
    Seen[R.nextBelow(5)] = true;
  for (bool S : Seen)
    EXPECT_TRUE(S);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng R(11);
  double Sum = 0;
  for (int I = 0; I < 10000; ++I) {
    double V = R.nextDouble();
    ASSERT_GE(V, 0.0);
    ASSERT_LT(V, 1.0);
    Sum += V;
  }
  EXPECT_NEAR(Sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng R(13);
  double Sum = 0;
  constexpr int N = 20000;
  for (int I = 0; I < N; ++I)
    Sum += R.nextExponential(8.0);
  EXPECT_NEAR(Sum / N, 8.0, 0.3);
}

TEST(RngTest, BoolProbability) {
  Rng R(17);
  int True = 0;
  for (int I = 0; I < 10000; ++I)
    True += R.nextBool(0.3);
  EXPECT_NEAR(True / 10000.0, 0.3, 0.02);
}

//===----------------------------------------------------------------------===//
// DiscreteDistribution
//===----------------------------------------------------------------------===//

TEST(DiscreteDistributionTest, MatchesWeights) {
  DiscreteDistribution Dist({1.0, 3.0, 6.0});
  Rng R(23);
  int Counts[3] = {};
  constexpr int N = 60000;
  for (int I = 0; I < N; ++I)
    ++Counts[Dist.sample(R)];
  EXPECT_NEAR(Counts[0] / double(N), 0.1, 0.01);
  EXPECT_NEAR(Counts[1] / double(N), 0.3, 0.015);
  EXPECT_NEAR(Counts[2] / double(N), 0.6, 0.015);
}

TEST(DiscreteDistributionTest, SingleBucket) {
  DiscreteDistribution Dist({5.0});
  Rng R(1);
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(Dist.sample(R), 0u);
}

TEST(DiscreteDistributionTest, ZeroWeightNeverSampled) {
  DiscreteDistribution Dist({1.0, 0.0, 1.0});
  Rng R(3);
  for (int I = 0; I < 2000; ++I)
    EXPECT_NE(Dist.sample(R), 1u);
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(HistogramTest, CountsAndTotal) {
  Histogram H;
  H.add(8, 3);
  H.add(16);
  H.add(8);
  EXPECT_EQ(H.count(8), 4u);
  EXPECT_EQ(H.count(16), 1u);
  EXPECT_EQ(H.count(99), 0u);
  EXPECT_EQ(H.total(), 5u);
  EXPECT_EQ(H.distinct(), 2u);
}

TEST(HistogramTest, TopKeysOrdersByFrequencyThenKey) {
  Histogram H;
  H.add(24, 10);
  H.add(8, 10);
  H.add(16, 30);
  H.add(32, 1);
  std::vector<uint64_t> Top = H.topKeys(3);
  ASSERT_EQ(Top.size(), 3u);
  EXPECT_EQ(Top[0], 16u);
  EXPECT_EQ(Top[1], 8u);  // ties break toward smaller keys
  EXPECT_EQ(Top[2], 24u);
}

TEST(HistogramTest, TopKeysClampsToDistinct) {
  Histogram H;
  H.add(1);
  EXPECT_EQ(H.topKeys(10).size(), 1u);
}

TEST(HistogramTest, QuantileKey) {
  Histogram H;
  H.add(10, 50);
  H.add(20, 40);
  H.add(30, 10);
  EXPECT_EQ(H.quantileKey(0.5), 10u);
  EXPECT_EQ(H.quantileKey(0.9), 20u);
  EXPECT_EQ(H.quantileKey(1.0), 30u);
}

TEST(HistogramTest, IterationIsSortedByKey) {
  Histogram H;
  H.add(30);
  H.add(10);
  H.add(20);
  uint64_t Prev = 0;
  for (const auto &[Key, Count] : H) {
    EXPECT_GT(Key, Prev);
    Prev = Key;
  }
}

//===----------------------------------------------------------------------===//
// Table
//===----------------------------------------------------------------------===//

TEST(TableTest, RendersAlignedText) {
  Table T({"name", "value"});
  T.beginRow();
  T.cell("a");
  T.num(uint64_t(42));
  T.beginRow();
  T.cell("longer");
  T.num(3.14159, 2);
  std::ostringstream OS;
  T.renderText(OS, "title");
  std::string Out = OS.str();
  EXPECT_NE(Out.find("title"), std::string::npos);
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("42"), std::string::npos);
  EXPECT_NE(Out.find("3.14"), std::string::npos);
}

TEST(TableTest, RendersCsv) {
  Table T({"a", "b"});
  T.beginRow();
  T.num(uint64_t(1));
  T.num(uint64_t(2));
  std::ostringstream OS;
  T.renderCsv(OS);
  EXPECT_EQ(OS.str(), "a,b\n1,2\n");
}

TEST(TableTest, FormatDouble) {
  EXPECT_EQ(formatDouble(1.25, 1), "1.2");
  EXPECT_EQ(formatDouble(0.5, 3), "0.500");
}

//===----------------------------------------------------------------------===//
// CommandLine
//===----------------------------------------------------------------------===//

TEST(CommandLineTest, ParsesFlagsAndPositional) {
  CommandLine Cli;
  Cli.addFlag("alpha", "1", "");
  Cli.addFlag("beta", "x", "");
  const char *Argv[] = {"prog", "--alpha=7", "pos1", "--beta", "hello"};
  ASSERT_TRUE(Cli.parse(5, Argv));
  EXPECT_EQ(Cli.getInt("alpha"), 7);
  EXPECT_EQ(Cli.getString("beta"), "hello");
  ASSERT_EQ(Cli.positional().size(), 1u);
  EXPECT_EQ(Cli.positional()[0], "pos1");
}

TEST(CommandLineTest, DefaultsApply) {
  CommandLine Cli;
  Cli.addFlag("gamma", "2.5", "");
  const char *Argv[] = {"prog"};
  ASSERT_TRUE(Cli.parse(1, Argv));
  EXPECT_DOUBLE_EQ(Cli.getDouble("gamma"), 2.5);
}

TEST(CommandLineTest, UnknownFlagFails) {
  CommandLine Cli;
  Cli.addFlag("known", "", "");
  const char *Argv[] = {"prog", "--unknown=1"};
  EXPECT_FALSE(Cli.parse(2, Argv));
}

TEST(CommandLineTest, BoolParsing) {
  CommandLine Cli;
  Cli.addFlag("flag", "false", "");
  Cli.addFlag("a", "false", "");
  Cli.addFlag("b", "true", "");
  const char *Argv[] = {"prog", "--flag=true", "--a", "1", "--b", "false"};
  ASSERT_TRUE(Cli.parse(6, Argv));
  EXPECT_TRUE(Cli.getBool("flag"));
  EXPECT_TRUE(Cli.getBool("a"));
  EXPECT_FALSE(Cli.getBool("b"));
  EXPECT_TRUE(Cli.positional().empty());
}

TEST(CommandLineTest, BareBooleanSwitchMeansTrue) {
  // The bench harness's flag set: a bare --csv must not swallow --scale.
  CommandLine Cli;
  Cli.addFlag("csv", "false", "");
  Cli.addFlag("scale", "8", "");
  const char *Argv[] = {"prog", "--csv", "--scale", "256"};
  ASSERT_TRUE(Cli.parse(4, Argv));
  EXPECT_TRUE(Cli.getBool("csv"));
  EXPECT_EQ(Cli.getInt("scale"), 256);

  CommandLine Trailing;
  Trailing.addFlag("csv", "false", "");
  const char *TrailingArgv[] = {"prog", "--csv"};
  ASSERT_TRUE(Trailing.parse(2, TrailingArgv));
  EXPECT_TRUE(Trailing.getBool("csv"));

  // A following argument that is no boolean literal stays positional.
  CommandLine Before;
  Before.addFlag("csv", "false", "");
  const char *BeforeArgv[] = {"prog", "--csv", "input.trace"};
  ASSERT_TRUE(Before.parse(3, BeforeArgv));
  EXPECT_TRUE(Before.getBool("csv"));
  ASSERT_EQ(Before.positional().size(), 1u);
  EXPECT_EQ(Before.positional()[0], "input.trace");
}

TEST(CommandLineTest, MalformedBooleanFailsToParse) {
  for (const char *Bad : {"--flag=maybe", "--flag="}) {
    CommandLine Cli;
    Cli.addFlag("flag", "false", "");
    const char *Argv[] = {"prog", Bad};
    EXPECT_FALSE(Cli.parse(2, Argv)) << Bad;
  }
}

TEST(CommandLineTest, HelpReturnsFalse) {
  CommandLine Cli;
  const char *Argv[] = {"prog", "--help"};
  EXPECT_FALSE(Cli.parse(2, Argv));
}

//===----------------------------------------------------------------------===//
// FlatMap
//===----------------------------------------------------------------------===//

namespace {

/// A FlatMap driven in lockstep with the std::unordered_map it must agree
/// with. Each method returns "" or the first disagreement.
struct FlatMapDifferential {
  FlatMap<uint32_t> Flat;
  std::unordered_map<uint32_t, uint32_t> Oracle;

  std::string lookup(uint32_t Key) const {
    const uint32_t *Value = Flat.find(Key);
    auto It = Oracle.find(Key);
    if ((Value != nullptr) != (It != Oracle.end()) ||
        Flat.contains(Key) != (It != Oracle.end()))
      return "presence of key " + std::to_string(Key) + " differs";
    if (Value && *Value != It->second)
      return "value of key " + std::to_string(Key) + " differs";
    return "";
  }

  std::string insert(uint32_t Key, uint32_t Value) {
    if (Flat.insert(Key, Value) != Oracle.emplace(Key, Value).second)
      return "insert of key " + std::to_string(Key) + " differs";
    return "";
  }

  std::string erase(uint32_t Key) {
    if (Flat.erase(Key) != (Oracle.erase(Key) != 0))
      return "erase of key " + std::to_string(Key) + " differs";
    return "";
  }

  /// Size, load and the lookups of \p Keys.
  std::string agreeOn(const std::vector<uint32_t> &Keys) const {
    if (Flat.size() != Oracle.size())
      return "size " + std::to_string(Flat.size()) + " vs " +
             std::to_string(Oracle.size());
    const size_t Slots = Flat.slotCount();
    if ((Slots & (Slots - 1)) != 0 || 2 * Flat.size() > Slots)
      return "table of " + std::to_string(Slots) + " slots holds " +
             std::to_string(Flat.size());
    for (uint32_t Key : Keys)
      if (std::string Why = lookup(Key); !Why.empty())
        return Why;
    return "";
  }

  /// One random insert, erase or find of a key drawn from \p Pool, then
  /// the size and the lookups of the key, of 0 and 0xFFFFFFFF, and of all
  /// of \p Pool if it is small or 8 random pool keys if not.
  std::string step(const std::vector<uint32_t> &Pool, unsigned InsertPercent,
                   Rng &R) {
    const uint32_t Key = Pool[R.nextBelow(Pool.size())];
    const uint64_t Op = R.nextBelow(100);
    std::string Why;
    if (Op < InsertPercent)
      Why = insert(Key, static_cast<uint32_t>(R.next()));
    else if (Op < 95)
      Why = erase(Key);
    else
      Why = lookup(Key);
    if (!Why.empty())
      return Why;
    std::vector<uint32_t> Check = {Key, 0u, 0xFFFFFFFFu};
    if (Pool.size() <= 128)
      Check.insert(Check.end(), Pool.begin(), Pool.end());
    else
      for (unsigned I = 0; I != 8; ++I)
        Check.push_back(Pool[R.nextBelow(Pool.size())]);
    return agreeOn(Check);
  }
};

} // namespace

TEST(FlatMapTest, MatchesUnorderedMap) {
  // Fixed seed and budget: 110000 random operations in three key regimes,
  // each checked against std::unordered_map after it runs.
  Rng R(0xf1a7'3a95);
  FlatMapDifferential M;
  const std::vector<uint32_t> Edges = {0u, 0xFFFFFFFFu};
  ASSERT_EQ(M.Flat.slotCount(), 0u);
  ASSERT_EQ(M.agreeOn(Edges), "") << "empty table";
  ASSERT_EQ(M.erase(0), "") << "erase from an empty table";

  // Growth from empty to the first table.
  ASSERT_EQ(M.insert(0xFFFFFFFFu, 7), "");
  ASSERT_EQ(M.Flat.slotCount(), FlatMap<uint32_t>::MinSlots);
  ASSERT_EQ(M.erase(0xFFFFFFFFu), "");
  ASSERT_EQ(M.agreeOn(Edges), "");

  // Keys homed at the first table's last two slots and its first, so probe
  // runs wrap around the end and erases shift entries back across it.
  const size_t Slots = FlatMap<uint32_t>::MinSlots;
  std::vector<uint32_t> Last, First, Penultimate;
  for (uint32_t Key = 1; Last.size() < 3 || First.size() < 2 ||
                         Penultimate.size() < 1;
       ++Key) {
    const size_t Home = FlatMap<uint32_t>::homeSlot(Key, Slots);
    if (Home == Slots - 1 && Last.size() < 3)
      Last.push_back(Key);
    else if (Home == 0 && First.size() < 2)
      First.push_back(Key);
    else if (Home == Slots - 2 && Penultimate.size() < 1)
      Penultimate.push_back(Key);
  }
  // Three keys share the last slot and fill slots 15, 0 and 1; a key
  // homed at 0 lands at 2. Erasing the key at slot 15 must shift each of
  // the others back one slot, across the wrap-around.
  std::vector<uint32_t> Wrap = {Last[0], Last[1], Last[2], First[0]};
  for (uint32_t Key : Wrap)
    ASSERT_EQ(M.insert(Key, Key ^ 0x5a5a5a5a), "");
  ASSERT_EQ(M.erase(Last[0]), "");
  ASSERT_EQ(M.agreeOn(Wrap), "") << "backward shift across the wrap-around";
  ASSERT_EQ(M.erase(Last[1]), "");
  ASSERT_EQ(M.agreeOn(Wrap), "");
  ASSERT_EQ(M.erase(Last[2]), "");
  ASSERT_EQ(M.erase(First[0]), "");
  ASSERT_EQ(M.agreeOn(Wrap), "");
  ASSERT_EQ(M.Flat.size(), 0u);

  // Eight keys at most, so the table stays at 16 slots: random operations
  // on a crowded run around the wrap-around, 0 and 0xFFFFFFFF included.
  std::vector<uint32_t> Crowded = {Last[0],  Last[1],        Last[2],
                                   First[0], First[1],       Penultimate[0],
                                   0u,       0xFFFFFFFFu};
  for (unsigned I = 0; I != 20000; ++I) {
    ASSERT_EQ(M.step(Crowded, 50, R), "") << "crowded op " << I;
    ASSERT_EQ(M.Flat.slotCount(), Slots) << "crowded op " << I;
  }

  // Small keys: dense ids, the driver's case.
  std::vector<uint32_t> Small = {0xFFFFFFFFu};
  for (uint32_t Key = 0; Key != 64; ++Key)
    Small.push_back(Key);
  for (unsigned I = 0; I != 30000; ++I)
    ASSERT_EQ(M.step(Small, 50, R), "") << "small-key op " << I;

  // Full-range keys and word-aligned heap addresses, grown to a few
  // thousand entries and drained again, twice.
  std::vector<uint32_t> Wide = Edges;
  for (unsigned I = 0; I != 3000; ++I)
    Wide.push_back(static_cast<uint32_t>(R.next()));
  for (uint32_t I = 0; I != 3000; ++I)
    Wide.push_back(0x1000'0000u + 8 * I);
  for (unsigned Round = 0; Round != 2; ++Round) {
    for (unsigned I = 0; I != 15000; ++I)
      ASSERT_EQ(M.step(Wide, 75, R), "") << "growing op " << I;
    EXPECT_GT(M.Flat.size(), 2000u);
    for (unsigned I = 0; I != 15000; ++I)
      ASSERT_EQ(M.step(Wide, 15, R), "") << "draining op " << I;
    ASSERT_EQ(M.agreeOn(Wide), "") << "after round " << Round;
  }
}

//===----------------------------------------------------------------------===//
// The JSON reader's number grammar
//===----------------------------------------------------------------------===//

namespace {

/// RFC 8259's number grammar, written as a regular expression so it is
/// independent of the reader's hand-written scanner.
bool matchesJsonNumberGrammar(const std::string &Token) {
  static const std::regex Grammar(
      "-?(0|[1-9][0-9]*)(\\.[0-9]+)?([eE][+-]?[0-9]+)?");
  return std::regex_match(Token, Grammar);
}

/// The number tokens of \p Text, a document the reader accepted: every
/// maximal run of number characters outside strings that starts with "-"
/// or a digit.
std::vector<std::string> numberTokens(const std::string &Text) {
  std::vector<std::string> Tokens;
  auto isNumberChar = [](char C) {
    return std::isdigit(static_cast<unsigned char>(C)) ||
           std::strchr("+-.eE", C) != nullptr;
  };
  for (size_t I = 0; I < Text.size();) {
    if (Text[I] == '"') {
      for (++I; Text[I] != '"'; ++I)
        I += Text[I] == '\\';
      ++I;
    } else if (Text[I] == '-' ||
               std::isdigit(static_cast<unsigned char>(Text[I]))) {
      const size_t Start = I;
      while (I < Text.size() && isNumberChar(Text[I]))
        ++I;
      Tokens.push_back(Text.substr(Start, I - Start));
    } else {
      ++I;
    }
  }
  return Tokens;
}

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

} // namespace

TEST(JsonTest, RejectsNonJsonNumbers) {
  struct Row {
    const char *Text;
    bool Valid;
  };
  const Row Rows[] = {
      {"+5", false},   {".5", false},  {"01", false},  {"5.", false},
      {"-01", false},  {"00", false},  {"-", false},   {"-.5", false},
      {"1.e5", false}, {"1e", false},  {"1e+", false}, {"--1", false},
      {"1.5.2", false}, {"0x10", false}, {"1e5e5", false},
      {"0", true},     {"-0", true},   {"10", true},   {"0.5", true},
      {"-0.0e0", true}, {"1e5", true}, {"1E+5", true}, {"2e-3", true},
  };
  for (const Row &R : Rows) {
    ASSERT_EQ(matchesJsonNumberGrammar(R.Text), R.Valid) << R.Text;
    for (const std::string &Text :
         {std::string(R.Text), "[" + std::string(R.Text) + "]",
          "{\"a\": " + std::string(R.Text) + "}"}) {
      SCOPED_TRACE(Text);
      JsonValue Value;
      std::string Error;
      EXPECT_EQ(JsonValue::parse(Text, Value, Error), R.Valid) << Error;
      EXPECT_EQ(Error.empty(), R.Valid);
    }
  }
}

TEST(JsonFuzzTest, MutatedDocumentsDiagnoseOrParse) {
  // The committed JSON the reader consumes or could: the conformance
  // expectations, the golden matrix and the perf baselines.
  const std::filesystem::path Root = ALLOCSIM_SOURCE_DIR;
  std::vector<std::filesystem::path> Paths = {
      Root / "tests" / "golden" / "paper_small.json"};
  for (const auto &Entry : std::filesystem::directory_iterator(
           Root / "tests" / "conformance" / "expectations"))
    if (Entry.path().extension() == ".json")
      Paths.push_back(Entry.path());
  for (const auto &Entry : std::filesystem::directory_iterator(Root))
    if (Entry.path().filename().string().rfind("BENCH_", 0) == 0 &&
        Entry.path().extension() == ".json")
      Paths.push_back(Entry.path());
  std::sort(Paths.begin(), Paths.end());
  std::vector<std::string> Documents;
  for (const auto &Path : Paths) {
    Documents.push_back(readFile(Path));
    JsonValue Value;
    std::string Error;
    ASSERT_TRUE(JsonValue::parse(Documents.back(), Value, Error))
        << Path << ": " << Error;
  }
  ASSERT_GE(Documents.size(), 6u);

  const std::vector<std::string> Tokens = {
      "+5", ".5", "01", "5.", "-", "-0", "0.0", "1e", "1e+", "1E-7", "1e400",
      "1e-400", "18446744073709551616", "-9223372036854775809", "0x1F",
      "[", "]", "{", "}", ",", ":", "\"", "\\", "\\u00e9", "null", "true",
      "false", "nan", "inf", " ", "\n"};
  const std::string Alphabet = "0123456789+-.eE[]{}:,\" \\tnulfrsa";
  std::mt19937_64 Rng(0x150Du);
  auto Below = [&](size_t N) {
    return N == 0 ? size_t(0) : static_cast<size_t>(Rng() % N);
  };
  auto mutate = [&](std::string Text) {
    for (size_t Step = 0, Steps = 1 + Below(3); Step != Steps; ++Step) {
      const size_t Pos = Below(Text.size() + 1);
      switch (Below(5)) {
      case 0:
        Text.insert(Pos, 1, Alphabet[Below(Alphabet.size())]);
        break;
      case 1:
        Text.erase(Pos, 1 + Below(4));
        break;
      case 2:
        if (Pos < Text.size())
          Text[Pos] = Alphabet[Below(Alphabet.size())];
        break;
      case 3:
        Text.insert(Pos, Tokens[Below(Tokens.size())]);
        break;
      default: {
        const std::string &Other = Documents[Below(Documents.size())];
        Text = Text.substr(0, Pos) + Other.substr(Below(Other.size() + 1));
        break;
      }
      }
    }
    return Text;
  };

  uint64_t Accepted = 0, Rejected = 0, Numbers = 0;
  for (uint32_t Round = 0; Round != 3000; ++Round) {
    const std::string Text = mutate(Documents[Round % Documents.size()]);
    JsonValue Value;
    std::string Error;
    const bool Ok = JsonValue::parse(Text, Value, Error);
    ASSERT_EQ(Ok, Error.empty()) << "round " << Round << ": " << Error;
    if (!Ok) {
      ++Rejected;
      continue;
    }
    ++Accepted;
    for (const std::string &Token : numberTokens(Text)) {
      ASSERT_TRUE(matchesJsonNumberGrammar(Token))
          << "round " << Round << " accepted number '" << Token << "'";
      ++Numbers;
    }
  }
  // Both outcomes are exercised, so the checks are not vacuous.
  EXPECT_GT(Accepted, 300u);
  EXPECT_GT(Rejected, 1000u);
  EXPECT_GT(Numbers, 10000u);

  // Nesting far past the limit is diagnosed, not a stack overflow.
  for (const std::string &Deep :
       {std::string(100000, '['),
        std::string(100000, '[') + std::string(100000, ']'),
        [] {
          std::string Objects;
          for (int I = 0; I != 100000; ++I)
            Objects += "{\"a\":";
          return Objects;
        }()}) {
    JsonValue Value;
    std::string Error;
    EXPECT_FALSE(JsonValue::parse(Deep, Value, Error));
    EXPECT_NE(Error.find("deep"), std::string::npos) << Error;
  }
}
