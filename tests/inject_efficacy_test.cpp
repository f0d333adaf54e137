//===- tests/inject_efficacy_test.cpp - Detector efficacy under FaultLab --===//
//
// The detector-efficacy contract: FaultLab's injection log is ground truth
// for what was corrupted, so the heap checker can be graded against it.
//
//   * Under --check=full every injected corruption — memory-bus bit flips
//     and metadata smashes — must be detected: zero false negatives over
//     the committed corpus scripts, for every paper allocator.
//   * Under --check=off the same faults are injected at bit-identical
//     sites, nothing is detected, and the injected-but-undetected count is
//     recorded in telemetry (fault.undetected.*).
//
// Also covers the fault-plan grammar: accepted forms, diagnostics for
// malformed input, and the plan's enable/disable predicates.
//
//===----------------------------------------------------------------------===//

#include "core/Lab.h"
#include "inject/FaultInjector.h"
#include "trace/AllocEvents.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

using namespace allocsim;

namespace {

constexpr const char *CorruptionPlan =
    "flip:rate=0.01;smash:rate=0.01;seed=424242";

std::vector<std::pair<std::string, std::vector<AllocEvent>>> loadCorpus() {
  std::vector<std::pair<std::string, std::vector<AllocEvent>>> Corpus;
  for (const auto &Entry :
       std::filesystem::directory_iterator(ALLOCSIM_CORPUS_DIR)) {
    if (Entry.path().extension() != ".events")
      continue;
    std::ifstream In(Entry.path());
    EXPECT_TRUE(In.good()) << Entry.path();
    Corpus.emplace_back(Entry.path().filename().string(),
                        readAllocEvents(In));
  }
  std::sort(Corpus.begin(), Corpus.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  EXPECT_GE(Corpus.size(), 6u) << "corpus files missing from "
                               << ALLOCSIM_CORPUS_DIR;
  return Corpus;
}

ExperimentConfig scriptConfig(AllocatorKind Kind, CheckLevel Level) {
  ExperimentConfig Config;
  Config.Workload = WorkloadId::Espresso; // contributes instr/ref only
  Config.Allocator = Kind;
  Config.Check.Level = Level;

  DiagEngine Diags;
  Config.Inject = parseFaultPlan(CorruptionPlan, Diags);
  EXPECT_EQ(Diags.errorCount(), 0u);
  EXPECT_TRUE(Config.Inject.corruptionEnabled());
  return Config;
}

} // namespace

//===----------------------------------------------------------------------===//
// Plan grammar
//===----------------------------------------------------------------------===//

TEST(FaultPlanTest, ParsesFullGrammar) {
  DiagEngine Diags;
  FaultPlan Plan = parseFaultPlan(
      "oom:after=10000;flip:rate=1e-6;smash:rate=0.25;cell:rate=0.5;"
      "retry:limit=3;seed=77",
      Diags);
  EXPECT_EQ(Diags.errorCount(), 0u);
  EXPECT_TRUE(Plan.enabled());
  EXPECT_TRUE(Plan.oomEnabled());
  EXPECT_TRUE(Plan.corruptionEnabled());
  EXPECT_EQ(Plan.OomAfterBytes, 10000u);
  EXPECT_DOUBLE_EQ(Plan.FlipRate, 1e-6);
  EXPECT_DOUBLE_EQ(Plan.SmashRate, 0.25);
  EXPECT_DOUBLE_EQ(Plan.CellRate, 0.5);
  EXPECT_EQ(Plan.RetryLimit, 3u);
  EXPECT_EQ(Plan.Seed, 77u);
  EXPECT_TRUE(Plan.SeedSet);
}

TEST(FaultPlanTest, EmptyTextIsInactive) {
  DiagEngine Diags;
  FaultPlan Plan = parseFaultPlan("", Diags);
  EXPECT_EQ(Diags.errorCount(), 0u);
  EXPECT_FALSE(Plan.enabled());
  EXPECT_FALSE(Plan.oomEnabled());
  EXPECT_FALSE(Plan.corruptionEnabled());
  EXPECT_EQ(Plan, FaultPlan());
}

TEST(FaultPlanTest, OomOnlyPlanDisablesCorruption) {
  DiagEngine Diags;
  FaultPlan Plan = parseFaultPlan("oom:after=4096", Diags);
  EXPECT_EQ(Diags.errorCount(), 0u);
  EXPECT_TRUE(Plan.enabled());
  EXPECT_TRUE(Plan.oomEnabled());
  EXPECT_FALSE(Plan.corruptionEnabled());
  EXPECT_FALSE(Plan.SeedSet);
}

TEST(FaultPlanTest, DiagnosesMalformedInput) {
  struct BadCase {
    const char *Text;
    const char *RuleId;
  };
  const BadCase Cases[] = {
      {"bogus:fault=1", "inject-unknown-fault"},
      {"flip:rate=notanumber", "inject-bad-value"},
      {"flip:rate=1.5", "inject-bad-value"},
      {"flip:rate=-0.5", "inject-bad-value"},
      {"oom:after=xyz", "inject-bad-value"},
      {"seed=", "spec-empty-value"},
      {"flip:rate", "spec-missing-equals"},
      {"flip:rate=0.1;flip:rate=0.2", "spec-duplicate-axis"},
      // Numbers are digits only: strtoull used to skip the blank and wrap
      // -1 to UINT64_MAX, which silently turned the OOM fault off.
      {"oom:after= -1", "inject-bad-value"},
      {"oom:after=-1", "inject-bad-value"},
      {"oom:after=+4096", "inject-bad-value"},
      {"oom:after=18446744073709551616", "inject-bad-value"},
      {"seed= -1", "inject-bad-value"},
      {"seed= 7", "inject-bad-value"},
      {"retry:limit= 3", "inject-bad-value"},
      {"retry:limit=+3", "inject-bad-value"},
      // Rates take no leading blank or sign either (-0 is in range).
      {"flip:rate= 0.5", "inject-bad-value"},
      {"flip:rate=+0.5", "inject-bad-value"},
      {"smash:rate=-0", "inject-bad-value"},
      {"cell:rate=\t0.5", "inject-bad-value"},
  };
  for (const BadCase &Case : Cases) {
    SCOPED_TRACE(Case.Text);
    DiagEngine Diags;
    FaultPlan Plan = parseFaultPlan(Case.Text, Diags);
    EXPECT_GE(Diags.errorCount(), 1u);
    EXPECT_FALSE(Plan.enabled()) << "malformed plan must stay inactive";
    bool Found = false;
    for (const Diag &D : Diags.diags())
      Found = Found || D.Rule == Case.RuleId;
    EXPECT_TRUE(Found) << "expected rule " << Case.RuleId;
  }
}

namespace {

/// What \p Text must parse to if it is accepted, read by a separate oracle:
/// every integer is its digits read exactly, every rate its strtod value in
/// [0, 1] with no leading blank or sign. False if the oracle rejects some
/// axis, or repeats a key (the parser must reject those too).
bool expectedPlan(const std::string &Text, FaultPlan &Expected) {
  Expected = FaultPlan();
  Expected.Spec = Text;
  Expected.Active = true;
  std::vector<std::string> Keys;
  std::string::size_type Start = 0;
  for (;;) {
    const std::string::size_type Semi = Text.find(';', Start);
    const std::string Axis = Text.substr(Start, Semi - Start);
    const std::string::size_type Eq = Axis.find('=');
    if (Eq == std::string::npos)
      return false;
    const std::string Key = Axis.substr(0, Eq);
    const std::string Value = Axis.substr(Eq + 1);
    if (std::find(Keys.begin(), Keys.end(), Key) != Keys.end())
      return false;
    Keys.push_back(Key);
    if (Key == "oom:after" || Key == "retry:limit" || Key == "seed") {
      if (Value.empty() || Value.find_first_not_of("0123456789") !=
                               std::string::npos)
        return false;
      const std::string Digits =
          Value.substr(std::min(Value.find_first_not_of('0'),
                                Value.size() - 1));
      if (Digits.size() > 20 ||
          (Digits.size() == 20 && Digits > "18446744073709551615"))
        return false;
      const uint64_t Number = std::stoull(Digits);
      if (Key == "oom:after") {
        Expected.OomAfterBytes = Number;
      } else if (Key == "seed") {
        Expected.Seed = Number;
        Expected.SeedSet = true;
      } else if (Number <= 64) {
        Expected.RetryLimit = static_cast<uint32_t>(Number);
      } else {
        return false;
      }
    } else if (Key == "flip:rate" || Key == "smash:rate" ||
               Key == "cell:rate") {
      if (Value.empty() || Value.find_first_of(" \t\n\v\f\r+-") == 0)
        return false;
      errno = 0;
      char *End = nullptr;
      const double Rate = std::strtod(Value.c_str(), &End);
      if (errno != 0 || End != Value.c_str() + Value.size() ||
          !(Rate >= 0.0 && Rate <= 1.0))
        return false;
      (Key == "flip:rate"    ? Expected.FlipRate
       : Key == "smash:rate" ? Expected.SmashRate
                             : Expected.CellRate) = Rate;
    } else {
      return false;
    }
    if (Semi == std::string::npos)
      return true;
    Start = Semi + 1;
  }
}

} // namespace

TEST(FaultPlanFuzzTest, MutatedPlansDiagnoseOrParseExactly) {
  // Every --inject plan in the tests, README and CI, plus inputs that
  // once parsed wrong.
  const std::vector<std::string> Seeds = {
      "oom:after=32768;flip:rate=1e-4;smash:rate=1e-4",
      "oom:after=10000;flip:rate=1e-6;smash:rate=0.25;cell:rate=0.5;"
      "retry:limit=3;seed=77",
      "flip:rate=0.01;smash:rate=0.01;seed=424242",
      "flip:rate=1e-4;cell:rate=0.5;seed=11",
      "cell:rate=1.0;retry:limit=2;seed=7",
      "cell:rate=0.5;retry:limit=1;seed=99",
      "oom:after=16384",
      "oom:after=4096",
      "seed=18446744073709551615",
      "oom:after= -1",
      "seed= -1",
      "retry:limit= 3",
  };
  const std::vector<std::string> Tokens = {
      "-", "+", " ", "\t", "-1", "0", "00", "64", "65", "1e-4", "1e400",
      ".", "e", "nan", "inf", "0x10", "18446744073709551615",
      "18446744073709551616", ";", "=", ":", "seed=", "oom:after=",
      "retry:limit=", "flip:rate=", "cell:rate="};
  const std::string Alphabet = "0123456789 \t+-.e;=:xabfilmnoprst";

  std::mt19937_64 Rng(0xFA017u);
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
        if (Pos < Text.size())
          Text.erase(Pos, 1);
        break;
      case 2:
        if (Pos < Text.size())
          Text[Pos] = Alphabet[Below(Alphabet.size())];
        break;
      case 3:
        Text.insert(Pos, Tokens[Below(Tokens.size())]);
        break;
      default: {
        const std::string &Other = Seeds[Below(Seeds.size())];
        Text = Text.substr(0, Pos) + Other.substr(Below(Other.size() + 1));
        break;
      }
      }
    }
    return Text;
  };

  uint64_t Accepted = 0, Rejected = 0;
  for (uint32_t Round = 0; Round != 20000; ++Round) {
    const std::string &Seed = Seeds[Round % Seeds.size()];
    const std::string Text = Round < Seeds.size() ? Seed : mutate(Seed);
    SCOPED_TRACE("plan '" + Text + "'");
    DiagEngine Diags;
    const FaultPlan Plan = parseFaultPlan(Text, Diags);
    ASSERT_EQ(Plan.Active, !Text.empty() && Diags.errorCount() == 0);
    FaultPlan Expected;
    const bool OracleAccepts = !Text.empty() && expectedPlan(Text, Expected);
    ASSERT_EQ(Plan.Active, OracleAccepts);
    if (!Plan.Active) {
      ++Rejected;
      continue;
    }
    ++Accepted;
    ASSERT_EQ(Plan, Expected);
  }
  // Both outcomes are exercised, so the oracle is not vacuous.
  EXPECT_GT(Accepted, 500u);
  EXPECT_GT(Rejected, 1000u);
}

//===----------------------------------------------------------------------===//
// Detector efficacy
//===----------------------------------------------------------------------===//

TEST(InjectEfficacyTest, FullCheckDetectsEveryCorruption) {
  // The acceptance matrix: every corpus script x every paper allocator,
  // every injected fault detected. The injection log is the oracle — a
  // single undetected record is a checker false negative.
  auto Corpus = loadCorpus();
  uint64_t TotalInjected = 0;
  for (const auto &[Name, Events] : Corpus) {
    for (AllocatorKind Kind : PaperAllocators) {
      SCOPED_TRACE(Name + "/" + allocatorKindName(Kind));
      RunResult Result =
          runScriptExperiment(scriptConfig(Kind, CheckLevel::Full), Events);
      EXPECT_EQ(Result.FaultsInjected, Result.Faults.size());
      EXPECT_EQ(Result.FaultsDetected, Result.FaultsInjected);
      for (const FaultRecord &Fault : Result.Faults)
        EXPECT_TRUE(Fault.Detected)
            << faultKindName(Fault.Kind) << " at op " << Fault.OpIndex
            << ", addr " << Fault.Address << " escaped detection";
      // Detection surfaces as checker violations too.
      if (Result.FaultsInjected > 0) {
        EXPECT_GT(Result.CheckViolations, 0u);
      }
      TotalInjected += Result.FaultsInjected;
    }
  }
  // The matrix must actually exercise both fault classes.
  EXPECT_GT(TotalInjected, 0u) << "plan injected nothing — rates too low";
}

TEST(InjectEfficacyTest, BothFaultClassesAppearInTheMatrix) {
  auto Corpus = loadCorpus();
  uint64_t Flips = 0, Smashes = 0;
  for (const auto &[Name, Events] : Corpus)
    for (AllocatorKind Kind : PaperAllocators) {
      RunResult Result =
          runScriptExperiment(scriptConfig(Kind, CheckLevel::Full), Events);
      for (const FaultRecord &Fault : Result.Faults)
        (Fault.Kind == FaultKind::Flip ? Flips : Smashes) += 1;
    }
  EXPECT_GT(Flips, 0u);
  EXPECT_GT(Smashes, 0u);
}

TEST(InjectEfficacyTest, OffCheckRecordsUndetectedInTelemetry) {
  // Same plan, checking off: the faults still land (bit-identical sites),
  // nothing can detect them, and telemetry records the escape count.
  auto Corpus = loadCorpus();
  const auto &[Name, Events] = Corpus.front();
  for (AllocatorKind Kind : PaperAllocators) {
    SCOPED_TRACE(Name + "/" + allocatorKindName(Kind));
    ExperimentConfig Config = scriptConfig(Kind, CheckLevel::Off);
    Config.Telemetry = TelemetryLevel::Summary;
    RunResult Result = runScriptExperiment(Config, Events);

    EXPECT_EQ(Result.FaultsDetected, 0u);
    for (const FaultRecord &Fault : Result.Faults)
      EXPECT_FALSE(Fault.Detected);

    uint64_t Flips = 0, Smashes = 0;
    for (const FaultRecord &Fault : Result.Faults)
      (Fault.Kind == FaultKind::Flip ? Flips : Smashes) += 1;
    EXPECT_EQ(Result.Telemetry.counterValue("fault.injected.flip"), Flips);
    EXPECT_EQ(Result.Telemetry.counterValue("fault.injected.smash"), Smashes);
    EXPECT_EQ(Result.Telemetry.counterValue("fault.undetected.flip"), Flips);
    EXPECT_EQ(Result.Telemetry.counterValue("fault.undetected.smash"),
              Smashes);
    EXPECT_EQ(Result.Telemetry.counterValue("fault.detected.flip"), 0u);
    EXPECT_EQ(Result.Telemetry.counterValue("fault.detected.smash"), 0u);
  }
}

TEST(InjectEfficacyTest, FaultSitesAreCheckLevelInvariant) {
  // The determinism contract: (kind, op, address) per fault must be
  // bit-identical whether the real checker watches or not — only the
  // Detected verdicts may differ.
  auto Corpus = loadCorpus();
  for (const auto &[Name, Events] : Corpus) {
    for (AllocatorKind Kind : {AllocatorKind::Bsd, AllocatorKind::FirstFit,
                               AllocatorKind::GnuLocal}) {
      SCOPED_TRACE(Name + "/" + allocatorKindName(Kind));
      RunResult Full =
          runScriptExperiment(scriptConfig(Kind, CheckLevel::Full), Events);
      RunResult Fast =
          runScriptExperiment(scriptConfig(Kind, CheckLevel::Fast), Events);
      RunResult Off =
          runScriptExperiment(scriptConfig(Kind, CheckLevel::Off), Events);
      ASSERT_EQ(Full.Faults.size(), Off.Faults.size());
      ASSERT_EQ(Full.Faults.size(), Fast.Faults.size());
      for (size_t I = 0; I != Full.Faults.size(); ++I) {
        EXPECT_EQ(Full.Faults[I].Kind, Off.Faults[I].Kind);
        EXPECT_EQ(Full.Faults[I].OpIndex, Off.Faults[I].OpIndex);
        EXPECT_EQ(Full.Faults[I].Address, Off.Faults[I].Address);
        EXPECT_EQ(Full.Faults[I].Kind, Fast.Faults[I].Kind);
        EXPECT_EQ(Full.Faults[I].OpIndex, Fast.Faults[I].OpIndex);
        EXPECT_EQ(Full.Faults[I].Address, Fast.Faults[I].Address);
      }
    }
  }
}

TEST(InjectEfficacyTest, FastCheckDetectsFlips) {
  // The shadow sanitizer alone (fast level) already catches bus bit flips —
  // they surface as illegal application references. Metadata smashes need
  // the full level's invariant walks, so fast leaves them undetected.
  auto Corpus = loadCorpus();
  const auto &[Name, Events] = Corpus.front();
  for (AllocatorKind Kind : PaperAllocators) {
    SCOPED_TRACE(Name + "/" + allocatorKindName(Kind));
    RunResult Result =
        runScriptExperiment(scriptConfig(Kind, CheckLevel::Fast), Events);
    for (const FaultRecord &Fault : Result.Faults) {
      if (Fault.Kind == FaultKind::Flip)
        EXPECT_TRUE(Fault.Detected) << "flip at op " << Fault.OpIndex;
      else
        EXPECT_FALSE(Fault.Detected)
            << "smash verdicts need full-level invariant walks";
    }
  }
}

TEST(InjectEfficacyTest, ModernBackendsDetectEveryCorruption) {
  // The new CacheLab backends are held to the same zero-false-negative bar:
  // BitmapFit's slab headers, bitmaps and slab map, and SpaceFit's sorted
  // boundary-tagged freelist, are all walker-covered metadata — every
  // injected fault must be detected under --check=full, over the whole
  // committed corpus.
  auto Corpus = loadCorpus();
  uint64_t TotalInjected = 0;
  for (const auto &[Name, Events] : Corpus) {
    for (AllocatorKind Kind :
         {AllocatorKind::BitmapFit, AllocatorKind::SpaceFit}) {
      SCOPED_TRACE(Name + "/" + allocatorKindName(Kind));
      RunResult Result =
          runScriptExperiment(scriptConfig(Kind, CheckLevel::Full), Events);
      EXPECT_EQ(Result.FaultsInjected, Result.Faults.size());
      EXPECT_EQ(Result.FaultsDetected, Result.FaultsInjected);
      for (const FaultRecord &Fault : Result.Faults)
        EXPECT_TRUE(Fault.Detected)
            << faultKindName(Fault.Kind) << " at op " << Fault.OpIndex
            << ", addr " << Fault.Address << " escaped detection";
      if (Result.FaultsInjected > 0) {
        EXPECT_GT(Result.CheckViolations, 0u);
      }
      TotalInjected += Result.FaultsInjected;
    }
  }
  EXPECT_GT(TotalInjected, 0u) << "plan injected nothing — rates too low";
}

TEST(InjectEfficacyTest, ModernBackendFaultSitesAreCheckLevelInvariant) {
  auto Corpus = loadCorpus();
  for (const auto &[Name, Events] : Corpus) {
    for (AllocatorKind Kind :
         {AllocatorKind::BitmapFit, AllocatorKind::SpaceFit}) {
      SCOPED_TRACE(Name + "/" + allocatorKindName(Kind));
      RunResult Full =
          runScriptExperiment(scriptConfig(Kind, CheckLevel::Full), Events);
      RunResult Off =
          runScriptExperiment(scriptConfig(Kind, CheckLevel::Off), Events);
      ASSERT_EQ(Full.Faults.size(), Off.Faults.size());
      for (size_t I = 0; I != Full.Faults.size(); ++I) {
        EXPECT_EQ(Full.Faults[I].Kind, Off.Faults[I].Kind);
        EXPECT_EQ(Full.Faults[I].OpIndex, Off.Faults[I].OpIndex);
        EXPECT_EQ(Full.Faults[I].Address, Off.Faults[I].Address);
      }
    }
  }
}

TEST(InjectEfficacyTest, RepeatedRunsAreBitIdentical) {
  auto Corpus = loadCorpus();
  const auto &[Name, Events] = Corpus.front();
  ExperimentConfig Config =
      scriptConfig(AllocatorKind::GnuGxx, CheckLevel::Full);
  RunResult A = runScriptExperiment(Config, Events);
  RunResult B = runScriptExperiment(Config, Events);
  ASSERT_EQ(A.Faults.size(), B.Faults.size());
  for (size_t I = 0; I != A.Faults.size(); ++I)
    EXPECT_TRUE(A.Faults[I] == B.Faults[I]);
  EXPECT_EQ(A.FaultsDetected, B.FaultsDetected);
}
