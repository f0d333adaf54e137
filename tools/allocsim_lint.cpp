//===- tools/allocsim_lint.cpp - Static script/spec linter ----------------===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
// TraceLint's command-line front end: lints allocation-event scripts and
// matrix specs without running a single simulated instruction, reporting
// every finding (not just the first) with file:line:column and a stable
// rule id. A matrix spec goes through parseMatrixSpec, the parser every
// allocsim_cli run uses, into a scratch spec.
//
// Usage:
//   allocsim_lint [options] [script.events ...]
//
//   --matrix "<spec>"  also lint a --matrix experiment spec
//   --json             emit the allocsim-lint-v1 JSON report on stdout
//                      (includes static predictions for clean scripts)
//   --predictions      with the human output, print each clean script's
//                      static predictions as JSON
//
// Exit status mirrors allocsim_cli's contract:
//   0  every input linted clean
//   1  at least one finding (error or warning) was reported
//   2  usage error or unreadable input
//
// CI runs this over tests/corpus/ and the golden matrix specs; corpus
// scripts must lint clean so every downstream consumer (fuzzer seeds,
// cross-check tests, replay examples) can assume sound lifetimes.
//
//===----------------------------------------------------------------------===//

#include "analyze/LintReport.h"
#include "analyze/TraceLint.h"
#include "core/MatrixRunner.h"
#include "support/CommandLine.h"

#include <fstream>
#include <iostream>

using namespace allocsim;

namespace {

int usageError(const std::string &Message) {
  std::cerr << "allocsim_lint: error: " << Message << "\n";
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine Cli;
  Cli.addFlag("matrix", "", "experiment matrix spec to lint");
  Cli.addFlag("json", "false",
              "emit the allocsim-lint-v1 JSON report on stdout");
  Cli.addFlag("predictions", "false",
              "print static predictions for clean scripts (human output)");
  if (!Cli.parse(Argc, Argv))
    return 2;

  if (Cli.positional().empty() && Cli.getString("matrix").empty())
    return usageError(
        "nothing to lint: name event-script files and/or --matrix \"...\"");

  std::vector<LintInput> Inputs;
  for (const std::string &Path : Cli.positional()) {
    std::ifstream In(Path);
    if (!In)
      return usageError("cannot read '" + Path + "'");
    LintInput Input;
    Input.Name = Path;
    Input.Kind = "trace";
    std::vector<LocatedAllocEvent> Events =
        lintTraceScript(In, Input.Diags);
    if (Input.Diags.errorCount() == 0)
      Input.Predictions = predictTrace(buildTraceModel(std::move(Events)));
    Inputs.push_back(std::move(Input));
  }
  if (!Cli.getString("matrix").empty()) {
    LintInput Input;
    Input.Name = "--matrix";
    Input.Kind = "matrix-spec";
    MatrixSpec Scratch;
    parseMatrixSpec(Cli.getString("matrix"), Scratch, Input.Diags);
    Inputs.push_back(std::move(Input));
  }

  if (Cli.getBool("json")) {
    writeLintReportJson(std::cout, Inputs);
  } else {
    printLintReport(std::cout, Inputs);
    if (Cli.getBool("predictions"))
      for (const LintInput &Input : Inputs)
        if (Input.Predictions) {
          std::cout << Input.Name << ": predictions: ";
          writeTracePredictionsJson(std::cout, *Input.Predictions, "");
          std::cout << "\n";
        }
  }
  return summarizeLint(Inputs).clean() ? 0 : 1;
}
