// Quickstart: the paper's clock-counter example (Sec. 4) end to end.
//
// Builds a trace of 1000 correct executions plus one buggy one, runs the
// LockDoc pipeline, prints the per-variable observations (Tab. 1), the
// hypothesis ranking for writes to `minutes` (Tab. 2), and the detected
// rule violation.
//
// Usage: quickstart [--iterations=N] [--tac=0.9]
#include <cstdio>

#include "src/core/analysis_context.h"
#include "src/core/clock_example.h"
#include "src/core/pipeline.h"
#include "src/core/violation_finder.h"
#include "src/util/flags.h"
#include "src/util/stats.h"
#include "src/util/string_util.h"

using namespace lockdoc;

int main(int argc, char** argv) {
  FlagSet flags;
  std::string error;
  if (!flags.Parse(argc, argv, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  ClockExampleOptions clock_options;
  clock_options.iterations = static_cast<int>(flags.GetUint64("iterations", 1000));
  ClockExample example = BuildClockExample(clock_options);

  PipelineOptions options;
  options.derivator.accept_threshold = flags.GetDouble("tac", 0.9);
  options.derivator.enumerate_permutations = true;
  PipelineResult result = RunPipeline(example.trace, *example.registry, options);

  std::printf("clock example: %zu events, %llu transactions\n\n", example.trace.size(),
              static_cast<unsigned long long>(result.snapshot.import_stats.txns));

  // Per-variable derivation results.
  for (const DerivationResult& rule : result.rules) {
    const TypeLayout& layout = example.registry->layout(rule.key.type);
    std::printf("%s.%s [%s]: %llu observations, winner: %s (sa=%llu, sr=%s)\n",
                layout.name().c_str(), layout.member(rule.key.member).name.c_str(),
                AccessTypeName(rule.access), static_cast<unsigned long long>(rule.total),
                LockSeqToString(rule.winner->locks).c_str(),
                static_cast<unsigned long long>(rule.winner->sa),
                FormatPercent(rule.winner->sr).c_str());
  }

  // Tab. 2: all hypotheses for writes to `minutes`.
  std::printf("\nhypotheses for writing 'minutes' (paper Tab. 2):\n");
  MemberObsKey minutes_key;
  minutes_key.type = example.clock_type;
  minutes_key.subclass = kNoSubclass;
  minutes_key.member = example.minutes;
  RuleDerivator derivator(options.derivator);
  DerivationResult minutes =
      derivator.Derive(result.snapshot.observations, minutes_key, AccessType::kWrite);
  TextTable table({"ID", "Locking Hypothesis", "sa", "sr"});
  int id = 0;
  for (const Hypothesis& hypothesis : minutes.hypotheses) {
    table.AddRow({StrFormat("#%d", id++), LockSeqToString(hypothesis.locks),
                  std::to_string(hypothesis.sa), FormatPercent(hypothesis.sr)});
  }
  std::printf("%s", table.ToString().c_str());

  // The injected bug shows up as a rule violation.
  AnalysisContext context(&result.snapshot, example.registry.get());
  ViolationFinder finder(context);
  std::vector<Violation> violations = finder.FindAll(result.rules);
  std::printf("\nrule violations found: %zu\n", violations.size());
  for (const CexGroupData& ex : finder.Forensics(violations, 5).groups) {
    std::printf("  %s [%s] expected {%s} but held {%s} at %s (%llu events)\n",
                ex.member.c_str(), ex.access.c_str(), ex.rule.c_str(), ex.held.c_str(),
                ex.location.c_str(), static_cast<unsigned long long>(ex.events));
  }
  return 0;
}
