// The determinism contract, end to end: every user-visible analysis artifact
// (full report, generated documentation, rule checking, violations) must be
// byte-identical at any --jobs value. Runs the built-in workloads — including
// a damaged trace read back through salvage — at 1, 2, and 8 jobs and
// compares the rendered output against the serial run.
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/analysis_pass.h"
#include "src/core/doc_generator.h"
#include "src/core/pipeline.h"
#include "src/core/rule_checker.h"
#include "src/core/violation_finder.h"
#include "src/trace/trace_io.h"
#include "src/util/string_util.h"
#include "src/vfs/vfs_kernel.h"
#include "src/workload/workloads.h"

namespace lockdoc {
namespace {

// Renders everything downstream of a trace into one deterministic blob.
std::string AnalyzeToText(const Trace& trace, const TypeRegistry& registry, size_t jobs) {
  AnalysisOptions options;
  options.pipeline.filter = VfsKernel::MakeFilterConfig();
  options.pipeline.jobs = jobs;
  options.pass.documented_rules_text = VfsKernel::DocumentedRulesText();
  options.pass.report_full = true;
  PipelineResult result = RunPipeline(trace, registry, options.pipeline);
  AnalysisContext context(&result.snapshot, &registry, options);

  std::string out;

  // 1. The full report (mining summary, violations, lock order, modes,
  //    generated documentation).
  PassOutput report;
  Status status = PassRegistry::Default().Find("report")->Run(context, report);
  EXPECT_TRUE(status.ok()) << status.ToString();
  out += report.text;

  // 2. Rule checking against the documented rules.
  auto rules = RuleSet::ParseText(VfsKernel::DocumentedRulesText());
  if (rules.ok()) {
    RuleChecker checker(context);
    for (const RuleCheckResult& r : checker.CheckAll(rules.value())) {
      out += StrFormat("%s %s sa=%llu total=%llu sr=%.6f\n",
                       std::string(RuleVerdictSymbol(r.verdict)).c_str(),
                       r.rule.ToString().c_str(), static_cast<unsigned long long>(r.sa),
                       static_cast<unsigned long long>(r.total), r.sr);
    }
  }

  // 3. Violations, raw and as rendered counterexample groups.
  ViolationFinder finder(context);
  std::vector<Violation> violations = finder.FindAll(result.rules);
  for (const Violation& v : violations) {
    out += StrFormat("violation rule=%s held=%s events=%zu first=%llu\n",
                     LockSeqToString(v.rule).c_str(), LockSeqToString(v.held).c_str(),
                     v.seqs.size(),
                     static_cast<unsigned long long>(v.seqs.empty() ? 0 : v.seqs[0]));
  }
  for (const CexGroupData& ex : finder.Forensics(violations, 25).groups) {
    out += StrFormat("example %s [%s] rule=%s held=%s at=%s stack=%s events=%llu\n",
                     ex.member.c_str(), ex.access.c_str(), ex.rule.c_str(), ex.held.c_str(),
                     ex.location.c_str(), ex.stack.c_str(),
                     static_cast<unsigned long long>(ex.events));
  }

  // 4. Documentation for every population, comment and rule-spec form.
  DocGenOptions doc_options;
  doc_options.include_support = true;
  DocGenerator generator(&registry, doc_options);
  for (TypeId type = 0; type < registry.type_count(); ++type) {
    std::vector<SubclassId> subclasses = {kNoSubclass};
    for (SubclassId sub : registry.SubclassesOf(type)) {
      subclasses.push_back(sub);
    }
    for (SubclassId sub : subclasses) {
      out += generator.Generate(type, sub, result.rules);
      out += generator.GenerateRuleSpec(type, sub, result.rules);
    }
  }
  return out;
}

void ExpectIdenticalAcrossJobCounts(const Trace& trace, const TypeRegistry& registry) {
  std::string serial = AnalyzeToText(trace, registry, 1);
  ASSERT_FALSE(serial.empty());
  for (size_t jobs : {2, 8}) {
    std::string parallel = AnalyzeToText(trace, registry, jobs);
    ASSERT_EQ(parallel, serial) << "output diverged at jobs=" << jobs;
  }
}

TEST(ParallelGoldenTest, StandardMixIsByteIdenticalAcrossJobCounts) {
  MixOptions mix;
  mix.ops = 8000;
  mix.seed = 7;
  SimulationResult sim = SimulateKernelRun(mix, FaultPlan{});
  ExpectIdenticalAcrossJobCounts(sim.trace, *sim.registry);
}

TEST(ParallelGoldenTest, CleanRunIsByteIdenticalAcrossJobCounts) {
  MixOptions mix;
  mix.ops = 6000;
  mix.seed = 11;
  SimulationResult sim = SimulateKernelRun(mix, FaultPlan::Clean());
  ExpectIdenticalAcrossJobCounts(sim.trace, *sim.registry);
}

// A truncated archive read back through salvage exercises the importer's
// EOF path (transactions forced closed at end of trace) under parallelism.
TEST(ParallelGoldenTest, SalvagedTruncatedTraceIsByteIdenticalAcrossJobCounts) {
  MixOptions mix;
  mix.ops = 8000;
  mix.seed = 13;
  SimulationResult sim = SimulateKernelRun(mix, FaultPlan{});

  std::string path = ::testing::TempDir() + "/parallel_golden_truncated.trace";
  ASSERT_TRUE(WriteTraceToFile(sim.trace, path).ok());
  uintmax_t size = std::filesystem::file_size(path);
  ASSERT_GT(size, 4096u);
  std::filesystem::resize_file(path, size - size / 3);  // Cut mid-record.

  TraceReadOptions read_options;
  read_options.salvage = true;
  TraceReadReport report;
  auto salvaged = ReadTraceFromFile(path, read_options, &report);
  ASSERT_TRUE(salvaged.ok());
  ASSERT_GT(salvaged.value().size(), 0u);
  ASSERT_LT(salvaged.value().size(), sim.trace.size());

  ExpectIdenticalAcrossJobCounts(salvaged.value(), *sim.registry);
}

}  // namespace
}  // namespace lockdoc
