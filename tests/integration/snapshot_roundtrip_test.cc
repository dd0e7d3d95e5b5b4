// The import-once / analyze-many contract on the full VFS workload:
// snapshot bytes must be identical no matter how many threads built the
// analysis, and analyzing a loaded .lockdb must produce byte-identical
// user-visible output to analyzing the original trace.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/analysis_pass.h"
#include "src/core/pipeline.h"
#include "src/core/snapshot.h"
#include "src/util/string_util.h"
#include "src/vfs/vfs_kernel.h"
#include "src/workload/workloads.h"

namespace lockdoc {
namespace {

PipelineOptions VfsOptions(size_t jobs) {
  PipelineOptions options;
  options.filter = VfsKernel::MakeFilterConfig();
  options.jobs = jobs;
  return options;
}

std::string RenderRules(const std::vector<DerivationResult>& rules) {
  std::string out;
  for (const DerivationResult& rule : rules) {
    out += StrFormat("%llu/%u/%u [%d] total=%llu winner=%s\n",
                     static_cast<unsigned long long>(rule.key.type),
                     static_cast<unsigned>(rule.key.subclass),
                     static_cast<unsigned>(rule.key.member), static_cast<int>(rule.access),
                     static_cast<unsigned long long>(rule.total),
                     rule.winner ? LockSeqToString(rule.winner->locks).c_str() : "-");
  }
  return out;
}

TEST(SnapshotRoundTripTest, SnapshotBytesAreIdenticalAcrossJobCounts) {
  MixOptions mix;
  mix.ops = 6000;
  mix.seed = 7;
  SimulationResult sim = SimulateKernelRun(mix, FaultPlan{});

  std::string serial = SerializeSnapshot(
      BuildSnapshot(sim.trace, *sim.registry, VfsOptions(1)), *sim.registry);
  ASSERT_FALSE(serial.empty());
  for (size_t jobs : {2, 8}) {
    std::string parallel = SerializeSnapshot(
        BuildSnapshot(sim.trace, *sim.registry, VfsOptions(jobs)), *sim.registry);
    ASSERT_EQ(parallel, serial) << "snapshot bytes diverged at jobs=" << jobs;
  }
}

// The text of the `report` pass (validation and generated documentation
// included) over `snapshot`, analyzed on `jobs` threads.
std::string ReportText(const AnalysisSnapshot& snapshot, const TypeRegistry& registry,
                       size_t jobs) {
  AnalysisOptions options;
  options.pipeline = VfsOptions(jobs);
  options.pass.documented_rules_text = VfsKernel::DocumentedRulesText();
  options.pass.report_full = true;
  AnalysisContext context(&snapshot, &registry, options);
  PassOutput out;
  Status status = PassRegistry::Default().Find("report")->Run(context, out);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out.text;
}

TEST(SnapshotRoundTripTest, AnalysisFromSnapshotMatchesAnalysisFromTrace) {
  MixOptions mix;
  mix.ops = 6000;
  mix.seed = 9;
  SimulationResult sim = SimulateKernelRun(mix, FaultPlan{});

  // Trace path: build + analyze in one go.
  AnalysisSnapshot built = BuildSnapshot(sim.trace, *sim.registry, VfsOptions(1));
  std::vector<DerivationResult> trace_rules = AnalyzeSnapshot(built, VfsOptions(1));
  std::string bytes = SerializeSnapshot(built, *sim.registry);
  std::string trace_report = ReportText(built, *sim.registry, 1);

  // Snapshot path, at several thread counts: identical rules, identical
  // report, byte for byte.
  for (size_t jobs : {1, 2, 8}) {
    auto loaded = DeserializeSnapshot(bytes, *sim.registry);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    std::vector<DerivationResult> snapshot_rules =
        AnalyzeSnapshot(loaded.value(), VfsOptions(jobs));
    EXPECT_EQ(RenderRules(snapshot_rules), RenderRules(trace_rules)) << "jobs=" << jobs;
    EXPECT_EQ(ReportText(loaded.value(), *sim.registry, jobs), trace_report)
        << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace lockdoc
