// Calibration stability: the evaluation results must not depend on the
// workload seed. For several seeds, the documented-rule verdicts (Tab. 4)
// and the zero-violation populations (Tab. 7) have to come out identical.
#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/core/rule_checker.h"
#include "src/core/violation_finder.h"
#include "src/vfs/vfs_kernel.h"
#include "src/workload/workloads.h"

namespace lockdoc {
namespace {

class SeedStabilityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedStabilityTest, Tab4VerdictsAndCleanTypesAreSeedIndependent) {
  MixOptions mix;
  mix.ops = 12000;
  mix.seed = GetParam();
  SimulationResult sim = SimulateKernelRun(mix, FaultPlan{});
  PipelineOptions options;
  options.filter = VfsKernel::MakeFilterConfig();
  PipelineResult result = RunPipeline(sim.trace, *sim.registry, options);

  // Tab. 4 verdict counts for struct inode (the paper's headline row).
  auto rules = RuleSet::ParseText(VfsKernel::DocumentedRulesText());
  ASSERT_TRUE(rules.ok());
  AnalysisContext context(&result.snapshot, sim.registry.get());
  RuleChecker checker(context);
  auto summaries = RuleChecker::Summarize(checker.CheckAll(rules.value()));
  for (const RuleCheckSummary& summary : summaries) {
    if (summary.type_name == "inode") {
      EXPECT_EQ(summary.documented, 14u);
      EXPECT_EQ(summary.unobserved, 3u);
      EXPECT_EQ(summary.correct, 2u);
      EXPECT_EQ(summary.ambivalent, 5u);
      EXPECT_EQ(summary.incorrect, 4u);
    }
    if (summary.type_name == "transaction_t") {
      EXPECT_EQ(summary.unobserved, 13u);
      EXPECT_EQ(summary.incorrect, 2u);
    }
  }

  // Tab. 7's violation-free populations stay violation-free.
  ViolationFinder finder(context);
  auto rows = finder.Summarize(finder.FindAll(result.rules));
  for (const ViolationSummaryRow& row : rows) {
    for (const char* clean :
         {"cdev", "journal_head", "transaction_t", "inode:anon_inodefs", "inode:debugfs",
          "inode:pipefs", "inode:proc", "inode:sockfs"}) {
      if (row.type_name == clean) {
        EXPECT_EQ(row.events, 0u) << row.type_name << " seed " << GetParam();
      }
    }
    // And the known-bug populations stay flagged.
    if (row.type_name == "inode:ext4" || row.type_name == "backing_dev_info" ||
        row.type_name == "buffer_head") {
      EXPECT_GT(row.events, 0u) << row.type_name << " seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedStabilityTest, ::testing::Values(3, 17, 101));

}  // namespace
}  // namespace lockdoc
