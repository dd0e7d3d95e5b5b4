#include "src/core/report.h"

#include <gtest/gtest.h>

#include "src/core/analysis_pass.h"
#include "src/vfs/vfs_kernel.h"
#include "src/workload/workloads.h"

namespace lockdoc {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    MixOptions mix;
    mix.ops = 4000;
    mix.seed = 4;
    sim_ = new SimulationResult(SimulateKernelRun(mix, FaultPlan{}));
    snapshot_ = new AnalysisSnapshot(BuildSnapshot(sim_->trace, *sim_->registry, Options()));
  }
  static void TearDownTestSuite() {
    delete snapshot_;
    delete sim_;
    snapshot_ = nullptr;
    sim_ = nullptr;
  }

  static PipelineOptions Options() {
    PipelineOptions options;
    options.filter = VfsKernel::MakeFilterConfig();
    return options;
  }

  // The text of the `report` pass over the fixture's snapshot.
  static std::string Report(const PassOptions& opts) {
    AnalysisContext context(snapshot_, sim_->registry.get(), {Options(), opts});
    PassOutput out;
    Status status = PassRegistry::Default().Find("report")->Run(context, out);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return out.text;
  }

  static SimulationResult* sim_;
  static AnalysisSnapshot* snapshot_;
};

SimulationResult* ReportTest::sim_ = nullptr;
AnalysisSnapshot* ReportTest::snapshot_ = nullptr;

TEST_F(ReportTest, ContainsAllSections) {
  PassOptions opts;
  opts.documented_rules_text = VfsKernel::DocumentedRulesText();
  std::string report = Report(opts);

  EXPECT_NE(report.find("trace statistics"), std::string::npos);
  EXPECT_NE(report.find("documented-rule validation"), std::string::npos);
  EXPECT_NE(report.find("mined locking rules"), std::string::npos);
  EXPECT_NE(report.find("locking-rule violations"), std::string::npos);
  EXPECT_NE(report.find("lock ordering"), std::string::npos);
  EXPECT_NE(report.find("reader/writer acquisition modes"), std::string::npos);
  // Content spot checks.
  EXPECT_NE(report.find("inode:ext4"), std::string::npos);
  EXPECT_NE(report.find("total violating events:"), std::string::npos);
  EXPECT_NE(report.find("ABBA conflicts"), std::string::npos);
}

// Without documented rules or --full the validation and documentation
// sections are left out; every analysis section is always there.
TEST_F(ReportTest, SectionsAreOptional) {
  std::string report = Report(PassOptions{});
  EXPECT_EQ(report.find("documented-rule validation"), std::string::npos);
  EXPECT_EQ(report.find("generated documentation"), std::string::npos);
  EXPECT_NE(report.find("mined locking rules"), std::string::npos);
  EXPECT_NE(report.find("lock ordering"), std::string::npos);
  EXPECT_NE(report.find("acquisition modes"), std::string::npos);
}

TEST_F(ReportTest, FullDocumentationIncludesCommentBlocks) {
  PassOptions opts;
  opts.report_full = true;
  std::string report = Report(opts);
  EXPECT_NE(report.find("generated documentation"), std::string::npos);
  EXPECT_NE(report.find("locking rules (generated by LockDoc)"), std::string::npos);
}

}  // namespace
}  // namespace lockdoc
