// The decisive end-to-end property the paper could not have: with every
// injected deviation disabled, the kernel follows its ground-truth locking
// discipline perfectly — so LockDoc must find zero rule violations, and the
// mined rules for key members must match the implemented discipline.
#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/core/violation_finder.h"
#include "src/vfs/vfs_kernel.h"
#include "src/workload/workloads.h"

namespace lockdoc {
namespace {

PipelineResult RunCleanKernel(SimulationResult* sim_out, size_t ops = 6000) {
  MixOptions mix;
  mix.ops = ops;
  mix.seed = 11;
  *sim_out = SimulateKernelRun(mix, FaultPlan::Clean());
  PipelineOptions options;
  options.filter = VfsKernel::MakeFilterConfig();
  return RunPipeline(sim_out->trace, *sim_out->registry, options);
}

TEST(GroundTruthTest, CleanKernelHasZeroViolations) {
  SimulationResult sim;
  PipelineResult result = RunCleanKernel(&sim);
  AnalysisContext context(&result.snapshot, sim.registry.get());
  ViolationFinder finder(context);
  std::vector<Violation> violations = finder.FindAll(result.rules);
  EXPECT_TRUE(violations.empty());
  if (!violations.empty()) {
    for (const CexGroupData& ex : finder.Forensics(violations, 5).groups) {
      ADD_FAILURE() << ex.member << " rule {" << ex.rule << "} held {" << ex.held << "} at "
                    << ex.location;
    }
  }
}

TEST(GroundTruthTest, MinedRulesMatchImplementedDiscipline) {
  SimulationResult sim;
  PipelineResult result = RunCleanKernel(&sim);
  const TypeRegistry& registry = *sim.registry;
  TypeId inode = *registry.FindType("inode");
  SubclassId ext4 = *registry.FindSubclass(inode, "ext4");

  auto winner = [&](const char* member_name, AccessType access) -> std::string {
    MemberObsKey key;
    key.type = inode;
    key.subclass = ext4;
    key.member = *registry.layout(inode).FindMember(member_name);
    RuleDerivator derivator;
    DerivationResult derived = derivator.Derive(result.snapshot.observations, key, access);
    if (!derived.winner.has_value()) {
      return "<unobserved>";
    }
    return LockSeqToString(derived.winner->locks);
  };

  // i_state writes always take i_lock (possibly nested inside other locks —
  // the winner must at least contain ES(i_lock)).
  EXPECT_NE(winner("i_state", AccessType::kWrite).find("ES(i_lock in inode)"),
            std::string::npos);
  // i_bytes writes happen in inode_add_bytes under i_lock.
  EXPECT_NE(winner("i_bytes", AccessType::kWrite).find("ES(i_lock in inode)"),
            std::string::npos);
  // i_io_list belongs to the writeback list lock (EO in the bdi).
  EXPECT_NE(winner("i_io_list", AccessType::kWrite)
                .find("EO(wb.list_lock in backing_dev_info)"),
            std::string::npos);
  // i_size writes are governed by i_rwsem, never i_lock.
  std::string i_size = winner("i_size", AccessType::kWrite);
  EXPECT_NE(i_size.find("i_rwsem"), std::string::npos);
  EXPECT_EQ(i_size.find("i_lock"), std::string::npos);
  // Lockless reads stay lockless.
  EXPECT_EQ(winner("i_rdev", AccessType::kRead), "no lock");
}

TEST(GroundTruthTest, CleanJournalDisciplineRecovered) {
  SimulationResult sim;
  PipelineResult result = RunCleanKernel(&sim);
  const TypeRegistry& registry = *sim.registry;
  TypeId journal = *registry.FindType("journal_t");

  MemberObsKey key;
  key.type = journal;
  key.subclass = kNoSubclass;
  key.member = *registry.layout(journal).FindMember("j_committing_transaction");
  RuleDerivator derivator;
  DerivationResult derived = derivator.Derive(result.snapshot.observations, key, AccessType::kWrite);
  ASSERT_TRUE(derived.winner.has_value());
  std::string rule = LockSeqToString(derived.winner->locks);
  EXPECT_NE(rule.find("ES(j_state_lock in journal_t)"), std::string::npos);
  EXPECT_NE(rule.find("ES(j_list_lock in journal_t)"), std::string::npos);
  EXPECT_DOUBLE_EQ(derived.winner->sr, 1.0);
}

TEST(GroundTruthTest, FaultPlanCreatesViolationsCleanPlanDoesNot) {
  MixOptions mix;
  mix.ops = 6000;
  mix.seed = 11;
  PipelineOptions options;
  options.filter = VfsKernel::MakeFilterConfig();

  SimulationResult faulty = SimulateKernelRun(mix, FaultPlan{});
  PipelineResult faulty_result = RunPipeline(faulty.trace, *faulty.registry, options);
  AnalysisContext faulty_context(&faulty_result.snapshot, faulty.registry.get());
  ViolationFinder faulty_finder(faulty_context);
  EXPECT_FALSE(faulty_finder.FindAll(faulty_result.rules).empty());
}

}  // namespace
}  // namespace lockdoc
