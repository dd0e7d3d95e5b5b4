// Full-pipeline integration: simulate -> archive/restore trace -> import ->
// derive -> check documentation -> find violations, asserting the
// cross-stage invariants the paper's workflow depends on.
#include <filesystem>
#include <sstream>

#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/core/rule_checker.h"
#include "src/core/violation_finder.h"
#include "src/db/schema.h"
#include "src/trace/trace_io.h"
#include "src/vfs/vfs_kernel.h"
#include "src/workload/workloads.h"

namespace lockdoc {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    MixOptions mix;
    mix.ops = 20000;
    mix.seed = 2;
    sim_ = new SimulationResult(SimulateKernelRun(mix, FaultPlan{}));
    PipelineOptions options;
    options.filter = VfsKernel::MakeFilterConfig();
    result_ = new PipelineResult(RunPipeline(sim_->trace, *sim_->registry, options));
  }
  static void TearDownTestSuite() {
    delete result_;
    delete sim_;
    result_ = nullptr;
    sim_ = nullptr;
  }

  static SimulationResult* sim_;
  static PipelineResult* result_;
};

SimulationResult* EndToEndTest::sim_ = nullptr;
PipelineResult* EndToEndTest::result_ = nullptr;

TEST_F(EndToEndTest, ArchivedTraceAnalyzesIdentically) {
  std::ostringstream out;
  WriteTrace(sim_->trace, out);
  std::istringstream in(out.str());
  auto restored = ReadTrace(in);
  ASSERT_TRUE(restored.ok());

  PipelineOptions options;
  options.filter = VfsKernel::MakeFilterConfig();
  PipelineResult replay = RunPipeline(restored.value(), *sim_->registry, options);
  EXPECT_EQ(replay.snapshot.import_stats.accesses_kept, result_->snapshot.import_stats.accesses_kept);
  EXPECT_EQ(replay.snapshot.import_stats.txns, result_->snapshot.import_stats.txns);
  ASSERT_EQ(replay.rules.size(), result_->rules.size());
  for (size_t i = 0; i < replay.rules.size(); ++i) {
    EXPECT_EQ(LockSeqToString(replay.rules[i].winner->locks),
              LockSeqToString(result_->rules[i].winner->locks));
    EXPECT_EQ(replay.rules[i].total, result_->rules[i].total);
  }
}

TEST_F(EndToEndTest, EveryKeptAccessBelongsToExactlyOneTransaction) {
  const Table& accesses = result_->snapshot.db.table(LockDocSchema::kAccesses);
  const Table& txns = result_->snapshot.db.table(LockDocSchema::kTxns);
  const size_t kTxnCol = accesses.ColumnIndex("txn_id");
  const size_t kSeqCol = accesses.ColumnIndex("seq");
  const size_t kStart = txns.ColumnIndex("start_seq");
  const size_t kEnd = txns.ColumnIndex("end_seq");
  size_t checked = 0;
  accesses.Scan([&](RowId row) {
    uint64_t txn = accesses.GetUint64(row, kTxnCol);
    if (txn == kDbNull) {
      return true;
    }
    uint64_t seq = accesses.GetUint64(row, kSeqCol);
    EXPECT_GE(seq, txns.GetUint64(txn, kStart));
    uint64_t end = txns.GetUint64(txn, kEnd);
    if (end != kDbNull) {
      EXPECT_LE(seq, end);
    }
    ++checked;
    return checked < 5000;  // A large sample is enough.
  });
  EXPECT_GT(checked, 1000u);
}

TEST_F(EndToEndTest, TransactionLockListsAreComplete) {
  const Table& txns = result_->snapshot.db.table(LockDocSchema::kTxns);
  const Table& txn_locks = result_->snapshot.db.table(LockDocSchema::kTxnLocks);
  const size_t kNLocks = txns.ColumnIndex("n_locks");
  const size_t kTlTxn = txn_locks.ColumnIndex("txn_id");
  for (uint64_t txn = 0; txn < std::min<uint64_t>(txns.row_count(), 2000); ++txn) {
    EXPECT_EQ(txn_locks.LookupEqual(kTlTxn, txn).size(), txns.GetUint64(txn, kNLocks));
  }
}

TEST_F(EndToEndTest, ObservationTotalsConsistentWithSupports) {
  for (const DerivationResult& rule : result_->rules) {
    ASSERT_TRUE(rule.winner.has_value());
    EXPECT_LE(rule.winner->sa, rule.total);
    EXPECT_GE(rule.winner->sr, 0.9 - 1e-9);  // Winner cleared the threshold.
    EXPECT_EQ(rule.total,
              result_->snapshot.observations.CountObservations(rule.key, rule.access));
  }
}

TEST_F(EndToEndTest, DocumentedRulesVerdictsMatchPaperShape) {
  auto rules = RuleSet::ParseText(VfsKernel::DocumentedRulesText());
  ASSERT_TRUE(rules.ok());
  AnalysisContext context(&result_->snapshot, sim_->registry.get());
  RuleChecker checker(context);
  auto summaries = RuleChecker::Summarize(checker.CheckAll(rules.value()));
  ASSERT_EQ(summaries.size(), 5u);
  uint64_t documented = 0;
  for (const RuleCheckSummary& summary : summaries) {
    documented += summary.documented;
    // Every type has at least one imperfect rule (the paper's headline:
    // only ~53 % of documented rules are consistently followed).
    EXPECT_GT(summary.ambivalent + summary.incorrect + summary.unobserved, 0u)
        << summary.type_name;
  }
  EXPECT_EQ(documented, 142u);
}

TEST_F(EndToEndTest, ViolationsReferenceRealTraceEvents) {
  AnalysisContext context(&result_->snapshot, sim_->registry.get());
  ViolationFinder finder(context);
  std::vector<Violation> violations = finder.FindAll(result_->rules);
  ASSERT_FALSE(violations.empty());
  for (const Violation& violation : violations) {
    EXPECT_FALSE(IsSubsequence(violation.rule, violation.held));
    for (uint64_t seq : violation.seqs) {
      ASSERT_LT(seq, sim_->trace.size());
      EXPECT_TRUE(IsMemAccess(sim_->trace.event(seq)));
      EXPECT_EQ(AccessTypeOf(sim_->trace.event(seq)), violation.access);
    }
  }
}

TEST_F(EndToEndTest, KnownInjectedBugsAreFound) {
  AnalysisContext context(&result_->snapshot, sim_->registry.get());
  ViolationFinder finder(context);
  auto examples = finder.Forensics(finder.FindAll(result_->rules), SIZE_MAX).groups;
  bool i_hash_at_507 = false;
  bool d_subdirs_rcu = false;
  for (const CexGroupData& ex : examples) {
    if (ex.location == "fs/inode.c:507" && ex.member.find("i_hash") != std::string::npos) {
      i_hash_at_507 = true;
    }
    if (ex.location == "fs/libfs.c:104" && ex.member == "dentry.d_subdirs") {
      EXPECT_NE(ex.held.find("rcu"), std::string::npos);
      d_subdirs_rcu = true;
    }
  }
  EXPECT_TRUE(i_hash_at_507);
  EXPECT_TRUE(d_subdirs_rcu);
}

TEST_F(EndToEndTest, DatabaseCsvRoundTrip) {
  std::string dir = ::testing::TempDir() + "/lockdoc_e2e_db";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(result_->snapshot.db.ExportDirectory(dir).ok());

  Database restored;
  CreateLockDocSchema(&restored);
  ASSERT_TRUE(restored.ImportDirectory(dir).ok());
  EXPECT_EQ(restored.table(LockDocSchema::kAccesses).row_count(),
            result_->snapshot.db.table(LockDocSchema::kAccesses).row_count());

  ObservationStore replay = ExtractObservations(restored, *sim_->registry);
  EXPECT_EQ(replay.keys(), result_->snapshot.observations.keys());
  EXPECT_EQ(replay.group_count(), result_->snapshot.observations.group_count());
}

}  // namespace
}  // namespace lockdoc
