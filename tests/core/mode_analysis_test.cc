#include "src/core/mode_analysis.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>

#include "src/core/analysis_context.h"
#include "src/core/held_locks.h"
#include "src/db/schema.h"
#include "src/vfs/vfs_kernel.h"
#include "src/workload/workloads.h"
#include "tests/core/test_helpers.h"

namespace lockdoc {
namespace {

struct ModeWorld {
  TestWorld world;
  AnalysisSnapshot snapshot;
  std::unique_ptr<AnalysisContext> context;
  std::vector<DerivationResult> rules;

  void Finish() {
    snapshot = world.Snapshot();
    context = std::make_unique<AnalysisContext>(&snapshot, world.registry.get());
    rules = context->rules();
  }
};

TEST(ModeAnalysisTest, ExclusiveOnlyWritesAreNotSuspicious) {
  ModeWorld m;
  {
    FunctionScope fn(*m.world.sim, "t.c", "f", 1, 50);
    ObjectRef obj = m.world.sim->Create(m.world.type, kNoSubclass, 1);
    GlobalLock sem = m.world.sim->DefineStaticLock("sem", LockType::kRwSemaphore);
    for (int i = 0; i < 5; ++i) {
      m.world.sim->LockGlobal(sem, 2);  // Exclusive by default.
      m.world.sim->Write(obj, m.world.data, 3);
      m.world.sim->UnlockGlobal(sem, 4);
    }
    m.world.sim->Destroy(obj, 5);
  }
  m.Finish();
  ModeAnalyzer analyzer(*m.context);
  auto entries = analyzer.Analyze(m.rules);
  ASSERT_FALSE(entries.empty());
  for (const ModeReportEntry& entry : entries) {
    EXPECT_FALSE(entry.suspicious);
  }
  EXPECT_TRUE(analyzer.FindSharedModeWrites(m.rules).empty());
}

TEST(ModeAnalysisTest, WriteUnderSharedHoldIsFlagged) {
  ModeWorld m;
  {
    FunctionScope fn(*m.world.sim, "t.c", "f", 1, 50);
    ObjectRef obj = m.world.sim->Create(m.world.type, kNoSubclass, 1);
    GlobalLock sem = m.world.sim->DefineStaticLock("sem", LockType::kRwSemaphore);
    for (int i = 0; i < 4; ++i) {
      m.world.sim->LockGlobal(sem, 2);
      m.world.sim->Write(obj, m.world.data, 3);
      m.world.sim->UnlockGlobal(sem, 4);
    }
    // One write under a merely-shared hold: the rule is satisfied, but the
    // mode is wrong.
    m.world.sim->LockGlobal(sem, 5, AcquireMode::kShared);
    m.world.sim->Write(obj, m.world.data, 6);
    m.world.sim->UnlockGlobal(sem, 7);
    m.world.sim->Destroy(obj, 8);
  }
  m.Finish();
  ModeAnalyzer analyzer(*m.context);
  auto suspicious = analyzer.FindSharedModeWrites(m.rules);
  ASSERT_EQ(suspicious.size(), 1u);
  ASSERT_EQ(suspicious[0].usages.size(), 1u);
  EXPECT_EQ(suspicious[0].usages[0].shared, 1u);
  EXPECT_EQ(suspicious[0].usages[0].exclusive, 4u);
  EXPECT_NEAR(suspicious[0].usages[0].shared_fraction(), 0.2, 1e-9);

  std::string text;
  for (const ModeReportEntry& entry : suspicious) {
    text += analyzer.RenderEntry(entry);
  }
  EXPECT_NE(text.find("write under shared hold"), std::string::npos);
  EXPECT_NE(text.find("shared=1 exclusive=4"), std::string::npos);
}

TEST(ModeAnalysisTest, SharedReadsAreFine) {
  ModeWorld m;
  {
    FunctionScope fn(*m.world.sim, "t.c", "f", 1, 50);
    ObjectRef obj = m.world.sim->Create(m.world.type, kNoSubclass, 1);
    GlobalLock sem = m.world.sim->DefineStaticLock("sem", LockType::kRwSemaphore);
    for (int i = 0; i < 5; ++i) {
      m.world.sim->LockGlobal(sem, 2, AcquireMode::kShared);
      m.world.sim->Read(obj, m.world.data, 3);
      m.world.sim->UnlockGlobal(sem, 4);
    }
    m.world.sim->Destroy(obj, 5);
  }
  m.Finish();
  ModeAnalyzer analyzer(*m.context);
  auto entries = analyzer.Analyze(m.rules);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].access, AccessType::kRead);
  EXPECT_FALSE(entries[0].suspicious);
  EXPECT_EQ(entries[0].usages[0].shared, 5u);
}

TEST(ModeAnalysisTest, NoLockWinnersAreSkipped) {
  ModeWorld m;
  {
    FunctionScope fn(*m.world.sim, "t.c", "f", 1, 50);
    ObjectRef obj = m.world.sim->Create(m.world.type, kNoSubclass, 1);
    m.world.sim->Write(obj, m.world.data, 2);
    m.world.sim->Destroy(obj, 3);
  }
  m.Finish();
  ModeAnalyzer analyzer(*m.context);
  EXPECT_TRUE(analyzer.Analyze(m.rules).empty());
}

// The string-level reference for mode attribution: every complying group's
// held locks from ClassifyHeldLocks (every txn_locks position, in order),
// greedily matched against the winner by LockClass equality.
std::vector<ModeReportEntry> ReferenceModes(const Database& db, const TypeRegistry& registry,
                                            const ObservationStore& store,
                                            const std::vector<DerivationResult>& results) {
  std::vector<ModeReportEntry> entries;
  for (const DerivationResult& result : results) {
    if (!result.winner.has_value() || result.winner->locks.empty()) {
      continue;
    }
    ModeReportEntry entry;
    entry.key = result.key;
    entry.access = result.access;
    entry.rule = result.winner->locks;
    entry.usages.resize(entry.rule.size());
    for (size_t i = 0; i < entry.rule.size(); ++i) {
      entry.usages[i].lock = entry.rule[i];
    }
    for (const ObservationGroup& group : store.GroupsFor(result.key)) {
      if (group.effective() != result.access ||
          !IsSubsequence(entry.rule, store.seq(group.lockseq_id))) {
        continue;
      }
      size_t rule_pos = 0;
      for (const HeldLockInfo& held :
           ClassifyHeldLocks(db, registry, group.txn_id, group.alloc_id)) {
        if (rule_pos < entry.rule.size() && held.lock_class == entry.rule[rule_pos]) {
          ++(held.mode == AcquireMode::kShared ? entry.usages[rule_pos].shared
                                               : entry.usages[rule_pos].exclusive);
          ++rule_pos;
        }
      }
    }
    for (const ModeUsage& usage : entry.usages) {
      entry.suspicious |= result.access == AccessType::kWrite && usage.shared > 0;
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

void ExpectSameEntries(const std::vector<ModeReportEntry>& actual,
                       const std::vector<ModeReportEntry>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    SCOPED_TRACE(LockSeqToString(expected[i].rule));
    EXPECT_EQ(actual[i].key, expected[i].key);
    EXPECT_EQ(actual[i].access, expected[i].access);
    EXPECT_EQ(actual[i].rule, expected[i].rule);
    EXPECT_EQ(actual[i].suspicious, expected[i].suspicious);
    ASSERT_EQ(actual[i].usages.size(), expected[i].usages.size());
    for (size_t j = 0; j < actual[i].usages.size(); ++j) {
      EXPECT_EQ(actual[i].usages[j].lock, expected[i].usages[j].lock);
      EXPECT_EQ(actual[i].usages[j].shared, expected[i].usages[j].shared);
      EXPECT_EQ(actual[i].usages[j].exclusive, expected[i].usages[j].exclusive);
    }
  }
}

// Transactions holding one lock instance at two positions (a range lock
// taken twice): the case where a walk that skipped or reordered holds
// would credit the mode of the wrong one.
size_t TxnsHoldingALockTwice(const Database& db) {
  const Table& txn_locks = db.table(LockDocSchema::kTxnLocks);
  const size_t kTxn = txn_locks.ColumnIndex("txn_id");
  const size_t kLock = txn_locks.ColumnIndex("lock_id");
  std::set<std::pair<uint64_t, uint64_t>> holds;  // (txn, lock)
  std::set<uint64_t> txns;
  for (RowId row = 0; row < txn_locks.row_count(); ++row) {
    uint64_t txn = txn_locks.GetUint64(row, kTxn);
    if (!holds.insert({txn, txn_locks.GetUint64(row, kLock)}).second) {
      txns.insert(txn);
    }
  }
  return txns.size();
}

AnalysisOptions ModeOptions() {
  AnalysisOptions options;
  options.pipeline.filter = VfsKernel::MakeFilterConfig();
  return options;
}

// Every winner's per-lock usages (`modes --all`) equal the reference at 1,
// 2 and 8 jobs.
void ExpectModesMatchReference(const AnalysisSnapshot& snapshot,
                               const TypeRegistry& registry) {
  AnalysisOptions options = ModeOptions();
  std::vector<ModeReportEntry> expected;
  for (size_t jobs : {1, 2, 8}) {
    SCOPED_TRACE(jobs);
    options.pipeline.jobs = jobs;
    AnalysisContext context(&snapshot, &registry, options);
    const std::vector<DerivationResult>& rules = context.rules();
    if (expected.empty()) {
      expected = ReferenceModes(snapshot.db, registry, snapshot.observations, rules);
      ASSERT_FALSE(expected.empty());
    }
    ExpectSameEntries(ModeAnalyzer(context).Analyze(rules), expected);
  }
}

TEST(ModeAttributionTest, VfsMatchesHeldLockReferenceAtAnyJobs) {
  MixOptions mix;
  mix.ops = 2500;
  mix.seed = 11;
  SimulationResult sim = SimulateKernelRun(mix, FaultPlan{});
  ExpectModesMatchReference(BuildSnapshot(sim.trace, *sim.registry, ModeOptions().pipeline),
                            *sim.registry);
}

TEST(ModeAttributionTest, MmRangeLocksMatchHeldLockReferenceAtAnyJobs) {
  MixOptions mix;
  mix.ops = 3000;
  mix.seed = 7;
  SimulationResult sim = SimulateMmRun(mix, FaultPlan{});
  AnalysisSnapshot snapshot = BuildSnapshot(sim.trace, *sim.registry, ModeOptions().pipeline);
  ASSERT_GT(TxnsHoldingALockTwice(snapshot.db), 0u);
  ExpectModesMatchReference(snapshot, *sim.registry);
}

TEST(ModeAttributionTest, RangeLockHeldTwiceCreditsItsFirstHold) {
  auto registry = std::make_unique<TypeRegistry>();
  auto layout = std::make_unique<TypeLayout>("space");
  MemberIndex data = layout->AddMember("data", 8);
  MemberIndex map_lock = layout->AddLockMember("map_lock", LockType::kRangeLock);
  TypeId type = registry->Register(std::move(layout));
  Trace trace;
  SimKernel sim(&trace, registry.get());
  {
    FunctionScope fn(sim, "t.c", "f", 1, 50);
    ObjectRef obj = sim.CreateWithSpan(type, kNoSubclass, 20, 30, 1);
    for (int i = 0; i < 3; ++i) {
      sim.AcquireRange(obj, map_lock, 0, 10, 2, AcquireMode::kShared);  // Misses obj.
      sim.AcquireRange(obj, map_lock, 20, 30, 3);                        // Covers obj.
      sim.Write(obj, data, 4);
      sim.ReleaseRange(obj, map_lock, 20, 30, 5);
      sim.ReleaseRange(obj, map_lock, 0, 10, 6);
    }
    sim.Destroy(obj, 7);
  }
  AnalysisSnapshot snapshot = BuildSnapshot(trace, *registry);
  AnalysisContext context(&snapshot, registry.get());
  const std::vector<DerivationResult>& rules = context.rules();
  std::vector<ModeReportEntry> entries = ModeAnalyzer(context).Analyze(rules);
  ExpectSameEntries(entries,
                    ReferenceModes(snapshot.db, *registry, snapshot.observations, rules));
  // Pins the current, known-wrong attribution (ROADMAP: mode attribution
  // ignores lock ranges). Only the exclusive hold covers the object, so the
  // rule is mined from it, but the walk is not range-filtered and credits
  // the transaction's first hold of the lock, the shared one: a write under
  // a covering exclusive hold is reported suspicious. The change that
  // range-filters the walk flips these expectations on purpose.
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(LockSeqToString(entries[0].rule), "ES(map_lock in space)");
  EXPECT_EQ(entries[0].usages[0].shared, 3u);
  EXPECT_EQ(entries[0].usages[0].exclusive, 0u);
  EXPECT_TRUE(entries[0].suspicious);
}

}  // namespace
}  // namespace lockdoc
