#include "src/core/violation_finder.h"

#include <gtest/gtest.h>

#include "src/core/analysis_context.h"
#include "tests/core/test_helpers.h"

namespace lockdoc {
namespace {

// 19 locked writes + 1 lockless write at a distinctive location.
TestWorld MakeBuggyWorld() {
  TestWorld world;
  FunctionScope fn(*world.sim, "fs/widget.c", "widget_update", 1, 99);
  ObjectRef obj = world.sim->Create(world.type, kNoSubclass, 1);
  for (int i = 0; i < 19; ++i) {
    world.sim->Lock(obj, world.spin, 10);
    world.sim->Write(obj, world.data, 11);
    world.sim->Unlock(obj, world.spin, 12);
  }
  {
    FunctionScope buggy(*world.sim, "fs/widget.c", "widget_fastpath", 60, 70);
    world.sim->Write(obj, world.data, 66);
  }
  world.sim->Destroy(obj, 98);
  return world;
}

TEST(ViolationFinderTest, FindsTheLocklessWrite) {
  TestWorld world = MakeBuggyWorld();
  AnalysisSnapshot snapshot = world.Snapshot();
  AnalysisContext context(&snapshot, world.registry.get());
  const std::vector<DerivationResult>& rules = context.rules();
  ViolationFinder finder(context);
  std::vector<Violation> violations = finder.FindAll(rules);

  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].access, AccessType::kWrite);
  EXPECT_EQ(LockSeqToString(violations[0].rule), "ES(w_lock in widget)");
  EXPECT_TRUE(violations[0].held.empty());
  EXPECT_EQ(violations[0].seqs.size(), 1u);
}

TEST(ViolationFinderTest, ExamplesCarryContext) {
  TestWorld world = MakeBuggyWorld();
  AnalysisSnapshot snapshot = world.Snapshot();
  AnalysisContext context(&snapshot, world.registry.get());
  const std::vector<DerivationResult>& rules = context.rules();
  ViolationFinder finder(context);
  auto examples = finder.Forensics(finder.FindAll(rules), 10).groups;

  ASSERT_EQ(examples.size(), 1u);
  EXPECT_EQ(examples[0].member, "widget.data");
  EXPECT_EQ(examples[0].location, "fs/widget.c:66");
  EXPECT_NE(examples[0].stack.find("widget_fastpath"), std::string::npos);
  EXPECT_EQ(examples[0].events, 1u);
}

TEST(ViolationFinderTest, SummaryCountsEventsMembersContexts) {
  TestWorld world = MakeBuggyWorld();
  AnalysisSnapshot snapshot = world.Snapshot();
  AnalysisContext context(&snapshot, world.registry.get());
  const std::vector<DerivationResult>& rules = context.rules();
  ViolationFinder finder(context);
  auto summary = finder.Summarize(finder.FindAll(rules));

  ASSERT_EQ(summary.size(), 1u);
  EXPECT_EQ(summary[0].type_name, "widget");
  EXPECT_EQ(summary[0].events, 1u);
  EXPECT_EQ(summary[0].members, 1u);
  EXPECT_EQ(summary[0].contexts, 1u);
}

TEST(ViolationFinderTest, CleanWorldHasZeroViolationsButSummaryRow) {
  TestWorld world;
  {
    FunctionScope fn(*world.sim, "t.c", "f", 1, 50);
    ObjectRef obj = world.sim->Create(world.type, kNoSubclass, 1);
    for (int i = 0; i < 5; ++i) {
      world.sim->Lock(obj, world.spin, 2);
      world.sim->Write(obj, world.data, 3);
      world.sim->Unlock(obj, world.spin, 4);
    }
    world.sim->Destroy(obj, 5);
  }
  AnalysisSnapshot snapshot = world.Snapshot();
  AnalysisContext context(&snapshot, world.registry.get());
  const std::vector<DerivationResult>& rules = context.rules();
  ViolationFinder finder(context);
  std::vector<Violation> violations = finder.FindAll(rules);
  EXPECT_TRUE(violations.empty());
  auto summary = finder.Summarize(violations);
  ASSERT_EQ(summary.size(), 1u);  // Observed types appear with zeros.
  EXPECT_EQ(summary[0].events, 0u);
}

TEST(ViolationFinderTest, NoLockWinnersCannotBeViolated) {
  TestWorld world;
  {
    FunctionScope fn(*world.sim, "t.c", "f", 1, 50);
    ObjectRef obj = world.sim->Create(world.type, kNoSubclass, 1);
    // Mixed 50/50 locking: winner is "no lock".
    for (int i = 0; i < 5; ++i) {
      world.sim->Lock(obj, world.spin, 2);
      world.sim->Write(obj, world.data, 3);
      world.sim->Unlock(obj, world.spin, 4);
      world.sim->Write(obj, world.data, 5);
    }
    world.sim->Destroy(obj, 6);
  }
  AnalysisSnapshot snapshot = world.Snapshot();
  AnalysisContext context(&snapshot, world.registry.get());
  const std::vector<DerivationResult>& rules = context.rules();
  ViolationFinder finder(context);
  EXPECT_TRUE(finder.FindAll(rules).empty());
}

TEST(ViolationFinderTest, WoRSuppressedReadsNotCountedAsViolatingEvents) {
  TestWorld world;
  {
    FunctionScope fn(*world.sim, "fs/widget.c", "f", 1, 99);
    ObjectRef obj = world.sim->Create(world.type, kNoSubclass, 1);
    for (int i = 0; i < 19; ++i) {
      world.sim->Lock(obj, world.spin, 10);
      world.sim->Write(obj, world.data, 11);
      world.sim->Unlock(obj, world.spin, 12);
    }
    // The violating transaction both reads and writes; only the write
    // events count (the read was folded away by write-over-read).
    world.sim->LockGlobal(world.global_a, 20);
    world.sim->Read(obj, world.data, 21);
    world.sim->Write(obj, world.data, 22);
    world.sim->UnlockGlobal(world.global_a, 23);
    world.sim->Destroy(obj, 98);
  }
  AnalysisSnapshot snapshot = world.Snapshot();
  AnalysisContext context(&snapshot, world.registry.get());
  const std::vector<DerivationResult>& rules = context.rules();
  ViolationFinder finder(context);
  std::vector<Violation> violations = finder.FindAll(rules);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].seqs.size(), 1u);  // The write only.
}

// A hand-built winner naming a lock class the store never interned (the
// widget's mutex is never taken): no held sequence can contain it, so every
// group of its (member, access) violates it and none can be the nearest
// complying access.
TEST(ViolationFinderTest, UninternedRuleClassViolatesEveryGroup) {
  TestWorld world = MakeBuggyWorld();
  AnalysisSnapshot snapshot = world.Snapshot();
  AnalysisContext context(&snapshot, world.registry.get());
  const MemberObsKey key = world.Key(world.data);
  DerivationResult result;
  for (const DerivationResult& derived : context.rules()) {
    if (derived.key == key && derived.access == AccessType::kWrite) {
      result = derived;
    }
  }
  ASSERT_TRUE(result.winner.has_value());
  ASSERT_LT(result.winner->sr, 1.0);
  result.winner->locks = ParseLockSeq("ES(w_mutex in widget)").value();
  ASSERT_FALSE(snapshot.observations.pool().FindSeq(result.winner->locks).has_value());

  ViolationFinder finder(context);
  std::vector<Violation> violations = finder.FindAll({result});
  EXPECT_EQ(violations.size(), snapshot.observations.CountObservations(key, AccessType::kWrite));
  EXPECT_EQ(violations.size(), 20u);  // 19 locked writes + the lockless one.
  for (const Violation& violation : violations) {
    EXPECT_EQ(LockSeqToString(violation.rule), "ES(w_mutex in widget)");
    EXPECT_EQ(violation.seqs.size(), 1u);
  }
  ViolationForensics forensics = finder.Forensics(violations, 10);
  ASSERT_EQ(forensics.groups.size(), 2u);  // The locked site and the fast path.
  for (const CexGroupData& group : forensics.groups) {
    EXPECT_FALSE(group.nearest_complying.present) << group.location;
  }
}

}  // namespace
}  // namespace lockdoc
