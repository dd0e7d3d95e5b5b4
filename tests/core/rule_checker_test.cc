#include "src/core/rule_checker.h"

#include <gtest/gtest.h>

#include "tests/core/test_helpers.h"

namespace lockdoc {
namespace {

// World where `data` is written 9 times under the spinlock and once without.
TestWorld MakeMostlyLockedWorld() {
  TestWorld world;
  FunctionScope fn(*world.sim, "t.c", "f", 1, 50);
  ObjectRef obj = world.sim->Create(world.type, kNoSubclass, 1);
  for (int i = 0; i < 9; ++i) {
    world.sim->Lock(obj, world.spin, 2);
    world.sim->Write(obj, world.data, 3);
    world.sim->Unlock(obj, world.spin, 4);
  }
  world.sim->Write(obj, world.data, 5);  // One lockless write.
  world.sim->Destroy(obj, 6);
  return world;
}

LockingRule MakeRule(const std::string& member, AccessType access, const std::string& locks) {
  LockingRule rule;
  rule.member = {"widget", "", member};
  rule.access = access;
  rule.locks = ParseLockSeq(locks).value();
  return rule;
}

TEST(RuleCheckerTest, AmbivalentRule) {
  TestWorld world = MakeMostlyLockedWorld();
  AnalysisSnapshot snapshot = world.Snapshot();
  AnalysisContext context(&snapshot, world.registry.get());
  RuleChecker checker(context);
  RuleCheckResult result =
      checker.Check(MakeRule("data", AccessType::kWrite, "ES(w_lock in widget)"));
  EXPECT_EQ(result.verdict, RuleVerdict::kAmbivalent);
  EXPECT_EQ(result.total, 10u);
  EXPECT_EQ(result.sa, 9u);
  EXPECT_DOUBLE_EQ(result.sr, 0.9);
}

TEST(RuleCheckerTest, CorrectRule) {
  TestWorld world;
  {
    FunctionScope fn(*world.sim, "t.c", "f", 1, 50);
    ObjectRef obj = world.sim->Create(world.type, kNoSubclass, 1);
    world.sim->Lock(obj, world.spin, 2);
    world.sim->Write(obj, world.extra, 3);
    world.sim->Unlock(obj, world.spin, 4);
    world.sim->Destroy(obj, 5);
  }
  AnalysisSnapshot snapshot = world.Snapshot();
  AnalysisContext context(&snapshot, world.registry.get());
  RuleChecker checker(context);
  RuleCheckResult result =
      checker.Check(MakeRule("extra", AccessType::kWrite, "ES(w_lock in widget)"));
  EXPECT_EQ(result.verdict, RuleVerdict::kCorrect);
  EXPECT_DOUBLE_EQ(result.sr, 1.0);
}

TEST(RuleCheckerTest, IncorrectRule) {
  TestWorld world = MakeMostlyLockedWorld();
  AnalysisSnapshot snapshot = world.Snapshot();
  AnalysisContext context(&snapshot, world.registry.get());
  RuleChecker checker(context);
  RuleCheckResult result =
      checker.Check(MakeRule("data", AccessType::kWrite, "global_b"));
  EXPECT_EQ(result.verdict, RuleVerdict::kIncorrect);
  EXPECT_EQ(result.sa, 0u);
}

TEST(RuleCheckerTest, UnobservedCases) {
  TestWorld world = MakeMostlyLockedWorld();
  AnalysisSnapshot snapshot = world.Snapshot();
  AnalysisContext context(&snapshot, world.registry.get());
  RuleChecker checker(context);
  // Never-read member.
  EXPECT_EQ(checker.Check(MakeRule("data", AccessType::kRead, "global_a")).verdict,
            RuleVerdict::kUnobserved);
  // Unknown member / type names degrade to unobserved, not a crash.
  LockingRule unknown_member = MakeRule("no_such_member", AccessType::kWrite, "global_a");
  EXPECT_EQ(checker.Check(unknown_member).verdict, RuleVerdict::kUnobserved);
  LockingRule unknown_type = unknown_member;
  unknown_type.member.type_name = "no_such_type";
  EXPECT_EQ(checker.Check(unknown_type).verdict, RuleVerdict::kUnobserved);
}

TEST(RuleCheckerTest, NoLockRuleIsTriviallyCorrectWhenObserved) {
  TestWorld world = MakeMostlyLockedWorld();
  AnalysisSnapshot snapshot = world.Snapshot();
  AnalysisContext context(&snapshot, world.registry.get());
  RuleChecker checker(context);
  RuleCheckResult result = checker.Check(MakeRule("data", AccessType::kWrite, "no lock"));
  EXPECT_EQ(result.verdict, RuleVerdict::kCorrect);
}

TEST(RuleCheckerTest, SubclassScoping) {
  TestWorld world;
  SubclassId red = world.registry->RegisterSubclass(world.type, "red");
  SubclassId blue = world.registry->RegisterSubclass(world.type, "blue");
  {
    FunctionScope fn(*world.sim, "t.c", "f", 1, 50);
    ObjectRef r = world.sim->Create(world.type, red, 1);
    ObjectRef b = world.sim->Create(world.type, blue, 2);
    // red instances are locked, blue are not.
    world.sim->Lock(r, world.spin, 3);
    world.sim->Write(r, world.data, 4);
    world.sim->Unlock(r, world.spin, 5);
    world.sim->Write(b, world.data, 6);
    world.sim->Destroy(r, 7);
    world.sim->Destroy(b, 8);
  }
  AnalysisSnapshot snapshot = world.Snapshot();
  AnalysisContext context(&snapshot, world.registry.get());
  RuleChecker checker(context);

  LockingRule rule = MakeRule("data", AccessType::kWrite, "ES(w_lock in widget)");
  rule.member.subclass = "red";
  EXPECT_EQ(checker.Check(rule).verdict, RuleVerdict::kCorrect);
  rule.member.subclass = "blue";
  EXPECT_EQ(checker.Check(rule).verdict, RuleVerdict::kIncorrect);
  rule.member.subclass = "";  // Union of all subclasses: ambivalent.
  EXPECT_EQ(checker.Check(rule).verdict, RuleVerdict::kAmbivalent);
}

TEST(RuleCheckerTest, SummarizeBucketsByType) {
  TestWorld world = MakeMostlyLockedWorld();
  AnalysisSnapshot snapshot = world.Snapshot();
  AnalysisContext context(&snapshot, world.registry.get());
  RuleChecker checker(context);
  RuleSet rules;
  rules.Add(MakeRule("data", AccessType::kWrite, "ES(w_lock in widget)"));   // ~
  rules.Add(MakeRule("data", AccessType::kWrite, "global_b"));               // #
  rules.Add(MakeRule("data", AccessType::kRead, "global_a"));                // unobserved
  auto summaries = RuleChecker::Summarize(checker.CheckAll(rules));
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].type_name, "widget");
  EXPECT_EQ(summaries[0].documented, 3u);
  EXPECT_EQ(summaries[0].unobserved, 1u);
  EXPECT_EQ(summaries[0].observed, 2u);
  EXPECT_EQ(summaries[0].ambivalent, 1u);
  EXPECT_EQ(summaries[0].incorrect, 1u);
  EXPECT_DOUBLE_EQ(summaries[0].ambivalent_pct(), 50.0);
}

TEST(RuleCheckerTest, VerdictSymbols) {
  EXPECT_EQ(RuleVerdictSymbol(RuleVerdict::kCorrect), "!");
  EXPECT_EQ(RuleVerdictSymbol(RuleVerdict::kAmbivalent), "~");
  EXPECT_EQ(RuleVerdictSymbol(RuleVerdict::kIncorrect), "#");
  EXPECT_EQ(RuleVerdictSymbol(RuleVerdict::kUnobserved), "-");
}

}  // namespace
}  // namespace lockdoc
