// AnalysisContext and the analysis-pass framework: lazy shared indexes are
// memoized (built at most once, timed at most once), the analyzers' group
// walk agrees exactly with a brute-force scan of the store, and pass
// outputs are invariant across thread counts.
#include "src/core/analysis_context.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "src/core/analysis_pass.h"
#include "src/core/rule_checker.h"
#include "src/core/violation_finder.h"
#include "src/db/schema.h"
#include "src/vfs/mm_kernel.h"
#include "src/vfs/vfs_kernel.h"
#include "src/workload/workloads.h"

namespace lockdoc {
namespace {

class AnalysisContextTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    MixOptions mix;
    mix.ops = 2500;
    mix.seed = 11;
    sim_ = new SimulationResult(SimulateKernelRun(mix, FaultPlan{}));
    snapshot_ = new AnalysisSnapshot(
        BuildSnapshot(sim_->trace, *sim_->registry, DefaultOptions().pipeline));
  }
  static void TearDownTestSuite() {
    delete snapshot_;
    delete sim_;
    snapshot_ = nullptr;
    sim_ = nullptr;
  }

  static AnalysisOptions DefaultOptions() {
    AnalysisOptions options;
    options.pipeline.filter = VfsKernel::MakeFilterConfig();
    options.pass.documented_rules_text = VfsKernel::DocumentedRulesText();
    return options;
  }

  static size_t CountPhase(const PipelineTimings& timings, const std::string& name) {
    size_t count = 0;
    for (const PhaseTiming& phase : timings.phases) {
      count += phase.phase == name ? 1 : 0;
    }
    return count;
  }

  static SimulationResult* sim_;
  static AnalysisSnapshot* snapshot_;
};

SimulationResult* AnalysisContextTest::sim_ = nullptr;
AnalysisSnapshot* AnalysisContextTest::snapshot_ = nullptr;

TEST_F(AnalysisContextTest, RulesAreMemoizedAndTimedOnce) {
  AnalysisContext context(snapshot_, sim_->registry.get(), DefaultOptions());
  const std::vector<DerivationResult>& first = context.rules();
  const std::vector<DerivationResult>& second = context.rules();
  EXPECT_EQ(&first, &second);
  EXPECT_FALSE(first.empty());
  // Touch every other index; none of them re-derives.
  context.member_access_index();
  context.lock_postings();
  context.lock_order_graph();
  context.rules();
  EXPECT_EQ(CountPhase(context.timings(), "rule derivation (interned)"), 1u);
}

TEST_F(AnalysisContextTest, RulesMatchAnalyzeSnapshot) {
  AnalysisContext context(snapshot_, sim_->registry.get(), DefaultOptions());
  std::vector<DerivationResult> direct =
      AnalyzeSnapshot(*snapshot_, DefaultOptions().pipeline);
  const std::vector<DerivationResult>& via = context.rules();
  ASSERT_EQ(via.size(), direct.size());
  for (size_t i = 0; i < via.size(); ++i) {
    EXPECT_EQ(via[i].key.type, direct[i].key.type);
    EXPECT_EQ(via[i].key.member, direct[i].key.member);
    EXPECT_EQ(via[i].access, direct[i].access);
    ASSERT_EQ(via[i].winner.has_value(), direct[i].winner.has_value());
    if (via[i].winner.has_value()) {
      EXPECT_EQ(LockSeqToString(via[i].winner->locks),
                LockSeqToString(direct[i].winner->locks));
      EXPECT_DOUBLE_EQ(via[i].winner->sr, direct[i].winner->sr);
    }
  }
}

TEST_F(AnalysisContextTest, ConcurrentFirstUseBuildsOnce) {
  AnalysisContext context(snapshot_, sim_->registry.get(), DefaultOptions());
  const std::vector<DerivationResult>* seen[4] = {};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < 4; ++i) {
    threads.emplace_back([&context, &seen, i] { seen[i] = &context.rules(); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(seen[i], seen[0]);
  }
  EXPECT_EQ(CountPhase(context.timings(), "rule derivation (interned)"), 1u);
}

TEST_F(AnalysisContextTest, TakeRulesMovesTheMemoizedSet) {
  AnalysisContext context(snapshot_, sim_->registry.get(), DefaultOptions());
  size_t derived = context.rules().size();
  std::vector<DerivationResult> taken = context.TakeRules();
  EXPECT_EQ(taken.size(), derived);
}

TEST_F(AnalysisContextTest, MemberAccessIndexMatchesEffectiveScan) {
  const ObservationStore& store = snapshot_->observations;
  MemberAccessIndex index = MemberAccessIndex::Build(store);
  for (size_t k = 0; k < store.keys().size(); ++k) {
    const MemberAccessIndex::Entry* entry = index.Find(store.keys()[k]);
    const auto groups = store.GroupsAt(k);
    ASSERT_NE(entry, nullptr);
    for (AccessType access : {AccessType::kRead, AccessType::kWrite}) {
      std::vector<uint32_t> expected;
      for (size_t i = 0; i < groups.size(); ++i) {
        if (groups[i].effective() == access) {
          expected.push_back(static_cast<uint32_t>(i));
        }
      }
      EXPECT_EQ(entry->For(access), expected);
    }
  }
}

TEST_F(AnalysisContextTest, ComplyingSeqsMatchesBruteForce) {
  const ObservationStore& store = snapshot_->observations;
  LockPostingIndex postings = LockPostingIndex::Build(store);
  // The empty rule complies with every distinct sequence.
  EXPECT_EQ(postings.ComplyingSeqs(store, IdSeq{}).size(), store.distinct_seqs());
  AnalysisContext context(snapshot_, sim_->registry.get(), DefaultOptions());
  size_t rules_checked = 0;
  for (const DerivationResult& result : context.rules()) {
    if (!result.winner.has_value() || result.winner->is_no_lock()) {
      continue;
    }
    std::optional<IdSeq> rule_ids = store.pool().FindSeq(result.winner->locks);
    ASSERT_TRUE(rule_ids.has_value());
    std::vector<uint32_t> expected;
    for (uint32_t seq = 0; seq < store.distinct_seqs(); ++seq) {
      if (IsSubsequenceIds(*rule_ids, store.id_seq(seq))) {
        expected.push_back(seq);
      }
    }
    EXPECT_EQ(postings.ComplyingSeqs(store, *rule_ids), expected);
    ++rules_checked;
  }
  EXPECT_GT(rules_checked, 0u);
}

// The plain reference of RuleChecker::Check: every group of the rule's
// member populations, filtered by effective() and tested with the string
// IsSubsequence. Returns (sa, total).
std::pair<uint64_t, uint64_t> PlainSupport(const TypeRegistry& registry,
                                           const ObservationStore& store,
                                           const LockingRule& rule) {
  uint64_t sa = 0;
  uint64_t total = 0;
  for (size_t k = 0; k < store.keys().size(); ++k) {
    const MemberObsKey& key = store.keys()[k];
    const TypeLayout& layout = registry.layout(key.type);
    if (layout.name() != rule.member.type_name ||
        layout.member(key.member).name != rule.member.member_name ||
        (!rule.member.subclass.empty() &&
         registry.SubclassName(key.type, key.subclass) != rule.member.subclass)) {
      continue;
    }
    for (const ObservationGroup& group : store.GroupsAt(k)) {
      if (group.effective() == rule.access) {
        ++total;
        sa += IsSubsequence(rule.locks, store.seq(group.lockseq_id)) ? 1 : 0;
      }
    }
  }
  return {sa, total};
}

// The plain reference of ViolationFinder::FindAll, with each group's
// accesses typed by a scan of the accesses table.
std::vector<Violation> PlainViolations(const AnalysisSnapshot& snapshot,
                                       const std::vector<DerivationResult>& results) {
  const Table& accesses = snapshot.db.table(LockDocSchema::kAccesses);
  const size_t kSeq = accesses.ColumnIndex("seq");
  const size_t kType = accesses.ColumnIndex("access_type");
  std::map<uint64_t, AccessType> type_of;
  for (RowId row = 0; row < accesses.row_count(); ++row) {
    type_of[accesses.GetUint64(row, kSeq)] =
        static_cast<AccessType>(accesses.GetUint64(row, kType));
  }
  const ObservationStore& store = snapshot.observations;
  std::vector<Violation> violations;
  for (const DerivationResult& result : results) {
    if (!result.winner.has_value() || result.winner->is_no_lock() ||
        result.winner->sr >= 1.0) {
      continue;
    }
    for (const ObservationGroup& group : store.GroupsFor(result.key)) {
      const LockSeq& held = store.seq(group.lockseq_id);
      if (group.effective() != result.access || IsSubsequence(result.winner->locks, held)) {
        continue;
      }
      Violation violation{result.key, result.access, result.winner->locks, held, {}};
      for (uint64_t seq : group.seqs) {
        if (type_of.at(seq) == result.access) {
          violation.seqs.push_back(seq);
        }
      }
      if (!violation.seqs.empty()) {
        violations.push_back(std::move(violation));
      }
    }
  }
  return violations;
}

// A vfs world (the fixture's) and an mm world, each with its documented
// rules, for the checks against the plain references at 1, 2 and 8 jobs.
struct World {
  const AnalysisSnapshot* snapshot;
  const TypeRegistry* registry;
  std::string documented_rules;
};

template <typename Check>
void ForEachWorldAtAnyJobs(const World& vfs, Check&& check) {
  MixOptions mix;
  mix.ops = 3000;
  mix.seed = 7;
  SimulationResult mm_sim = SimulateMmRun(mix, FaultPlan{});
  PipelineOptions pipeline;
  pipeline.filter = VfsKernel::MakeFilterConfig();
  AnalysisSnapshot mm_snapshot = BuildSnapshot(mm_sim.trace, *mm_sim.registry, pipeline);
  const World mm{&mm_snapshot, mm_sim.registry.get(), MmKernel::DocumentedRulesText()};
  for (const World* world : {&vfs, &mm}) {
    for (size_t jobs : {1, 2, 8}) {
      SCOPED_TRACE(testing::Message() << "world " << (world == &vfs ? "vfs" : "mm")
                                      << " jobs " << jobs);
      AnalysisOptions options;
      options.pipeline.jobs = jobs;
      AnalysisContext context(world->snapshot, world->registry, options);
      check(*world, context);
    }
  }
}

TEST_F(AnalysisContextTest, IndexedCheckerMatchesPlain) {
  World vfs{snapshot_, sim_->registry.get(), VfsKernel::DocumentedRulesText()};
  ForEachWorldAtAnyJobs(vfs, [](const World& world, AnalysisContext& context) {
    auto rules = RuleSet::ParseText(world.documented_rules);
    ASSERT_TRUE(rules.ok());
    std::vector<RuleCheckResult> checked = RuleChecker(context).CheckAll(rules.value());
    ASSERT_EQ(checked.size(), rules.value().size());
    uint64_t observed = 0;
    for (const RuleCheckResult& result : checked) {
      SCOPED_TRACE(result.rule.ToString());
      auto [sa, total] = PlainSupport(*world.registry, world.snapshot->observations, result.rule);
      EXPECT_EQ(result.sa, sa);
      EXPECT_EQ(result.total, total);
      EXPECT_EQ(result.verdict == RuleVerdict::kUnobserved, total == 0);
      observed += total;
    }
    EXPECT_GT(observed, 0u);
  });
}

TEST_F(AnalysisContextTest, IndexedFinderMatchesPlain) {
  World vfs{snapshot_, sim_->registry.get(), VfsKernel::DocumentedRulesText()};
  ForEachWorldAtAnyJobs(vfs, [&](const World& world, AnalysisContext& context) {
    const std::vector<DerivationResult>& rules = context.rules();
    std::vector<Violation> expected = PlainViolations(*world.snapshot, rules);
    std::vector<Violation> found = ViolationFinder(context).FindAll(rules);
    ASSERT_EQ(found.size(), expected.size());
    if (world.snapshot == snapshot_) {
      EXPECT_FALSE(found.empty());
    }
    for (size_t i = 0; i < found.size(); ++i) {
      EXPECT_EQ(found[i].key, expected[i].key);
      EXPECT_EQ(found[i].access, expected[i].access);
      EXPECT_EQ(LockSeqToString(found[i].rule), LockSeqToString(expected[i].rule));
      EXPECT_EQ(LockSeqToString(found[i].held), LockSeqToString(expected[i].held));
      EXPECT_EQ(found[i].seqs, expected[i].seqs);
    }
  });
}

TEST_F(AnalysisContextTest, RegistryHasCanonicalPassOrder) {
  const PassRegistry& registry = PassRegistry::Default();
  EXPECT_EQ(registry.JoinedNames(),
            "check, derive, violations, lock-order, modes, report, diff");
  EXPECT_NE(registry.Find("check"), nullptr);
  EXPECT_NE(registry.Find("report"), nullptr);
  EXPECT_EQ(registry.Find("bogus"), nullptr);
  EXPECT_EQ(registry.Find("check")->name(), "check");
}

TEST_F(AnalysisContextTest, PassOutputsAreThreadCountInvariant) {
  auto run_all = [&](size_t jobs) {
    AnalysisOptions options = DefaultOptions();
    options.pipeline.jobs = jobs;
    AnalysisOptions baseline_options = DefaultOptions();
    baseline_options.pipeline.jobs = jobs;
    AnalysisContext baseline(snapshot_, sim_->registry.get(), std::move(baseline_options));
    AnalysisContext context(snapshot_, sim_->registry.get(), std::move(options));
    context.pass_options().baseline = &baseline;
    std::string all;
    for (const auto& pass : PassRegistry::Default().passes()) {
      PassOutput out;
      Status status = pass->Run(context, out);
      EXPECT_TRUE(status.ok()) << pass->name() << ": " << status.ToString();
      all += out.text;
    }
    return all;
  };
  std::string serial = run_all(1);
  std::string parallel = run_all(3);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  // Diffing an input against itself reports no drift.
  EXPECT_NE(serial.find("no rule drift"), std::string::npos);
}

TEST_F(AnalysisContextTest, DiffPassWithoutBaselineIsAnError) {
  AnalysisContext context(snapshot_, sim_->registry.get(), DefaultOptions());
  const AnalysisPass* diff = PassRegistry::Default().Find("diff");
  ASSERT_NE(diff, nullptr);
  PassOutput out;
  Status status = diff->Run(context, out);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(out.text.empty());
}

}  // namespace
}  // namespace lockdoc
