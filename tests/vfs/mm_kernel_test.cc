// End-to-end coverage of the range-lock model: the mm workload's traces
// must let the miner recover the documented mm rules with no false
// violations, surface the seeded non-overlap write as a violation, and
// close the seeded 3-class lock-order cycle with range-annotated
// instance witnesses.
#include "src/vfs/mm_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/importer.h"
#include "src/core/lock_order.h"
#include "src/core/pipeline.h"
#include "src/core/rule_checker.h"
#include "src/core/violation_finder.h"
#include "src/vfs/vfs_kernel.h"
#include "src/workload/workloads.h"

namespace lockdoc {
namespace {

SimulationResult RunMm(uint64_t ops, uint64_t seed, const FaultPlan& plan) {
  MixOptions mix;
  mix.ops = ops;
  mix.seed = seed;
  return SimulateMmRun(mix, plan);
}

PipelineResult Analyze(const SimulationResult& sim) {
  PipelineOptions options;
  options.filter = VfsKernel::MakeFilterConfig();
  return RunPipeline(sim.trace, *sim.registry, options);
}

TEST(MmKernelTest, DocumentedRulesParseAndReferenceRealMembers) {
  auto rules = RuleSet::ParseText(MmKernel::DocumentedRulesText());
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  VfsIds ids;
  std::unique_ptr<TypeRegistry> registry = BuildVfsMmRegistry(&ids);
  ASSERT_TRUE(ids.has_mm());
  for (const LockingRule& rule : rules.value().rules()) {
    auto type = registry->FindType(rule.member.type_name);
    ASSERT_TRUE(type.has_value()) << rule.ToString();
    EXPECT_TRUE(registry->layout(*type).FindMember(rule.member.member_name).has_value())
        << rule.ToString();
  }
}

TEST(MmKernelTest, CleanRunMatchesDocumentedGroundTruth) {
  SimulationResult sim = RunMm(3000, 7, FaultPlan::Clean());
  PipelineResult result = Analyze(sim);
  auto documented = RuleSet::ParseText(MmKernel::DocumentedRulesText());
  ASSERT_TRUE(documented.ok());
  AnalysisContext context(&result.snapshot, sim.registry.get());
  RuleChecker checker(context);
  std::vector<RuleCheckResult> checks = checker.CheckAll(documented.value());
  size_t observed = 0;
  for (const RuleCheckResult& check : checks) {
    if (check.verdict == RuleVerdict::kUnobserved) {
      continue;
    }
    ++observed;
    EXPECT_EQ(check.verdict, RuleVerdict::kCorrect)
        << check.rule.ToString() << " sr=" << check.sr;
  }
  // Both mm types exercise a healthy share of their documented rules.
  EXPECT_GE(observed, 15u);
}

TEST(MmKernelTest, CleanRunHasNoViolations) {
  SimulationResult sim = RunMm(3000, 7, FaultPlan::Clean());
  PipelineResult result = Analyze(sim);
  AnalysisContext context(&result.snapshot, sim.registry.get());
  ViolationFinder finder(context);
  std::vector<Violation> violations = finder.FindAll(result.rules);
  // Overlap-aware derivation must not flag disjoint-span holds (mremap's
  // two simultaneous holds, page-granular faults) as violations.
  EXPECT_TRUE(violations.empty());
}

TEST(MmKernelTest, SeededNonOverlapWriteIsCaught) {
  FaultPlan plan = FaultPlan::Clean();
  plan.mmap_nonoverlap_write = true;
  SimulationResult sim = RunMm(4000, 7, plan);
  PipelineResult result = Analyze(sim);
  AnalysisContext context(&result.snapshot, sim.registry.get());
  ViolationFinder finder(context);
  std::vector<Violation> violations = finder.FindAll(result.rules);
  ASSERT_FALSE(violations.empty());
  // The bug writes vm_flags of a vma the held span does not overlap: a
  // hold that covers nothing counts as no lock at all.
  bool saw_vma_violation = false;
  for (const ViolationSummaryRow& row : finder.Summarize(violations)) {
    if (row.type_name == "vm_area_struct") {
      EXPECT_GT(row.events, 0u);
      saw_vma_violation = true;
    }
  }
  EXPECT_TRUE(saw_vma_violation);
}

TEST(MmKernelTest, SeededCycleClosesLockOrderPaths) {
  FaultPlan plan = FaultPlan::Clean();
  plan.mm_lock_cycle = true;
  SimulationResult sim = RunMm(4000, 7, plan);
  Database db;
  TraceImporter importer(sim.registry.get(), VfsKernel::MakeFilterConfig());
  importer.Import(sim.trace, &db);
  LockOrderGraph graph = LockOrderGraph::Build(db, *sim.registry);

  // The inverted stats path closes mmap_lock -> page_table_lock ->
  // vm_committed_lock -> mmap_lock: one nontrivial SCC, at least one
  // enumerated cycle path, and an ABBA conflict.
  std::vector<std::vector<LockClass>> sccs = graph.StronglyConnectedComponents();
  ASSERT_FALSE(sccs.empty());
  size_t largest = 0;
  for (const auto& scc : sccs) {
    largest = std::max(largest, scc.size());
  }
  EXPECT_GE(largest, 2u);
  EXPECT_FALSE(graph.ConflictingPairs().empty());

  std::vector<LockOrderCyclePath> paths = graph.FindCyclePaths();
  ASSERT_FALSE(paths.empty());
  for (const LockOrderCyclePath& path : paths) {
    ASSERT_GE(path.edges.size(), 2u);
    for (size_t i = 0; i < path.edges.size(); ++i) {
      const LockOrderEdge& edge = path.edges[i];
      const LockOrderEdge& next = path.edges[(i + 1) % path.edges.size()];
      EXPECT_EQ(edge.to.ToString(), next.from.ToString());
      EXPECT_GT(edge.support, 0u);
      EXPECT_NE(edge.witness_from.addr, 0u);
      EXPECT_NE(edge.witness_to.addr, 0u);
    }
  }

  // mmap_lock is a range lock, so at least one witness carries its span.
  bool saw_range_witness = false;
  for (const LockOrderEdge& edge : graph.edges()) {
    if (edge.witness_from.has_range || edge.witness_to.has_range) {
      saw_range_witness = true;
    }
  }
  EXPECT_TRUE(saw_range_witness);

  std::string report = graph.Report(db);
  EXPECT_NE(report.find("cycle"), std::string::npos);
}

TEST(MmKernelTest, DerivedVmaRulesRequireOverlappingMmapLock) {
  SimulationResult sim = RunMm(3000, 7, FaultPlan::Clean());
  PipelineResult result = Analyze(sim);
  auto vma_type = sim.registry->FindType("vm_area_struct");
  ASSERT_TRUE(vma_type.has_value());
  const TypeLayout& layout = sim.registry->layout(*vma_type);
  bool saw_vma_rule = false;
  for (const DerivationResult& derived : result.rules) {
    if (derived.key.type != *vma_type || !derived.winner.has_value()) {
      continue;
    }
    saw_vma_rule = true;
    // Every observed vma member access happened under an overlapping
    // mmap_lock hold, so the winner must name it (never "no lock").
    EXPECT_FALSE(derived.winner->is_no_lock())
        << layout.member(derived.key.member).name;
    EXPECT_NE(LockSeqToString(derived.winner->locks).find("mmap_lock"), std::string::npos)
        << layout.member(derived.key.member).name;
  }
  EXPECT_TRUE(saw_vma_rule);
}

}  // namespace
}  // namespace lockdoc
