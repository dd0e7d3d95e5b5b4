// Closing the loop: documentation regenerated from mined rules must
// validate against the very trace it was mined from — every generated rule,
// fed back through the rule-spec parser and the checker, has to come out
// with sr >= t_ac (and "no lock" rules as plainly correct). This is the
// consistency contract between the documentation generator (phase 3) and
// the checker (phase 3) the paper's workflow implies but never states.
#include <gtest/gtest.h>

#include "src/core/doc_generator.h"
#include "src/core/pipeline.h"
#include "src/core/rule_checker.h"
#include "src/vfs/vfs_kernel.h"
#include "src/workload/workloads.h"

namespace lockdoc {
namespace {

TEST(DocgenRoundtripTest, GeneratedRulesValidateAgainstTheirOwnTrace) {
  MixOptions mix;
  mix.ops = 6000;
  mix.seed = 21;
  SimulationResult sim = SimulateKernelRun(mix, FaultPlan{});
  PipelineOptions options;
  options.filter = VfsKernel::MakeFilterConfig();
  PipelineResult result = RunPipeline(sim.trace, *sim.registry, options);

  DocGenerator generator(sim.registry.get());
  AnalysisContext context(&result.snapshot, sim.registry.get());
  RuleChecker checker(context);

  size_t checked = 0;
  for (TypeId type = 0; type < sim.registry->type_count(); ++type) {
    std::vector<SubclassId> subclasses = {kNoSubclass};
    for (SubclassId sub : sim.registry->SubclassesOf(type)) {
      subclasses.push_back(sub);
    }
    for (SubclassId sub : subclasses) {
      std::string spec = generator.GenerateRuleSpec(type, sub, result.rules);
      if (spec.empty()) {
        continue;
      }
      auto rules = RuleSet::ParseText(spec);
      ASSERT_TRUE(rules.ok()) << rules.status().ToString() << "\n" << spec;
      for (const RuleCheckResult& check : checker.CheckAll(rules.value())) {
        ++checked;
        EXPECT_NE(check.verdict, RuleVerdict::kUnobserved) << check.rule.ToString();
        EXPECT_NE(check.verdict, RuleVerdict::kIncorrect) << check.rule.ToString();
        EXPECT_GE(check.sr + 1e-12, options.derivator.accept_threshold)
            << check.rule.ToString();
      }
    }
  }
  // The mining produced hundreds of rules; all of them round-tripped.
  EXPECT_GT(checked, 200u);
  EXPECT_EQ(checked, result.rules.size());
}

TEST(DocgenRoundtripTest, CleanKernelGeneratedRulesArePerfect) {
  MixOptions mix;
  mix.ops = 5000;
  mix.seed = 22;
  SimulationResult sim = SimulateKernelRun(mix, FaultPlan::Clean());
  PipelineOptions options;
  options.filter = VfsKernel::MakeFilterConfig();
  PipelineResult result = RunPipeline(sim.trace, *sim.registry, options);

  // In the clean kernel every winner has full support.
  for (const DerivationResult& rule : result.rules) {
    ASSERT_TRUE(rule.winner.has_value());
    EXPECT_DOUBLE_EQ(rule.winner->sr, 1.0)
        << sim.registry->QualifiedName(rule.key.type, rule.key.subclass) << "."
        << sim.registry->layout(rule.key.type).member(rule.key.member).name << " "
        << AccessTypeName(rule.access) << ": " << LockSeqToString(rule.winner->locks);
  }
}

}  // namespace
}  // namespace lockdoc
