// Tab. 5 reproduction: the detailed per-member check results for struct
// inode's documented rules, ranked by relative support — including the
// famous i_lru ~50 %, i_state-read ~20 %, and the never-followed read rules.
#include <algorithm>
#include <cstdio>

#include "bench/common.h"
#include "src/core/rule_checker.h"
#include "src/util/stats.h"
#include "src/util/string_util.h"

using namespace lockdoc;

int main(int argc, char** argv) {
  StandardRun run = RunStandardEvaluation(argc, argv);

  auto rules = RuleSet::ParseText(VfsKernel::DocumentedRulesText());
  if (!rules.ok()) {
    std::fprintf(stderr, "%s\n", rules.status().message().c_str());
    return 1;
  }
  AnalysisContext context = ContextFor(run);
  RuleChecker checker(context);

  std::vector<RuleCheckResult> inode_results;
  for (const LockingRule& rule : rules.value().rules()) {
    if (rule.member.type_name == "inode") {
      RuleCheckResult result = checker.Check(rule);
      if (result.verdict != RuleVerdict::kUnobserved) {
        inode_results.push_back(std::move(result));
      }
    }
  }
  std::sort(inode_results.begin(), inode_results.end(),
            [](const RuleCheckResult& a, const RuleCheckResult& b) { return a.sr > b.sr; });

  std::printf("Tab. 5 — documented rules for struct inode, by relative support\n\n");
  TextTable table({"Member", "r/w", "Locking Rule", "sr", "OK?"});
  for (const RuleCheckResult& r : inode_results) {
    table.AddRow({r.rule.member.member_name, std::string(AccessTypeName(r.rule.access)),
                  LockSeqToString(r.rule.locks), FormatPercent(r.sr),
                  std::string(RuleVerdictSymbol(r.verdict))});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\npaper Tab. 5: i_bytes w 100%% !, i_state w 100%% !, i_hash w 98.1%% ~,\n"
      "  i_blocks w 93.56%% ~, i_lru r 50.6%% ~, i_lru w 50.39%% ~, i_state r 19.78%% ~,\n"
      "  i_size r 0%% #, i_hash r 0%% #, i_blocks r 0%% #, i_size w 0%% #\n");
  return 0;
}
