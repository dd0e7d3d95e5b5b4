// Tab. 4 reproduction: validation of the (simulated) kernel's documented
// locking rules — per data type, how many rules exist, how many of their
// members the benchmark mix observed, and the split into correct (!),
// ambivalent (~), and incorrect (#) rules.
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
  std::vector<RuleCheckResult> results = RuleChecker(context).CheckAll(rules.value());

  std::printf("Tab. 4 — summary of validated locking rules\n\n");
  TextTable table({"Data Type", "#R", "#No", "#Ob", "! (%)", "~ (%)", "# (%)"});
  for (const RuleCheckSummary& s : RuleChecker::Summarize(results)) {
    table.AddRow({s.type_name, std::to_string(s.documented), std::to_string(s.unobserved),
                  std::to_string(s.observed), StrFormat("%.2f", s.correct_pct()),
                  StrFormat("%.2f", s.ambivalent_pct()), StrFormat("%.2f", s.incorrect_pct())});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\npaper Tab. 4: inode 14/3/11 18.18/45.45/36.36 | journal_head 26/3/23 "
      "56.52/17.39/26.09\n"
      "              transaction_t 42/13/29 79.31/13.79/6.90 | journal_t 38/8/30 "
      "56.67/33.33/10.00\n"
      "              dentry 22/0/22 27.27/63.64/9.09\n");
  return 0;
}
