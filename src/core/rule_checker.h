// The locking-rule checker (paper Sec. 5.5, Tab. 4/5): validates documented
// locking rules against the observed trace. Each rule's relative support
// categorizes it as correct (sr = 1), ambivalent (0 < sr < 1), or incorrect
// (sr = 0); rules whose member was never accessed are unobserved.
#ifndef SRC_CORE_RULE_CHECKER_H_
#define SRC_CORE_RULE_CHECKER_H_

#include <string>
#include <vector>

#include "src/core/analysis_context.h"
#include "src/core/rule.h"

namespace lockdoc {

enum class RuleVerdict {
  kUnobserved = 0,
  kCorrect = 1,     // sr == 1
  kAmbivalent = 2,  // 0 < sr < 1
  kIncorrect = 3,   // sr == 0
};

std::string_view RuleVerdictSymbol(RuleVerdict verdict);  // "!", "~", "#", "-"

struct RuleCheckResult {
  LockingRule rule;
  uint64_t sa = 0;
  uint64_t total = 0;
  double sr = 0.0;
  RuleVerdict verdict = RuleVerdict::kUnobserved;
};

// Per-data-type aggregation — one row of the paper's Tab. 4.
struct RuleCheckSummary {
  std::string type_name;
  uint64_t documented = 0;  // #R
  uint64_t unobserved = 0;  // #No
  uint64_t observed = 0;    // #Ob
  uint64_t correct = 0;
  uint64_t ambivalent = 0;
  uint64_t incorrect = 0;

  double correct_pct() const;
  double ambivalent_pct() const;
  double incorrect_pct() const;
};

class RuleChecker {
 public:
  // Checks against `context`'s observations. `context` must outlive the
  // checker and carry a type registry.
  explicit RuleChecker(AnalysisContext& context);

  // Checks one documented rule. A rule without a subclass qualifier is
  // evaluated against the union of all subclasses of its type.
  RuleCheckResult Check(const LockingRule& rule) const;

  // Checks every rule, distributed over the context's pool. Each rule
  // writes its own result slot, so the returned vector is byte-identical at
  // any thread count.
  std::vector<RuleCheckResult> CheckAll(const RuleSet& rules) const;

  // Groups results by the rule's type name (Tab. 4 rows).
  static std::vector<RuleCheckSummary> Summarize(const std::vector<RuleCheckResult>& results);

 private:
  AnalysisContext* context_;
  const TypeRegistry* registry_;
};

}  // namespace lockdoc

#endif  // SRC_CORE_RULE_CHECKER_H_
