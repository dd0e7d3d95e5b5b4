#include "src/core/rule_checker.h"

#include <map>

namespace lockdoc {

std::string_view RuleVerdictSymbol(RuleVerdict verdict) {
  switch (verdict) {
    case RuleVerdict::kUnobserved:
      return "-";
    case RuleVerdict::kCorrect:
      return "!";
    case RuleVerdict::kAmbivalent:
      return "~";
    case RuleVerdict::kIncorrect:
      return "#";
  }
  return "?";
}

double RuleCheckSummary::correct_pct() const {
  return observed == 0 ? 0.0 : 100.0 * static_cast<double>(correct) / static_cast<double>(observed);
}
double RuleCheckSummary::ambivalent_pct() const {
  return observed == 0 ? 0.0
                       : 100.0 * static_cast<double>(ambivalent) / static_cast<double>(observed);
}
double RuleCheckSummary::incorrect_pct() const {
  return observed == 0 ? 0.0
                       : 100.0 * static_cast<double>(incorrect) / static_cast<double>(observed);
}

RuleChecker::RuleChecker(AnalysisContext& context)
    : context_(&context), registry_(&context.registry()) {}

RuleCheckResult RuleChecker::Check(const LockingRule& rule) const {
  RuleCheckResult result;
  result.rule = rule;

  std::optional<TypeId> type = registry_->FindType(rule.member.type_name);
  if (!type.has_value()) {
    result.verdict = RuleVerdict::kUnobserved;
    return result;
  }
  std::optional<MemberIndex> member =
      registry_->layout(*type).FindMember(rule.member.member_name);
  if (!member.has_value()) {
    result.verdict = RuleVerdict::kUnobserved;
    return result;
  }

  // Subclass scope: an explicit subclass restricts the population; otherwise
  // the rule is checked against every subclass (plus the unsubclassed
  // population).
  std::vector<SubclassId> subclasses;
  if (rule.member.subclass.empty()) {
    subclasses.push_back(kNoSubclass);
    for (SubclassId sub : registry_->SubclassesOf(*type)) {
      subclasses.push_back(sub);
    }
  } else {
    std::optional<SubclassId> sub = registry_->FindSubclass(*type, rule.member.subclass);
    if (!sub.has_value()) {
      result.verdict = RuleVerdict::kUnobserved;
      return result;
    }
    subclasses.push_back(*sub);
  }

  // The rule's complying sequences are computed once and shared by every
  // subclass population.
  RuleCompliance compliance = context_->Compliance(rule.locks);
  for (SubclassId sub : subclasses) {
    MemberObsKey key;
    key.type = *type;
    key.subclass = sub;
    key.member = *member;
    context_->ForEachGroup(key, rule.access, compliance,
                           [&](const ObservationGroup& /*group*/, bool complies) {
                             ++result.total;
                             result.sa += complies ? 1 : 0;
                           });
  }

  if (result.total == 0) {
    result.verdict = RuleVerdict::kUnobserved;
    return result;
  }
  result.sr = static_cast<double>(result.sa) / static_cast<double>(result.total);
  if (result.sa == result.total) {
    result.verdict = RuleVerdict::kCorrect;
  } else if (result.sa == 0) {
    result.verdict = RuleVerdict::kIncorrect;
  } else {
    result.verdict = RuleVerdict::kAmbivalent;
  }
  return result;
}

std::vector<RuleCheckResult> RuleChecker::CheckAll(const RuleSet& rules) const {
  std::vector<RuleCheckResult> results(rules.size());
  context_->pool().ParallelFor(rules.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      results[i] = Check(rules.rules()[i]);
    }
  });
  return results;
}

std::vector<RuleCheckSummary> RuleChecker::Summarize(
    const std::vector<RuleCheckResult>& results) {
  std::map<std::string, RuleCheckSummary> by_type;
  std::vector<std::string> order;
  for (const RuleCheckResult& result : results) {
    const std::string& type_name = result.rule.member.type_name;
    auto it = by_type.find(type_name);
    if (it == by_type.end()) {
      RuleCheckSummary summary;
      summary.type_name = type_name;
      it = by_type.emplace(type_name, std::move(summary)).first;
      order.push_back(type_name);
    }
    RuleCheckSummary& summary = it->second;
    ++summary.documented;
    switch (result.verdict) {
      case RuleVerdict::kUnobserved:
        ++summary.unobserved;
        break;
      case RuleVerdict::kCorrect:
        ++summary.observed;
        ++summary.correct;
        break;
      case RuleVerdict::kAmbivalent:
        ++summary.observed;
        ++summary.ambivalent;
        break;
      case RuleVerdict::kIncorrect:
        ++summary.observed;
        ++summary.incorrect;
        break;
    }
  }
  std::vector<RuleCheckSummary> summaries;
  summaries.reserve(order.size());
  for (const std::string& type_name : order) {
    summaries.push_back(by_type[type_name]);
  }
  return summaries;
}

}  // namespace lockdoc
