#include "src/core/report.h"

#include <map>

#include "src/core/doc_generator.h"
#include "src/core/lock_order.h"
#include "src/core/mode_analysis.h"
#include "src/core/rule_checker.h"
#include "src/core/violation_finder.h"
#include "src/db/schema.h"
#include "src/report/render_text.h"
#include "src/util/stats.h"
#include "src/util/string_util.h"

namespace lockdoc {

ReportDocument BuildReportDocument(AnalysisContext& context, const ReportOptions& options) {
  const TypeRegistry& registry = context.registry();
  const AnalysisSnapshot& snapshot = context.snapshot();
  const std::vector<DerivationResult>& derived = context.rules();
  ReportDocument doc;
  doc.pass = "report";

  {
    ReportSection& section = AddSection(doc, "preamble");
    AddTextNode(section, "title", "LockDoc analysis report\n");
  }

  // --- Trace statistics (Sec. 7.2) ---
  {
    ReportSection& section = AddHeadedSection(doc, "trace-statistics", "trace statistics");
    AddTextNode(section, "trace-counters", snapshot.trace_stats.ToString());
    ReportNode& filtering = AddTextNode(
        section, "filter-accounting",
        StrFormat("accesses kept after filtering: %s (filtered: %s)\n",
                  FormatWithCommas(snapshot.import_stats.accesses_kept).c_str(),
                  FormatWithCommas(snapshot.import_stats.accesses_filtered).c_str()));
    filtering.fields = {
        {"accesses_kept", std::to_string(snapshot.import_stats.accesses_kept)},
        {"accesses_filtered", std::to_string(snapshot.import_stats.accesses_filtered)}};
    ReportNode& txns = AddTextNode(
        section, "transactions",
        StrFormat("transactions:                  %s\n",
                  FormatWithCommas(snapshot.import_stats.txns).c_str()));
    txns.fields = {{"transactions", std::to_string(snapshot.import_stats.txns)}};
  }

  // --- Documentation validation (Tab. 4) ---
  if (!options.documented_rules_text.empty()) {
    ReportSection& section =
        AddHeadedSection(doc, "rule-validation", "documented-rule validation");
    auto rules = RuleSet::ParseText(options.documented_rules_text);
    if (!rules.ok()) {
      ReportNode& node = AddTextNode(
          section, "parse-error", "rule parse error: " + rules.status().message() + "\n");
      node.fields = {{"error", rules.status().message()}};
    } else {
      RuleChecker checker(&registry, &snapshot.observations, &context.member_access_index(),
                          &context.lock_postings());
      ReportNode& node = AddTable(section, "validation-summary",
                                  {"Data Type", "#R", "#No", "#Ob", "! (%)", "~ (%)", "# (%)"});
      for (const RuleCheckSummary& s :
           RuleChecker::Summarize(checker.CheckAll(rules.value(), &context.pool()))) {
        node.table.rows.push_back(
            {s.type_name, std::to_string(s.documented), std::to_string(s.unobserved),
             std::to_string(s.observed), StrFormat("%.2f", s.correct_pct()),
             StrFormat("%.2f", s.ambivalent_pct()), StrFormat("%.2f", s.incorrect_pct())});
      }
    }
  }

  // --- Mining summary (Tab. 6) ---
  {
    ReportSection& section = AddHeadedSection(doc, "mined-rules", "mined locking rules");
    struct Row {
      uint64_t rules_r = 0, rules_w = 0, no_lock_r = 0, no_lock_w = 0;
    };
    std::map<std::pair<TypeId, SubclassId>, Row> rows;
    for (const DerivationResult& rule : derived) {
      Row& row = rows[{rule.key.type, rule.key.subclass}];
      bool no_lock = rule.winner_is_no_lock();
      if (rule.access == AccessType::kRead) {
        ++row.rules_r;
        row.no_lock_r += no_lock ? 1 : 0;
      } else {
        ++row.rules_w;
        row.no_lock_w += no_lock ? 1 : 0;
      }
    }
    ReportNode& node = AddTable(section, "mining-summary",
                                {"Data Type", "#Rules r", "#Rules w", "#Nl r", "#Nl w"});
    for (const auto& [key, row] : rows) {
      node.table.rows.push_back({registry.QualifiedName(key.first, key.second),
                                 std::to_string(row.rules_r), std::to_string(row.rules_w),
                                 std::to_string(row.no_lock_r),
                                 std::to_string(row.no_lock_w)});
    }
  }

  if (options.full_documentation) {
    ReportSection& section =
        AddHeadedSection(doc, "generated-documentation", "generated documentation");
    DocGenerator generator(&registry);
    std::map<std::pair<TypeId, SubclassId>, bool> populations;
    for (const DerivationResult& rule : derived) {
      populations[{rule.key.type, rule.key.subclass}] = true;
    }
    for (const auto& [key, present] : populations) {
      (void)present;
      ReportNode& node = AddTextNode(
          section, "population", generator.Generate(key.first, key.second, derived) + "\n");
      node.fields = {{"population", registry.QualifiedName(key.first, key.second)}};
    }
  }

  // --- Violations (Tab. 7/8) ---
  {
    ReportSection& section =
        AddHeadedSection(doc, "violations", "locking-rule violations");
    ViolationFinder finder(&snapshot.db, &registry, &snapshot.observations,
                           &context.member_access_index(), &context.lock_postings());
    std::vector<Violation> violations = finder.FindAll(derived, &context.pool());
    ReportNode& table = AddTable(section, "violation-summary",
                                 {"Data Type", "Events", "Members", "Contexts"});
    uint64_t total = 0;
    for (const ViolationSummaryRow& row : finder.Summarize(violations)) {
      if (row.events == 0) {
        continue;
      }
      table.table.rows.push_back({row.type_name, std::to_string(row.events),
                                  std::to_string(row.members), std::to_string(row.contexts)});
      total += row.events;
    }
    ReportNode& total_node = AddTextNode(
        section, "total-events",
        StrFormat("total violating events: %s\n", FormatWithCommas(total).c_str()));
    total_node.fields = {{"total_violating_events", std::to_string(total)}};
    ViolationForensics forensics = finder.Forensics(
        violations, options.max_violation_examples, options.forensics_filter.get());
    for (CexGroupData& group : forensics.groups) {
      group.report_style = true;
      AddCexGroup(section, std::move(group));
    }
    AppendForensicsNotes(section, forensics, /*report_style=*/true);
  }

  // --- Lock ordering ---
  if (options.lock_order) {
    ReportSection& section = AddHeadedSection(doc, "lock-order", "lock ordering");
    const LockOrderGraph& graph = context.lock_order_graph();
    auto conflicts = graph.ConflictingPairs();
    ReportNode& summary = AddTextNode(
        section, "edge-summary",
        StrFormat("%zu ordering edges, %zu ABBA conflicts\n", graph.edges().size(),
                  conflicts.size()));
    summary.fields = {{"edges", std::to_string(graph.edges().size())},
                      {"conflicts", std::to_string(conflicts.size())}};
    for (const auto& [rare, common] : conflicts) {
      ReportNode& node = AddTextNode(
          section, "conflict",
          StrFormat("  %s -> %s (n=%llu) vs reverse (n=%llu) at %s\n",
                    rare.from.ToString().c_str(), rare.to.ToString().c_str(),
                    static_cast<unsigned long long>(rare.support),
                    static_cast<unsigned long long>(common.support),
                    DbFormatLoc(snapshot.db, rare.example_file_sid, rare.example_line)
                        .c_str()));
      node.fields = {
          {"from", rare.from.ToString()},
          {"to", rare.to.ToString()},
          {"support", std::to_string(rare.support)},
          {"reverse_support", std::to_string(common.support)},
          {"example", DbFormatLoc(snapshot.db, rare.example_file_sid, rare.example_line)}};
    }
  }

  // --- Acquisition modes ---
  if (options.modes) {
    ReportSection& section =
        AddHeadedSection(doc, "modes", "reader/writer acquisition modes");
    ModeAnalyzer analyzer(&snapshot.db, &registry, &snapshot.observations,
                          &context.member_access_index(), &context.lock_postings());
    auto suspicious = analyzer.FindSharedModeWrites(derived, &context.pool());
    if (suspicious.empty()) {
      AddTextNode(section, "empty", "no writes under merely-shared holds\n");
    } else {
      for (const ModeReportEntry& entry : suspicious) {
        ReportNode& node = AddTextNode(section, "mode-entry", analyzer.RenderEntry(entry));
        node.fields = {
            {"member", registry.QualifiedName(entry.key.type, entry.key.subclass) + "." +
                           registry.layout(entry.key.type).member(entry.key.member).name},
            {"access", AccessTypeName(entry.access)},
            {"rule", LockSeqToString(entry.rule)},
            {"suspicious", entry.suspicious ? "true" : "false"}};
      }
    }
  }

  return doc;
}

std::string RenderReport(AnalysisContext& context, const ReportOptions& options) {
  return RenderReportText(BuildReportDocument(context, options));
}

std::string RenderReport(const TypeRegistry& registry, const PipelineResult& result,
                         const ReportOptions& options) {
  // Serial one-shot context; output is byte-identical at any jobs value, so
  // a single thread keeps this convenience path lightweight.
  AnalysisOptions context_options;
  context_options.pipeline.jobs = 1;
  AnalysisContext context(&result.snapshot, &registry, std::move(context_options));
  context.SeedRules(result.rules);  // Copies; `result` stays usable.
  return RenderReport(context, options);
}

}  // namespace lockdoc
