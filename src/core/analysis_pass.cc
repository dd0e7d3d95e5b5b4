#include "src/core/analysis_pass.h"

#include <chrono>
#include <filesystem>
#include <utility>

#include "src/core/doc_generator.h"
#include "src/core/lock_order.h"
#include "src/core/mode_analysis.h"
#include "src/core/report.h"
#include "src/core/rule_checker.h"
#include "src/core/rule_diff.h"
#include "src/core/violation_finder.h"
#include "src/report/render_text.h"
#include "src/util/stats.h"
#include "src/util/string_util.h"

namespace lockdoc {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// `lockdoc check`: validate documented rules against the observations
// (paper Tab. 4/5). The documented-rules text is supplied via PassOptions
// so core stays independent of the simulated kernel.
class CheckPass : public AnalysisPass {
 public:
  std::string_view name() const override { return "check"; }
  std::string_view description() const override {
    return "validate documented locking rules against the trace";
  }

  Status Build(AnalysisContext& context, const PassOptions& opts,
               ReportDocument& doc) const override {
    auto rules = RuleSet::ParseText(opts.documented_rules_text);
    if (!rules.ok()) {
      return rules.status();
    }
    RuleChecker checker(context);
    auto t0 = Clock::now();
    std::vector<RuleCheckResult> checked = checker.CheckAll(rules.value());
    context.timings().Add("rule checking", Seconds(t0, Clock::now()), rules.value().size());
    ReportSection& section = AddSection(doc, "rule-check");
    for (const RuleCheckResult& r : checked) {
      std::string verdict(RuleVerdictSymbol(r.verdict));
      std::string sr = r.total == 0 ? "n/a" : FormatPercent(r.sr);
      ReportNode& node = AddTextNode(
          section, "rule-verdict",
          StrFormat("%s  %-70s sr=%7s (%llu/%llu)\n", verdict.c_str(),
                    r.rule.ToString().c_str(), sr.c_str(),
                    static_cast<unsigned long long>(r.sa),
                    static_cast<unsigned long long>(r.total)));
      node.fields = {{"verdict", verdict},
                     {"rule", r.rule.ToString()},
                     {"sr", sr},
                     {"sa", std::to_string(r.sa)},
                     {"total", std::to_string(r.total)}};
    }
    AddDecoration(section, "\n");
    ReportNode& table = AddTable(
        section, "check-summary",
        {"Data Type", "#R", "#No", "#Ob", "! (%)", "~ (%)", "# (%)"});
    for (const RuleCheckSummary& s : RuleChecker::Summarize(checked)) {
      table.table.rows.push_back(
          {s.type_name, std::to_string(s.documented), std::to_string(s.unobserved),
           std::to_string(s.observed), StrFormat("%.2f", s.correct_pct()),
           StrFormat("%.2f", s.ambivalent_pct()), StrFormat("%.2f", s.incorrect_pct())});
    }
    return Status::Ok();
  }
};

// `lockdoc derive`: render the mined winning rules as kernel-style
// documentation (paper Fig. 8) or as a machine-readable rule spec.
class DerivePass : public AnalysisPass {
 public:
  std::string_view name() const override { return "derive"; }
  std::string_view description() const override {
    return "mine winning rules and render generated documentation";
  }

  Status Build(AnalysisContext& context, const PassOptions& opts,
               ReportDocument& doc) const override {
    const std::vector<DerivationResult>& rules = context.rules();
    const TypeRegistry& registry = context.registry();
    ReportSection& section = AddSection(doc, "documentation");

    DocGenOptions doc_options;
    doc_options.include_support = opts.doc_support;
    DocGenerator generator(&registry, doc_options);

    // --out-dir: write the full documentation bundle instead of stdout.
    if (!opts.doc_out_dir.empty()) {
      std::filesystem::create_directories(opts.doc_out_dir);
      auto written = generator.GenerateAll(rules, opts.doc_out_dir);
      if (!written.ok()) {
        return written.status();
      }
      ReportNode& node = AddTextNode(
          section, "bundle",
          StrFormat("wrote %zu documentation files to %s\n", written.value(),
                    opts.doc_out_dir.c_str()));
      node.fields = {{"files", std::to_string(written.value())},
                     {"dir", opts.doc_out_dir}};
      return Status::Ok();
    }

    for (TypeId type = 0; type < registry.type_count(); ++type) {
      const std::string& type_name = registry.layout(type).name();
      if (!opts.doc_type.empty() && type_name != opts.doc_type) {
        continue;
      }
      std::vector<SubclassId> subclasses = {kNoSubclass};
      for (SubclassId sub : registry.SubclassesOf(type)) {
        subclasses.push_back(sub);
      }
      for (SubclassId sub : subclasses) {
        if (!opts.doc_subclass.empty() &&
            registry.SubclassName(type, sub) != opts.doc_subclass) {
          continue;
        }
        std::string text = opts.doc_spec ? generator.GenerateRuleSpec(type, sub, rules)
                                         : generator.Generate(type, sub, rules);
        // Skip populations with no mined rules to keep the output readable.
        bool has_rules = false;
        for (const DerivationResult& rule : rules) {
          if (rule.key.type == type && rule.key.subclass == sub) {
            has_rules = true;
            break;
          }
        }
        if (has_rules) {
          ReportNode& node =
              AddTextNode(section, "population", StrFormat("%s\n", text.c_str()));
          node.fields = {{"type", type_name},
                         {"population", registry.QualifiedName(type, sub)}};
        }
      }
    }
    return Status::Ok();
  }
};

// `lockdoc violations`: locate accesses that break the winning rules
// (paper Tab. 7/8).
class ViolationsPass : public AnalysisPass {
 public:
  std::string_view name() const override { return "violations"; }
  std::string_view description() const override {
    return "find accesses violating the mined winning rules";
  }

  Status Build(AnalysisContext& context, const PassOptions& opts,
               ReportDocument& doc) const override {
    const std::vector<DerivationResult>& rules = context.rules();
    ViolationFinder finder(context);
    auto t0 = Clock::now();
    std::vector<Violation> violations = finder.FindAll(rules);
    context.timings().Add("violation finding", Seconds(t0, Clock::now()), rules.size());

    ReportSection& section = AddSection(doc, "violations");
    ReportNode& table = AddTable(section, "violation-summary",
                                 {"Data Type", "Events", "Members", "Contexts"});
    for (const ViolationSummaryRow& row : finder.Summarize(violations)) {
      table.table.rows.push_back({row.type_name, std::to_string(row.events),
                                  std::to_string(row.members),
                                  std::to_string(row.contexts)});
    }
    AddDecoration(section, "\n");
    ViolationForensics forensics = finder.Forensics(violations, opts.violation_limit,
                                                    opts.forensics_filter.get());
    for (CexGroupData& group : forensics.groups) {
      AddCexGroup(section, std::move(group));
    }
    AppendForensicsNotes(section, forensics, /*report_style=*/false);
    return Status::Ok();
  }
};

// `lockdoc lock-order`: the lockdep-style ordering graph and its potential
// deadlock cycles.
class LockOrderPass : public AnalysisPass {
 public:
  std::string_view name() const override { return "lock-order"; }
  std::string_view description() const override {
    return "report the lock-ordering graph and potential deadlock cycles";
  }

  Status Build(AnalysisContext& context, const PassOptions& /*opts*/,
               ReportDocument& doc) const override {
    const LockOrderGraph& graph = context.lock_order_graph();
    ReportSection& section = AddSection(doc, "lock-order");
    AddTextNode(section, "graph", StrFormat("%s\n", graph.Report(context.db()).c_str()));
    AddTextNode(section, "cycles-header", "potential deadlock cycles:\n");
    auto cycles = graph.FindCycles();
    if (cycles.empty()) {
      AddTextNode(section, "no-cycles", "  none\n");
    }
    for (const LockOrderCycle& cycle : cycles) {
      ReportNode& node =
          AddTextNode(section, "cycle", StrFormat("  %s\n", cycle.ToString().c_str()));
      node.fields = {{"path", cycle.ToString()}};
    }
    return Status::Ok();
  }
};

// `lockdoc modes`: reader/writer acquisition-mode distributions; by default
// only the suspicious writes under merely-shared holds.
class ModesPass : public AnalysisPass {
 public:
  std::string_view name() const override { return "modes"; }
  std::string_view description() const override {
    return "report reader/writer acquisition modes of the winning rules";
  }

  Status Build(AnalysisContext& context, const PassOptions& opts,
               ReportDocument& doc) const override {
    const std::vector<DerivationResult>& rules = context.rules();
    bool all = opts.modes_all;
    const TypeRegistry& registry = context.registry();
    ModeAnalyzer analyzer(context);
    auto entries = all ? analyzer.Analyze(rules) : analyzer.FindSharedModeWrites(rules);
    ReportSection& section = AddSection(doc, "modes");
    if (entries.empty()) {
      AddTextNode(section, "empty",
                  StrFormat("no %s found\n", all ? "lock rules" : "shared-mode writes"));
      return Status::Ok();
    }
    for (const ModeReportEntry& entry : entries) {
      ReportNode& node = AddTextNode(section, "mode-entry", analyzer.RenderEntry(entry));
      node.fields = {
          {"member", registry.QualifiedName(entry.key.type, entry.key.subclass) + "." +
                         registry.layout(entry.key.type).member(entry.key.member).name},
          {"access", std::string(AccessTypeName(entry.access))},
          {"rule", LockSeqToString(entry.rule)},
          {"suspicious", entry.suspicious ? "true" : "false"}};
    }
    return Status::Ok();
  }
};

// `lockdoc report`: the full analysis document. Thin shim over
// BuildReportDocument, which itself draws everything from the shared
// context.
class ReportPass : public AnalysisPass {
 public:
  std::string_view name() const override { return "report"; }
  std::string_view description() const override {
    return "render the complete analysis report";
  }

  Status Build(AnalysisContext& context, const PassOptions& opts,
               ReportDocument& doc) const override {
    ReportDocument report = BuildReportDocument(context, opts);
    for (ReportSection& section : report.sections) {
      doc.sections.push_back(std::move(section));
    }
    return Status::Ok();
  }
};

// `lockdoc diff`: rule drift between a baseline context (the OLD input) and
// this context (the NEW input).
class DiffPass : public AnalysisPass {
 public:
  std::string_view name() const override { return "diff"; }
  std::string_view description() const override {
    return "diff winning rules against a baseline input";
  }

  Status Build(AnalysisContext& context, const PassOptions& opts,
               ReportDocument& doc) const override {
    AnalysisContext* baseline = opts.baseline;
    if (baseline == nullptr) {
      return Status::Error("the diff pass needs a baseline input (--baseline OLD)");
    }
    RuleDiffOptions diff_options;
    diff_options.include_unchanged = opts.diff_all;
    auto drifts = DiffRules(baseline->rules(), context.rules(), diff_options);
    ReportSection& section = AddSection(doc, "rule-diff");
    if (drifts.empty()) {
      AddTextNode(section, "no-drift", "no rule drift\n");
      return Status::Ok();
    }
    ReportNode& node =
        AddTextNode(section, "drift", RenderRuleDiff(drifts, context.registry()));
    node.fields = {{"drifts", std::to_string(drifts.size())}};
    return Status::Ok();
  }
};

}  // namespace

Status AnalysisPass::Run(AnalysisContext& context, const PassOptions& opts,
                         PassOutput& out) const {
  out.doc = ReportDocument{};
  out.doc.pass = std::string(name());
  out.text.clear();
  Status status = Build(context, opts, out.doc);
  if (status.ok()) {
    // The byte-compat contract: `text` is exactly what the pre-IR pass
    // printed, regenerated from the document by the pinned text renderer.
    out.text = RenderReportText(out.doc);
  }
  return status;
}

Status ApplyPassOption(PassOptions& opts, std::string_view key, std::string_view value) {
  auto bad = [&key](const char* what) {
    return Status::Error(StrFormat("pass option %.*s: %s", static_cast<int>(key.size()),
                                   key.data(), what));
  };
  auto parse_bool = [&](bool* out) {
    if (value == "1" || value == "true") {
      *out = true;
      return Status::Ok();
    }
    if (value == "0" || value == "false") {
      *out = false;
      return Status::Ok();
    }
    return bad("expected a boolean (0/1/true/false)");
  };
  if (key == "limit") {
    size_t limit = 0;
    for (char c : value) {
      if (c < '0' || c > '9') {
        return bad("expected an unsigned integer");
      }
      limit = limit * 10 + static_cast<size_t>(c - '0');
    }
    if (value.empty()) {
      return bad("expected an unsigned integer");
    }
    opts.violation_limit = limit;
    return Status::Ok();
  }
  if (key == "all") {
    bool all = false;
    Status status = parse_bool(&all);
    if (status.ok()) {
      opts.modes_all = all;
      opts.diff_all = all;
    }
    return status;
  }
  if (key == "full") {
    return parse_bool(&opts.report_full);
  }
  if (key == "spec") {
    return parse_bool(&opts.doc_spec);
  }
  if (key == "support") {
    return parse_bool(&opts.doc_support);
  }
  if (key == "type") {
    opts.doc_type = std::string(value);
    return Status::Ok();
  }
  if (key == "subclass") {
    opts.doc_subclass = std::string(value);
    return Status::Ok();
  }
  return bad("unknown pass option");
}

const PassRegistry& PassRegistry::Default() {
  static const PassRegistry* const registry = [] {
    auto* r = new PassRegistry();
    r->Register(std::make_unique<CheckPass>());
    r->Register(std::make_unique<DerivePass>());
    r->Register(std::make_unique<ViolationsPass>());
    r->Register(std::make_unique<LockOrderPass>());
    r->Register(std::make_unique<ModesPass>());
    r->Register(std::make_unique<ReportPass>());
    r->Register(std::make_unique<DiffPass>());
    return r;
  }();
  return *registry;
}

void PassRegistry::Register(std::unique_ptr<AnalysisPass> pass) {
  passes_.push_back(std::move(pass));
}

const AnalysisPass* PassRegistry::Find(std::string_view name) const {
  for (const std::unique_ptr<AnalysisPass>& pass : passes_) {
    if (pass->name() == name) {
      return pass.get();
    }
  }
  return nullptr;
}

std::string PassRegistry::JoinedNames() const {
  std::string out;
  for (const std::unique_ptr<AnalysisPass>& pass : passes_) {
    if (!out.empty()) {
      out += ", ";
    }
    out += pass->name();
  }
  return out;
}

}  // namespace lockdoc
