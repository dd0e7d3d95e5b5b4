// AnalysisContext — the shared fact base of the phase-3 analysis suite.
//
// Every phase-3 consumer (rule checking, violation finding, lock ordering,
// mode analysis, documentation, reporting, diffing) queries the *same*
// imported snapshot, and several of them need the *same* derived artifacts:
// the winning-rule set, the per-(member, access) observation split, the
// per-lock-class posting lists, the lock-order graph. Before this layer
// each CLI command rebuilt those artifacts from scratch — running the full
// suite derived rules four times and re-scanned the observation store once
// per analyzer. An AnalysisContext is a view over one AnalysisSnapshot that
// owns those artifacts as lazily-built, memoized, thread-safe shared
// indexes: each is built at most once per context (std::call_once per
// index), on first use, by whichever consumer asks first, and then served
// read-only to everyone else.
//
// The context is also the only way into the rule checker, the violation
// finder and the mode analyzer. Each is built from a context and asks it
// one question, through ForEachGroup: which groups of a (member, access)
// hold a rule's locks in order?
//
// Determinism contract (extends DESIGN.md 4b): every index is a pure
// function of the snapshot and the context's options — built over the
// context's ThreadPool where parallelism applies, with results written to
// per-index slots and merged in deterministic order — so index contents,
// and therefore every pass output, are byte-identical at any `jobs` value
// and no matter which consumer triggered construction. Rule derivation is
// timed into the context's PipelineTimings exactly once, no matter how many
// passes consume the rules.
#ifndef SRC_CORE_ANALYSIS_CONTEXT_H_
#define SRC_CORE_ANALYSIS_CONTEXT_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/core/derivator.h"
#include "src/core/filter_config.h"
#include "src/core/lock_order.h"
#include "src/core/observations.h"
#include "src/core/pipeline.h"
#include "src/model/type_registry.h"
#include "src/util/thread_pool.h"

namespace lockdoc {

class AnalysisContext;

// One rule's compliance over the store's interned held sequences. `ids` is
// the rule's interned form, absent when the rule names a lock class the pool
// never interned. Every held sequence is built from interned classes, so
// such a rule complies with no group. `complying` lists, ascending, the
// held-sequence ids that contain the rule as an ordered subsequence.
struct RuleCompliance {
  std::optional<IdSeq> ids;
  std::vector<uint32_t> complying;

  bool Complies(uint32_t lockseq_id) const {
    return std::binary_search(complying.begin(), complying.end(), lockseq_id);
  }
};

// Knobs consumed by individual analysis passes (src/core/analysis_pass.h),
// typically filled from CLI flags. A pass reads only its own fields.
struct PassOptions {
  // check / report: the documented rules to validate. Empty skips the
  // report's validation section and checks an empty rule set.
  std::string documented_rules_text;
  // violations / report: maximum Tab. 8-style examples listed.
  size_t violation_limit = 10;
  // modes: report every rule's mode distribution, not only suspicious ones.
  bool modes_all = false;
  // report: embed the generated documentation for every population.
  bool report_full = false;
  // diff: include unchanged rules.
  bool diff_all = false;
  // derive: emit the machine-readable rule spec instead of comment blocks.
  bool doc_spec = false;
  // derive: annotate members with sr/sa support.
  bool doc_support = false;
  // derive: restrict output to one type (and optionally one subclass).
  std::string doc_type;
  std::string doc_subclass;
  // derive: write the full documentation bundle here instead of stdout.
  std::string doc_out_dir;
  // violations / report: blacklist applied to the counterexample forensics,
  // with suppressed counts reported (never silent). Null: no suppression,
  // keeping default output byte-identical to the pre-forensics renderer.
  std::shared_ptr<const FilterConfig> forensics_filter;
  // diff: the OLD side of the comparison. Not owned.
  AnalysisContext* baseline = nullptr;
};

// Everything that parameterizes an analysis run: the pipeline knobs
// (threads, derivation thresholds) plus the per-pass options.
struct AnalysisOptions {
  PipelineOptions pipeline;
  PassOptions pass;
};

class AnalysisContext {
 public:
  // `snapshot` must outlive the context. `registry` may be nullptr for
  // derivation-only use (AnalyzeSnapshot); passes that resolve names CHECK
  // it. When `timings` is given, phases (rule derivation, pass phases) are
  // appended there; otherwise the context keeps its own.
  explicit AnalysisContext(const AnalysisSnapshot* snapshot,
                           const TypeRegistry* registry = nullptr,
                           AnalysisOptions options = {},
                           PipelineTimings* timings = nullptr);
  ~AnalysisContext();

  AnalysisContext(const AnalysisContext&) = delete;
  AnalysisContext& operator=(const AnalysisContext&) = delete;

  const AnalysisSnapshot& snapshot() const { return *snapshot_; }
  const Database& db() const { return snapshot_->db; }
  const ObservationStore& observations() const { return snapshot_->observations; }
  const TypeRegistry& registry() const;  // CHECKs that one was given.
  const AnalysisOptions& options() const { return options_; }
  PassOptions& pass_options() { return options_.pass; }
  ThreadPool& pool() { return pool_; }
  PipelineTimings& timings() { return *timings_; }

  // --- Lazily-built shared indexes (each constructed at most once, ---
  // --- thread-safe, returned read-only)                            ---

  // The derived winning-rule set (DeriveAll over the context's pool).
  // Appends the "rule derivation (interned)" phase and the mining counters
  // to timings() on the one call that builds.
  const std::vector<DerivationResult>& rules();

  // The lock-class ordering graph (requires a registry).
  const LockOrderGraph& lock_order_graph();

  // Per-(member, access-type) observation groups.
  const MemberAccessIndex& member_access_index();

  // Per-lock-class posting lists over interned sequences.
  const LockPostingIndex& lock_postings();

  // --- The group walk of the phase-3 analyzers (RuleChecker, ---
  // --- ViolationFinder, ModeAnalyzer)                          ---

  // `rule`'s complying held sequences, from the shared posting lists.
  RuleCompliance Compliance(const LockSeq& rule);

  // Calls visit(group, complies) for every observation group of (key,
  // access), in store order; `complies` says whether the group's held
  // sequence contains `rule` as an ordered subsequence. Safe to call from
  // several threads at once.
  template <typename Visit>
  void ForEachGroup(const MemberObsKey& key, AccessType access, const RuleCompliance& rule,
                    Visit&& visit) {
    const MemberAccessIndex::Entry* entry = member_access_index().Find(key);
    if (entry == nullptr) {
      return;
    }
    const auto groups = observations().GroupsFor(key);
    for (uint32_t index : entry->For(access)) {
      const ObservationGroup group = groups[index];
      visit(group, rule.Complies(group.lockseq_id));
    }
  }

  // Moves the memoized rule set out (deriving first if needed); the context
  // must not be used afterwards. For one-shot callers like AnalyzeSnapshot.
  std::vector<DerivationResult> TakeRules();

 private:
  const AnalysisSnapshot* snapshot_;
  const TypeRegistry* registry_;
  AnalysisOptions options_;
  ThreadPool pool_;
  PipelineTimings own_timings_;
  PipelineTimings* timings_;

  std::once_flag rules_once_;
  std::vector<DerivationResult> rules_;
  std::once_flag lock_order_once_;
  std::unique_ptr<LockOrderGraph> lock_order_;
  std::once_flag member_access_once_;
  std::unique_ptr<MemberAccessIndex> member_access_;
  std::once_flag postings_once_;
  std::unique_ptr<LockPostingIndex> postings_;
};

}  // namespace lockdoc

#endif  // SRC_CORE_ANALYSIS_CONTEXT_H_
