#include "src/core/violation_finder.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/core/held_locks.h"
#include "src/db/schema.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace lockdoc {

ViolationFinder::ViolationFinder(AnalysisContext& context)
    : context_(&context),
      db_(&context.db()),
      registry_(&context.registry()),
      store_(&context.observations()) {}

ViolationFinder::AccessContext ViolationFinder::ContextOf(uint64_t seq) const {
  const Table& accesses = db_->table(LockDocSchema::kAccesses);
  static const size_t kSeq = accesses.ColumnIndex("seq");
  static const size_t kType = accesses.ColumnIndex("access_type");
  static const size_t kFile = accesses.ColumnIndex("file_sid");
  static const size_t kLine = accesses.ColumnIndex("line");
  static const size_t kStack = accesses.ColumnIndex("stack_id");
  std::vector<RowId> rows = accesses.LookupEqual(kSeq, seq);
  LOCKDOC_CHECK(rows.size() == 1);  // seq is the accesses table's key.
  AccessContext context;
  context.access_type = accesses.GetUint64(rows[0], kType);
  context.file_sid = accesses.GetUint64(rows[0], kFile);
  context.line = accesses.GetUint64(rows[0], kLine);
  context.stack_id = accesses.GetUint64(rows[0], kStack);
  return context;
}

std::vector<Violation> ViolationFinder::FindAll(
    const std::vector<DerivationResult>& results) const {
  // Each derivation result fills its own slot; slots are concatenated in
  // rule order below, keeping output identical at any thread count.
  std::vector<std::vector<Violation>> slots(results.size());
  context_->pool().ParallelFor(results.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const DerivationResult& result = results[i];
      if (!result.winner.has_value() || result.winner->is_no_lock() ||
          result.winner->sr >= 1.0) {
        continue;
      }
      // The held strings are materialized only for actual violations.
      RuleCompliance compliance = context_->Compliance(result.winner->locks);
      context_->ForEachGroup(
          result.key, result.access, compliance,
          [&](const ObservationGroup& group, bool complies) {
            if (complies) {
              return;
            }
            Violation violation;
            violation.key = result.key;
            violation.access = result.access;
            violation.rule = result.winner->locks;
            violation.held = store_->seq(group.lockseq_id);
            for (uint64_t seq : group.seqs) {
              if (static_cast<AccessType>(ContextOf(seq).access_type) == result.access) {
                violation.seqs.push_back(seq);
              }
            }
            if (!violation.seqs.empty()) {
              slots[i].push_back(std::move(violation));
            }
          });
    }
  });

  std::vector<Violation> violations;
  for (std::vector<Violation>& slot : slots) {
    for (Violation& violation : slot) {
      violations.push_back(std::move(violation));
    }
  }
  return violations;
}

std::vector<ViolationSummaryRow> ViolationFinder::Summarize(
    const std::vector<Violation>& violations) const {
  struct Agg {
    uint64_t events = 0;
    std::set<MemberIndex> members;
    // (file_sid, line, stack_id); kDbNull marks a missing stack, which is
    // as unique a sentinel as kInvalidStack was, so grouping is unchanged.
    std::set<std::tuple<uint64_t, uint64_t, uint64_t>> contexts;
  };
  // Include every observed (type, subclass) so clean types report zeros,
  // as in the paper's Tab. 7.
  std::map<std::pair<TypeId, SubclassId>, Agg> by_type;
  for (const MemberObsKey& key : store_->keys()) {
    by_type.try_emplace({key.type, key.subclass});
  }
  for (const Violation& violation : violations) {
    Agg& agg = by_type[{violation.key.type, violation.key.subclass}];
    agg.events += violation.seqs.size();
    agg.members.insert(violation.key.member);
    for (uint64_t seq : violation.seqs) {
      AccessContext context = ContextOf(seq);
      agg.contexts.insert({context.file_sid, context.line, context.stack_id});
    }
  }

  std::vector<ViolationSummaryRow> rows;
  rows.reserve(by_type.size());
  for (const auto& [type_key, agg] : by_type) {
    ViolationSummaryRow row;
    row.type_name = registry_->QualifiedName(type_key.first, type_key.second);
    row.events = agg.events;
    row.members = agg.members.size();
    row.contexts = agg.contexts.size();
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const ViolationSummaryRow& a,
                                         const ViolationSummaryRow& b) {
    return a.type_name < b.type_name;
  });
  return rows;
}

ViolationFinder::ContextMap ViolationFinder::AggregateContexts(
    const std::vector<Violation>& violations) const {
  // Aggregate violating events by full context:
  // (member, access, rule, held, file, line, stack).
  ContextMap contexts;
  for (const Violation& violation : violations) {
    std::string member =
        registry_->QualifiedName(violation.key.type, violation.key.subclass) + "." +
        registry_->layout(violation.key.type).member(violation.key.member).name;
    std::string rule = LockSeqToString(violation.rule);
    std::string held = LockSeqToString(violation.held);
    for (uint64_t seq : violation.seqs) {
      AccessContext context = ContextOf(seq);
      ContextAgg& agg = contexts[std::make_tuple(
          member, std::string(AccessTypeName(violation.access)), rule, held,
          context.file_sid, context.line, context.stack_id)];
      if (agg.events == 0 || seq < agg.representative_seq) {
        agg.representative_seq = seq;
      }
      if (agg.violation == nullptr) {
        agg.violation = &violation;
      }
      ++agg.events;
    }
  }
  return contexts;
}

std::vector<const ViolationFinder::ContextMap::value_type*> ViolationFinder::SortByEvidence(
    const ContextMap& map) {
  std::vector<const ContextMap::value_type*> sorted;
  sorted.reserve(map.size());
  for (const auto& entry : map) {
    sorted.push_back(&entry);
  }
  std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
    if (a->second.events != b->second.events) {
      return a->second.events > b->second.events;
    }
    return a->first < b->first;
  });
  return sorted;
}

namespace {

// The function names of one recorded stack, innermost first; empty for a
// missing (kDbNull) stack.
std::vector<std::string> StackFunctionNames(const Database& db, uint64_t stack_id) {
  std::vector<std::string> names;
  if (stack_id == kDbNull) {
    return names;
  }
  const Table& frames = db.table(LockDocSchema::kStackFrames);
  const size_t kStack = frames.ColumnIndex("stack_id");
  const size_t kPos = frames.ColumnIndex("position");
  const size_t kFunc = frames.ColumnIndex("function_sid");
  std::vector<RowId> rows = frames.LookupEqual(kStack, stack_id);
  names.resize(rows.size());
  for (RowId row : rows) {
    uint64_t pos = frames.GetUint64(row, kPos);
    LOCKDOC_CHECK(pos < names.size());
    names[pos] = db.String(static_cast<StringId>(frames.GetUint64(row, kFunc)));
  }
  return names;
}

}  // namespace

NearestComplyingAccess ViolationFinder::NearestComplying(const Violation& violation,
                                                         uint64_t rep_seq) const {
  NearestComplyingAccess nearest;
  uint32_t nearest_lockseq = 0;
  context_->ForEachGroup(
      violation.key, violation.access, context_->Compliance(violation.rule),
      [&](const ObservationGroup& group, bool complies) {
        if (!complies) {
          return;
        }
        for (uint64_t seq : group.seqs) {
          if (static_cast<AccessType>(ContextOf(seq).access_type) != violation.access) {
            continue;
          }
          uint64_t distance = seq > rep_seq ? seq - rep_seq : rep_seq - seq;
          if (!nearest.present || distance < nearest.distance ||
              (distance == nearest.distance && seq < nearest.seq)) {
            nearest.present = true;
            nearest.seq = seq;
            nearest.distance = distance;
            nearest_lockseq = group.lockseq_id;
          }
        }
      });
  if (nearest.present) {
    AccessContext context = ContextOf(nearest.seq);
    nearest.location = DbFormatLoc(*db_, context.file_sid, context.line);
    nearest.stack = DbFormatStack(*db_, context.stack_id);
    nearest.held = LockSeqToString(store_->seq(nearest_lockseq));
  }
  return nearest;
}

ViolationForensics ViolationFinder::Forensics(const std::vector<Violation>& violations,
                                              size_t limit,
                                              const FilterConfig* filter) const {
  ContextMap contexts = AggregateContexts(violations);
  std::vector<const ContextMap::value_type*> sorted = SortByEvidence(contexts);

  // Blacklist suppression with accounting: a group is suppressed when its
  // member (qualified or not) is blacklisted or any stack frame names a
  // blacklisted function. Never silent — counts survive into the report.
  ViolationForensics forensics;
  std::vector<const ContextMap::value_type*> kept;
  std::map<uint64_t, std::vector<std::string>> frames_cache;
  for (const ContextMap::value_type* entry : sorted) {
    bool suppressed = false;
    if (filter != nullptr) {
      const std::string& member = std::get<0>(entry->first);
      if (filter->blacklisted_members.count(member) != 0) {
        suppressed = true;
      } else {
        // "inode:ext4.i_hash" also matches an unqualified "inode.i_hash".
        size_t colon = member.find(':');
        size_t dot = member.rfind('.');
        if (colon != std::string::npos && dot != std::string::npos && dot > colon &&
            filter->blacklisted_members.count(member.substr(0, colon) +
                                              member.substr(dot)) != 0) {
          suppressed = true;
        }
      }
      if (!suppressed &&
          (!filter->ignored_functions.empty() || !filter->init_teardown_functions.empty())) {
        uint64_t stack_id = std::get<6>(entry->first);
        auto [it, inserted] = frames_cache.try_emplace(stack_id);
        if (inserted) {
          it->second = StackFunctionNames(*db_, stack_id);
        }
        for (const std::string& function : it->second) {
          if (filter->ignored_functions.count(function) != 0 ||
              filter->init_teardown_functions.count(function) != 0) {
            suppressed = true;
            break;
          }
        }
      }
    }
    if (suppressed) {
      ++forensics.suppressed_groups;
      forensics.suppressed_events += entry->second.events;
    } else {
      kept.push_back(entry);
    }
  }
  forensics.total_groups = kept.size();

  const Table& accesses = db_->table(LockDocSchema::kAccesses);
  const size_t kSeqCol = accesses.ColumnIndex("seq");
  const size_t kTxnCol = accesses.ColumnIndex("txn_id");
  const size_t kAllocCol = accesses.ColumnIndex("alloc_id");

  for (const ContextMap::value_type* entry : kept) {
    if (forensics.groups.size() >= limit) {
      break;
    }
    const ContextKey& key = entry->first;
    const ContextAgg& agg = entry->second;
    CexGroupData group;
    group.member = std::get<0>(key);
    group.access = std::get<1>(key);
    group.rule = std::get<2>(key);
    group.held = std::get<3>(key);
    group.location = DbFormatLoc(*db_, std::get<4>(key), std::get<5>(key));
    group.stack = DbFormatStack(*db_, std::get<6>(key));
    group.events = agg.events;
    group.rank = forensics.groups.size() + 1;
    group.representative_seq = agg.representative_seq;
    group.frames = StackFunctionNames(*db_, std::get<6>(key));

    // Held-lock provenance of the representative violating access: class,
    // mode and acquisition site of every lock the transaction held.
    std::vector<RowId> rows = accesses.LookupEqual(kSeqCol, agg.representative_seq);
    LOCKDOC_CHECK(rows.size() == 1);
    uint64_t txn = accesses.GetUint64(rows[0], kTxnCol);
    uint64_t alloc = accesses.GetUint64(rows[0], kAllocCol);
    if (txn != kDbNull) {
      for (const HeldLockInfo& info : ClassifyHeldLocks(*db_, *registry_, txn, alloc)) {
        HeldLockDetail detail;
        detail.lock = info.lock_class.ToString();
        detail.mode = info.mode == AcquireMode::kShared ? "shared" : "exclusive";
        detail.acquired_at = DbFormatLoc(*db_, info.file_sid, info.line);
        group.held_locks.push_back(std::move(detail));
      }
    }

    group.nearest_complying =
        NearestComplying(*agg.violation, agg.representative_seq);
    forensics.groups.push_back(std::move(group));
  }
  forensics.shown_groups = forensics.groups.size();
  return forensics;
}

void AppendForensicsNotes(ReportSection& section, const ViolationForensics& forensics,
                          bool report_style) {
  bool first = true;
  auto prefix = [&]() {
    std::string p = (report_style && first) ? "\n" : "";
    first = false;
    return p;
  };
  if (forensics.shown_groups < forensics.total_groups) {
    ReportNode& node = AddTextNode(
        section, "truncation",
        prefix() + StrFormat("showing %llu of %llu counterexample groups\n",
                             static_cast<unsigned long long>(forensics.shown_groups),
                             static_cast<unsigned long long>(forensics.total_groups)));
    node.fields = {{"shown", std::to_string(forensics.shown_groups)},
                   {"total", std::to_string(forensics.total_groups)}};
  }
  if (forensics.suppressed_groups > 0) {
    ReportNode& node = AddTextNode(
        section, "suppressed",
        prefix() +
            StrFormat("blacklist suppressed %llu counterexample groups (%llu events)\n",
                      static_cast<unsigned long long>(forensics.suppressed_groups),
                      static_cast<unsigned long long>(forensics.suppressed_events)));
    node.fields = {{"suppressed_groups", std::to_string(forensics.suppressed_groups)},
                   {"suppressed_events", std::to_string(forensics.suppressed_events)}};
  }
}

}  // namespace lockdoc
