#include "src/core/mode_analysis.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "src/core/held_locks.h"
#include "src/db/schema.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace lockdoc {

ModeAnalyzer::ModeAnalyzer(const Database* db, const TypeRegistry* registry,
                           const ObservationStore* store,
                           const MemberAccessIndex* member_index,
                           const LockPostingIndex* postings)
    : db_(db),
      registry_(registry),
      store_(store),
      member_index_(member_index),
      postings_(postings) {
  LOCKDOC_CHECK(db_ != nullptr && registry_ != nullptr && store_ != nullptr);
}

namespace {

// A lock class the pool never interned. Winners come from observed
// sequences, so their classes are always interned and never equal this.
constexpr LockId kNoLockId = std::numeric_limits<LockId>::max();

// Interned class ids of one lock row: `same` when the lock lives in the
// accessed allocation, `other` otherwise (equal for a static lock).
struct LockRowIds {
  LockId same = kNoLockId;
  LockId other = kNoLockId;
};

std::vector<LockRowIds> InternLockRows(const Database& db, const TypeRegistry& registry,
                                       const LockClassPool& pool) {
  const Table& locks = db.table(LockDocSchema::kLocks);
  const uint64_t* owner_alloc = locks.ColumnU64Data(locks.ColumnIndex("owner_alloc_id"));
  auto find = [&pool](const LockClass& cls) { return pool.Find(cls).value_or(kNoLockId); };
  std::vector<LockRowIds> ids(locks.row_count());
  for (RowId row = 0; row < locks.row_count(); ++row) {
    ids[row].same = find(ClassifyLockRow(db, registry, row, owner_alloc[row]));
    ids[row].other = find(ClassifyLockRow(db, registry, row, std::nullopt));
  }
  return ids;
}

}  // namespace

std::vector<ModeReportEntry> ModeAnalyzer::Analyze(const std::vector<DerivationResult>& results,
                                                   ThreadPool* pool) const {
  const Table& txn_locks = db_->table(LockDocSchema::kTxnLocks);
  const size_t kTlTxn = txn_locks.ColumnIndex("txn_id");
  const uint64_t* tl_pos = txn_locks.ColumnU64Data(txn_locks.ColumnIndex("position"));
  const uint64_t* tl_lock = txn_locks.ColumnU64Data(txn_locks.ColumnIndex("lock_id"));
  const uint64_t* tl_mode = txn_locks.ColumnU64Data(txn_locks.ColumnIndex("mode"));
  const Table& locks = db_->table(LockDocSchema::kLocks);
  const uint64_t* owner_alloc = locks.ColumnU64Data(locks.ColumnIndex("owner_alloc_id"));
  const std::vector<LockRowIds> lock_ids = InternLockRows(*db_, *registry_, store_->pool());

  // Each result fills its own slot; slots are concatenated in rule order
  // below, keeping output identical at any thread count.
  std::vector<std::optional<ModeReportEntry>> slots(results.size());
  auto analyze_range = [&](size_t begin, size_t end) {
    struct Held {
      LockId id = kNoLockId;
      AcquireMode mode = AcquireMode::kExclusive;
    };
    std::vector<Held> held;
    for (size_t i = begin; i < end; ++i) {
      const DerivationResult& result = results[i];
      if (!result.winner.has_value() || result.winner->locks.empty()) {
        continue;
      }
      ModeReportEntry& entry = slots[i].emplace();
      entry.key = result.key;
      entry.access = result.access;
      entry.rule = result.winner->locks;
      entry.usages.resize(entry.rule.size());
      for (size_t j = 0; j < entry.rule.size(); ++j) {
        entry.usages[j].lock = entry.rule[j];
      }

      // A rule naming a class the pool never interned complies with no
      // observation, so its usages stay zero. Otherwise the shared posting
      // lists, when available, precompute the rule's complying sequences
      // once so each group becomes a binary-search lookup.
      std::optional<IdSeq> rule_ids = store_->pool().FindSeq(entry.rule);
      if (!rule_ids.has_value()) {
        continue;
      }
      std::vector<uint32_t> complying;
      if (postings_ != nullptr) {
        complying = postings_->ComplyingSeqs(*store_, *rule_ids);
      }
      const std::vector<ObservationGroup>& groups = store_->GroupsFor(result.key);
      auto visit_group = [&](const ObservationGroup& group) {
        bool complies =
            postings_ != nullptr
                ? std::binary_search(complying.begin(), complying.end(), group.lockseq_id)
                : IsSubsequenceIds(*rule_ids, store_->id_seq(group.lockseq_id));
        if (!complies) {
          return;  // Only complying observations characterize the rule.
        }
        // Every lock the transaction held, by position, then a greedy
        // subsequence match to attribute a mode to each rule lock.
        std::vector<RowId> rows = txn_locks.LookupEqual(kTlTxn, group.txn_id);
        held.assign(rows.size(), Held{});
        for (RowId row : rows) {
          uint64_t pos = tl_pos[row];
          uint64_t lock_row = tl_lock[row];
          LOCKDOC_CHECK(pos < held.size() && lock_row < lock_ids.size());
          const LockRowIds& ids = lock_ids[lock_row];
          held[pos].id = owner_alloc[lock_row] == group.alloc_id ? ids.same : ids.other;
          held[pos].mode = static_cast<AcquireMode>(tl_mode[row]);
        }
        size_t rule_pos = 0;
        for (const Held& h : held) {
          if (rule_pos == rule_ids->size()) {
            break;
          }
          if (h.id == (*rule_ids)[rule_pos]) {
            if (h.mode == AcquireMode::kShared) {
              ++entry.usages[rule_pos].shared;
            } else {
              ++entry.usages[rule_pos].exclusive;
            }
            ++rule_pos;
          }
        }
      };
      if (member_index_ != nullptr) {
        if (const MemberAccessIndex::Entry* member_entry = member_index_->Find(result.key)) {
          for (uint32_t index : member_entry->For(result.access)) {
            visit_group(groups[index]);
          }
        }
      } else {
        for (const ObservationGroup& group : groups) {
          if (group.effective() == result.access) {
            visit_group(group);
          }
        }
      }

      if (result.access == AccessType::kWrite) {
        for (const ModeUsage& usage : entry.usages) {
          if (usage.shared > 0) {
            entry.suspicious = true;
          }
        }
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(results.size(), analyze_range);
  } else {
    analyze_range(0, results.size());
  }

  std::vector<ModeReportEntry> entries;
  for (std::optional<ModeReportEntry>& slot : slots) {
    if (slot.has_value()) {
      entries.push_back(std::move(*slot));
    }
  }
  return entries;
}

std::vector<ModeReportEntry> ModeAnalyzer::FindSharedModeWrites(
    const std::vector<DerivationResult>& results, ThreadPool* pool) const {
  std::vector<ModeReportEntry> all = Analyze(results, pool);
  std::erase_if(all, [](const ModeReportEntry& entry) { return !entry.suspicious; });
  return all;
}

std::string ModeAnalyzer::RenderEntry(const ModeReportEntry& entry) const {
  std::string member =
      registry_->QualifiedName(entry.key.type, entry.key.subclass) + "." +
      registry_->layout(entry.key.type).member(entry.key.member).name;
  std::string out =
      StrFormat("%s [%s]: %s%s\n", member.c_str(), AccessTypeName(entry.access),
                LockSeqToString(entry.rule).c_str(),
                entry.suspicious ? "   ** write under shared hold **" : "");
  for (const ModeUsage& usage : entry.usages) {
    if (usage.shared + usage.exclusive == 0) {
      continue;
    }
    out += StrFormat("    %-45s shared=%llu exclusive=%llu (%.0f%% shared)\n",
                     usage.lock.ToString().c_str(),
                     static_cast<unsigned long long>(usage.shared),
                     static_cast<unsigned long long>(usage.exclusive),
                     usage.shared_fraction() * 100.0);
  }
  return out;
}

std::string ModeAnalyzer::Render(const std::vector<ModeReportEntry>& entries) const {
  std::string out;
  for (const ModeReportEntry& entry : entries) {
    out += RenderEntry(entry);
  }
  return out;
}

}  // namespace lockdoc
