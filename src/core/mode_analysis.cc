#include "src/core/mode_analysis.h"

#include <limits>
#include <optional>

#include "src/core/held_locks.h"
#include "src/db/schema.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace lockdoc {

ModeAnalyzer::ModeAnalyzer(AnalysisContext& context)
    : context_(&context),
      db_(&context.db()),
      registry_(&context.registry()),
      store_(&context.observations()) {}

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
  const ColumnView owner_alloc = locks.Column(locks.ColumnIndex("owner_alloc_id"));
  auto find = [&pool](const LockClass& cls) { return pool.Find(cls).value_or(kNoLockId); };
  std::vector<LockRowIds> ids(locks.row_count());
  for (RowId row = 0; row < locks.row_count(); ++row) {
    ids[row].same = find(ClassifyLockRow(db, registry, row, owner_alloc[row]));
    ids[row].other = find(ClassifyLockRow(db, registry, row, std::nullopt));
  }
  return ids;
}

}  // namespace

std::vector<ModeReportEntry> ModeAnalyzer::Analyze(
    const std::vector<DerivationResult>& results) const {
  const Table& txn_locks = db_->table(LockDocSchema::kTxnLocks);
  const size_t kTlTxn = txn_locks.ColumnIndex("txn_id");
  // Column views at their stored width: the tables may be mapped from a
  // .lockdb.
  const ColumnView tl_pos = txn_locks.Column(txn_locks.ColumnIndex("position"));
  const ColumnView tl_lock = txn_locks.Column(txn_locks.ColumnIndex("lock_id"));
  const ColumnView tl_mode = txn_locks.Column(txn_locks.ColumnIndex("mode"));
  const Table& locks = db_->table(LockDocSchema::kLocks);
  const ColumnView owner_alloc = locks.Column(locks.ColumnIndex("owner_alloc_id"));
  const std::vector<LockRowIds> lock_ids = InternLockRows(*db_, *registry_, store_->pool());

  // Each result fills its own slot; slots are concatenated in rule order
  // below, keeping output identical at any thread count.
  std::vector<std::optional<ModeReportEntry>> slots(results.size());
  context_->pool().ParallelFor(results.size(), [&](size_t begin, size_t end) {
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

      // Only complying observations characterize the rule; a rule naming a
      // class the pool never interned has none, so its usages stay zero.
      RuleCompliance compliance = context_->Compliance(entry.rule);
      context_->ForEachGroup(
          result.key, result.access, compliance,
          [&](const ObservationGroup& group, bool complies) {
            if (!complies) {
              return;
            }
            const IdSeq& rule_ids = *compliance.ids;
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
              if (rule_pos == rule_ids.size()) {
                break;
              }
              if (h.id == rule_ids[rule_pos]) {
                if (h.mode == AcquireMode::kShared) {
                  ++entry.usages[rule_pos].shared;
                } else {
                  ++entry.usages[rule_pos].exclusive;
                }
                ++rule_pos;
              }
            }
          });

      if (result.access == AccessType::kWrite) {
        for (const ModeUsage& usage : entry.usages) {
          if (usage.shared > 0) {
            entry.suspicious = true;
          }
        }
      }
    }
  });

  std::vector<ModeReportEntry> entries;
  for (std::optional<ModeReportEntry>& slot : slots) {
    if (slot.has_value()) {
      entries.push_back(std::move(*slot));
    }
  }
  return entries;
}

std::vector<ModeReportEntry> ModeAnalyzer::FindSharedModeWrites(
    const std::vector<DerivationResult>& results) const {
  std::vector<ModeReportEntry> all = Analyze(results);
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

}  // namespace lockdoc
