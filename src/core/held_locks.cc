#include "src/core/held_locks.h"

#include "src/db/schema.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace lockdoc {

LockClass ClassifyLockRow(const Database& db, const TypeRegistry& registry, uint64_t lock_row,
                          std::optional<uint64_t> access_alloc) {
  const Table& locks = db.table(LockDocSchema::kLocks);
  if (locks.GetUint64(lock_row, locks.ColumnIndex("is_static")) != 0) {
    uint64_t name_sid = locks.GetUint64(lock_row, locks.ColumnIndex("name_sid"));
    if (name_sid != 0) {
      return LockClass::Global(db.String(static_cast<StringId>(name_sid)));
    }
    return LockClass::Global(StrFormat(
        "lock@0x%llx",
        static_cast<unsigned long long>(locks.GetUint64(lock_row, locks.ColumnIndex("addr")))));
  }
  const Table& members = db.table(LockDocSchema::kMembers);
  uint64_t member_row = locks.GetUint64(lock_row, locks.ColumnIndex("owner_member_id"));
  TypeId owner_type =
      static_cast<TypeId>(members.GetUint64(member_row, members.ColumnIndex("type_id")));
  const std::string& lock_name = members.GetString(member_row, members.ColumnIndex("name"));
  const std::string& type_name = registry.layout(owner_type).name();
  if (access_alloc.has_value() &&
      locks.GetUint64(lock_row, locks.ColumnIndex("owner_alloc_id")) == *access_alloc) {
    return LockClass::Same(lock_name, type_name);
  }
  return LockClass::Other(lock_name, type_name);
}

std::vector<HeldLockInfo> ClassifyHeldLocks(const Database& db,
                                            const TypeRegistry& registry, uint64_t txn,
                                            uint64_t access_alloc) {
  const Table& txn_locks = db.table(LockDocSchema::kTxnLocks);
  const size_t kTlTxn = txn_locks.ColumnIndex("txn_id");
  const size_t kTlPos = txn_locks.ColumnIndex("position");
  const size_t kTlLock = txn_locks.ColumnIndex("lock_id");
  const size_t kTlMode = txn_locks.ColumnIndex("mode");
  const size_t kTlFile = txn_locks.ColumnIndex("file_sid");
  const size_t kTlLine = txn_locks.ColumnIndex("line");

  std::vector<RowId> rows = txn_locks.LookupEqual(kTlTxn, txn);
  std::vector<HeldLockInfo> held(rows.size());
  for (RowId row : rows) {
    uint64_t pos = txn_locks.GetUint64(row, kTlPos);
    LOCKDOC_CHECK(pos < held.size());
    HeldLockInfo entry;
    entry.lock_class =
        ClassifyLockRow(db, registry, txn_locks.GetUint64(row, kTlLock), access_alloc);
    entry.mode = static_cast<AcquireMode>(txn_locks.GetUint64(row, kTlMode));
    entry.file_sid = txn_locks.GetUint64(row, kTlFile);
    entry.line = txn_locks.GetUint64(row, kTlLine);
    held[pos] = std::move(entry);
  }
  return held;
}

}  // namespace lockdoc
