// Held-lock classification shared by extraction, the lock-order graph, the
// mode analysis and the violation forensics. ClassifyLockRow is the one rule
// that turns a lock instance (a row of the locks table) into a LockClass;
// ClassifyHeldLocks applies it to every lock a transaction held, in
// acquisition order, carrying each hold's mode and source site from the
// txn_locks table. The trace records no acquisition stacks, so the site is
// a (file_sid, line) pair, not a frame list.
#ifndef SRC_CORE_HELD_LOCKS_H_
#define SRC_CORE_HELD_LOCKS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/db/database.h"
#include "src/model/lock_class.h"
#include "src/model/lock_type.h"
#include "src/model/type_registry.h"

namespace lockdoc {

struct HeldLockInfo {
  LockClass lock_class;
  AcquireMode mode = AcquireMode::kExclusive;
  uint64_t file_sid = 0;  // Acquisition site.
  uint64_t line = 0;
};

// The class of lock row `lock_row` as seen from an access to allocation
// `access_alloc`: a static lock is global by name (an unnamed one renders
// as "lock@0x<addr>"); an embedded lock is ES when it lives in
// `access_alloc` and EO otherwise. Without a reference object (nullopt)
// every embedded lock is EO, which is how the lock-order graph names locks.
LockClass ClassifyLockRow(const Database& db, const TypeRegistry& registry, uint64_t lock_row,
                          std::optional<uint64_t> access_alloc);

// The locks held by transaction `txn`, classified relative to
// `access_alloc`, in acquisition order.
std::vector<HeldLockInfo> ClassifyHeldLocks(const Database& db,
                                            const TypeRegistry& registry, uint64_t txn,
                                            uint64_t access_alloc);

}  // namespace lockdoc

#endif  // SRC_CORE_HELD_LOCKS_H_
