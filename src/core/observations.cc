#include "src/core/observations.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "src/core/held_locks.h"
#include "src/db/schema.h"
#include "src/util/logging.h"

namespace lockdoc {

const std::vector<ObservationGroup> ObservationStore::kEmptyGroups;

// Per-store subsequence-enumeration cache. Entries are heap-allocated so
// their once_flags stay put when the store moves; the mutex guards only
// (re)building the entry table, and call_once makes each entry's fill
// thread-safe with exactly one computing thread.
struct ObservationStore::EnumCache {
  struct Entry {
    std::once_flag once;
    std::vector<IdSeq> subseqs;
  };

  std::mutex mu;
  size_t max_locks = 0;
  std::vector<std::unique_ptr<Entry>> entries;
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
};

ObservationStore::ObservationStore() : enum_cache_(std::make_unique<EnumCache>()) {}
ObservationStore::~ObservationStore() = default;
ObservationStore::ObservationStore(ObservationStore&&) noexcept = default;
ObservationStore& ObservationStore::operator=(ObservationStore&&) noexcept = default;

uint32_t ObservationStore::InternSeq(const LockSeq& seq) {
  auto it = seq_index_.find(seq);
  if (it != seq_index_.end()) {
    return it->second;
  }
  uint32_t id = static_cast<uint32_t>(seqs_.size());
  seqs_.push_back(seq);
  id_seqs_.push_back(pool_.InternSeq(seq));
  seq_index_.emplace(seq, id);
  return id;
}

const LockSeq& ObservationStore::seq(uint32_t id) const {
  LOCKDOC_CHECK(id < seqs_.size());
  return seqs_[id];
}

const IdSeq& ObservationStore::id_seq(uint32_t id) const {
  LOCKDOC_CHECK(id < id_seqs_.size());
  return id_seqs_[id];
}

const std::vector<IdSeq>& ObservationStore::CachedSubsequenceIds(uint32_t seq_id,
                                                                 size_t max_locks) const {
  LOCKDOC_CHECK(seq_id < id_seqs_.size());
  LOCKDOC_CHECK(enum_cache_ != nullptr);  // Absent only in a moved-from store.
  EnumCache& cache = *enum_cache_;
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    if (cache.entries.size() != id_seqs_.size() || cache.max_locks != max_locks) {
      // New sequences were interned or the expansion bound changed: rebuild.
      // Callers must not hold references across such a change.
      cache.entries.clear();
      cache.entries.reserve(id_seqs_.size());
      for (size_t i = 0; i < id_seqs_.size(); ++i) {
        cache.entries.push_back(std::make_unique<EnumCache::Entry>());
      }
      cache.max_locks = max_locks;
    }
  }
  EnumCache::Entry& entry = *cache.entries[seq_id];
  bool computed = false;
  std::call_once(entry.once, [&] {
    entry.subseqs = EnumerateSubsequenceIds(id_seqs_[seq_id], max_locks);
    computed = true;
  });
  (computed ? cache.misses : cache.hits).fetch_add(1, std::memory_order_relaxed);
  return entry.subseqs;
}

uint64_t ObservationStore::enum_cache_hits() const {
  return enum_cache_ == nullptr ? 0 : enum_cache_->hits.load(std::memory_order_relaxed);
}

uint64_t ObservationStore::enum_cache_misses() const {
  return enum_cache_ == nullptr ? 0 : enum_cache_->misses.load(std::memory_order_relaxed);
}

void ObservationStore::ResetForSnapshot(
    LockClassPool pool, std::vector<IdSeq> id_seqs,
    std::map<MemberObsKey, std::vector<ObservationGroup>> groups) {
  pool_ = std::move(pool);
  id_seqs_ = std::move(id_seqs);
  groups_ = std::move(groups);
  seqs_.clear();
  seqs_.reserve(id_seqs_.size());
  seq_index_.clear();
  for (size_t i = 0; i < id_seqs_.size(); ++i) {
    seqs_.push_back(pool_.Materialize(id_seqs_[i]));
    bool inserted = seq_index_.emplace(seqs_.back(), static_cast<uint32_t>(i)).second;
    LOCKDOC_CHECK(inserted && "duplicate sequence in serialized store");
  }
  enum_cache_ = std::make_unique<EnumCache>();
}

const std::vector<ObservationGroup>& ObservationStore::GroupsFor(const MemberObsKey& key) const {
  auto it = groups_.find(key);
  return it == groups_.end() ? kEmptyGroups : it->second;
}

uint64_t ObservationStore::CountObservations(const MemberObsKey& key, AccessType access) const {
  uint64_t count = 0;
  for (const ObservationGroup& group : GroupsFor(key)) {
    if (group.effective() == access) {
      ++count;
    }
  }
  return count;
}

MemberAccessIndex MemberAccessIndex::Build(const ObservationStore& store) {
  MemberAccessIndex index;
  for (const auto& [key, groups] : store.groups()) {
    Entry& entry = index.entries_[key];
    for (size_t i = 0; i < groups.size(); ++i) {
      entry.groups[static_cast<size_t>(groups[i].effective())].push_back(
          static_cast<uint32_t>(i));
    }
  }
  return index;
}

const MemberAccessIndex::Entry* MemberAccessIndex::Find(const MemberObsKey& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

uint64_t MemberAccessIndex::Count(const MemberObsKey& key, AccessType access) const {
  const Entry* entry = Find(key);
  return entry == nullptr ? 0 : entry->For(access).size();
}

const std::vector<uint32_t> LockPostingIndex::kEmptyPostings;

LockPostingIndex LockPostingIndex::Build(const ObservationStore& store) {
  LockPostingIndex index;
  index.postings_.resize(store.pool().size());
  for (uint32_t seq_id = 0; seq_id < store.distinct_seqs(); ++seq_id) {
    // Dedup in place: a lock appearing twice in one sequence (nested
    // same-class locking) must post the sequence only once.
    IdSeq ids = store.id_seq(seq_id);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    for (LockId id : ids) {
      index.postings_[id].push_back(seq_id);
    }
  }
  return index;
}

const std::vector<uint32_t>& LockPostingIndex::Postings(LockId id) const {
  return id < postings_.size() ? postings_[id] : kEmptyPostings;
}

std::vector<uint32_t> LockPostingIndex::ComplyingSeqs(const ObservationStore& store,
                                                      const IdSeq& rule_ids) const {
  if (rule_ids.empty()) {
    std::vector<uint32_t> all(store.distinct_seqs());
    for (uint32_t i = 0; i < all.size(); ++i) {
      all[i] = i;
    }
    return all;
  }

  // Presence filter: intersect the posting lists, rarest lock first.
  const std::vector<uint32_t>* seed = &Postings(rule_ids[0]);
  for (LockId id : rule_ids) {
    const std::vector<uint32_t>& postings = Postings(id);
    if (postings.size() < seed->size()) {
      seed = &postings;
    }
  }
  std::vector<uint32_t> candidates;
  candidates.reserve(seed->size());
  for (uint32_t seq_id : *seed) {
    bool present = true;
    for (LockId id : rule_ids) {
      const std::vector<uint32_t>& postings = Postings(id);
      if (!std::binary_search(postings.begin(), postings.end(), seq_id)) {
        present = false;
        break;
      }
    }
    // Order filter: presence does not imply the rule's acquisition order
    // (or multiplicity); the two-pointer subsequence check decides.
    if (present && IsSubsequenceIds(rule_ids, store.id_seq(seq_id))) {
      candidates.push_back(seq_id);
    }
  }
  return candidates;
}

namespace {

constexpr uint32_t kNoEntry = UINT32_MAX;

// A group the fold has opened: one node of its transaction's list. Groups
// of a transaction are found by walking that list, newest first.
struct OpenGroup {
  uint64_t alloc = 0;
  uint32_t member_row = 0;
  uint32_t slot = 0;  // Member-key slot the group belongs to.
  uint32_t task = 0;  // Its (txn, alloc) classification task.
  uint32_t next = kNoEntry;
  uint32_t n_reads = 0;
  uint32_t n_writes = 0;
};

// A distinct (txn, alloc) pair whose held-lock classes need classifying.
struct ClassTask {
  uint64_t txn = 0;
  uint64_t alloc = 0;
};

// A member row's slots: one per (allocation type, subclass) seen with it.
struct SlotRef {
  TypeId type = kInvalidTypeId;
  SubclassId subclass = kNoSubclass;
  uint32_t slot = 0;
};

struct ClassIdSeqHash {
  size_t operator()(const std::vector<uint32_t>& ids) const {
    uint64_t h = ids.size();
    for (uint32_t id : ids) {
      h ^= id + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return static_cast<size_t>(h);
  }
};

}  // namespace

ObservationStore ExtractObservations(const Database& db, const TypeRegistry& registry,
                                     ThreadPool* pool) {
  const Table& accesses = db.table(LockDocSchema::kAccesses);
  const Table& allocations = db.table(LockDocSchema::kAllocations);
  const Table& members = db.table(LockDocSchema::kMembers);
  const Table& txns = db.table(LockDocSchema::kTxns);
  const Table& txn_locks = db.table(LockDocSchema::kTxnLocks);
  const Table& locks = db.table(LockDocSchema::kLocks);
  const size_t n_allocs = allocations.row_count();
  const size_t n_members = members.row_count();
  const size_t n_txns = txns.row_count();
  const size_t n_locks = locks.row_count();

  // Raw column pointers keep the per-row cost at array reads. Every id read
  // from a column is bounds-checked before it indexes an array.
  const uint64_t* acc_filter = accesses.ColumnU64Data(accesses.ColumnIndex("filter_reason"));
  const uint64_t* acc_seq = accesses.ColumnU64Data(accesses.ColumnIndex("seq"));
  const uint64_t* acc_txn = accesses.ColumnU64Data(accesses.ColumnIndex("txn_id"));
  const uint64_t* acc_alloc = accesses.ColumnU64Data(accesses.ColumnIndex("alloc_id"));
  const uint64_t* acc_member = accesses.ColumnU64Data(accesses.ColumnIndex("member_id"));
  const uint64_t* acc_type = accesses.ColumnU64Data(accesses.ColumnIndex("access_type"));
  const uint64_t* alloc_type = allocations.ColumnU64Data(allocations.ColumnIndex("type_id"));
  const uint64_t* alloc_subclass =
      allocations.ColumnU64Data(allocations.ColumnIndex("subclass"));
  const uint64_t* member_idx = members.ColumnU64Data(members.ColumnIndex("member_idx"));

  // --- Fold: kept accesses into groups, in trace order. ---
  //
  // A group is one (txn, alloc, member_row). Accesses arrive in seq order
  // and a transaction never becomes current again once it has ended, so a
  // group only ever gathers accesses of its own transaction's span; the
  // open groups therefore live in per-transaction lists indexed by the
  // (dense) txn id. A new group of a (txn, alloc) pair not seen before
  // opens a classification task; tasks are numbered in group
  // first-appearance order, the order sequences get interned in below.
  // The fold only counts; the groups are built once their sizes are known.
  LOCKDOC_CHECK(n_members < kNoEntry);
  std::vector<uint32_t> txn_head(n_txns, kNoEntry);
  std::vector<OpenGroup> open;
  std::vector<ClassTask> tasks;
  std::vector<uint32_t> access_group;  // Per kept access, in row order.

  // Member keys resolve through a dense table indexed by member row; the
  // key map is consulted only when a slot is first seen.
  std::vector<std::vector<SlotRef>> member_slots(n_members);
  std::map<MemberObsKey, uint32_t> key_slot;
  std::vector<MemberObsKey> slot_key;
  auto slot_of = [&](uint64_t alloc, uint64_t member_row) -> uint32_t {
    const TypeId type = static_cast<TypeId>(alloc_type[alloc]);
    const SubclassId subclass = static_cast<SubclassId>(alloc_subclass[alloc]);
    for (const SlotRef& ref : member_slots[member_row]) {
      if (ref.type == type && ref.subclass == subclass) {
        return ref.slot;
      }
    }
    MemberObsKey key;
    key.type = type;
    key.subclass = subclass;
    key.member = static_cast<MemberIndex>(member_idx[member_row]);
    auto [it, inserted] = key_slot.try_emplace(key, static_cast<uint32_t>(slot_key.size()));
    if (inserted) {
      slot_key.push_back(key);
    }
    member_slots[member_row].push_back({type, subclass, it->second});
    return it->second;
  };

  for (RowId row = 0; row < accesses.row_count(); ++row) {
    if (acc_filter[row] != static_cast<uint64_t>(FilterReason::kNone)) {
      continue;
    }
    const uint64_t txn = acc_txn[row];
    const uint64_t alloc = acc_alloc[row];
    const uint64_t member_row = acc_member[row];
    LOCKDOC_CHECK(txn < n_txns && alloc < n_allocs && member_row < n_members);

    uint32_t found = kNoEntry;
    uint32_t task = kNoEntry;
    for (uint32_t g = txn_head[txn]; g != kNoEntry; g = open[g].next) {
      if (open[g].alloc != alloc) {
        continue;
      }
      task = open[g].task;  // Every group of one (txn, alloc) shares its task.
      if (open[g].member_row == member_row) {
        found = g;
        break;
      }
    }
    if (found == kNoEntry) {
      if (task == kNoEntry) {
        task = static_cast<uint32_t>(tasks.size());
        tasks.push_back({txn, alloc});
      }
      LOCKDOC_CHECK(open.size() < kNoEntry);
      found = static_cast<uint32_t>(open.size());
      OpenGroup& group = open.emplace_back();
      group.alloc = alloc;
      group.member_row = static_cast<uint32_t>(member_row);
      group.slot = slot_of(alloc, member_row);
      group.task = task;
      group.next = txn_head[txn];
      txn_head[txn] = found;
    }
    if (acc_type[row] == static_cast<uint64_t>(AccessType::kWrite)) {
      ++open[found].n_writes;
    } else {
      ++open[found].n_reads;
    }
    access_group.push_back(found);
  }

  // --- Each transaction's held locks, by position (CSR over txn ids). ---
  const uint64_t* tl_txn = txn_locks.ColumnU64Data(txn_locks.ColumnIndex("txn_id"));
  const uint64_t* tl_pos = txn_locks.ColumnU64Data(txn_locks.ColumnIndex("position"));
  const uint64_t* tl_lock = txn_locks.ColumnU64Data(txn_locks.ColumnIndex("lock_id"));
  std::vector<size_t> held_begin(n_txns + 1, 0);
  for (RowId row = 0; row < txn_locks.row_count(); ++row) {
    LOCKDOC_CHECK(tl_txn[row] < n_txns);
    ++held_begin[tl_txn[row] + 1];
  }
  for (size_t txn = 0; txn < n_txns; ++txn) {
    held_begin[txn + 1] += held_begin[txn];
  }
  auto held_slot = [&](uint64_t txn, uint64_t pos) {
    LOCKDOC_CHECK(txn < n_txns && pos < held_begin[txn + 1] - held_begin[txn]);
    return held_begin[txn] + pos;
  };
  std::vector<uint64_t> held_lock(txn_locks.row_count(), 0);
  for (RowId row = 0; row < txn_locks.row_count(); ++row) {
    held_lock[held_slot(tl_txn[row], tl_pos[row])] = tl_lock[row];
  }

  // Range-lock support (optional tables, present only for ranged traces).
  // A held range lock covers an access only when its span overlaps the
  // accessed allocation's ground-truth span; a non-overlapping hold is
  // dropped from that access's held sequence — it is neither compliance
  // nor violation, the access is simply not protected by it. Allocations
  // without a recorded span are conservatively covered by every hold, and
  // non-range holds always cover, so range-free traces take the exact
  // pre-range path.
  const bool has_ranges =
      db.HasTable(LockDocSchema::kAllocRanges) && db.HasTable(LockDocSchema::kTxnLockRanges);
  struct Span {
    bool present = false;
    uint64_t start = 0;
    uint64_t end = 0;
  };
  std::vector<Span> alloc_span;  // By alloc id.
  std::vector<Span> held_range;  // By held slot.
  if (has_ranges) {
    const Table& alloc_ranges = db.table(LockDocSchema::kAllocRanges);
    const size_t kArAlloc = alloc_ranges.ColumnIndex("alloc_id");
    const size_t kArStart = alloc_ranges.ColumnIndex("range_start");
    const size_t kArEnd = alloc_ranges.ColumnIndex("range_end");
    alloc_span.resize(n_allocs);
    for (RowId row = 0; row < alloc_ranges.row_count(); ++row) {
      const uint64_t alloc = alloc_ranges.GetUint64(row, kArAlloc);
      LOCKDOC_CHECK(alloc < n_allocs);
      alloc_span[alloc] = {true, alloc_ranges.GetUint64(row, kArStart),
                           alloc_ranges.GetUint64(row, kArEnd)};
    }
    const Table& txn_lock_ranges = db.table(LockDocSchema::kTxnLockRanges);
    const size_t kTlrTxn = txn_lock_ranges.ColumnIndex("txn_id");
    const size_t kTlrPos = txn_lock_ranges.ColumnIndex("position");
    const size_t kTlrStart = txn_lock_ranges.ColumnIndex("range_start");
    const size_t kTlrEnd = txn_lock_ranges.ColumnIndex("range_end");
    held_range.resize(held_lock.size());
    for (RowId row = 0; row < txn_lock_ranges.row_count(); ++row) {
      held_range[held_slot(txn_lock_ranges.GetUint64(row, kTlrTxn),
                           txn_lock_ranges.GetUint64(row, kTlrPos))] = {
          true, txn_lock_ranges.GetUint64(row, kTlrStart),
          txn_lock_ranges.GetUint64(row, kTlrEnd)};
    }
  }

  // --- Lock classes as local ids. ---
  // ClassifyLockRow gives a locks row its Global class, or its Same class
  // (seen from its owner) and its Other class (seen from anywhere else).
  // Embedded locks get both through their lock member, so each member is
  // classified once; a class gets its local id on first sight.
  const uint64_t* lock_is_static = locks.ColumnU64Data(locks.ColumnIndex("is_static"));
  const uint64_t* lock_owner_alloc = locks.ColumnU64Data(locks.ColumnIndex("owner_alloc_id"));
  const uint64_t* lock_owner_member =
      locks.ColumnU64Data(locks.ColumnIndex("owner_member_id"));
  std::vector<LockClass> classes;
  std::map<LockClass, uint32_t> class_ids;
  auto class_id = [&](LockClass cls) {
    auto [it, inserted] = class_ids.try_emplace(cls, static_cast<uint32_t>(classes.size()));
    if (inserted) {
      classes.push_back(std::move(cls));
    }
    return it->second;
  };
  struct RowClasses {
    uint32_t same = kNoEntry;
    uint32_t other = kNoEntry;
  };
  std::vector<RowClasses> lock_classes(n_locks);
  std::vector<RowClasses> member_classes(n_members);
  auto class_of = [&](uint64_t lock_row, uint64_t alloc) {
    LOCKDOC_CHECK(lock_row < n_locks);
    RowClasses& row = lock_classes[lock_row];
    if (row.same == kNoEntry) {
      if (lock_is_static[lock_row] != 0) {
        row.same = row.other = class_id(ClassifyLockRow(db, registry, lock_row, std::nullopt));
      } else {
        const uint64_t member_row = lock_owner_member[lock_row];
        LOCKDOC_CHECK(member_row < n_members);
        RowClasses& member = member_classes[member_row];
        if (member.same == kNoEntry) {
          member.same =
              class_id(ClassifyLockRow(db, registry, lock_row, lock_owner_alloc[lock_row]));
          member.other = class_id(ClassifyLockRow(db, registry, lock_row, std::nullopt));
        }
        row = member;
      }
    }
    return lock_owner_alloc[lock_row] == alloc ? row.same : row.other;
  };

  // --- Held class sequences per task, deduplicated in task order. ---
  // Interning only the distinct sequences, in the order tasks first show
  // them, gives every pool id and sequence id the value interning each
  // task's sequence in task order would.
  ObservationStore store;
  std::vector<uint32_t> task_seq_id(tasks.size());
  std::unordered_map<std::vector<uint32_t>, uint32_t, ClassIdSeqHash> seq_ids;
  std::vector<uint32_t> held;
  for (size_t t = 0; t < tasks.size(); ++t) {
    const ClassTask& task = tasks[t];
    const Span* span = has_ranges && alloc_span[task.alloc].present ? &alloc_span[task.alloc]
                                                                      : nullptr;
    held.clear();
    for (size_t slot = held_begin[task.txn]; slot < held_begin[task.txn + 1]; ++slot) {
      if (span != nullptr && held_range[slot].present &&
          !RangesOverlap(held_range[slot].start, held_range[slot].end, span->start,
                         span->end)) {
        continue;  // The hold does not cover this object.
      }
      held.push_back(class_of(held_lock[slot], task.alloc));
    }
    auto it = seq_ids.find(held);
    if (it == seq_ids.end()) {
      LockSeq seq;
      seq.reserve(held.size());
      for (uint32_t id : held) {
        seq.push_back(classes[id]);
      }
      it = seq_ids.emplace(held, store.InternSeq(seq)).first;
    }
    task_seq_id[t] = it->second;
  }

  // --- Groups, built in place. ---
  // Each group's access seqs, in row order, as one flat array indexed by
  // group; and each member key's groups, in the order the fold opened them.
  // Every list and every group's seqs is then allocated once, at its final
  // size. Member keys are independent, so with a pool the lanes share that
  // allocation work, one key at a time; the store is the same either way.
  std::vector<size_t> seq_begin(open.size() + 1, 0);
  for (size_t g = 0; g < open.size(); ++g) {
    seq_begin[g + 1] = seq_begin[g] + open[g].n_reads + open[g].n_writes;
  }
  std::vector<uint64_t> seqs(seq_begin.back());
  {
    std::vector<size_t> next(seq_begin.begin(), seq_begin.end() - 1);
    size_t kept = 0;
    for (RowId row = 0; row < accesses.row_count(); ++row) {
      if (acc_filter[row] == static_cast<uint64_t>(FilterReason::kNone)) {
        seqs[next[access_group[kept++]]++] = acc_seq[row];
      }
    }
  }
  const size_t n_slots = slot_key.size();
  std::vector<size_t> slot_begin(n_slots + 1, 0);
  for (const OpenGroup& entry : open) {
    ++slot_begin[entry.slot + 1];
  }
  for (size_t slot = 0; slot < n_slots; ++slot) {
    slot_begin[slot + 1] += slot_begin[slot];
  }
  std::vector<uint32_t> slot_group(open.size());
  {
    std::vector<size_t> next(slot_begin.begin(), slot_begin.end() - 1);
    for (size_t g = 0; g < open.size(); ++g) {
      slot_group[next[open[g].slot]++] = static_cast<uint32_t>(g);
    }
  }
  std::vector<std::vector<ObservationGroup>> slot_groups(n_slots);
  auto build = [&](size_t begin, size_t end) {
    for (size_t slot = begin; slot < end; ++slot) {
      std::vector<ObservationGroup>& groups = slot_groups[slot];
      groups.reserve(slot_begin[slot + 1] - slot_begin[slot]);
      for (size_t i = slot_begin[slot]; i < slot_begin[slot + 1]; ++i) {
        const uint32_t g = slot_group[i];
        const OpenGroup& entry = open[g];
        ObservationGroup& group = groups.emplace_back();
        group.lockseq_id = task_seq_id[entry.task];
        group.txn_id = tasks[entry.task].txn;
        group.alloc_id = entry.alloc;
        group.n_reads = entry.n_reads;
        group.n_writes = entry.n_writes;
        group.seqs.assign(seqs.begin() + static_cast<ptrdiff_t>(seq_begin[g]),
                          seqs.begin() + static_cast<ptrdiff_t>(seq_begin[g + 1]));
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(n_slots, build);
  } else {
    build(0, n_slots);
  }
  for (size_t slot = 0; slot < slot_key.size(); ++slot) {
    store.MutableGroups(slot_key[slot]) = std::move(slot_groups[slot]);
  }
  return store;
}

}  // namespace lockdoc
