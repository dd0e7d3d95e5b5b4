// Folded observations (paper Sec. 4.2, Tab. 1): per transaction, allocation,
// and member, all raw accesses collapse into one observation carrying the
// transaction's ordered held-lock classes. A transaction containing both
// reads and writes of a member counts as a *write* observation only
// ("write over read") because write rules are the more restrictive ones.
#ifndef SRC_CORE_OBSERVATIONS_H_
#define SRC_CORE_OBSERVATIONS_H_

#include <compare>
#include <map>
#include <memory>
#include <ranges>
#include <unordered_map>
#include <vector>

#include "src/db/column.h"
#include "src/db/database.h"
#include "src/model/ids.h"
#include "src/model/lock_class.h"
#include "src/model/lock_class_pool.h"
#include "src/model/type_registry.h"
#include "src/util/thread_pool.h"

namespace lockdoc {

// Identifies the population observations are grouped under. Subclassed types
// (inode) derive rules per subclass; unsubclassed types use kNoSubclass.
struct MemberObsKey {
  TypeId type = kInvalidTypeId;
  SubclassId subclass = kNoSubclass;
  MemberIndex member = kInvalidMember;

  friend auto operator<=>(const MemberObsKey&, const MemberObsKey&) = default;
};

// One folded observation: "member m of allocation a was accessed in
// transaction t while holding this lock sequence". A small value the store
// builds on access from its flat arrays; it holds no container.
struct ObservationGroup {
  // Interned index into ObservationStore's lock-sequence pool.
  uint32_t lockseq_id = 0;
  uint64_t txn_id = 0;
  uint64_t alloc_id = 0;
  uint32_t n_reads = 0;
  uint32_t n_writes = 0;
  // Raw trace sequence numbers of every contributing access (reads and
  // writes), in trace order; used by the rule-violation finder to locate
  // contexts. A view of the store's seqs array.
  ColumnView seqs;

  // Write-over-read: mixed groups count as writes.
  AccessType effective() const {
    return n_writes > 0 ? AccessType::kWrite : AccessType::kRead;
  }
};

// A store's group arrays, in key order: one value per group for each field
// of ObservationGroup, and the seqs of all groups back to back, each group's
// n_reads + n_writes of them in group order. Views: of the store's own
// vectors after extraction or AppendGroup, of a snapshot mapping after a
// load.
struct GroupColumns {
  ColumnView lockseq;
  ColumnView txn;
  ColumnView alloc;
  ColumnView n_reads;
  ColumnView n_writes;
  ColumnView seqs;
};

class ObservationStore {
 public:
  ObservationStore();
  ~ObservationStore();
  ObservationStore(ObservationStore&&) noexcept;
  ObservationStore& operator=(ObservationStore&&) noexcept;
  ObservationStore(const ObservationStore&) = delete;
  ObservationStore& operator=(const ObservationStore&) = delete;

  uint32_t InternSeq(const LockSeq& seq);
  const LockSeq& seq(uint32_t id) const;
  // The interned-id form of seq(id); same indexing. The mining hot path
  // (derivator, checker, violation finder) runs on these.
  const IdSeq& id_seq(uint32_t id) const;
  size_t distinct_seqs() const { return seqs_.size(); }

  // The lock-class interner shared by every sequence in this store. Ids are
  // dense and assigned in first-appearance order (deterministic at any
  // thread count — sequences are interned serially; see DESIGN.md).
  const LockClassPool& pool() const { return pool_; }

  // Subsequence-enumeration cache: all distinct subsequences of seq(seq_id)
  // under the `max_locks` expansion bound, as sorted deduplicated id
  // sequences. Each entry is computed exactly once per store and then
  // shared read-only across all DeriveAll work items and threads
  // (thread-safe; concurrent callers must agree on `max_locks` — a changed
  // bound rebuilds the cache and must not race in-flight readers).
  const std::vector<IdSeq>& CachedSubsequenceIds(uint32_t seq_id, size_t max_locks) const;

  // Cache effectiveness counters (cumulative across rebuilds): a miss is a
  // lookup that computed its entry, a hit found it already computed.
  uint64_t enum_cache_hits() const;
  uint64_t enum_cache_misses() const;

  // --- Groups: flat arrays in key order. ---

  // The observed member keys, ascending.
  const std::vector<MemberObsKey>& keys() const { return keys_; }
  // The groups of keys()[k], in store order: a random-access range of
  // ObservationGroup values.
  auto GroupsAt(size_t k) const;
  // Groups for one member; empty if never observed.
  auto GroupsFor(const MemberObsKey& key) const;
  size_t group_count() const { return key_begin_.empty() ? 0 : key_begin_.back(); }
  // Group `index` of the whole store, in key order.
  ObservationGroup group(size_t index) const;
  const GroupColumns& group_columns() const { return columns_; }

  // Appends one group under `key`, which must not sort before the key last
  // appended: the way to build a store by hand (tests, benches). The
  // group's lock sequence must be interned; its seqs are copied, and its
  // n_reads + n_writes must equal their count. CHECKs that the store owns
  // its arrays.
  void AppendGroup(const MemberObsKey& key, const ObservationGroup& group);

  // Number of observations of `key` with the given effective access type —
  // the denominator of relative support.
  uint64_t CountObservations(const MemberObsKey& key, AccessType access) const;

  // Rebuilds the store from a loaded snapshot. The string-form sequences
  // and both reverse indexes are re-derived from `pool` + `id_seqs`, so a
  // snapshot only carries the id-level data. The groups view `columns`:
  // `keys` ascending, `key_begin` the first group of each key plus the
  // group count, `seq_begin` the first seq of each group plus the seq count.
  // The enum cache starts cold (it is a pure function of the sequences).
  void ResetForSnapshot(LockClassPool pool, std::vector<IdSeq> id_seqs,
                        std::vector<MemberObsKey> keys, std::vector<size_t> key_begin,
                        std::vector<size_t> seq_begin, GroupColumns columns);

 private:
  struct EnumCache;  // Defined in observations.cc (holds sync primitives).
  // Extraction fills owned_ in place.
  friend ObservationStore ExtractObservations(const Database& db,
                                              const TypeRegistry& registry, ThreadPool* pool);

  // Points columns_ at owned_, after the vectors changed.
  void ViewOwnedArrays();
  // The index of `key` in keys_, or keys_.size() when it was not observed.
  size_t FindKey(const MemberObsKey& key) const;
  // Groups [first, end) as ObservationGroup values.
  auto Groups(size_t first, size_t end) const;

  std::vector<LockSeq> seqs_;
  std::vector<IdSeq> id_seqs_;
  LockClassPool pool_;
  std::unordered_map<LockSeq, uint32_t, LockSeqHash> seq_index_;
  std::vector<MemberObsKey> keys_;
  std::vector<size_t> key_begin_{0};
  std::vector<size_t> seq_begin_{0};
  GroupColumns columns_;
  // What columns_ views unless the store was loaded. A move hands the
  // vectors' buffers over, so the views stay valid; the store has no copy.
  struct OwnedArrays {
    std::vector<uint64_t> lockseq;
    std::vector<uint64_t> txn;
    std::vector<uint64_t> alloc;
    std::vector<uint64_t> n_reads;
    std::vector<uint64_t> n_writes;
    std::vector<uint64_t> seqs;
  };
  OwnedArrays owned_;
  bool loaded_ = false;
  mutable std::unique_ptr<EnumCache> enum_cache_;
};

inline auto ObservationStore::Groups(size_t first, size_t end) const {
  return std::views::iota(first, end) |
         std::views::transform([this](size_t index) { return group(index); });
}

inline auto ObservationStore::GroupsAt(size_t k) const {
  return Groups(key_begin_[k], key_begin_[k + 1]);
}

inline auto ObservationStore::GroupsFor(const MemberObsKey& key) const {
  const size_t k = FindKey(key);
  return k == keys_.size() ? Groups(0, 0) : GroupsAt(k);
}

// Per-(member, access-type) view over a store's observation groups: for
// every observed member, the indices (into GroupsFor(key)) of the groups
// whose *effective* access type is read resp. write. Built once from a
// store and then shared read-only by AnalysisContext::ForEachGroup, the
// group walk behind the checker, the violation finder and the mode
// analyzer, which all ask for "the write observations of member m". The
// index is a pure function of the store, so it is deterministic at any
// thread count.
class MemberAccessIndex {
 public:
  struct Entry {
    // groups[static_cast<size_t>(access)]: ascending indices into
    // store.GroupsFor(key) with that effective access type.
    std::vector<uint32_t> groups[2];

    const std::vector<uint32_t>& For(AccessType access) const {
      return groups[static_cast<size_t>(access)];
    }
  };

  static MemberAccessIndex Build(const ObservationStore& store);

  // nullptr when the member was never observed.
  const Entry* Find(const MemberObsKey& key) const;

 private:
  std::map<MemberObsKey, Entry> entries_;
};

// Per-lock-class posting lists over the store's interned lock sequences:
// postings(id) is the ascending list of lockseq ids whose sequence contains
// the lock class with dense id `id`. Compliance of a rule against an
// observation depends only on the observation's interned sequence, so a
// rule's complying-sequence set can be computed once — by intersecting the
// posting lists of the rule's locks and order-checking only the survivors —
// and then applied to every observation group with an O(log n) lookup.
class LockPostingIndex {
 public:
  static LockPostingIndex Build(const ObservationStore& store);

  // Empty for ids with no occurrences (or out of range).
  const std::vector<uint32_t>& Postings(LockId id) const;

  // Ascending lockseq ids on which `rule_ids` complies (is an
  // order-preserving subsequence of the sequence). The empty rule complies
  // with every sequence.
  std::vector<uint32_t> ComplyingSeqs(const ObservationStore& store,
                                      const IdSeq& rule_ids) const;

 private:
  std::vector<std::vector<uint32_t>> postings_;

  static const std::vector<uint32_t> kEmptyPostings;
};

// Builds the observation store from an imported database (owned columns,
// as the importer or a CSV import leaves them). The database's own string
// pool resolves interned strings; `registry` resolves member names for lock
// classes. One serial fold on integer ids groups the kept accesses (they
// must be visited in seq order) and classifies each distinct (txn, alloc)
// pair's held locks; lock-sequence ids are interned in that pair's
// first-appearance order. The group arrays are then filled in place, member
// key by member key, shared over `pool` when one is given, and the seqs
// scattered straight to their final places. The store is a pure function of
// the database, identical at any thread count; the working memory grows
// with the number of groups, never with an allocation per group.
ObservationStore ExtractObservations(const Database& db, const TypeRegistry& registry,
                                     ThreadPool* pool = nullptr);

}  // namespace lockdoc

#endif  // SRC_CORE_OBSERVATIONS_H_
