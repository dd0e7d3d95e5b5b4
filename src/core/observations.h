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
#include <unordered_map>
#include <vector>

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
// transaction t while holding this lock sequence".
struct ObservationGroup {
  // Interned index into ObservationStore's lock-sequence pool.
  uint32_t lockseq_id = 0;
  uint64_t txn_id = 0;
  uint64_t alloc_id = 0;
  uint32_t n_reads = 0;
  uint32_t n_writes = 0;
  // Raw trace sequence numbers of every contributing access (reads and
  // writes); used by the rule-violation finder to locate contexts.
  std::vector<uint64_t> seqs;

  // Write-over-read: mixed groups count as writes.
  AccessType effective() const {
    return n_writes > 0 ? AccessType::kWrite : AccessType::kRead;
  }
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

  std::vector<ObservationGroup>& MutableGroups(const MemberObsKey& key) { return groups_[key]; }
  const std::map<MemberObsKey, std::vector<ObservationGroup>>& groups() const { return groups_; }
  // Groups for one member; empty if never observed.
  const std::vector<ObservationGroup>& GroupsFor(const MemberObsKey& key) const;

  // Number of observations of `key` with the given effective access type —
  // the denominator of relative support.
  uint64_t CountObservations(const MemberObsKey& key, AccessType access) const;

  // Rebuilds the store from deserialized snapshot state. The string-form
  // sequences and both reverse indexes are re-derived from `pool` +
  // `id_seqs`, so a snapshot only carries the id-level data. The enum cache
  // starts cold (it is a pure function of the sequences).
  void ResetForSnapshot(LockClassPool pool, std::vector<IdSeq> id_seqs,
                        std::map<MemberObsKey, std::vector<ObservationGroup>> groups);

 private:
  struct EnumCache;  // Defined in observations.cc (holds sync primitives).

  std::vector<LockSeq> seqs_;
  std::vector<IdSeq> id_seqs_;
  LockClassPool pool_;
  std::unordered_map<LockSeq, uint32_t, LockSeqHash> seq_index_;
  std::map<MemberObsKey, std::vector<ObservationGroup>> groups_;
  mutable std::unique_ptr<EnumCache> enum_cache_;

  static const std::vector<ObservationGroup> kEmptyGroups;
};

// Per-(member, access-type) view over a store's observation groups: for
// every observed member, the indices (into GroupsFor(key)) of the groups
// whose *effective* access type is read resp. write. Built once from a
// store and then shared read-only by every analysis consumer — the checker,
// the violation finder, and the mode analyzer all need "the write
// observations of member m" and previously each re-scanned (and re-filtered
// by effective()) the full group list per query. The index is a pure
// function of the store, so it is deterministic at any thread count.
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

  // O(1) equivalent of ObservationStore::CountObservations.
  uint64_t Count(const MemberObsKey& key, AccessType access) const;

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

// Builds the observation store from an imported database. The database's
// own string pool resolves interned strings; `registry` resolves member
// names for lock classes. One serial fold on integer ids groups the kept
// accesses (they must be visited in seq order) and classifies each
// distinct (txn, alloc) pair's held locks; lock-sequence ids are interned
// in that pair's first-appearance order. The groups are then built in
// place, member key by member key, shared over `pool` when one is given.
// The store is a pure function of the database, identical at any thread
// count; the working memory grows with the number of groups.
ObservationStore ExtractObservations(const Database& db, const TypeRegistry& registry,
                                     ThreadPool* pool = nullptr);

}  // namespace lockdoc

#endif  // SRC_CORE_OBSERVATIONS_H_
