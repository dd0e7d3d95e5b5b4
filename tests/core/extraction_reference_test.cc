// The extraction fold on integer ids against the three-pass extraction it
// replaced, kept here as a test-only reference: per-row hash maps for the
// open groups and the (txn, alloc) tasks, an expiry heap, classification
// sharded over a pool, and one InternSeq per task. Both stores must agree
// field by field — member keys, group order, txn, alloc, read and write
// counts, seqs, lockseq ids, pool order and id sequences — on inputs that
// stress the fold: vfs and mm simulations, a salvaged truncated trace,
// out-of-order releases, and one transaction holding thousands of groups.
#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <sstream>
#include <unordered_map>

#include <gtest/gtest.h>

#include "src/core/held_locks.h"
#include "src/core/importer.h"
#include "src/core/observations.h"
#include "src/db/schema.h"
#include "src/trace/trace_io.h"
#include "src/util/logging.h"
#include "src/vfs/vfs_kernel.h"
#include "src/workload/workloads.h"
#include "tests/core/test_helpers.h"

namespace lockdoc {
namespace {

// Open-group key: one folded observation per (txn, alloc, member_row).
struct GroupKey {
  uint64_t txn = 0;
  uint64_t alloc = 0;
  uint64_t member_row = 0;

  friend auto operator<=>(const GroupKey&, const GroupKey&) = default;
};

struct GroupKeyHash {
  size_t operator()(const GroupKey& key) const {
    // splitmix64-style mixing of the three fields.
    uint64_t h = key.txn;
    for (uint64_t v : {key.alloc, key.member_row}) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return static_cast<size_t>(h);
  }
};

// A distinct (txn, alloc) pair whose held-lock classes need classifying.
struct ClassTask {
  uint64_t txn = 0;
  uint64_t alloc = 0;
};

// A group as the reference folds it, before it is appended to the store.
struct RefGroup {
  uint32_t lockseq_id = 0;
  uint64_t txn_id = 0;
  uint64_t alloc_id = 0;
  uint32_t n_reads = 0;
  uint32_t n_writes = 0;
  std::vector<uint64_t> seqs;
};

ObservationStore ReferenceExtractObservations(const Database& db, const TypeRegistry& registry,
                                              ThreadPool* pool) {
  ObservationStore store;

  const Table& accesses = db.table(LockDocSchema::kAccesses);
  const Table& allocations = db.table(LockDocSchema::kAllocations);
  const Table& members = db.table(LockDocSchema::kMembers);
  const Table& txns = db.table(LockDocSchema::kTxns);
  const Table& txn_locks = db.table(LockDocSchema::kTxnLocks);

  const size_t kAccSeq = accesses.ColumnIndex("seq");
  const size_t kAccAlloc = accesses.ColumnIndex("alloc_id");
  const size_t kAccMember = accesses.ColumnIndex("member_id");
  const size_t kAccType = accesses.ColumnIndex("access_type");
  const size_t kAccTxn = accesses.ColumnIndex("txn_id");
  const size_t kAccFilter = accesses.ColumnIndex("filter_reason");

  const size_t kAllocType = allocations.ColumnIndex("type_id");
  const size_t kAllocSubclass = allocations.ColumnIndex("subclass");

  const size_t kMemberIdx = members.ColumnIndex("member_idx");

  const size_t kTxnEndSeq = txns.ColumnIndex("end_seq");

  const size_t kTlTxn = txn_locks.ColumnIndex("txn_id");
  const size_t kTlPos = txn_locks.ColumnIndex("position");
  const size_t kTlLock = txn_locks.ColumnIndex("lock_id");

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
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> alloc_span;
  const Table* txn_lock_ranges = nullptr;
  size_t kTlrTxn = 0, kTlrPos = 0, kTlrStart = 0, kTlrEnd = 0;
  if (has_ranges) {
    const Table& alloc_ranges = db.table(LockDocSchema::kAllocRanges);
    const size_t kArAlloc = alloc_ranges.ColumnIndex("alloc_id");
    const size_t kArStart = alloc_ranges.ColumnIndex("range_start");
    const size_t kArEnd = alloc_ranges.ColumnIndex("range_end");
    for (RowId row = 0; row < alloc_ranges.row_count(); ++row) {
      alloc_span[alloc_ranges.GetUint64(row, kArAlloc)] = {
          alloc_ranges.GetUint64(row, kArStart), alloc_ranges.GetUint64(row, kArEnd)};
    }
    txn_lock_ranges = &db.table(LockDocSchema::kTxnLockRanges);
    kTlrTxn = txn_lock_ranges->ColumnIndex("txn_id");
    kTlrPos = txn_lock_ranges->ColumnIndex("position");
    kTlrStart = txn_lock_ranges->ColumnIndex("range_start");
    kTlrEnd = txn_lock_ranges->ColumnIndex("range_end");
  }

  // --- Pass 1 (serial): fold accesses into groups in trace order. ---
  //
  // Classification of held locks is deferred: a newly created group records
  // the index of its (txn, alloc) classification task in `lockseq_id`; the
  // real interned ids are patched in after pass 3. Task order is group
  // first-appearance order — exactly the order the serial implementation
  // interned sequences in, which keeps interned ids byte-identical.
  std::vector<ClassTask> tasks;
  std::unordered_map<uint64_t, std::unordered_map<uint64_t, uint32_t>> task_index;  // txn -> alloc -> task
  std::map<MemberObsKey, std::vector<RefGroup>> folded;

  // Open groups only. Accesses arrive in seq order and a transaction id is
  // never reused after its end_seq, so a group whose txn has ended can be
  // evicted: it will never receive another access. The expiry heap releases
  // groups as the scan passes their transaction's end, keeping the map
  // proportional to *live* transactions instead of the whole trace.
  std::unordered_map<GroupKey, std::pair<MemberObsKey, size_t>, GroupKeyHash> open_groups;
  using Expiry = std::pair<uint64_t, GroupKey>;  // (txn end_seq, group)
  std::priority_queue<Expiry, std::vector<Expiry>, std::greater<Expiry>> expiry;

  // The fold touches six access columns per row; raw column pointers keep
  // the per-row cost at array reads (columns built by the importer are
  // always owned and contiguous).
  const uint64_t* acc_filter = accesses.ColumnU64Data(kAccFilter);
  const uint64_t* acc_seq = accesses.ColumnU64Data(kAccSeq);
  const uint64_t* acc_txn = accesses.ColumnU64Data(kAccTxn);
  const uint64_t* acc_alloc = accesses.ColumnU64Data(kAccAlloc);
  const uint64_t* acc_member = accesses.ColumnU64Data(kAccMember);
  const uint64_t* acc_type = accesses.ColumnU64Data(kAccType);
  const uint64_t* alloc_type = allocations.ColumnU64Data(kAllocType);
  const uint64_t* alloc_subclass = allocations.ColumnU64Data(kAllocSubclass);
  const uint64_t* member_idx = members.ColumnU64Data(kMemberIdx);
  const uint64_t* txn_end_seq = txns.ColumnU64Data(kTxnEndSeq);

  for (RowId row = 0; row < accesses.row_count(); ++row) {
    if (acc_filter[row] != static_cast<uint64_t>(FilterReason::kNone)) {
      continue;
    }
    uint64_t seq = acc_seq[row];
    uint64_t txn = acc_txn[row];
    uint64_t alloc = acc_alloc[row];
    uint64_t member_row = acc_member[row];
    LOCKDOC_CHECK(alloc != kDbNull && member_row != kDbNull && txn != kDbNull);

    while (!expiry.empty() && expiry.top().first <= seq) {
      open_groups.erase(expiry.top().second);
      task_index.erase(expiry.top().second.txn);  // Its txn id is never reused.
      expiry.pop();
    }

    GroupKey group_key{txn, alloc, member_row};
    auto it = open_groups.find(group_key);
    if (it == open_groups.end()) {
      // Resolve the member population key.
      MemberObsKey key;
      key.type = static_cast<TypeId>(alloc_type[alloc]);
      key.subclass = static_cast<SubclassId>(alloc_subclass[alloc]);
      key.member = static_cast<MemberIndex>(member_idx[member_row]);

      auto& by_alloc = task_index[txn];
      auto task_it = by_alloc.find(alloc);
      if (task_it == by_alloc.end()) {
        task_it = by_alloc.emplace(alloc, static_cast<uint32_t>(tasks.size())).first;
        tasks.push_back({txn, alloc});
      }

      std::vector<RefGroup>& groups = folded[key];
      RefGroup group;
      group.lockseq_id = task_it->second;  // Task index; patched after pass 3.
      group.txn_id = txn;
      group.alloc_id = alloc;
      groups.push_back(std::move(group));
      it = open_groups.emplace(group_key, std::make_pair(key, groups.size() - 1)).first;

      // An access inside a transaction precedes its end, so end_seq > seq
      // here and the group stays open at least until the txn ends. A null
      // end_seq (possible only outside the importer) never expires.
      uint64_t end_seq = txn_end_seq[txn];
      if (end_seq != kDbNull) {
        expiry.emplace(end_seq, group_key);
      }
    }

    RefGroup& group = folded[it->second.first][it->second.second];
    if (acc_type[row] == static_cast<uint64_t>(AccessType::kWrite)) {
      ++group.n_writes;
    } else {
      ++group.n_reads;
    }
    group.seqs.push_back(seq);
  }

  // --- Pass 2 (parallel): classify each distinct (txn, alloc) pair. ---
  // Tasks only read the database and registry (all const, no lazy state)
  // and write their own slot. Consecutive tasks usually share a
  // transaction, so each chunk keeps a local cache of its lock rows.
  std::vector<LockSeq> classified(tasks.size());
  struct HeldPosition {
    uint64_t lock_row = 0;
    bool has_range = false;
    uint64_t range_start = 0;
    uint64_t range_end = 0;
  };
  auto classify_range = [&](size_t begin, size_t end) {
    uint64_t cached_txn = kDbNull;
    std::vector<HeldPosition> cached_positions;
    for (size_t i = begin; i < end; ++i) {
      const ClassTask& task = tasks[i];
      if (task.txn != cached_txn) {
        cached_txn = task.txn;
        cached_positions.clear();
        std::vector<RowId> rows = txn_locks.LookupEqual(kTlTxn, task.txn);
        cached_positions.resize(rows.size());
        for (RowId tl_row : rows) {
          uint64_t pos = txn_locks.GetUint64(tl_row, kTlPos);
          LOCKDOC_CHECK(pos < cached_positions.size());
          cached_positions[pos].lock_row = txn_locks.GetUint64(tl_row, kTlLock);
        }
        if (txn_lock_ranges != nullptr) {
          for (RowId tlr_row : txn_lock_ranges->LookupEqual(kTlrTxn, task.txn)) {
            uint64_t pos = txn_lock_ranges->GetUint64(tlr_row, kTlrPos);
            LOCKDOC_CHECK(pos < cached_positions.size());
            cached_positions[pos].has_range = true;
            cached_positions[pos].range_start = txn_lock_ranges->GetUint64(tlr_row, kTlrStart);
            cached_positions[pos].range_end = txn_lock_ranges->GetUint64(tlr_row, kTlrEnd);
          }
        }
      }
      // The accessed allocation's ground-truth span, if it has one.
      const std::pair<uint64_t, uint64_t>* span = nullptr;
      if (has_ranges) {
        auto span_it = alloc_span.find(task.alloc);
        if (span_it != alloc_span.end()) {
          span = &span_it->second;
        }
      }
      LockSeq seq;
      seq.reserve(cached_positions.size());
      for (const HeldPosition& held : cached_positions) {
        if (held.has_range && span != nullptr &&
            !RangesOverlap(held.range_start, held.range_end, span->first, span->second)) {
          continue;  // The hold does not cover this object.
        }
        seq.push_back(ClassifyLockRow(db, registry, held.lock_row, task.alloc));
      }
      classified[i] = std::move(seq);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(tasks.size(), classify_range);
  } else {
    classify_range(0, tasks.size());
  }

  // --- Pass 3 (serial): intern in task order, then append the groups in
  // key order with their interned ids. ---
  std::vector<uint32_t> task_seq_id(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    task_seq_id[i] = store.InternSeq(classified[i]);
  }
  for (const auto& [key, groups] : folded) {
    for (const RefGroup& ref : groups) {
      ObservationGroup group;
      group.lockseq_id = task_seq_id[ref.lockseq_id];
      group.txn_id = ref.txn_id;
      group.alloc_id = ref.alloc_id;
      group.n_reads = ref.n_reads;
      group.n_writes = ref.n_writes;
      group.seqs = ColumnView(ref.seqs);
      store.AppendGroup(key, group);
    }
  }

  return store;
}


void ExpectSameStores(const ObservationStore& expected, const ObservationStore& actual,
                      const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(expected.pool().classes(), actual.pool().classes());
  ASSERT_EQ(expected.distinct_seqs(), actual.distinct_seqs());
  for (uint32_t id = 0; id < expected.distinct_seqs(); ++id) {
    EXPECT_EQ(expected.id_seq(id), actual.id_seq(id)) << "seq id " << id;
    EXPECT_EQ(expected.seq(id), actual.seq(id)) << "seq id " << id;
  }
  ASSERT_EQ(expected.keys(), actual.keys());
  for (size_t k = 0; k < expected.keys().size(); ++k) {
    const auto groups = expected.GroupsAt(k);
    const auto other = actual.GroupsAt(k);
    ASSERT_EQ(groups.size(), other.size());
    for (size_t i = 0; i < groups.size(); ++i) {
      EXPECT_EQ(groups[i].lockseq_id, other[i].lockseq_id) << "group " << i;
      EXPECT_EQ(groups[i].txn_id, other[i].txn_id) << "group " << i;
      EXPECT_EQ(groups[i].alloc_id, other[i].alloc_id) << "group " << i;
      EXPECT_EQ(groups[i].n_reads, other[i].n_reads) << "group " << i;
      EXPECT_EQ(groups[i].n_writes, other[i].n_writes) << "group " << i;
      EXPECT_TRUE(std::ranges::equal(groups[i].seqs, other[i].seqs)) << "group " << i;
    }
  }
}

// Imports `trace` at --jobs 1, 2 and 8 and compares extraction with the
// reference on each database. Returns the stats of the serial import.
ImportStats ExpectExtractionMatchesReference(const Trace& trace, const TypeRegistry& registry,
                                             const FilterConfig& filter) {
  ImportStats serial_stats;
  for (size_t jobs : {size_t{1}, size_t{2}, size_t{8}}) {
    std::optional<ThreadPool> pool;
    if (jobs > 1) {
      pool.emplace(jobs);
    }
    ThreadPool* lanes = pool.has_value() ? &*pool : nullptr;
    Database db;
    ImportStats stats = TraceImporter(&registry, filter).Import(trace, &db, lanes);
    if (jobs == 1) {
      serial_stats = stats;
    }
    ObservationStore expected = ReferenceExtractObservations(db, registry, lanes);
    ObservationStore actual = ExtractObservations(db, registry, lanes);
    ExpectSameStores(expected, actual, "jobs=" + std::to_string(jobs));
  }
  return serial_stats;
}

// Transactions with some lock in their txn_locks rows twice.
size_t TxnsHoldingALockTwice(const Database& db) {
  const Table& txn_locks = db.table(LockDocSchema::kTxnLocks);
  const size_t kTxn = txn_locks.ColumnIndex("txn_id");
  const size_t kLock = txn_locks.ColumnIndex("lock_id");
  std::set<std::pair<uint64_t, uint64_t>> holds;
  std::set<uint64_t> txns;
  for (RowId row = 0; row < txn_locks.row_count(); ++row) {
    uint64_t txn = txn_locks.GetUint64(row, kTxn);
    if (!holds.insert({txn, txn_locks.GetUint64(row, kLock)}).second) {
      txns.insert(txn);
    }
  }
  return txns.size();
}

TEST(ExtractionReferenceTest, VfsSimulation) {
  MixOptions mix;
  mix.ops = 2500;
  mix.seed = 7;
  SimulationResult sim = SimulateKernelRun(mix, FaultPlan{});
  ImportStats stats =
      ExpectExtractionMatchesReference(sim.trace, *sim.registry, VfsKernel::MakeFilterConfig());
  EXPECT_GT(stats.accesses_kept, 0u);
}

TEST(ExtractionReferenceTest, MmSimulationWithRangesHeldTwice) {
  MixOptions mix;
  mix.ops = 3000;
  mix.seed = 7;
  SimulationResult sim = SimulateMmRun(mix, FaultPlan{});
  Database db;
  TraceImporter(sim.registry.get(), VfsKernel::MakeFilterConfig()).Import(sim.trace, &db);
  ASSERT_TRUE(db.HasTable(LockDocSchema::kTxnLockRanges));
  ASSERT_GT(TxnsHoldingALockTwice(db), 0u);
  ExpectExtractionMatchesReference(sim.trace, *sim.registry, VfsKernel::MakeFilterConfig());
}

TEST(ExtractionReferenceTest, SalvagedTruncatedTrace) {
  MixOptions mix;
  mix.ops = 2500;
  mix.seed = 3;
  SimulationResult sim = SimulateKernelRun(mix, FaultPlan{});
  std::ostringstream out;
  WriteTrace(sim.trace, out, TraceFormat::kV2);
  std::string bytes = out.str();
  bytes.resize(bytes.size() * 3 / 5);  // Cut mid-frame, locks still held.
  TraceReadOptions options;
  options.salvage = true;
  auto salvaged = ReadTraceFromBytes(bytes, options, nullptr);
  ASSERT_TRUE(salvaged.ok()) << salvaged.status().message();
  ImportStats stats = ExpectExtractionMatchesReference(salvaged.value(), *sim.registry,
                                                       VfsKernel::MakeFilterConfig());
  EXPECT_GT(stats.dangling_locks_closed, 0u);
}

TEST(ExtractionReferenceTest, OutOfOrderReleases) {
  TestWorld world;
  {
    FunctionScope fn(*world.sim, "t.c", "f", 1, 90);
    ObjectRef a = world.sim->Create(world.type, kNoSubclass, 1);
    ObjectRef b = world.sim->Create(world.type, kNoSubclass, 2);
    for (int round = 0; round < 4; ++round) {
      world.sim->LockGlobal(world.global_a, 3);
      world.sim->Write(a, world.data, 4);
      world.sim->Lock(a, world.spin, 5);
      world.sim->Lock(b, world.mutex, 6);
      world.sim->Read(b, world.extra, 7);
      world.sim->UnlockGlobal(world.global_a, 8);  // Out of order: fresh txns.
      world.sim->Write(a, world.data, 9);
      world.sim->Write(b, world.data, 10);
      world.sim->Unlock(a, world.spin, 11);  // Out of order again.
      world.sim->Read(b, world.data, 12);
      world.sim->Unlock(b, world.mutex, 13);
      world.sim->Read(a, world.extra, 14);
    }
    world.sim->Destroy(a, 15);
    world.sim->Destroy(b, 16);
  }
  ExpectExtractionMatchesReference(world.trace, *world.registry, FilterConfig::Defaults());
}

TEST(ExtractionReferenceTest, OneTransactionHoldingThousandsOfGroups) {
  // The worst case for the per-transaction group list: every group of the
  // run lives in one transaction, and each access walks the whole list.
  TestWorld world;
  {
    FunctionScope fn(*world.sim, "t.c", "f", 1, 90);
    std::vector<ObjectRef> objects;
    for (int i = 0; i < 1100; ++i) {
      objects.push_back(world.sim->Create(world.type, kNoSubclass, 1));
    }
    world.sim->LockGlobal(world.global_a, 2);
    for (int pass = 0; pass < 2; ++pass) {
      for (const ObjectRef& obj : objects) {
        world.sim->Write(obj, world.data, 3);
        world.sim->Read(obj, world.extra, 4);
      }
    }
    world.sim->UnlockGlobal(world.global_a, 5);
    for (const ObjectRef& obj : objects) {
      world.sim->Destroy(obj, 6);
    }
  }
  ExpectExtractionMatchesReference(world.trace, *world.registry, FilterConfig::Defaults());
  ObservationStore store = world.Extract();
  EXPECT_GE(store.group_count(), 2000u);
}

}  // namespace
}  // namespace lockdoc
