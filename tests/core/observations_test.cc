// Folding, write-over-read, and ES/EO lock classification (Sec. 4.2, 5.4).
#include "src/core/observations.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "tests/core/test_helpers.h"

namespace lockdoc {
namespace {

TEST(ObservationsTest, RepeatedAccessesFoldIntoOneObservation) {
  TestWorld world;
  {
    FunctionScope fn(*world.sim, "t.c", "f", 1, 50);
    ObjectRef obj = world.sim->Create(world.type, kNoSubclass, 1);
    world.sim->LockGlobal(world.global_a, 2);
    for (int i = 0; i < 5; ++i) {
      world.sim->Write(obj, world.data, 3);
    }
    world.sim->UnlockGlobal(world.global_a, 4);
    world.sim->Destroy(obj, 5);
  }
  ObservationStore store = world.Extract();
  const auto& groups = store.GroupsFor(world.Key(world.data));
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].n_writes, 5u);
  EXPECT_EQ(groups[0].seqs.size(), 5u);
  EXPECT_EQ(store.CountObservations(world.Key(world.data), AccessType::kWrite), 1u);
}

TEST(ObservationsTest, WriteOverReadFoldsMixedGroups) {
  TestWorld world;
  {
    FunctionScope fn(*world.sim, "t.c", "f", 1, 50);
    ObjectRef obj = world.sim->Create(world.type, kNoSubclass, 1);
    world.sim->LockGlobal(world.global_a, 2);
    world.sim->Read(obj, world.data, 3);
    world.sim->Write(obj, world.data, 4);
    world.sim->UnlockGlobal(world.global_a, 5);
    world.sim->Destroy(obj, 6);
  }
  ObservationStore store = world.Extract();
  EXPECT_EQ(store.CountObservations(world.Key(world.data), AccessType::kWrite), 1u);
  EXPECT_EQ(store.CountObservations(world.Key(world.data), AccessType::kRead), 0u);
  const auto& group = store.GroupsFor(world.Key(world.data))[0];
  EXPECT_EQ(group.effective(), AccessType::kWrite);
  EXPECT_EQ(group.n_reads, 1u);
}

TEST(ObservationsTest, SameMemberDifferentAllocationsAreSeparateObservations) {
  TestWorld world;
  {
    FunctionScope fn(*world.sim, "t.c", "f", 1, 50);
    ObjectRef a = world.sim->Create(world.type, kNoSubclass, 1);
    ObjectRef b = world.sim->Create(world.type, kNoSubclass, 2);
    world.sim->LockGlobal(world.global_a, 3);
    world.sim->Write(a, world.data, 4);
    world.sim->Write(b, world.data, 5);
    world.sim->UnlockGlobal(world.global_a, 6);
    world.sim->Destroy(a, 7);
    world.sim->Destroy(b, 8);
  }
  ObservationStore store = world.Extract();
  EXPECT_EQ(store.CountObservations(world.Key(world.data), AccessType::kWrite), 2u);
}

TEST(ObservationsTest, EmbeddedSameClassification) {
  TestWorld world;
  {
    FunctionScope fn(*world.sim, "t.c", "f", 1, 50);
    ObjectRef obj = world.sim->Create(world.type, kNoSubclass, 1);
    world.sim->Lock(obj, world.spin, 2);
    world.sim->Write(obj, world.data, 3);
    world.sim->Unlock(obj, world.spin, 4);
    world.sim->Destroy(obj, 5);
  }
  ObservationStore store = world.Extract();
  const auto& group = store.GroupsFor(world.Key(world.data))[0];
  EXPECT_EQ(LockSeqToString(store.seq(group.lockseq_id)), "ES(w_lock in widget)");
}

TEST(ObservationsTest, EmbeddedOtherClassification) {
  TestWorld world;
  {
    FunctionScope fn(*world.sim, "t.c", "f", 1, 50);
    ObjectRef a = world.sim->Create(world.type, kNoSubclass, 1);
    ObjectRef b = world.sim->Create(world.type, kNoSubclass, 2);
    world.sim->Lock(a, world.spin, 3);
    world.sim->Write(b, world.data, 4);  // b's member under a's lock.
    world.sim->Unlock(a, world.spin, 5);
    world.sim->Destroy(a, 6);
    world.sim->Destroy(b, 7);
  }
  ObservationStore store = world.Extract();
  const auto& group = store.GroupsFor(world.Key(world.data))[0];
  EXPECT_EQ(LockSeqToString(store.seq(group.lockseq_id)), "EO(w_lock in widget)");
}

TEST(ObservationsTest, GlobalAndOrderPreserved) {
  TestWorld world;
  {
    FunctionScope fn(*world.sim, "t.c", "f", 1, 50);
    ObjectRef obj = world.sim->Create(world.type, kNoSubclass, 1);
    world.sim->LockGlobal(world.global_a, 2);
    world.sim->Lock(obj, world.spin, 3);
    world.sim->Write(obj, world.data, 4);
    world.sim->Unlock(obj, world.spin, 5);
    world.sim->UnlockGlobal(world.global_a, 6);
    world.sim->Destroy(obj, 7);
  }
  ObservationStore store = world.Extract();
  const auto& group = store.GroupsFor(world.Key(world.data))[0];
  EXPECT_EQ(LockSeqToString(store.seq(group.lockseq_id)),
            "global_a -> ES(w_lock in widget)");
}

TEST(ObservationsTest, LockFreeAccessHasEmptySequence) {
  TestWorld world;
  {
    FunctionScope fn(*world.sim, "t.c", "f", 1, 50);
    ObjectRef obj = world.sim->Create(world.type, kNoSubclass, 1);
    world.sim->Read(obj, world.data, 2);
    world.sim->Destroy(obj, 3);
  }
  ObservationStore store = world.Extract();
  const auto& group = store.GroupsFor(world.Key(world.data))[0];
  EXPECT_TRUE(store.seq(group.lockseq_id).empty());
  EXPECT_EQ(group.effective(), AccessType::kRead);
}

TEST(ObservationsTest, SeqInterningDeduplicates) {
  ObservationStore store;
  LockSeq seq = {LockClass::Global("x")};
  EXPECT_EQ(store.InternSeq(seq), store.InternSeq(seq));
  EXPECT_EQ(store.distinct_seqs(), 1u);
  EXPECT_NE(store.InternSeq({LockClass::Global("y")}), store.InternSeq(seq));
}

TEST(ObservationsTest, FilteredAccessesProduceNoObservations) {
  TestWorld world;
  {
    FunctionScope fn(*world.sim, "t.c", "f", 1, 50);
    ObjectRef obj = world.sim->Create(world.type, kNoSubclass, 1);
    world.sim->Write(obj, world.banned, 2);
    world.sim->AtomicWrite(obj, world.atomic, 3);
    world.sim->Destroy(obj, 4);
  }
  ObservationStore store = world.Extract();
  EXPECT_TRUE(store.GroupsFor(world.Key(world.banned)).empty());
  EXPECT_TRUE(store.GroupsFor(world.Key(world.atomic)).empty());
}

TEST(ObservationsTest, ResumedTransactionFoldsIntoItsOriginalGroup) {
  // Regression for the open-group eviction: after a nested lock is released,
  // the enclosing transaction resumes under its original id, so a later
  // access must fold into the group created before the nesting — eviction
  // keyed on the *nested* transaction's end must not drop it.
  TestWorld world;
  {
    FunctionScope fn(*world.sim, "t.c", "f", 1, 50);
    ObjectRef obj = world.sim->Create(world.type, kNoSubclass, 1);
    world.sim->LockGlobal(world.global_a, 2);
    world.sim->Write(obj, world.data, 3);   // Group in txn a.
    world.sim->Lock(obj, world.spin, 4);
    world.sim->Write(obj, world.data, 5);   // Group in nested txn.
    world.sim->Unlock(obj, world.spin, 6);  // Nested txn ends; txn a resumes.
    world.sim->Write(obj, world.data, 7);   // Must fold into the first group.
    world.sim->UnlockGlobal(world.global_a, 8);
    world.sim->Destroy(obj, 9);
  }
  ObservationStore store = world.Extract();
  const auto& groups = store.GroupsFor(world.Key(world.data));
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].n_writes, 2u);  // Accesses at seq 3 and 7 folded.
  EXPECT_EQ(groups[1].n_writes, 1u);  // The nested access.
  EXPECT_EQ(store.seq(groups[0].lockseq_id).size(), 1u);
  EXPECT_EQ(store.seq(groups[1].lockseq_id).size(), 2u);
}

void ExpectStoresIdentical(const ObservationStore& a, const ObservationStore& b) {
  ASSERT_EQ(a.distinct_seqs(), b.distinct_seqs());
  for (uint32_t id = 0; id < a.distinct_seqs(); ++id) {
    EXPECT_EQ(a.seq(id), b.seq(id)) << "seq id " << id;
  }
  ASSERT_EQ(a.keys(), b.keys());
  for (size_t k = 0; k < a.keys().size(); ++k) {
    const auto groups_a = a.GroupsAt(k);
    const auto groups_b = b.GroupsAt(k);
    ASSERT_EQ(groups_a.size(), groups_b.size());
    for (size_t i = 0; i < groups_a.size(); ++i) {
      EXPECT_EQ(groups_a[i].lockseq_id, groups_b[i].lockseq_id);
      EXPECT_EQ(groups_a[i].txn_id, groups_b[i].txn_id);
      EXPECT_EQ(groups_a[i].alloc_id, groups_b[i].alloc_id);
      EXPECT_EQ(groups_a[i].n_reads, groups_b[i].n_reads);
      EXPECT_EQ(groups_a[i].n_writes, groups_b[i].n_writes);
      EXPECT_TRUE(std::ranges::equal(groups_a[i].seqs, groups_b[i].seqs));
    }
  }
}

// A two-type world for the overlap filter: a "space" owning a range lock
// and "region" objects allocated with ground-truth spans.
struct RangeWorld {
  std::unique_ptr<TypeRegistry> registry;
  Trace trace;
  std::unique_ptr<SimKernel> sim;
  TypeId space = kInvalidTypeId;
  TypeId region = kInvalidTypeId;
  MemberIndex r_lock = kInvalidMember;
  MemberIndex data = kInvalidMember;

  RangeWorld() {
    registry = std::make_unique<TypeRegistry>();
    auto space_layout = std::make_unique<TypeLayout>("space");
    r_lock = space_layout->AddLockMember("r_lock", LockType::kRangeLock);
    space = registry->Register(std::move(space_layout));
    auto region_layout = std::make_unique<TypeLayout>("region");
    data = region_layout->AddMember("data", 8);
    region = registry->Register(std::move(region_layout));
    sim = std::make_unique<SimKernel>(&trace, registry.get());
  }

  ObservationStore Extract() {
    Database db;
    TraceImporter importer(registry.get(), FilterConfig::Defaults());
    importer.Import(trace, &db);
    return ExtractObservations(db, *registry);
  }

  MemberObsKey RegionKey() const {
    MemberObsKey key;
    key.type = region;
    key.subclass = kNoSubclass;
    key.member = data;
    return key;
  }
};

TEST(ObservationsTest, OverlappingRangeHoldCoversAccess) {
  RangeWorld world;
  {
    FunctionScope fn(*world.sim, "t.c", "f", 1, 50);
    ObjectRef space = world.sim->Create(world.space, kNoSubclass, 1);
    ObjectRef region =
        world.sim->CreateWithSpan(world.region, kNoSubclass, 0x1000, 0x2000, 2);
    world.sim->AcquireRange(space, world.r_lock, 0x1000, 0x2000, 3);
    world.sim->Write(region, world.data, 4);
    world.sim->ReleaseRange(space, world.r_lock, 0x1000, 0x2000, 5);
    world.sim->Destroy(region, 6);
    world.sim->Destroy(space, 7);
  }
  ObservationStore store = world.Extract();
  const auto& groups = store.GroupsFor(world.RegionKey());
  ASSERT_EQ(groups.size(), 1u);
  const LockSeq& held = store.seq(groups[0].lockseq_id);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].ToString(), "EO(r_lock in space)");
}

TEST(ObservationsTest, NonOverlappingRangeHoldDoesNotCover) {
  RangeWorld world;
  {
    FunctionScope fn(*world.sim, "t.c", "f", 1, 50);
    ObjectRef space = world.sim->Create(world.space, kNoSubclass, 1);
    ObjectRef region =
        world.sim->CreateWithSpan(world.region, kNoSubclass, 0x1000, 0x2000, 2);
    // Held over a disjoint span: covers nothing of the region, so the
    // access observes as lock-free rather than as a (false) compliance.
    world.sim->AcquireRange(space, world.r_lock, 0x5000, 0x6000, 3);
    world.sim->Write(region, world.data, 4);
    world.sim->ReleaseRange(space, world.r_lock, 0x5000, 0x6000, 5);
    world.sim->Destroy(region, 6);
    world.sim->Destroy(space, 7);
  }
  ObservationStore store = world.Extract();
  const auto& groups = store.GroupsFor(world.RegionKey());
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_TRUE(store.seq(groups[0].lockseq_id).empty());
}

TEST(ObservationsTest, AdjacentRangeHoldDoesNotCover) {
  RangeWorld world;
  {
    FunctionScope fn(*world.sim, "t.c", "f", 1, 50);
    ObjectRef space = world.sim->Create(world.space, kNoSubclass, 1);
    ObjectRef region =
        world.sim->CreateWithSpan(world.region, kNoSubclass, 0x1000, 0x2000, 2);
    world.sim->AcquireRange(space, world.r_lock, 0x2000, 0x3000, 3);  // Touches at 0x2000.
    world.sim->Write(region, world.data, 4);
    world.sim->ReleaseRange(space, world.r_lock, 0x2000, 0x3000, 5);
    world.sim->Destroy(region, 6);
    world.sim->Destroy(space, 7);
  }
  ObservationStore store = world.Extract();
  const auto& groups = store.GroupsFor(world.RegionKey());
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_TRUE(store.seq(groups[0].lockseq_id).empty());  // Half-open spans: no overlap.
}

TEST(ObservationsTest, SpanlessObjectCoveredByAnyRangeHold) {
  RangeWorld world;
  {
    FunctionScope fn(*world.sim, "t.c", "f", 1, 50);
    ObjectRef space = world.sim->Create(world.space, kNoSubclass, 1);
    ObjectRef region = world.sim->Create(world.region, kNoSubclass, 2);  // No span.
    world.sim->AcquireRange(space, world.r_lock, 0x5000, 0x6000, 3);
    world.sim->Write(region, world.data, 4);
    world.sim->ReleaseRange(space, world.r_lock, 0x5000, 0x6000, 5);
    world.sim->Destroy(region, 6);
    world.sim->Destroy(space, 7);
  }
  ObservationStore store = world.Extract();
  const auto& groups = store.GroupsFor(world.RegionKey());
  ASSERT_EQ(groups.size(), 1u);
  // Conservative: an object without a recorded span is covered by every
  // hold of the range lock.
  const LockSeq& held = store.seq(groups[0].lockseq_id);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].ToString(), "EO(r_lock in space)");
}

TEST(ObservationsTest, ParallelExtractionMatchesSerialExactly) {
  // Interned ids, group order, and every group field must be identical
  // whether classification runs inline or across a pool.
  TestWorld world;
  {
    FunctionScope fn(*world.sim, "t.c", "f", 1, 50);
    for (int round = 0; round < 40; ++round) {
      ObjectRef obj = world.sim->Create(world.type, kNoSubclass, 1);
      world.sim->LockGlobal(world.global_a, 2);
      world.sim->Write(obj, world.data, 3);
      world.sim->Lock(obj, round % 2 == 0 ? world.spin : world.mutex, 4);
      world.sim->Read(obj, world.extra, 5);
      world.sim->Unlock(obj, round % 2 == 0 ? world.spin : world.mutex, 6);
      world.sim->UnlockGlobal(world.global_a, 7);
      world.sim->Read(obj, world.data, 8);  // Lock-free span.
      world.sim->Destroy(obj, 9);
    }
  }
  Database db;
  world.Import(&db);
  ObservationStore serial = ExtractObservations(db, *world.registry);
  for (size_t threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    ObservationStore parallel = ExtractObservations(db, *world.registry, &pool);
    ExpectStoresIdentical(serial, parallel);
  }
}

}  // namespace
}  // namespace lockdoc
