#include "src/core/snapshot.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "src/db/schema.h"
#include "src/util/file_io.h"
#include "src/util/mmap_file.h"
#include "src/util/string_util.h"
#include "src/util/varint.h"

namespace lockdoc {
namespace {

// Stats structs are serialized as a count-prefixed varint list in member
// order; the count is pinned by the format version, so adding a field means
// bumping the snapshot format versions.
constexpr uint64_t ImportStats::*kImportStatsFields[] = {
    &ImportStats::events,
    &ImportStats::accesses_total,
    &ImportStats::accesses_kept,
    &ImportStats::accesses_filtered,
    &ImportStats::txns,
    &ImportStats::locked_txns,
    &ImportStats::lock_instances,
    &ImportStats::allocations,
    &ImportStats::dangling_locks_closed,
    &ImportStats::live_allocations_at_end,
    &ImportStats::realloc_overlaps,
    &ImportStats::unmatched_releases,
    &ImportStats::unresolved_lock_ops,
    &ImportStats::unknown_type_allocs,
};

constexpr uint64_t TraceStats::*kTraceStatsFields[] = {
    &TraceStats::total_events,
    &TraceStats::lock_ops,
    &TraceStats::lock_acquires,
    &TraceStats::lock_releases,
    &TraceStats::memory_accesses,
    &TraceStats::reads,
    &TraceStats::writes,
    &TraceStats::allocations,
    &TraceStats::deallocations,
    &TraceStats::static_lock_defs,
    &TraceStats::distinct_locks,
    &TraceStats::distinct_static_locks,
    &TraceStats::distinct_embedded_locks,
};

template <typename Stats, size_t N>
void PutStats(std::string& out, const Stats& stats, uint64_t Stats::*const (&fields)[N]) {
  PutVarint(out, N);
  for (auto field : fields) {
    PutVarint(out, stats.*field);
  }
}

template <typename Stats, size_t N>
bool GetStats(ByteCursor& in, Stats* stats, uint64_t Stats::*const (&fields)[N]) {
  uint64_t count = 0;
  if (!GetVarint(in, &count) || count != N) {
    return false;
  }
  for (auto field : fields) {
    if (!GetVarint(in, &(stats->*field))) {
      return false;
    }
  }
  return true;
}

std::string EncodeMetaSection(const AnalysisSnapshot& snapshot, size_t type_count) {
  std::string payload;
  PutVarint(payload, kSnapshotFormatVersionV2);
  PutStats(payload, snapshot.import_stats, kImportStatsFields);
  PutStats(payload, snapshot.trace_stats, kTraceStatsFields);
  PutVarint(payload, type_count);
  return payload;
}

Status DecodeMetaSection(std::string_view payload, const TypeRegistry& registry,
                         AnalysisSnapshot* snapshot) {
  ByteCursor in{payload.data(), payload.size(), 0};
  uint64_t version = 0;
  if (!GetVarint(in, &version)) {
    return Status::Error("snapshot meta: unreadable version");
  }
  if (version != kSnapshotFormatVersionV2) {
    return Status::Error(StrFormat("snapshot meta: format version %llu, this container reads %llu",
                                   static_cast<unsigned long long>(version),
                                   static_cast<unsigned long long>(kSnapshotFormatVersionV2)));
  }
  if (!GetStats(in, &snapshot->import_stats, kImportStatsFields)) {
    return Status::Error("snapshot meta: bad import stats");
  }
  if (!GetStats(in, &snapshot->trace_stats, kTraceStatsFields)) {
    return Status::Error("snapshot meta: bad trace stats");
  }
  uint64_t type_count = 0;
  if (!GetVarint(in, &type_count) || in.remaining() != 0) {
    return Status::Error("snapshot meta: bad registry shape");
  }
  if (type_count != registry.type_count()) {
    return Status::Error(
        StrFormat("snapshot meta: built against a registry with %llu types, this one has %zu",
                  static_cast<unsigned long long>(type_count), registry.type_count()));
  }
  return Status::Ok();
}

std::string EncodePoolSection(const LockClassPool& pool) {
  std::string payload;
  PutVarint(payload, pool.classes().size());
  for (const LockClass& cls : pool.classes()) {
    payload.push_back(static_cast<char>(cls.scope));
    PutLengthPrefixed(payload, cls.lock_name);
    PutLengthPrefixed(payload, cls.owner_type);
  }
  return payload;
}

constexpr uint64_t kMaxSnapshotString = 1ull << 20;

Status DecodePoolSection(std::string_view payload, LockClassPool* pool) {
  ByteCursor in{payload.data(), payload.size(), 0};
  uint64_t count = 0;
  if (!GetVarint(in, &count) || count > in.remaining()) {
    return Status::Error("snapshot pool: bad class count");
  }
  std::vector<LockClass> classes;
  classes.reserve(count);
  std::set<LockClass> distinct;
  for (uint64_t i = 0; i < count; ++i) {
    LockClass cls;
    uint8_t scope = 0;
    if (!in.Get(&scope) || scope > static_cast<uint8_t>(LockScope::kEmbeddedOther) ||
        !GetLengthPrefixed(in, &cls.lock_name, kMaxSnapshotString) ||
        !GetLengthPrefixed(in, &cls.owner_type, kMaxSnapshotString)) {
      return Status::Error(StrFormat("snapshot pool: bad class %llu",
                                     static_cast<unsigned long long>(i)));
    }
    cls.scope = static_cast<LockScope>(scope);
    if (!distinct.insert(cls).second) {
      return Status::Error("snapshot pool: duplicate class");
    }
    classes.push_back(std::move(cls));
  }
  if (in.remaining() != 0) {
    return Status::Error("snapshot pool: trailing bytes");
  }
  pool->Reset(std::move(classes));
  return Status::Ok();
}

// Seqs section: columnar fixed-width arrays —
//   u64 seq_count | u64 total_ids | u32 len[seq_count] | u32 ids[total_ids]
// Decoding is a bounds-checked linear sweep with no varint branches.
std::string EncodeSeqsSectionV2(const ObservationStore& store) {
  const uint64_t count = store.distinct_seqs();
  uint64_t total_ids = 0;
  for (uint32_t i = 0; i < count; ++i) {
    total_ids += store.id_seq(i).size();
  }
  std::string payload(16 + 4 * count + 4 * total_ids, '\0');
  StoreUint64LE(payload.data(), count);
  StoreUint64LE(payload.data() + 8, total_ids);
  char* lens = payload.data() + 16;
  char* ids = lens + 4 * count;
  for (uint32_t i = 0; i < count; ++i) {
    const IdSeq& seq = store.id_seq(i);
    StoreUint32LE(lens + 4 * size_t{i}, static_cast<uint32_t>(seq.size()));
    for (LockId id : seq) {
      StoreUint32LE(ids, id);
      ids += 4;
    }
  }
  return payload;
}

Status DecodeSeqsSectionV2(std::string_view payload, size_t pool_size,
                           std::vector<IdSeq>* id_seqs) {
  if (payload.size() < 16) {
    return Status::Error("snapshot seqs: bad sequence count");
  }
  uint64_t count = LoadUint64LE(payload.data());
  uint64_t total_ids = LoadUint64LE(payload.data() + 8);
  // Exact size up front: corrupt counts cannot drive allocations.
  if (count > payload.size() || total_ids > payload.size() ||
      payload.size() != 16 + 4 * count + 4 * total_ids) {
    return Status::Error("snapshot seqs: bad sequence count");
  }
  const char* lens = payload.data() + 16;
  const char* ids = lens + 4 * count;
  id_seqs->reserve(count);
  uint64_t consumed = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t length = LoadUint32LE(lens + 4 * i);
    if (length > total_ids - consumed) {
      return Status::Error("snapshot seqs: bad sequence length");
    }
    IdSeq seq;
    seq.reserve(length);
    for (uint32_t j = 0; j < length; ++j) {
      uint32_t id = LoadUint32LE(ids + 4 * (consumed + j));
      if (id >= pool_size) {
        return Status::Error("snapshot seqs: lock id out of range");
      }
      seq.push_back(id);
    }
    consumed += length;
    id_seqs->push_back(std::move(seq));
  }
  if (consumed != total_ids) {
    return Status::Error("snapshot seqs: trailing bytes");
  }
  return Status::Ok();
}

// Groups section: one struct-of-arrays block (all little-endian) —
//   u64 key_count K | u64 group_count G | u64 seq_total S
//   u32 type[K] | u32 subclass[K] | u32 member[K] | u32 groups_per_key[K]
//   u32 lockseq[G] | u32 n_reads[G] | u32 n_writes[G]
//   u64 txn[G] | u64 alloc[G] | u32 seqs_per_group[G]
//   u64 seqs[S]
std::string EncodeGroupsSectionV2(const ObservationStore& store) {
  const uint64_t key_count = store.groups().size();
  uint64_t group_count = 0;
  uint64_t seq_total = 0;
  for (const auto& [key, groups] : store.groups()) {
    group_count += groups.size();
    for (const ObservationGroup& group : groups) {
      seq_total += group.seqs.size();
    }
  }
  // Every array's offset is known from the three counts, so one walk
  // stores each value in place.
  std::string payload(24 + 16 * key_count + 32 * group_count + 8 * seq_total, '\0');
  char* base = payload.data();
  StoreUint64LE(base, key_count);
  StoreUint64LE(base + 8, group_count);
  StoreUint64LE(base + 16, seq_total);
  char* key_type = base + 24;
  char* key_subclass = key_type + 4 * key_count;
  char* key_member = key_subclass + 4 * key_count;
  char* groups_per_key = key_member + 4 * key_count;
  char* lockseq = groups_per_key + 4 * key_count;
  char* n_reads = lockseq + 4 * group_count;
  char* n_writes = n_reads + 4 * group_count;
  char* txn = n_writes + 4 * group_count;
  char* alloc = txn + 8 * group_count;
  char* seqs_per_group = alloc + 8 * group_count;
  char* seqs = seqs_per_group + 4 * group_count;
  size_t k = 0;
  size_t g = 0;
  for (const auto& [key, groups] : store.groups()) {
    StoreUint32LE(key_type + 4 * k, key.type);
    StoreUint32LE(key_subclass + 4 * k, key.subclass);
    StoreUint32LE(key_member + 4 * k, key.member);
    StoreUint32LE(groups_per_key + 4 * k, static_cast<uint32_t>(groups.size()));
    ++k;
    for (const ObservationGroup& group : groups) {
      StoreUint32LE(lockseq + 4 * g, group.lockseq_id);
      StoreUint32LE(n_reads + 4 * g, group.n_reads);
      StoreUint32LE(n_writes + 4 * g, group.n_writes);
      StoreUint64LE(txn + 8 * g, group.txn_id);
      StoreUint64LE(alloc + 8 * g, group.alloc_id);
      StoreUint32LE(seqs_per_group + 4 * g, static_cast<uint32_t>(group.seqs.size()));
      ++g;
      for (uint64_t seq : group.seqs) {
        StoreUint64LE(seqs, seq);
        seqs += 8;
      }
    }
  }
  return payload;
}

// kNoSubclass or one of `type`'s registered subclasses.
bool IsRegisteredSubclass(const TypeRegistry& registry, TypeId type, SubclassId subclass) {
  if (subclass == kNoSubclass) {
    return true;
  }
  std::vector<SubclassId> registered = registry.SubclassesOf(type);
  return std::find(registered.begin(), registered.end(), subclass) != registered.end();
}

Status DecodeGroupsSectionV2(std::string_view payload, const TypeRegistry& registry,
                             size_t seq_count,
                             std::map<MemberObsKey, std::vector<ObservationGroup>>* groups) {
  if (payload.size() < 24) {
    return Status::Error("snapshot groups: bad key count");
  }
  uint64_t key_count = LoadUint64LE(payload.data());
  uint64_t group_count = LoadUint64LE(payload.data() + 8);
  uint64_t seq_total = LoadUint64LE(payload.data() + 16);
  if (key_count > payload.size() || group_count > payload.size() ||
      seq_total > payload.size() ||
      payload.size() != 24 + 16 * key_count + 32 * group_count + 8 * seq_total) {
    return Status::Error("snapshot groups: bad key count");
  }
  const char* base = payload.data() + 24;
  const char* key_type = base;
  const char* key_subclass = key_type + 4 * key_count;
  const char* key_member = key_subclass + 4 * key_count;
  const char* groups_per_key = key_member + 4 * key_count;
  const char* lockseq = groups_per_key + 4 * key_count;
  const char* n_reads = lockseq + 4 * group_count;
  const char* n_writes = n_reads + 4 * group_count;
  const char* txn = n_writes + 4 * group_count;
  const char* alloc = txn + 8 * group_count;
  const char* seqs_per_group = alloc + 8 * group_count;
  const char* seqs = seqs_per_group + 4 * group_count;

  MemberObsKey previous;
  uint64_t group_cursor = 0;
  uint64_t seq_cursor = 0;
  for (uint64_t i = 0; i < key_count; ++i) {
    MemberObsKey key;
    key.type = LoadUint32LE(key_type + 4 * i);
    key.subclass = LoadUint32LE(key_subclass + 4 * i);
    key.member = LoadUint32LE(key_member + 4 * i);
    if (key.type >= registry.type_count() ||
        key.member >= registry.layout(key.type).member_count() ||
        !IsRegisteredSubclass(registry, key.type, key.subclass)) {
      return Status::Error("snapshot groups: key out of registry range");
    }
    if (i > 0 && !(previous < key)) {
      return Status::Error("snapshot groups: keys out of order");
    }
    previous = key;
    uint32_t member_group_count = LoadUint32LE(groups_per_key + 4 * i);
    if (member_group_count > group_count - group_cursor) {
      return Status::Error("snapshot groups: bad group count");
    }
    std::vector<ObservationGroup> member_groups;
    member_groups.reserve(member_group_count);
    for (uint32_t g = 0; g < member_group_count; ++g) {
      uint64_t row = group_cursor + g;
      ObservationGroup group;
      group.lockseq_id = LoadUint32LE(lockseq + 4 * row);
      if (group.lockseq_id >= seq_count) {
        return Status::Error("snapshot groups: bad group");
      }
      group.n_reads = LoadUint32LE(n_reads + 4 * row);
      group.n_writes = LoadUint32LE(n_writes + 4 * row);
      group.txn_id = LoadUint64LE(txn + 8 * row);
      group.alloc_id = LoadUint64LE(alloc + 8 * row);
      uint32_t seq_len = LoadUint32LE(seqs_per_group + 4 * row);
      if (seq_len > seq_total - seq_cursor) {
        return Status::Error("snapshot groups: bad group");
      }
      group.seqs.resize(seq_len);
      // The seq ids are contiguous LE u64s and the host is little-endian
      // (static_assert in src/db/snapshot.cc), so the whole span copies
      // flat — this loop dominates the groups decode on big snapshots.
      std::memcpy(group.seqs.data(), seqs + 8 * seq_cursor, 8 * size_t{seq_len});
      seq_cursor += seq_len;
      member_groups.push_back(std::move(group));
    }
    group_cursor += member_group_count;
    groups->emplace(key, std::move(member_groups));
  }
  if (group_cursor != group_count || seq_cursor != seq_total) {
    return Status::Error("snapshot groups: trailing bytes");
  }
  return Status::Ok();
}

// Owned aligned backing for in-memory deserialization: std::string data has
// no alignment guarantee, so the bytes are copied once into a uint64-aligned
// buffer the views can point into.
struct OwnedBacking : SnapshotBacking {
  std::unique_ptr<uint64_t[]> buffer;
};

// File-mapped backing for the zero-copy LoadSnapshot path.
struct MappedBacking : SnapshotBacking {
  MappedFile file;
};

// The shared decode of both loaders. `backing` holds `bytes`, so numeric
// table columns are attached as views into them.
Result<AnalysisSnapshot> DeserializeImpl(std::string_view bytes, const TypeRegistry& registry,
                                         std::shared_ptr<const SnapshotBacking> backing) {
  // Every payload CRC is verified: no consumer computes on corrupt bytes.
  Result<std::vector<SnapshotSection>> scan = ScanSnapshotSections(bytes);
  if (!scan.ok()) {
    return scan.status();
  }
  // Skip section types this reader does not know about: a future writer may
  // append new sections, and every section frame is self-delimiting with its
  // own CRC, so an old reader can load everything it understands and ignore
  // the rest (doctor reports them as "unrecognized (skipped)").
  std::vector<SnapshotSection> sections;
  sections.reserve(scan.value().size());
  for (const SnapshotSection& section : scan.value()) {
    if (section.type >= kSnapshotSectionMeta && section.type <= kSnapshotSectionGroups) {
      sections.push_back(section);
    }
  }

  // Enforce the fixed section order: meta, strings, table*, pool, seqs,
  // groups.
  if (sections.size() < 5 || sections.front().type != kSnapshotSectionMeta) {
    return Status::Error("snapshot: missing meta section");
  }
  AnalysisSnapshot snapshot;
  Status status = DecodeMetaSection(sections[0].payload, registry, &snapshot);
  if (!status.ok()) {
    return status;
  }
  if (sections[1].type != kSnapshotSectionStrings) {
    return Status::Error("snapshot: missing strings section");
  }
  status = DecodeStringsSection(sections[1].payload, &snapshot.db.mutable_strings());
  if (!status.ok()) {
    return status;
  }
  size_t index = 2;
  while (index < sections.size() && sections[index].type == kSnapshotSectionTable) {
    status = DecodeTableSectionV2(sections[index].payload, &snapshot.db);
    if (!status.ok()) {
      return status;
    }
    ++index;
  }
  // A structurally clean container can still be semantically incomplete —
  // doctor --repair drops damaged sections wholesale. Catch a missing table
  // here rather than CHECK-failing at the first analysis lookup.
  for (const char* name : LockDocSchema::kAllTables) {
    if (!snapshot.db.HasTable(name)) {
      return Status::Error(
          StrFormat("snapshot: required table '%s' missing (truncated or repaired file?)", name));
    }
  }
  if (sections.size() - index != 3 || sections[index].type != kSnapshotSectionPool ||
      sections[index + 1].type != kSnapshotSectionSeqs ||
      sections[index + 2].type != kSnapshotSectionGroups) {
    return Status::Error("snapshot: sections out of order");
  }
  LockClassPool pool;
  status = DecodePoolSection(sections[index].payload, &pool);
  if (!status.ok()) {
    return status;
  }
  std::vector<IdSeq> id_seqs;
  status = DecodeSeqsSectionV2(sections[index + 1].payload, pool.size(), &id_seqs);
  if (!status.ok()) {
    return status;
  }
  std::map<MemberObsKey, std::vector<ObservationGroup>> groups;
  status = DecodeGroupsSectionV2(sections[index + 2].payload, registry, id_seqs.size(), &groups);
  if (!status.ok()) {
    return status;
  }
  snapshot.observations.ResetForSnapshot(std::move(pool), std::move(id_seqs),
                                         std::move(groups));
  snapshot.backing = std::move(backing);
  return snapshot;
}

// Meta, strings and one table section per database table, in name order:
// everything the import fixes before observations are extracted.
void AddHeadSections(const AnalysisSnapshot& snapshot, const TypeRegistry& registry,
                     SnapshotWriter& writer) {
  writer.AddSection(kSnapshotSectionMeta, EncodeMetaSection(snapshot, registry.type_count()));
  writer.AddSection(kSnapshotSectionStrings, EncodeStringsSection(snapshot.db.strings()));
  for (const std::string& name : snapshot.db.TableNames()) {
    writer.AddTableSection(snapshot.db.table(name));
  }
}

// Pool, seqs and groups: the sections that depend on extraction.
void AddObservationSections(const ObservationStore& store, SnapshotWriter& writer) {
  writer.AddSection(kSnapshotSectionPool, EncodePoolSection(store.pool()));
  writer.AddSection(kSnapshotSectionSeqs, EncodeSeqsSectionV2(store));
  writer.AddSection(kSnapshotSectionGroups, EncodeGroupsSectionV2(store));
}

}  // namespace

std::string SerializeSnapshot(const AnalysisSnapshot& snapshot, const TypeRegistry& registry) {
  SnapshotWriter writer;
  // One allocation for the whole file: the tables' u64 columns, stored as
  // is, plus the string pool, the observation payloads and headroom for the
  // small sections.
  size_t estimate = 1 << 16;
  for (const std::string& text : snapshot.db.strings().strings()) {
    estimate += text.size() + 10;
  }
  for (const std::string& name : snapshot.db.TableNames()) {
    const Table& table = snapshot.db.table(name);
    estimate += table.row_count() * table.column_count() * sizeof(uint64_t) + 256;
  }
  for (const auto& [key, groups] : snapshot.observations.groups()) {
    for (const ObservationGroup& group : groups) {
      estimate += 32 + 8 * group.seqs.size();
    }
  }
  writer.Reserve(estimate);
  AddHeadSections(snapshot, registry, writer);
  AddObservationSections(snapshot.observations, writer);
  return writer.Finish().value();  // A buffering writer cannot fail.
}

Result<AnalysisSnapshot> DeserializeSnapshot(std::string_view bytes,
                                             const TypeRegistry& registry) {
  // Numeric columns view into the container bytes; copy them once into an
  // aligned owned buffer the snapshot keeps alive (a caller's
  // std::string has no alignment guarantee and no pinned lifetime).
  auto backing = std::make_shared<OwnedBacking>();
  backing->buffer = std::make_unique<uint64_t[]>((bytes.size() + 7) / 8);
  std::memcpy(backing->buffer.get(), bytes.data(), bytes.size());
  backing->bytes =
      std::string_view(reinterpret_cast<const char*>(backing->buffer.get()), bytes.size());
  std::string_view view = backing->bytes;
  return DeserializeImpl(view, registry, std::move(backing));
}

Result<uint64_t> PeekSnapshotTypeCount(const std::string& path) {
  // Mapped, not read: a v2 scan touches only the section headers.
  auto mapped = MappedFile::Open(path);
  if (!mapped.ok()) {
    return mapped.status();
  }
  Result<std::vector<SnapshotSection>> scan =
      ScanSnapshotSections(mapped.value().bytes(), SnapshotScanMode::kVerifyHeaders);
  if (!scan.ok()) {
    return scan.status();
  }
  if (scan.value().empty() || scan.value().front().type != kSnapshotSectionMeta) {
    return Status::Error("snapshot: missing meta section");
  }
  // Parse the meta payload structurally (version, two stats blocks, type
  // count); the version itself is not checked here — the subsequent
  // LoadSnapshot does that with a proper typed error.
  std::string_view payload = scan.value().front().payload;
  ByteCursor in{payload.data(), payload.size(), 0};
  uint64_t version = 0;
  AnalysisSnapshot scratch;
  uint64_t type_count = 0;
  if (!GetVarint(in, &version) || !GetStats(in, &scratch.import_stats, kImportStatsFields) ||
      !GetStats(in, &scratch.trace_stats, kTraceStatsFields) || !GetVarint(in, &type_count)) {
    return Status::Error("snapshot meta: bad registry shape");
  }
  return type_count;
}

const TypeRegistry& PickTraceRegistry(const Trace& trace, const TypeRegistry& base,
                                      const TypeRegistry* extended) {
  if (extended == nullptr) {
    return base;
  }
  for (const TraceEvent& e : trace.events()) {
    if (e.has_range ||
        (e.kind == EventKind::kAlloc && e.type != kInvalidTypeId && e.type >= base.type_count())) {
      return *extended;
    }
  }
  return base;
}

const TypeRegistry& PickSnapshotRegistry(const std::string& path, const TypeRegistry& base,
                                         const TypeRegistry* extended) {
  if (extended == nullptr) {
    return base;
  }
  Result<uint64_t> type_count = PeekSnapshotTypeCount(path);
  return type_count.ok() && type_count.value() > base.type_count() ? *extended : base;
}

Result<AnalysisSnapshot> BuildAndSaveSnapshot(const Trace& trace, const TypeRegistry& registry,
                                              const PipelineOptions& options,
                                              const SnapshotWriteOptions& /*write_options*/,
                                              const std::string& path,
                                              PipelineTimings* timings) {
  using Clock = std::chrono::steady_clock;
  auto seconds = [](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
  };

  AnalysisSnapshot snapshot;
  ThreadPool pool(options.jobs);
  if (timings != nullptr) {
    timings->jobs = pool.thread_count();
  }

  auto t0 = Clock::now();
  TraceImporter importer(&registry, options.filter);
  snapshot.import_stats = importer.Import(trace, &snapshot.db, &pool);
  snapshot.trace_stats = ComputeTraceStats(trace);
  auto t1 = Clock::now();
  if (timings != nullptr) {
    timings->Add("database import", seconds(t0, t1), snapshot.import_stats.events);
  }

  AtomicFileWriter file;
  Status io = file.Open(path);
  if (!io.ok()) {
    return io;
  }
  // Frames go to the file as they are built: table sections straight from
  // column memory, nothing gathered into a payload or whole-file buffer.
  // Writeback is started behind the writer every few MiB so the final
  // fsync finds most pages on their way to disk.
  constexpr uint64_t kHintBytes = 8 << 20;
  uint64_t hinted = 0;
  SnapshotWriter writer([&](std::string_view bytes) {
    Status status = file.Append(bytes);
    if (status.ok() && file.bytes_written() - hinted >= kHintBytes) {
      file.FlushHint();
      hinted = file.bytes_written();
    }
    return status;
  });

  // Everything up to the observation sections is fully determined by the
  // import, so the head of the file — meta, strings, and the table sections
  // that dominate its size — can stream to disk while extraction runs. The
  // head writer only *reads* the database (CRC + write); extraction also
  // only reads it, so the two proceed without synchronization beyond the
  // join below. With one job the contract is a strictly serial pipeline;
  // the overlap is only taken when the caller asked for parallelism.
  auto write_head = [&] { AddHeadSections(snapshot, registry, writer); };
  const bool overlap = pool.thread_count() > 1;
  std::thread head_thread;
  if (overlap) {
    head_thread = std::thread(write_head);
  }

  snapshot.observations = ExtractObservations(snapshot.db, registry, &pool);
  auto t2 = Clock::now();
  if (timings != nullptr) {
    timings->Add("observation extraction", seconds(t1, t2),
                 snapshot.import_stats.accesses_kept);
  }

  if (overlap) {
    head_thread.join();
  } else {
    write_head();
  }
  AddObservationSections(snapshot.observations, writer);
  Result<std::string> finished = writer.Finish();
  if (!finished.ok()) {
    file.Abort();  // No-op when a failed Append already removed the temp file.
    return finished.status();
  }
  io = file.Commit();
  if (!io.ok()) {
    return io;
  }
  auto t3 = Clock::now();
  if (timings != nullptr) {
    // Only the tail that could not hide behind extraction; the overlapped
    // head writing is already accounted inside the extraction wall time.
    timings->Add("snapshot save", seconds(t2, t3), writer.bytes_written());
  }
  return snapshot;
}

Status SaveSnapshot(const AnalysisSnapshot& snapshot, const TypeRegistry& registry,
                    const std::string& path) {
  // Atomic (temp + fsync + rename): a crash mid-save leaves the previous
  // snapshot intact instead of a half-written .lockdb the checksums would
  // then reject.
  return WriteFileAtomic(path, SerializeSnapshot(snapshot, registry));
}

Result<AnalysisSnapshot> LoadSnapshot(const std::string& path, const TypeRegistry& registry) {
  Result<MappedFile> mapped = MappedFile::Open(path);
  if (!mapped.ok()) {
    return mapped.status();
  }
  auto backing = std::make_shared<MappedBacking>();
  backing->file = std::move(mapped).value();
  backing->bytes = backing->file.bytes();
  std::string_view bytes = backing->bytes;
  // The CRC sweep is about to read every page front to back; batch the
  // faults.
  backing->file.AdviseSequentialScan();
  return DeserializeImpl(bytes, registry, std::move(backing));
}

}  // namespace lockdoc
