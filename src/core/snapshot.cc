#include "src/core/snapshot.h"

#include <algorithm>
#include <array>
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
  PutVarint(payload, kSnapshotFormatVersion);
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
  if (version != kSnapshotFormatVersion) {
    return Status::Error(StrFormat("snapshot meta: format version %llu, this container reads %llu",
                                   static_cast<unsigned long long>(version),
                                   static_cast<unsigned long long>(kSnapshotFormatVersion)));
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
std::string EncodeSeqsSection(const ObservationStore& store) {
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

Status DecodeSeqsSection(std::string_view payload, size_t pool_size,
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

// Groups section: three counts, one width byte per array (zero-padded to
// 8), then the arrays through the column codec, each at the width its
// values need and padded to 8 —
//   u64 key_count K | u64 group_count G | u64 seq_total S | u8 width[10]
//   type[K] | subclass[K] | member[K] | groups_per_key[K]
//   lockseq[G] | txn[G] | alloc[G] | n_reads[G] | n_writes[G] | seqs[S]
// A group's seqs start at the running sum of n_reads + n_writes over the
// groups before it, which the loader computes rather than reads.
constexpr size_t kGroupArrays = 10;
constexpr size_t kGroupsHeaderSize = PaddedPayloadSize(24 + kGroupArrays);

void AddGroupsSection(const ObservationStore& store, SnapshotWriter& writer) {
  const std::vector<MemberObsKey>& keys = store.keys();
  std::array<std::vector<uint64_t>, 4> key_columns;
  for (size_t k = 0; k < keys.size(); ++k) {
    key_columns[0].push_back(keys[k].type);
    key_columns[1].push_back(keys[k].subclass);
    key_columns[2].push_back(keys[k].member);
    key_columns[3].push_back(store.GroupsAt(k).size());
  }
  const GroupColumns& groups = store.group_columns();
  const std::array<ColumnView, kGroupArrays> arrays = {
      ColumnView(key_columns[0]), ColumnView(key_columns[1]), ColumnView(key_columns[2]),
      ColumnView(key_columns[3]), groups.lockseq, groups.txn, groups.alloc, groups.n_reads,
      groups.n_writes, groups.seqs};
  std::string header(kGroupsHeaderSize, '\0');
  StoreUint64LE(header.data(), keys.size());
  StoreUint64LE(header.data() + 8, store.group_count());
  StoreUint64LE(header.data() + 16, groups.seqs.size());
  std::vector<PayloadPiece> pieces = {std::string_view(header)};
  for (size_t i = 0; i < kGroupArrays; ++i) {
    const uint8_t width = NarrowestColumnWidth(arrays[i]);
    header[24 + i] = static_cast<char>(width);
    pieces.emplace_back(arrays[i], width);
  }
  writer.AddSection(kSnapshotSectionGroups, pieces);
}

// kNoSubclass or one of `type`'s registered subclasses.
bool IsRegisteredSubclass(const TypeRegistry& registry, TypeId type, SubclassId subclass) {
  if (subclass == kNoSubclass) {
    return true;
  }
  std::vector<SubclassId> registered = registry.SubclassesOf(type);
  return std::find(registered.begin(), registered.end(), subclass) != registered.end();
}

// Views the groups section's arrays in `payload` and hands them to `store`
// after one sweep that checks what the analyses rely on: keys ascending and
// inside the registry, every lock sequence id below `seq_count`, and group
// counts that sum to the group total and read/write counts that sum to the
// seq total. The sweep computes each key's first group and each group's
// first seq; nothing is allocated per group.
Status LoadGroupsSection(std::string_view payload, const TypeRegistry& registry,
                         LockClassPool pool, std::vector<IdSeq> id_seqs,
                         ObservationStore* store) {
  if (payload.size() < kGroupsHeaderSize) {
    return Status::Error("snapshot groups: bad key count");
  }
  const uint64_t key_count = LoadUint64LE(payload.data());
  const uint64_t group_count = LoadUint64LE(payload.data() + 8);
  const uint64_t seq_total = LoadUint64LE(payload.data() + 16);
  ByteCursor in{payload.data(), payload.size(), kGroupsHeaderSize};
  std::array<ColumnView, kGroupArrays> arrays;
  for (size_t i = 0; i < kGroupArrays; ++i) {
    const uint8_t width = static_cast<uint8_t>(payload[24 + i]);
    if (!IsColumnWidth(width)) {
      return Status::Error(StrFormat("snapshot groups: bad array width %u", width));
    }
    const uint64_t rows = i < 4 ? key_count : i < 9 ? group_count : seq_total;
    if (!ReadColumn(in, width, rows, &arrays[i])) {
      return Status::Error("snapshot groups: array runs past the payload");
    }
  }
  if (in.remaining() != 0) {
    return Status::Error("snapshot groups: trailing bytes");
  }

  std::vector<MemberObsKey> keys(key_count);
  std::vector<size_t> key_begin(key_count + 1, 0);
  for (size_t k = 0; k < key_count; ++k) {
    const uint64_t type = arrays[0][k];
    const uint64_t subclass = arrays[1][k];
    const uint64_t member = arrays[2][k];
    if (type >= registry.type_count() || member >= registry.layout(type).member_count() ||
        subclass > UINT32_MAX ||
        !IsRegisteredSubclass(registry, static_cast<TypeId>(type),
                              static_cast<SubclassId>(subclass))) {
      return Status::Error("snapshot groups: key out of registry range");
    }
    keys[k] = {static_cast<TypeId>(type), static_cast<SubclassId>(subclass),
               static_cast<MemberIndex>(member)};
    if (k > 0 && !(keys[k - 1] < keys[k])) {
      return Status::Error("snapshot groups: keys out of order");
    }
    const uint64_t groups = arrays[3][k];
    if (groups > group_count - key_begin[k]) {
      return Status::Error("snapshot groups: bad group count");
    }
    key_begin[k + 1] = key_begin[k] + groups;
  }
  if (key_begin.back() != group_count) {
    return Status::Error("snapshot groups: group counts do not sum to the group total");
  }

  GroupColumns columns{arrays[4], arrays[5], arrays[6], arrays[7], arrays[8], arrays[9]};
  std::vector<size_t> seq_begin(group_count + 1, 0);
  for (size_t g = 0; g < group_count; ++g) {
    const uint64_t n_reads = columns.n_reads[g];
    const uint64_t n_writes = columns.n_writes[g];
    const uint64_t left = seq_total - seq_begin[g];
    if (columns.lockseq[g] >= id_seqs.size() || n_reads > left || n_writes > left - n_reads ||
        n_reads > UINT32_MAX || n_writes > UINT32_MAX) {
      return Status::Error("snapshot groups: bad group");
    }
    seq_begin[g + 1] = seq_begin[g] + n_reads + n_writes;
  }
  if (seq_begin.back() != seq_total) {
    return Status::Error("snapshot groups: read and write counts do not sum to the seq total");
  }
  store->ResetForSnapshot(std::move(pool), std::move(id_seqs), std::move(keys),
                          std::move(key_begin), std::move(seq_begin), columns);
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
    status = DecodeTableSection(sections[index].payload, &snapshot.db);
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
  status = DecodeSeqsSection(sections[index + 1].payload, pool.size(), &id_seqs);
  if (!status.ok()) {
    return status;
  }
  status = LoadGroupsSection(sections[index + 2].payload, registry, std::move(pool),
                             std::move(id_seqs), &snapshot.observations);
  if (!status.ok()) {
    return status;
  }
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
  writer.AddSection(kSnapshotSectionSeqs, EncodeSeqsSection(store));
  AddGroupsSection(store, writer);
}

}  // namespace

std::string SerializeSnapshot(const AnalysisSnapshot& snapshot, const TypeRegistry& registry) {
  SnapshotWriter writer;
  // One allocation for the whole file, sized for 8-byte values: the tables
  // and group arrays narrow to at most that, plus the string pool and
  // headroom for the small sections. Pages past the file stay untouched.
  size_t estimate = 1 << 16;
  for (const std::string& text : snapshot.db.strings().strings()) {
    estimate += text.size() + 10;
  }
  for (const std::string& name : snapshot.db.TableNames()) {
    const Table& table = snapshot.db.table(name);
    estimate += table.row_count() * table.column_count() * sizeof(uint64_t) + 256;
  }
  const ObservationStore& store = snapshot.observations;
  estimate += 8 * (5 * store.group_count() + store.group_columns().seqs.size());
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
  ImportTrace(trace, registry, options.filter, pool, &snapshot);
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
