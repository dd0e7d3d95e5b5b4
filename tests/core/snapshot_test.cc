// Analysis-snapshot serialization: .lockdb round trips must preserve every
// store (database, string pool, lock classes, interned sequences,
// observation groups), re-serialization must be byte-identical, the on-disk
// bytes are pinned by a golden fixture, and corrupt input of any shape must
// come back as a Status error — never an abort.
#include "src/core/snapshot.h"

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/trace/corruptor.h"
#include "src/util/varint.h"
#include "src/vfs/vfs_kernel.h"
#include "src/workload/workloads.h"
#include "tests/core/test_helpers.h"

namespace lockdoc {
namespace {

std::string GoldenPath() {
  return std::string(LOCKDOC_TESTDATA_DIR) + "/golden_mini_v3.lockdb";
}
// The MakeWorld snapshot in a retired container, frozen: v1 (varint) or
// v2 (full-width columns).
std::string LegacyPath(int version) {
  return std::string(LOCKDOC_TESTDATA_DIR) + "/legacy_v" + std::to_string(version) + ".lockdb";
}

// A deterministic little world that populates every section: strings,
// tables, a global and an embedded lock, and several observation groups.
TestWorld MakeWorld() {
  TestWorld world;
  FunctionScope fn(*world.sim, "fs/widget.c", "widget_ops", 1, 90);
  ObjectRef obj = world.sim->Create(world.type, kNoSubclass, 1);
  for (int i = 0; i < 6; ++i) {
    world.sim->LockGlobal(world.global_a, 10);
    world.sim->Lock(obj, world.spin, 11);
    world.sim->Write(obj, world.data, 12);
    world.sim->Read(obj, world.extra, 13);
    world.sim->Unlock(obj, world.spin, 14);
    world.sim->UnlockGlobal(world.global_a, 15);
  }
  world.sim->Write(obj, world.data, 66);  // Lockless outlier.
  world.sim->Destroy(obj, 89);
  return world;
}

void ExpectSameRules(const std::vector<DerivationResult>& a,
                     const std::vector<DerivationResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].access, b[i].access);
    EXPECT_EQ(a[i].total, b[i].total);
    ASSERT_EQ(a[i].winner.has_value(), b[i].winner.has_value());
    if (a[i].winner.has_value()) {
      EXPECT_EQ(LockSeqToString(a[i].winner->locks), LockSeqToString(b[i].winner->locks));
      EXPECT_EQ(a[i].winner->sa, b[i].winner->sa);
    }
  }
}

TEST(SnapshotTest, RoundTripPreservesEveryStore) {
  TestWorld world = MakeWorld();
  AnalysisSnapshot snapshot = BuildSnapshot(world.trace, *world.registry);
  std::string bytes = SerializeSnapshot(snapshot, *world.registry);

  auto restored = DeserializeSnapshot(bytes, *world.registry);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  const AnalysisSnapshot& loaded = restored.value();

  // Database: same tables, same shapes, same strings.
  ASSERT_EQ(loaded.db.TableNames(), snapshot.db.TableNames());
  for (const std::string& name : snapshot.db.TableNames()) {
    EXPECT_EQ(loaded.db.table(name).row_count(), snapshot.db.table(name).row_count()) << name;
  }
  ASSERT_EQ(loaded.db.strings().size(), snapshot.db.strings().size());
  for (StringId id = 0; id < snapshot.db.strings().size(); ++id) {
    EXPECT_EQ(loaded.db.String(id), snapshot.db.String(id));
  }

  // Stats.
  EXPECT_EQ(loaded.import_stats.accesses_kept, snapshot.import_stats.accesses_kept);
  EXPECT_EQ(loaded.import_stats.txns, snapshot.import_stats.txns);
  EXPECT_EQ(loaded.trace_stats.total_events, snapshot.trace_stats.total_events);
  EXPECT_EQ(loaded.trace_stats.ToString(), snapshot.trace_stats.ToString());

  // Observations: identical groups, identical derived rules.
  EXPECT_EQ(loaded.observations.keys(), snapshot.observations.keys());
  EXPECT_EQ(loaded.observations.group_count(), snapshot.observations.group_count());
  ExpectSameRules(AnalyzeSnapshot(loaded), AnalyzeSnapshot(snapshot));
}

TEST(SnapshotTest, ReserializationIsByteIdentical) {
  TestWorld world = MakeWorld();
  AnalysisSnapshot snapshot = BuildSnapshot(world.trace, *world.registry);
  std::string bytes = SerializeSnapshot(snapshot, *world.registry);
  auto restored = DeserializeSnapshot(bytes, *world.registry);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(SerializeSnapshot(restored.value(), *world.registry), bytes);
}

std::string ReadFixture(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// Pins the exact on-disk bytes. If this fails, the format changed: bump the
// format version and regenerate the fixture by running this binary with
// LOCKDOC_REGEN_GOLDEN=1 from the source tree.
TEST(SnapshotTest, GoldenFixtureBytesArePinned) {
  TestWorld world = MakeWorld();
  AnalysisSnapshot snapshot = BuildSnapshot(world.trace, *world.registry);
  const std::string bytes = SerializeSnapshot(snapshot, *world.registry);

  if (std::getenv("LOCKDOC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::binary);
    ASSERT_TRUE(out.is_open());
    out << bytes;
    GTEST_SKIP() << "regenerated " << GoldenPath();
  }

  const std::string golden = ReadFixture(GoldenPath());
  ASSERT_EQ(bytes.size(), golden.size());
  EXPECT_EQ(bytes, golden);
  auto restored = DeserializeSnapshot(golden, *world.registry);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored.value().observations.group_count(), snapshot.observations.group_count());
}

// The retired containers (v1, and the full-width v2) are recognized as
// snapshots — so they never reach the trace reader — and every reader
// rejects them with a typed error that says to re-import the trace.
TEST(SnapshotTest, LegacyContainersAreTypedErrors) {
  TestWorld world = MakeWorld();
  for (int version : {1, 2}) {
    SCOPED_TRACE("v" + std::to_string(version));
    const std::string path = LegacyPath(version);
    const std::string bytes = ReadFixture(path);
    const std::string magic = "LOCKDB0" + std::to_string(version);
    ASSERT_EQ(bytes.substr(0, 8), magic);
    EXPECT_TRUE(LooksLikeSnapshot(bytes));
    EXPECT_TRUE(IsSnapshotFile(path));

    const std::string container = "container v" + std::to_string(version) + " (" + magic + ")";
    auto expect_error = [&container](const Status& status, const char* reader) {
      ASSERT_FALSE(status.ok()) << reader;
      EXPECT_NE(status.message().find(container), std::string::npos)
          << reader << ": " << status.message();
      EXPECT_NE(status.message().find("lockdoc import"), std::string::npos)
          << reader << ": " << status.message();
    };
    expect_error(CheckSnapshotMagic(bytes), "CheckSnapshotMagic");
    expect_error(ScanSnapshotSections(bytes).status(), "ScanSnapshotSections");
    expect_error(DeserializeSnapshot(bytes, *world.registry).status(), "DeserializeSnapshot");
    expect_error(LoadSnapshot(path, *world.registry).status(), "LoadSnapshot");
    expect_error(PeekSnapshotTypeCount(path).status(), "PeekSnapshotTypeCount");

    EXPECT_FALSE(InspectSnapshot(bytes).magic_ok);
    SnapshotRepairResult repaired = RepairSnapshotBytes(bytes);
    EXPECT_FALSE(repaired.salvageable());
    EXPECT_TRUE(repaired.bytes.empty());
  }
}

TEST(SnapshotTest, RegistryShapeMismatchIsRejected) {
  TestWorld world = MakeWorld();
  std::string bytes =
      SerializeSnapshot(BuildSnapshot(world.trace, *world.registry), *world.registry);

  TypeRegistry other;
  auto restored = DeserializeSnapshot(bytes, other);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("registry"), std::string::npos);
}

TEST(SnapshotTest, EveryByteFlipFailsAsStatusNotAbort) {
  TestWorld world = MakeWorld();
  std::string pristine =
      SerializeSnapshot(BuildSnapshot(world.trace, *world.registry), *world.registry);
  for (size_t i = 0; i < pristine.size(); ++i) {
    std::string bytes = pristine;
    bytes[i] ^= 0x20;
    auto restored = DeserializeSnapshot(bytes, *world.registry);
    EXPECT_FALSE(restored.ok()) << "undetected flip at offset " << i;
  }
}

TEST(SnapshotTest, ReorderedAndMissingSectionsAreRejected) {
  TestWorld world = MakeWorld();
  std::string pristine =
      SerializeSnapshot(BuildSnapshot(world.trace, *world.registry), *world.registry);
  auto sections = ScanSnapshotSections(pristine);
  ASSERT_TRUE(sections.ok());
  const auto& parsed = sections.value();
  ASSERT_GE(parsed.size(), 4u);

  // Each case must fail at the section-order check, not earlier: the
  // message pins which check caught it.
  {
    // Swap the first two sections: container-valid, semantically wrong.
    SnapshotWriter writer;
    writer.AddSection(static_cast<SnapshotSectionType>(parsed[1].type), parsed[1].payload);
    writer.AddSection(static_cast<SnapshotSectionType>(parsed[0].type), parsed[0].payload);
    for (size_t i = 2; i < parsed.size(); ++i) {
      writer.AddSection(static_cast<SnapshotSectionType>(parsed[i].type), parsed[i].payload);
    }
    auto restored = DeserializeSnapshot(writer.Finish().value(), *world.registry);
    ASSERT_FALSE(restored.ok());
    EXPECT_NE(restored.status().message().find("missing meta section"), std::string::npos)
        << restored.status().message();
  }
  {
    // Drop the last section.
    SnapshotWriter writer;
    for (size_t i = 0; i + 1 < parsed.size(); ++i) {
      writer.AddSection(static_cast<SnapshotSectionType>(parsed[i].type), parsed[i].payload);
    }
    auto restored = DeserializeSnapshot(writer.Finish().value(), *world.registry);
    ASSERT_FALSE(restored.ok());
    EXPECT_NE(restored.status().message().find("sections out of order"), std::string::npos)
        << restored.status().message();
  }
}

// Every corruption kind at seeds 1-60 over a small real snapshot. The strict
// scan and doctor's inspection read frames with one parser, so they must
// agree on every file; no damaged file may load (or abort); and every
// salvageable repair must come out clean for both of them.
TEST(SnapshotTest, CorruptionSweepAgreesAcrossScanInspectAndRepair) {
  TestWorld world = MakeWorld();
  const std::string pristine =
      SerializeSnapshot(BuildSnapshot(world.trace, *world.registry), *world.registry);
  size_t files = 0;
  size_t repaired_files = 0;
  for (CorruptionKind kind : kAllCorruptionKinds) {
    for (uint64_t seed = 1; seed <= 60; ++seed) {
      SCOPED_TRACE(std::string(CorruptionKindName(kind)) + " seed " + std::to_string(seed));
      const std::string bytes = CorruptTraceBytes(pristine, kind, seed);
      ASSERT_NE(bytes, pristine);
      ++files;
      EXPECT_EQ(ScanSnapshotSections(bytes).ok(), InspectSnapshot(bytes).clean());
      EXPECT_FALSE(DeserializeSnapshot(bytes, *world.registry).ok());
      SnapshotRepairResult repaired = RepairSnapshotBytes(bytes);
      if (!repaired.salvageable()) {
        continue;
      }
      ++repaired_files;
      EXPECT_TRUE(InspectSnapshot(repaired.bytes).clean());
      EXPECT_TRUE(ScanSnapshotSections(repaired.bytes).ok());
      // Whether a repaired file loads depends on what survived; either way
      // the answer is a Status.
      (void)DeserializeSnapshot(repaired.bytes, *world.registry);
    }
  }
  EXPECT_EQ(files, 360u);
  EXPECT_GT(repaired_files, 0u);
}

// Re-frames every section of `pristine` through the writer, with `edit`
// applied to the payload of the `occurrence`-th section of `type`: a
// forgery whose CRCs all check out.
std::string ForgeSection(const std::string& pristine, SnapshotSectionType type,
                         const std::function<void(std::string&)>& edit, size_t occurrence = 0) {
  auto sections = ScanSnapshotSections(pristine);
  EXPECT_TRUE(sections.ok());
  SnapshotWriter writer;
  size_t seen = 0;
  for (const SnapshotSection& section : sections.value()) {
    std::string payload(section.payload);
    if (section.type == type && seen++ == occurrence) {
      edit(payload);
    }
    writer.AddSection(static_cast<SnapshotSectionType>(section.type), payload);
  }
  std::string forged = writer.Finish().value();
  EXPECT_TRUE(InspectSnapshot(forged).clean());
  return forged;
}

// Both loaders must reject `forged` with a typed error naming `what`.
void ExpectTypedLoadError(const std::string& forged, const TypeRegistry& registry,
                          const std::string& what) {
  auto restored = DeserializeSnapshot(forged, registry);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find(what), std::string::npos)
      << restored.status().message();

  std::string path = ::testing::TempDir() + "/snapshot_test_forged.lockdb";
  {
    std::ofstream out(path, std::ios::binary);
    out << forged;
  }
  auto loaded = LoadSnapshot(path, registry);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find(what), std::string::npos)
      << loaded.status().message();
  std::filesystem::remove(path);
}

// Offsets into a groups payload: its three counts, then one width byte per
// array (keys' type, subclass, member and group count; the groups'
// lockseq, txn, alloc, n_reads and n_writes; seqs) padded to 8, then the
// arrays, each padded to 8.
constexpr size_t kGroupsWidthOffset = 24;
constexpr size_t kGroupsLockseq = 4;
constexpr size_t kGroupsNWrites = 8;

size_t GroupArrayOffset(const std::string& groups, size_t array) {
  const uint64_t counts[3] = {LoadUint64LE(groups.data()), LoadUint64LE(groups.data() + 8),
                              LoadUint64LE(groups.data() + 16)};
  size_t offset = 40;
  for (size_t i = 0; i < array; ++i) {
    const uint64_t rows = counts[i < 4 ? 0 : i < 9 ? 1 : 2];
    offset += PaddedPayloadSize(rows * static_cast<uint8_t>(groups[kGroupsWidthOffset + i]));
  }
  return offset;
}

// Adds `delta` to value `index` of groups array `array`, at its width.
void AddToGroupArray(std::string& groups, size_t array, size_t index, int64_t delta) {
  const size_t width = static_cast<uint8_t>(groups[kGroupsWidthOffset + array]);
  char* at = groups.data() + GroupArrayOffset(groups, array) + index * width;
  uint64_t value = 0;
  std::memcpy(&value, at, width);
  value += static_cast<uint64_t>(delta);
  std::memcpy(at, &value, width);
}

// A groups key whose subclass the registry does not know is a typed load
// error, like an unknown type or member — not a CHECK abort when a pass
// first names the key.
TEST(SnapshotTest, GroupsKeyWithUnknownSubclassIsRejected) {
  TestWorld world = MakeWorld();
  const std::string pristine =
      SerializeSnapshot(BuildSnapshot(world.trace, *world.registry), *world.registry);
  // Give the last key subclass 77.
  const std::string forged = ForgeSection(pristine, kSnapshotSectionGroups, [](std::string& groups) {
    const uint64_t key_count = LoadUint64LE(groups.data());
    ASSERT_GT(key_count, 0u);
    const size_t width = static_cast<uint8_t>(groups[kGroupsWidthOffset + 1]);
    char* last = groups.data() + GroupArrayOffset(groups, 1) + width * (key_count - 1);
    const uint64_t subclass = 77;
    std::memcpy(last, &subclass, width);
  });
  ExpectTypedLoadError(forged, *world.registry, "key out of registry range");
}

// Where a table payload's header puts the first numeric column's width
// byte and the row count.
struct TableHeaderOffsets {
  size_t first_width = 0;
  size_t row_count = 0;
};

TableHeaderOffsets ParseTableHeader(const std::string& payload) {
  TableHeaderOffsets offsets;
  ByteCursor in{payload.data(), payload.size(), 0};
  std::string text;
  uint64_t columns = 0;
  EXPECT_TRUE(GetLengthPrefixed(in, &text, 1 << 20) && GetVarint(in, &columns));
  for (uint64_t i = 0; i < columns; ++i) {
    uint8_t type = 0;
    EXPECT_TRUE(GetLengthPrefixed(in, &text, 1 << 20) && in.Get(&type));
    if (type != static_cast<uint8_t>(ColumnType::kString)) {
      if (offsets.first_width == 0) {
        offsets.first_width = in.pos;
      }
      ++in.pos;
    }
  }
  uint64_t indexed = 0;
  uint64_t column = 0;
  EXPECT_TRUE(GetVarint(in, &indexed));
  for (uint64_t i = 0; i < indexed; ++i) {
    EXPECT_TRUE(GetVarint(in, &column));
  }
  offsets.row_count = in.pos;
  return offsets;
}

// Payloads whose CRCs check out but whose narrow arrays lie: a width
// outside {1, 2, 4, 8}, a column that runs past its payload, a group whose
// lock sequence does not exist, and counts that do not sum to the totals.
// Each is a typed error from both loaders, never an abort.
TEST(SnapshotTest, CrcCleanForgeriesOfNarrowArraysAreTypedErrors) {
  TestWorld world = MakeWorld();
  AnalysisSnapshot snapshot = BuildSnapshot(world.trace, *world.registry);
  const std::string pristine = SerializeSnapshot(snapshot, *world.registry);
  const TypeRegistry& registry = *world.registry;
  for (uint8_t width : {0, 3, 16}) {
    SCOPED_TRACE("width " + std::to_string(width));
    ExpectTypedLoadError(ForgeSection(pristine, kSnapshotSectionTable,
                                      [width](std::string& table) {
                                        table[ParseTableHeader(table).first_width] =
                                            static_cast<char>(width);
                                      }),
                         registry, "bad column width");
    ExpectTypedLoadError(ForgeSection(pristine, kSnapshotSectionGroups,
                                      [width](std::string& groups) {
                                        groups[kGroupsWidthOffset + kGroupsLockseq] =
                                            static_cast<char>(width);
                                      }),
                         registry, "bad array width");
  }
  // Row counts whose columns need more bytes than the payload holds.
  ExpectTypedLoadError(ForgeSection(pristine, kSnapshotSectionTable,
                                    [](std::string& table) {
                                      const size_t at = ParseTableHeader(table).row_count;
                                      ASSERT_LT(static_cast<uint8_t>(table[at]), 0x80);
                                      table[at] = 0x7f;  // One varint byte, still.
                                    }),
                       registry, "truncated");
  ExpectTypedLoadError(ForgeSection(pristine, kSnapshotSectionGroups,
                                    [](std::string& groups) {
                                      StoreUint64LE(groups.data() + 16,
                                                    LoadUint64LE(groups.data() + 16) + 4096);
                                    }),
                       registry, "array runs past the payload");
  // A lock sequence id at the seq count.
  const int64_t seq_count = static_cast<int64_t>(snapshot.observations.distinct_seqs());
  const int64_t first_lockseq = snapshot.observations.group(0).lockseq_id;
  ExpectTypedLoadError(ForgeSection(pristine, kSnapshotSectionGroups,
                                    [&](std::string& groups) {
                                      AddToGroupArray(groups, kGroupsLockseq, 0,
                                                      seq_count - first_lockseq);
                                    }),
                       registry, "bad group");
  // Counts that do not sum to the totals: one group fewer for the first
  // key, one write fewer for a group that has one.
  ExpectTypedLoadError(ForgeSection(pristine, kSnapshotSectionGroups,
                                    [](std::string& groups) {
                                      AddToGroupArray(groups, 3, 0, -1);
                                    }),
                       registry, "group counts do not sum to the group total");
  size_t writer = 0;
  while (snapshot.observations.group(writer).n_writes == 0) {
    ++writer;
  }
  ExpectTypedLoadError(ForgeSection(pristine, kSnapshotSectionGroups,
                                    [writer](std::string& groups) {
                                      AddToGroupArray(groups, kGroupsNWrites, writer, -1);
                                    }),
                       registry, "do not sum to the seq total");
}

// Forward compatibility: a CRC-intact section of a type this build does
// not know (written by a future version) is skipped by the loader, not
// treated as damage or a framing error.
TEST(SnapshotTest, UnknownSectionTypeIsSkippedOnLoad) {
  TestWorld world = MakeWorld();
  AnalysisSnapshot snapshot = BuildSnapshot(world.trace, *world.registry);
  std::string pristine = SerializeSnapshot(snapshot, *world.registry);
  auto baseline = DeserializeSnapshot(pristine, *world.registry);
  ASSERT_TRUE(baseline.ok());

  auto sections = ScanSnapshotSections(pristine);
  ASSERT_TRUE(sections.ok());
  const auto& parsed = sections.value();
  ASSERT_GE(parsed.size(), 4u);
  // Re-emit with a future-typed section spliced in after the meta section.
  SnapshotWriter writer;
  writer.AddSection(static_cast<SnapshotSectionType>(parsed[0].type), parsed[0].payload);
  writer.AddSection(static_cast<SnapshotSectionType>(9), "future-extension-payload");
  for (size_t i = 1; i < parsed.size(); ++i) {
    writer.AddSection(static_cast<SnapshotSectionType>(parsed[i].type), parsed[i].payload);
  }
  std::string extended = writer.Finish().value();

  auto restored = DeserializeSnapshot(extended, *world.registry);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // Everything the loader understands is untouched by the skip.
  EXPECT_EQ(SerializeSnapshot(restored.value(), *world.registry),
            SerializeSnapshot(baseline.value(), *world.registry));
}

// doctor --repair keeps only CRC-intact sections, so a repaired file can be
// container-clean yet missing a whole table. Loading such a file must come
// back as a typed error naming the table — not a CHECK abort at the first
// analysis lookup.
TEST(SnapshotTest, RepairedSnapshotMissingATableFailsTyped) {
  TestWorld world = MakeWorld();
  AnalysisSnapshot snapshot = BuildSnapshot(world.trace, *world.registry);
  std::string bytes = SerializeSnapshot(snapshot, *world.registry);
  auto sections = ScanSnapshotSections(bytes);
  ASSERT_TRUE(sections.ok());
  // Corrupt one payload byte of the first table section; repair then drops
  // that section wholesale.
  const SnapshotSection* table = nullptr;
  for (const auto& section : sections.value()) {
    if (section.type == kSnapshotSectionTable) {
      table = &section;
      break;
    }
  }
  ASSERT_NE(table, nullptr);
  size_t victim = static_cast<size_t>(table->payload.data() - bytes.data());
  bytes[victim] ^= 0x20;
  SnapshotRepairResult repaired = RepairSnapshotBytes(bytes);
  ASSERT_TRUE(repaired.salvageable());
  ASSERT_EQ(repaired.dropped.size(), 1u);
  auto restored = DeserializeSnapshot(repaired.bytes, *world.registry);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("required table"), std::string::npos)
      << restored.status().message();
}

// The v2 zero-copy load verifies every payload CRC: a flipped padding byte
// — which no decoder ever reads — must still fail the load.
TEST(SnapshotTest, V2LoadVerifiesPaddedPayloadCrcs) {
  TestWorld world = MakeWorld();
  AnalysisSnapshot snapshot = BuildSnapshot(world.trace, *world.registry);
  std::string bytes = SerializeSnapshot(snapshot, *world.registry);

  auto sections = ScanSnapshotSections(bytes);
  ASSERT_TRUE(sections.ok());
  size_t victim = 0;
  for (const SnapshotSection& section : sections.value()) {
    if (section.type == kSnapshotSectionTable &&
        section.padded_payload.size() > section.payload.size()) {
      // Last padding byte of the section: inside the CRC domain, outside
      // every decoder's read set.
      victim = (section.padded_payload.data() - bytes.data()) +
               section.padded_payload.size() - 1;
      break;
    }
  }
  ASSERT_NE(victim, 0u) << "no padded table section in the fixture";
  bytes[victim] ^= 0x5A;

  std::string path = ::testing::TempDir() + "/snapshot_test_padded_crc.lockdb";
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  auto loaded = LoadSnapshot(path, *world.registry);
  EXPECT_FALSE(loaded.ok()) << "the load must verify padded payload CRCs";
  EXPECT_FALSE(DeserializeSnapshot(bytes, *world.registry).ok());
  std::filesystem::remove(path);
}

// BuildAndSaveSnapshot overlaps the head-section disk write with
// observation extraction and frames sections straight into the file, but
// the bytes on disk must be exactly what the serial build-then-serialize
// path produces — at any job count, on the little fixture world and on an mm
// world (range locks and range tables).
TEST(SnapshotTest, BuildAndSaveSnapshotMatchesSerialBytesAtAnyJobCount) {
  TestWorld world = MakeWorld();
  MixOptions mix;
  mix.ops = 1500;
  mix.seed = 11;
  SimulationResult mm = SimulateMmRun(mix, FaultPlan{});
  PipelineOptions mm_options;
  mm_options.filter = VfsKernel::MakeFilterConfig();
  struct Input {
    const char* name;
    const Trace* trace;
    const TypeRegistry* registry;
    PipelineOptions options;
  };
  for (const Input& input : {Input{"world", &world.trace, world.registry.get(), {}},
                             Input{"mm", &mm.trace, mm.registry.get(), mm_options}}) {
    AnalysisSnapshot snapshot = BuildSnapshot(*input.trace, *input.registry, input.options);
    const std::string expected = SerializeSnapshot(snapshot, *input.registry);
    for (size_t jobs : {size_t{1}, size_t{2}, size_t{8}}) {
      PipelineOptions options = input.options;
      options.jobs = jobs;
      std::string path = ::testing::TempDir() + "/snapshot_test_build_save_" + input.name +
                         "_j" + std::to_string(jobs) + ".lockdb";
      auto built = BuildAndSaveSnapshot(*input.trace, *input.registry, options,
                                        SnapshotWriteOptions{}, path);
      ASSERT_TRUE(built.ok()) << built.status().message();
      std::ifstream in(path, std::ios::binary);
      ASSERT_TRUE(in.is_open()) << path;
      std::ostringstream actual;
      actual << in.rdbuf();
      EXPECT_TRUE(actual.str() == expected)
          << input.name << " jobs=" << jobs << " diverged from the serial bytes";
      ExpectSameRules(AnalyzeSnapshot(built.value()), AnalyzeSnapshot(snapshot));
      std::filesystem::remove(path);
    }
  }
}

TEST(SnapshotTest, SaveAndLoadFileRoundTrip) {
  TestWorld world = MakeWorld();
  AnalysisSnapshot snapshot = BuildSnapshot(world.trace, *world.registry);
  std::string path = ::testing::TempDir() + "/snapshot_test_roundtrip.lockdb";

  ASSERT_TRUE(SaveSnapshot(snapshot, *world.registry, path).ok());
  EXPECT_TRUE(IsSnapshotFile(path));
  auto loaded = LoadSnapshot(path, *world.registry);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ExpectSameRules(AnalyzeSnapshot(loaded.value()), AnalyzeSnapshot(snapshot));
  std::filesystem::remove(path);
}

TEST(SnapshotTest, LoadRejectsMissingAndNonSnapshotFiles) {
  TestWorld world = MakeWorld();
  EXPECT_FALSE(LoadSnapshot("/nonexistent/path.lockdb", *world.registry).ok());
  std::string path = ::testing::TempDir() + "/snapshot_test_not_a_snapshot";
  std::ofstream(path) << "plain text";
  EXPECT_FALSE(IsSnapshotFile(path));
  EXPECT_FALSE(LoadSnapshot(path, *world.registry).ok());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace lockdoc
