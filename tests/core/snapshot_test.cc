// Analysis-snapshot serialization: .lockdb round trips must preserve every
// store (database, string pool, lock classes, interned sequences,
// observation groups), re-serialization must be byte-identical, the on-disk
// bytes are pinned by a golden fixture, and corrupt input of any shape must
// come back as a Status error — never an abort.
#include "src/core/snapshot.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
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

std::string GoldenPathV2() {
  return std::string(LOCKDOC_TESTDATA_DIR) + "/golden_mini_v2.lockdb";
}
// The MakeWorld snapshot in the retired v1 container, frozen.
std::string LegacyV1Path() { return std::string(LOCKDOC_TESTDATA_DIR) + "/legacy_v1.lockdb"; }

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
  EXPECT_EQ(loaded.observations.groups().size(), snapshot.observations.groups().size());
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
    std::ofstream out(GoldenPathV2(), std::ios::binary);
    ASSERT_TRUE(out.is_open());
    out << bytes;
    GTEST_SKIP() << "regenerated " << GoldenPathV2();
  }

  const std::string golden = ReadFixture(GoldenPathV2());
  ASSERT_EQ(bytes.size(), golden.size());
  EXPECT_EQ(bytes, golden);
  auto restored = DeserializeSnapshot(golden, *world.registry);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored.value().observations.groups().size(),
            snapshot.observations.groups().size());
}

// The retired v1 container is recognized as a snapshot — so it never
// reaches the trace reader — and every reader rejects it with a typed error
// that says to re-import the trace.
TEST(SnapshotTest, LegacyV1ContainerIsATypedError) {
  TestWorld world = MakeWorld();
  const std::string bytes = ReadFixture(LegacyV1Path());
  ASSERT_EQ(bytes.substr(0, 8), "LOCKDB01");
  EXPECT_TRUE(LooksLikeSnapshot(bytes));
  EXPECT_TRUE(IsSnapshotFile(LegacyV1Path()));

  auto expect_v1_error = [](const Status& status, const char* reader) {
    ASSERT_FALSE(status.ok()) << reader;
    EXPECT_NE(status.message().find("container v1 (LOCKDB01)"), std::string::npos)
        << reader << ": " << status.message();
    EXPECT_NE(status.message().find("lockdoc import"), std::string::npos)
        << reader << ": " << status.message();
  };
  expect_v1_error(CheckSnapshotMagic(bytes), "CheckSnapshotMagic");
  expect_v1_error(ScanSnapshotSections(bytes).status(), "ScanSnapshotSections");
  expect_v1_error(DeserializeSnapshot(bytes, *world.registry).status(), "DeserializeSnapshot");
  expect_v1_error(LoadSnapshot(LegacyV1Path(), *world.registry).status(), "LoadSnapshot");
  expect_v1_error(PeekSnapshotTypeCount(LegacyV1Path()).status(), "PeekSnapshotTypeCount");

  EXPECT_FALSE(InspectSnapshot(bytes).magic_ok);
  SnapshotRepairResult repaired = RepairSnapshotBytes(bytes);
  EXPECT_FALSE(repaired.salvageable());
  EXPECT_TRUE(repaired.bytes.empty());
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

// A groups key whose subclass the registry does not know is a typed load
// error, like an unknown type or member — not a CHECK abort when a pass
// first names the key. The forged file is CRC-clean: every section is
// re-framed through the writer.
TEST(SnapshotTest, GroupsKeyWithUnknownSubclassIsRejected) {
  TestWorld world = MakeWorld();
  const std::string pristine =
      SerializeSnapshot(BuildSnapshot(world.trace, *world.registry), *world.registry);
  auto sections = ScanSnapshotSections(pristine);
  ASSERT_TRUE(sections.ok());
  ASSERT_EQ(sections.value().back().type, kSnapshotSectionGroups);

  // Groups payload: u64 key_count K | u64 G | u64 S | u32 type[K] |
  // u32 subclass[K] | ...; give the last key subclass 77.
  std::string groups(sections.value().back().payload);
  const uint64_t key_count = LoadUint64LE(groups.data());
  ASSERT_GT(key_count, 0u);
  StoreUint32LE(groups.data() + 24 + 4 * key_count + 4 * (key_count - 1), 77);
  SnapshotWriter writer;
  for (const SnapshotSection& section : sections.value()) {
    writer.AddSection(static_cast<SnapshotSectionType>(section.type),
                      section.type == kSnapshotSectionGroups ? std::string_view(groups)
                                                             : section.payload);
  }
  const std::string forged = writer.Finish().value();
  ASSERT_TRUE(InspectSnapshot(forged).clean());

  auto restored = DeserializeSnapshot(forged, *world.registry);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("key out of registry range"), std::string::npos)
      << restored.status().message();

  std::string path = ::testing::TempDir() + "/snapshot_test_unknown_subclass.lockdb";
  {
    std::ofstream out(path, std::ios::binary);
    out << forged;
  }
  auto loaded = LoadSnapshot(path, *world.registry);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("key out of registry range"), std::string::npos)
      << loaded.status().message();
  std::filesystem::remove(path);
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
