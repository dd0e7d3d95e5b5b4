// Container-level snapshot repair: RepairSnapshotBytes must keep every
// CRC-verified section, drop the damaged ones with a diagnostic line, and
// always emit a structurally clean container (fresh seqs, CRCs, end
// section) — the engine behind `lockdoc doctor FILE.lockdb --repair OUT`.
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "src/db/snapshot.h"

namespace lockdoc {
namespace {

// A small hand-built container with recognizable payloads. Not a loadable
// analysis snapshot — repair is purely structural, which is exactly what
// these tests pin.
std::string BuildContainer() {
  SnapshotWriter writer;
  writer.AddSection(kSnapshotSectionMeta, "meta-payload");
  writer.AddSection(kSnapshotSectionStrings, std::string(300, 's'));
  writer.AddSection(kSnapshotSectionTable, std::string(500, 't'));
  writer.AddSection(kSnapshotSectionPool, "pool");
  return writer.Finish().value();
}

// Offset of the n-th (0-based) frame marker.
size_t MarkerOffset(const std::string& bytes, size_t n) {
  const char marker[] = {static_cast<char>(0xAB), 'L', 'D', static_cast<char>(0xF3)};
  size_t pos = 0;
  for (;;) {
    pos = bytes.find(std::string(marker, 4), pos);
    EXPECT_NE(pos, std::string::npos);
    if (n == 0) {
      return pos;
    }
    --n;
    ++pos;
  }
}

TEST(SnapshotRepairTest, CleanContainerRepairsToIdenticalBytes) {
  std::string bytes = BuildContainer();
  SnapshotRepairResult repaired = RepairSnapshotBytes(bytes);
  ASSERT_TRUE(repaired.salvageable());
  EXPECT_EQ(repaired.sections_kept, 4u);
  EXPECT_TRUE(repaired.dropped.empty());
  // Nothing was damaged, so nothing should change.
  EXPECT_EQ(repaired.bytes, bytes);
}

TEST(SnapshotRepairTest, DamagedSectionIsDroppedAndRestIsKept)  {
  std::string bytes = BuildContainer();
  // Flip payload bytes inside the table section (section index 2).
  size_t table_at = MarkerOffset(bytes, 2);
  bytes[table_at + kSnapshotFrameHeaderSize + 10] ^= 0x5A;
  ASSERT_FALSE(InspectSnapshot(bytes).clean());
  ASSERT_FALSE(ScanSnapshotSections(bytes).ok());

  SnapshotRepairResult repaired = RepairSnapshotBytes(bytes);
  ASSERT_TRUE(repaired.salvageable());
  EXPECT_EQ(repaired.sections_kept, 3u);
  ASSERT_EQ(repaired.dropped.size(), 1u);
  EXPECT_NE(repaired.dropped[0].find("table"), std::string::npos);

  // The repaired container is structurally clean and strictly loadable.
  EXPECT_TRUE(InspectSnapshot(repaired.bytes).clean());
  auto sections = ScanSnapshotSections(repaired.bytes);
  ASSERT_TRUE(sections.ok());
  ASSERT_EQ(sections.value().size(), 3u);
  EXPECT_EQ(sections.value()[0].payload, "meta-payload");
  EXPECT_EQ(sections.value()[2].payload, "pool");
  // Sequence numbers re-issued contiguously despite the dropped section.
  EXPECT_EQ(sections.value()[1].seq, 1u);
  EXPECT_EQ(sections.value()[2].seq, 2u);
}

TEST(SnapshotRepairTest, TruncatedTailKeepsThePrefix) {
  std::string bytes = BuildContainer();
  // Cut mid-way through the table section.
  bytes.resize(MarkerOffset(bytes, 2) + kSnapshotFrameHeaderSize + 100);

  SnapshotRepairResult repaired = RepairSnapshotBytes(bytes);
  ASSERT_TRUE(repaired.salvageable());
  EXPECT_EQ(repaired.sections_kept, 2u);
  EXPECT_TRUE(InspectSnapshot(repaired.bytes).clean());
  auto sections = ScanSnapshotSections(repaired.bytes);
  ASSERT_TRUE(sections.ok());
  EXPECT_EQ(sections.value()[0].payload, "meta-payload");
}

TEST(SnapshotRepairTest, DestroyedMagicIsNotSalvageable) {
  std::string bytes = BuildContainer();
  bytes[0] ^= 0xFF;
  SnapshotRepairResult repaired = RepairSnapshotBytes(bytes);
  EXPECT_FALSE(repaired.salvageable());
  EXPECT_TRUE(repaired.bytes.empty());
}

TEST(SnapshotRepairTest, EveryThingDamagedButMagicYieldsEmptyContainer) {
  std::string bytes = BuildContainer();
  // Zero everything after the magic: no section survives.
  for (size_t i = sizeof(kSnapshotMagic); i < bytes.size(); ++i) {
    bytes[i] = 0;
  }
  SnapshotRepairResult repaired = RepairSnapshotBytes(bytes);
  EXPECT_EQ(repaired.sections_kept, 0u);
  EXPECT_FALSE(repaired.salvageable());
}

}  // namespace
}  // namespace lockdoc
