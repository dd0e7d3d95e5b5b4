// The .lockdb container layer: framing, CRC verification, strict scan vs
// lenient inspection, magic sniffing, and the db-level section codecs
// (string pool, tables). Corruption here must surface as Status errors and
// per-section damage reports, never as aborts.
#include "src/db/snapshot.h"

#include <gtest/gtest.h>

#include "src/db/database.h"
#include "src/util/crc32.h"
#include "src/util/varint.h"

namespace lockdoc {
namespace {

// Three sections: the meta and strings payloads end short of an 8-byte
// boundary, so they are padded, and the table payload is empty (legal).
std::string TinySnapshot() {
  SnapshotWriter writer;
  writer.AddSection(kSnapshotSectionMeta, "meta-payload");
  writer.AddSection(kSnapshotSectionStrings, "strings-payload");
  writer.AddSection(kSnapshotSectionTable, "");  // Empty payloads are legal.
  return writer.Finish().value();
}

TEST(SnapshotContainerTest, WriterScanRoundTrip) {
  std::string bytes = TinySnapshot();
  auto sections = ScanSnapshotSections(bytes);
  ASSERT_TRUE(sections.ok()) << sections.status().message();
  ASSERT_EQ(sections.value().size(), 3u);
  EXPECT_EQ(sections.value()[0].type, kSnapshotSectionMeta);
  EXPECT_EQ(sections.value()[0].seq, 0u);
  EXPECT_EQ(sections.value()[0].payload, "meta-payload");
  EXPECT_EQ(sections.value()[1].type, kSnapshotSectionStrings);
  EXPECT_EQ(sections.value()[1].seq, 1u);
  EXPECT_EQ(sections.value()[1].payload, "strings-payload");
  EXPECT_EQ(sections.value()[2].type, kSnapshotSectionTable);
  EXPECT_EQ(sections.value()[2].seq, 2u);
  EXPECT_EQ(sections.value()[2].payload, "");
}

TEST(SnapshotContainerTest, EmptySnapshotIsCleanWithZeroSections) {
  SnapshotWriter writer;
  std::string bytes = writer.Finish().value();
  auto sections = ScanSnapshotSections(bytes);
  ASSERT_TRUE(sections.ok());
  EXPECT_TRUE(sections.value().empty());
  EXPECT_TRUE(InspectSnapshot(bytes).clean());
}

TEST(SnapshotContainerTest, MagicSniffing) {
  std::string bytes = TinySnapshot();
  EXPECT_TRUE(LooksLikeSnapshot(bytes));
  EXPECT_FALSE(LooksLikeSnapshot("LDTRACE2 something"));
  EXPECT_FALSE(LooksLikeSnapshot(""));
  EXPECT_FALSE(LooksLikeSnapshot(bytes.substr(1)));
}

TEST(SnapshotContainerTest, UnknownSectionTypeIsUnrecognizedNotDamage) {
  for (uint32_t type : {9u, 11u}) {
    SCOPED_TRACE(type);
    SnapshotWriter writer;
    writer.AddSection(kSnapshotSectionMeta, "meta-payload");
    writer.AddSection(static_cast<SnapshotSectionType>(type), "future-payload");
    writer.AddSection(kSnapshotSectionStrings, "strings-payload");
    std::string bytes = writer.Finish().value();

    // The strict scan keeps the unknown section (its CRC is intact).
    auto sections = ScanSnapshotSections(bytes);
    ASSERT_TRUE(sections.ok()) << sections.status().message();
    ASSERT_EQ(sections.value().size(), 3u);
    EXPECT_EQ(static_cast<uint32_t>(sections.value()[1].type), type);
    EXPECT_EQ(sections.value()[1].payload, "future-payload");

    // doctor reports it as forward compatibility, not as damage.
    SnapshotInspection inspection = InspectSnapshot(bytes);
    EXPECT_TRUE(inspection.clean());
    ASSERT_EQ(inspection.sections.size(), 3u);
    EXPECT_FALSE(inspection.sections[0].unrecognized);
    EXPECT_TRUE(inspection.sections[1].unrecognized);
    EXPECT_TRUE(inspection.sections[1].ok());
    EXPECT_FALSE(inspection.sections[2].unrecognized);
    std::string text = inspection.ToString();
    EXPECT_NE(text.find("unrecognized (skipped)"), std::string::npos);
    EXPECT_NE(text.find("type " + std::to_string(type)), std::string::npos);
  }
}

TEST(SnapshotContainerTest, CorruptUnknownSectionIsStillDamage) {
  SnapshotWriter writer;
  writer.AddSection(kSnapshotSectionMeta, "meta-payload");
  writer.AddSection(static_cast<SnapshotSectionType>(9), "future-payload");
  writer.AddSection(kSnapshotSectionStrings, "strings-payload");
  std::string bytes = writer.Finish().value();
  // Flip a byte inside the unknown section's payload: "unrecognized" is
  // only for intact sections — a bad CRC is damage like anywhere else.
  size_t pos = bytes.find("future-payload");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] ^= 0x40;
  SnapshotInspection inspection = InspectSnapshot(bytes);
  EXPECT_FALSE(inspection.clean());
}

TEST(SnapshotContainerTest, BadMagicFailsScan) {
  std::string bytes = TinySnapshot();
  bytes[0] ^= 0x01;
  EXPECT_FALSE(ScanSnapshotSections(bytes).ok());
  EXPECT_FALSE(InspectSnapshot(bytes).magic_ok);
  EXPECT_FALSE(InspectSnapshot(bytes).clean());
}

TEST(SnapshotContainerTest, EveryByteFlipIsDetected) {
  std::string pristine = TinySnapshot();
  // Flip each byte after the magic in turn; the strict scan must fail every
  // time (CRC, marker, or structural check) and never crash.
  for (size_t i = sizeof(kSnapshotMagic); i < pristine.size(); ++i) {
    std::string bytes = pristine;
    bytes[i] ^= 0x40;
    EXPECT_FALSE(ScanSnapshotSections(bytes).ok()) << "undetected flip at offset " << i;
  }
}

void PatchU32(std::string* bytes, size_t pos, uint32_t value) {
  std::string le;
  AppendUint32LE(le, value);
  bytes->replace(pos, le.size(), le);
}

void PatchU64(std::string* bytes, size_t pos, uint64_t value) {
  std::string le;
  AppendUint64LE(le, value);
  bytes->replace(pos, le.size(), le);
}

// TinySnapshot with a non-empty table payload: every payload is padded, and
// the table-damage tests have table bytes to damage.
std::string TinySnapshotWithTablePayload() {
  SnapshotWriter writer;
  writer.AddSection(kSnapshotSectionMeta, "meta-payload");
  writer.AddSection(kSnapshotSectionStrings, "strings-payload");
  writer.AddSection(kSnapshotSectionTable, "table-bytes");
  return writer.Finish().value();
}

TEST(SnapshotContainerTest, V2WriterScanRoundTripIsAligned) {
  std::string bytes = TinySnapshotWithTablePayload();
  auto sections = ScanSnapshotSections(bytes);
  ASSERT_TRUE(sections.ok()) << sections.status().message();
  ASSERT_EQ(sections.value().size(), 3u);
  EXPECT_EQ(sections.value()[0].payload, "meta-payload");
  EXPECT_EQ(sections.value()[1].payload, "strings-payload");
  EXPECT_EQ(sections.value()[2].payload, "table-bytes");
  for (const SnapshotSection& section : sections.value()) {
    // The zero-copy contract: every frame (and therefore every payload,
    // after the fixed 32-byte header) sits on an 8-byte boundary, and the
    // CRC domain is the payload padded out to the next boundary.
    EXPECT_EQ(section.offset % 8, 0u);
    EXPECT_EQ((section.offset + kSnapshotFrameHeaderSize) % 8, 0u);
    EXPECT_EQ(section.padded_payload.size() % 8, 0u);
    EXPECT_GT(section.padded_payload.size(), section.payload.size());
  }
}

TEST(SnapshotContainerTest, V2EveryByteFlipIsDetected) {
  std::string pristine = TinySnapshotWithTablePayload();
  // Padding bytes included: header pads are covered by the header CRC and
  // payload pads by the padded-payload CRC, so no flipped byte may pass.
  for (size_t i = sizeof(kSnapshotMagic); i < pristine.size(); ++i) {
    std::string bytes = pristine;
    bytes[i] ^= 0x40;
    EXPECT_FALSE(ScanSnapshotSections(bytes).ok()) << "undetected flip at offset " << i;
  }
}

TEST(SnapshotContainerTest, V2HeaderModeDefersTablePayloadCrcOnly) {
  std::string bytes = TinySnapshotWithTablePayload();
  auto pristine = ScanSnapshotSections(bytes, SnapshotScanMode::kVerifyHeaders);
  ASSERT_TRUE(pristine.ok());
  EXPECT_TRUE(pristine.value()[0].crc_checked);   // meta
  EXPECT_TRUE(pristine.value()[1].crc_checked);   // strings
  EXPECT_FALSE(pristine.value()[2].crc_checked);  // table: deferred
  EXPECT_TRUE(VerifySectionPayloadCrc(pristine.value()[2]).ok());

  // A flip inside the table payload passes the header-only scan but is
  // caught by the deferred verification (and by the full scan).
  size_t victim = pristine.value()[2].payload.data() - bytes.data();
  bytes[victim] ^= 0xFF;
  EXPECT_FALSE(ScanSnapshotSections(bytes, SnapshotScanMode::kVerifyAll).ok());
  auto lazy = ScanSnapshotSections(bytes, SnapshotScanMode::kVerifyHeaders);
  ASSERT_TRUE(lazy.ok()) << lazy.status().message();
  Status deferred = VerifySectionPayloadCrc(lazy.value()[2]);
  EXPECT_FALSE(deferred.ok());
  EXPECT_NE(deferred.message().find("crc mismatch"), std::string::npos);
}

// A streaming writer frames exactly the bytes the buffering one returns —
// a payload given in pieces is checksummed where it lies — and a sink error
// is sticky: nothing reaches the sink after it, and Finish returns it.
TEST(SnapshotContainerTest, StreamedFramesMatchBufferedAndSinkErrorsStick) {
  SnapshotWriter buffered;
  buffered.AddSection(kSnapshotSectionMeta, "meta-payload");
  buffered.AddSection(kSnapshotSectionTable, "head|column-a|column-b|");
  std::string expected = buffered.Finish().value();

  std::string streamed;
  SnapshotWriter writer([&](std::string_view bytes) {
    streamed.append(bytes);
    return Status::Ok();
  });
  writer.AddSection(kSnapshotSectionMeta, "meta-payload");
  writer.AddSection(kSnapshotSectionTable,
                    std::vector<PayloadPiece>{std::string_view("head|"), std::string_view(),
                                              std::string_view("column-a|"),
                                              std::string_view("column-b|")});
  auto finished = writer.Finish();
  ASSERT_TRUE(finished.ok()) << finished.status().message();
  EXPECT_TRUE(finished.value().empty());
  EXPECT_EQ(streamed, expected);
  EXPECT_EQ(writer.bytes_written(), expected.size());

  int calls = 0;
  SnapshotWriter failing([&](std::string_view) {
    return ++calls == 3 ? Status::Error("disk full") : Status::Ok();
  });
  failing.AddSection(kSnapshotSectionMeta, "meta-payload");
  failing.AddSection(kSnapshotSectionTable, "table-payload");
  auto failed = failing.Finish();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().message(), "disk full");
  EXPECT_EQ(calls, 3) << "the sink was called after its error";
}

TEST(SnapshotContainerTest, CorruptV2LengthIsClampedAndLaterFramesSurvive) {
  std::string bytes = TinySnapshotWithTablePayload();
  auto sections = ScanSnapshotSections(bytes);
  ASSERT_TRUE(sections.ok());
  // v2 lengths are covered by the header CRC, so a blind flip reports
  // "header crc mismatch". Forging the CRC along with the length exercises
  // the deeper failure mode: a self-consistent header whose length points
  // past later valid frames.
  size_t frame = sections.value()[1].offset;
  PatchU64(&bytes, frame + kSnapshotLengthOffset, uint64_t{1} << 40);
  uint32_t forged_crc = Crc32(bytes.data() + frame + kSnapshotTypeOffset,
                              kSnapshotHeaderCrcOffset - kSnapshotTypeOffset);
  PatchU32(&bytes, frame + kSnapshotHeaderCrcOffset, forged_crc);

  EXPECT_FALSE(ScanSnapshotSections(bytes).ok());
  SnapshotInspection inspection = InspectSnapshot(bytes);
  EXPECT_FALSE(inspection.clean());
  ASSERT_EQ(inspection.sections.size(), 3u);
  EXPECT_FALSE(inspection.sections[1].ok());
  EXPECT_NE(inspection.sections[1].problem.find("implausible length"), std::string::npos);
  EXPECT_NE(inspection.sections[1].problem.find("clamped"), std::string::npos);
  EXPECT_LT(inspection.sections[1].payload_size, uint64_t{1} << 40);
  EXPECT_TRUE(inspection.sections[2].ok());
  EXPECT_EQ(inspection.sections[2].type, kSnapshotSectionTable);
  EXPECT_TRUE(inspection.end_ok);
}

TEST(SnapshotContainerTest, InspectionLocalizesDamage) {
  std::string bytes = TinySnapshot();
  auto sections = ScanSnapshotSections(bytes);
  ASSERT_TRUE(sections.ok());
  // Corrupt the middle section's payload: its CRC breaks, neighbours stay ok.
  size_t victim = sections.value()[1].payload.data() - bytes.data();
  bytes[victim] ^= 0xFF;

  SnapshotInspection inspection = InspectSnapshot(bytes);
  EXPECT_TRUE(inspection.magic_ok);
  EXPECT_FALSE(inspection.clean());
  EXPECT_EQ(inspection.sections_bad(), 1u);
  EXPECT_EQ(inspection.sections_ok(), 2u);
  EXPECT_TRUE(inspection.end_ok);
  ASSERT_EQ(inspection.sections.size(), 3u);
  EXPECT_TRUE(inspection.sections[0].ok());
  EXPECT_FALSE(inspection.sections[1].ok());
  EXPECT_TRUE(inspection.sections[2].ok());
  std::string text = inspection.ToString();
  EXPECT_NE(text.find("strings"), std::string::npos);
  EXPECT_NE(text.find("crc mismatch"), std::string::npos);
}

TEST(SnapshotContainerTest, TruncationAtEveryOffsetFailsCleanly) {
  std::string pristine = TinySnapshot();
  for (size_t keep = 0; keep < pristine.size(); ++keep) {
    std::string bytes = pristine.substr(0, keep);
    EXPECT_FALSE(ScanSnapshotSections(bytes).ok()) << "truncated to " << keep;
    InspectSnapshot(bytes);  // Must not crash.
  }
}

TEST(SnapshotContainerTest, TrailingGarbageAfterEndIsRejected) {
  std::string bytes = TinySnapshot() + "extra";
  EXPECT_FALSE(ScanSnapshotSections(bytes).ok());
  EXPECT_FALSE(InspectSnapshot(bytes).clean());
}

TEST(SnapshotContainerTest, StringsSectionRoundTrip) {
  StringPool pool;
  pool.Intern("fs/inode.c");
  pool.Intern("comma,quote\"newline\n");
  pool.Intern("i_lock");
  std::string payload = EncodeStringsSection(pool);

  StringPool restored;
  ASSERT_TRUE(DecodeStringsSection(payload, &restored).ok());
  ASSERT_EQ(restored.size(), pool.size());
  for (StringId id = 0; id < pool.size(); ++id) {
    EXPECT_EQ(restored.Lookup(id), pool.Lookup(id));
  }
  EXPECT_EQ(restored.Find("fs/inode.c"), pool.Find("fs/inode.c"));
}

TEST(SnapshotContainerTest, StringsSectionRejectsTrailingBytes) {
  StringPool pool;
  pool.Intern("x");
  std::string payload = EncodeStringsSection(pool) + "junk";
  StringPool restored;
  EXPECT_FALSE(DecodeStringsSection(payload, &restored).ok());
}

Table& MakeSampleTable(Database* db) {
  Table& table = db->CreateTable("sample", {{"id", ColumnType::kUint64},
                                            {"score", ColumnType::kDouble},
                                            {"label", ColumnType::kString}});
  table.Insert({uint64_t{0}, 1.5, std::string("alpha")});
  table.Insert({uint64_t{7}, -2.25, std::string("beta,\"quoted\"")});
  table.Insert({kDbNull, 0.0, std::string()});
  table.CreateIndex(0);
  return table;
}

// Frames `table` the way import does and returns its section payload, a
// view into `*bytes`: decoded columns view into it, so it must outlive them.
std::string_view FramedTablePayload(const Table& table, std::string* bytes) {
  SnapshotWriter writer;
  writer.AddTableSection(table);
  *bytes = writer.Finish().value();
  auto sections = ScanSnapshotSections(*bytes);
  EXPECT_TRUE(sections.ok()) << sections.status().message();
  if (!sections.ok() || sections.value().size() != 1) {
    return {};
  }
  EXPECT_EQ(sections.value()[0].type, kSnapshotSectionTable);
  return sections.value()[0].payload;
}

TEST(SnapshotContainerTest, TableSectionRoundTrip) {
  Database db;
  Table& table = MakeSampleTable(&db);
  std::string bytes;
  std::string_view payload = FramedTablePayload(table, &bytes);

  Database restored_db;
  ASSERT_TRUE(DecodeTableSection(payload, &restored_db).ok());
  ASSERT_TRUE(restored_db.HasTable("sample"));
  const Table& restored = restored_db.table("sample");
  ASSERT_EQ(restored.row_count(), table.row_count());
  ASSERT_EQ(restored.column_count(), table.column_count());
  EXPECT_EQ(restored.GetUint64(1, 0), 7u);
  EXPECT_EQ(restored.GetUint64(2, 0), kDbNull);
  EXPECT_DOUBLE_EQ(restored.GetDouble(1, 1), -2.25);
  EXPECT_EQ(restored.GetString(1, 2), "beta,\"quoted\"");
  // The index came back with the data.
  EXPECT_TRUE(restored.HasIndex(0));
  EXPECT_EQ(restored.LookupEqual(0, 7).size(), 1u);
}

TEST(SnapshotContainerTest, TableSectionRejectsDuplicateTable) {
  Database db;
  std::string bytes;
  std::string_view payload = FramedTablePayload(MakeSampleTable(&db), &bytes);
  Database restored;
  ASSERT_TRUE(DecodeTableSection(payload, &restored).ok());
  EXPECT_FALSE(DecodeTableSection(payload, &restored).ok());
}

TEST(SnapshotContainerTest, TableSectionRejectsTruncatedPayload) {
  Database db;
  std::string bytes;
  std::string_view payload = FramedTablePayload(MakeSampleTable(&db), &bytes);
  for (size_t keep : {size_t{0}, size_t{1}, payload.size() / 2, payload.size() - 1}) {
    Database restored;
    EXPECT_FALSE(DecodeTableSection(payload.substr(0, keep), &restored).ok())
        << "truncated to " << keep;
  }
}

}  // namespace
}  // namespace lockdoc
