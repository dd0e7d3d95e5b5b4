#include "src/db/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <set>
#include <utility>

#include "src/util/crc32.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"
#include "src/util/varint.h"

namespace lockdoc {
namespace {

// The numeric columns are stored as raw little-endian words and viewed in
// place; a big-endian host would need a byte-swapping load path that
// nothing targets today.
static_assert(std::endian::native == std::endian::little,
              ".lockdb zero-copy layout requires a little-endian host");

// The retired containers, recognized only to be rejected: the varint v1
// and the full-width v2.
constexpr char kSnapshotMagicV1[8] = {'L', 'O', 'C', 'K', 'D', 'B', '0', '1'};
constexpr char kSnapshotMagicV2[8] = {'L', 'O', 'C', 'K', 'D', 'B', '0', '2'};

// Column pieces are narrowed through a buffer of this size.
constexpr size_t kColumnScratchBytes = size_t{1} << 20;

bool HasMagic(std::string_view bytes, const char (&magic)[8]) {
  return bytes.size() >= sizeof(magic) && std::memcmp(bytes.data(), magic, sizeof(magic)) == 0;
}

// Caps mirror the trace reader's: large enough for any real snapshot, small
// enough that corrupt lengths cannot drive allocations.
constexpr uint64_t kMaxStringSize = 1ull << 20;
constexpr uint64_t kMaxColumns = 4096;

std::string_view MarkerView() {
  return std::string_view(reinterpret_cast<const char*>(kSnapshotFrameMarker),
                          sizeof(kSnapshotFrameMarker));
}

Status SectionError(uint64_t offset, const std::string& what) {
  return Status::Error(StrFormat("snapshot: offset 0x%llx: %s",
                                 static_cast<unsigned long long>(offset), what.c_str()));
}


// How many bytes could plausibly belong to a payload starting at
// `payload_start`: the distance to the next frame marker (or EOF). Corrupt
// length fields are clamped to this before they are reported, so a length
// that points past a later valid frame cannot inflate the damage report.
uint64_t ClampLengthToNextMarker(std::string_view bytes, size_t payload_start,
                                 uint64_t length) {
  if (payload_start >= bytes.size()) {
    return 0;
  }
  size_t next = bytes.find(MarkerView(), payload_start);
  uint64_t available = (next == std::string_view::npos ? bytes.size() : next) - payload_start;
  return std::min(length, available);
}

// The first fault ReadFrame finds, in the order it checks.
enum class FrameFault {
  kNone,
  kTruncatedHeader,
  kBadMarker,
  kHeaderCrc,
  kImplausibleLength,
  kPayloadCrc,
};

// One frame as read at a given offset. The section's header fields are
// filled unless the header is truncated, its payload views only once the
// length is plausible.
struct Frame {
  FrameFault fault = FrameFault::kNone;
  SnapshotSection section;
  uint64_t length = 0;  // As declared, unpadded.
  size_t end = 0;       // Just past the padded payload.
};

// The one parser of the frame layout. The strict scan, doctor's lenient
// inspection and repair all read frames here and differ only in how they
// report a fault and where they resume. `mode` kVerifyHeaders leaves table
// payload CRCs to VerifySectionPayloadCrc.
Frame ReadFrame(std::string_view bytes, size_t pos, SnapshotScanMode mode) {
  Frame frame;
  SnapshotSection& section = frame.section;
  section.offset = pos;
  if (bytes.size() - pos < kSnapshotFrameHeaderSize) {
    frame.fault = FrameFault::kTruncatedHeader;
    return frame;
  }
  const char* header = bytes.data() + pos;
  section.type = static_cast<uint8_t>(header[kSnapshotTypeOffset]);
  section.seq = LoadUint32LE(header + kSnapshotSeqOffset);
  section.payload_crc = LoadUint32LE(header + kSnapshotPayloadCrcOffset);
  frame.length = LoadUint64LE(header + kSnapshotLengthOffset);
  if (std::memcmp(header, kSnapshotFrameMarker, sizeof(kSnapshotFrameMarker)) != 0) {
    frame.fault = FrameFault::kBadMarker;
    return frame;
  }
  if (Crc32(header + kSnapshotTypeOffset,
            kSnapshotHeaderCrcOffset - kSnapshotTypeOffset) !=
      LoadUint32LE(header + kSnapshotHeaderCrcOffset)) {
    frame.fault = FrameFault::kHeaderCrc;
    return frame;
  }
  const size_t payload_start = pos + kSnapshotFrameHeaderSize;
  if (frame.length > bytes.size() ||
      PaddedPayloadSize(frame.length) > bytes.size() - payload_start) {
    frame.fault = FrameFault::kImplausibleLength;
    return frame;
  }
  section.payload = bytes.substr(payload_start, frame.length);
  section.padded_payload = bytes.substr(payload_start, PaddedPayloadSize(frame.length));
  frame.end = payload_start + section.padded_payload.size();
  section.crc_checked =
      mode == SnapshotScanMode::kVerifyAll || section.type != kSnapshotSectionTable;
  if (section.crc_checked && Crc32(section.padded_payload) != section.payload_crc) {
    frame.fault = FrameFault::kPayloadCrc;
  }
  return frame;
}

}  // namespace

const char* SnapshotSectionName(uint8_t type) {
  switch (type) {
    case kSnapshotSectionMeta:
      return "meta";
    case kSnapshotSectionStrings:
      return "strings";
    case kSnapshotSectionTable:
      return "table";
    case kSnapshotSectionPool:
      return "pool";
    case kSnapshotSectionSeqs:
      return "seqs";
    case kSnapshotSectionGroups:
      return "groups";
    case kSnapshotSectionEnd:
      return "end";
    default:
      return "unknown";
  }
}

Status VerifySectionPayloadCrc(const SnapshotSection& section) {
  if (section.crc_checked) {
    return Status::Ok();
  }
  if (Crc32(section.padded_payload) != section.payload_crc) {
    return SectionError(section.offset, StrFormat("section %s crc mismatch",
                                                  SnapshotSectionName(section.type)));
  }
  return Status::Ok();
}

SnapshotWriter::SnapshotWriter(SnapshotSink sink) : sink_(std::move(sink)) {
  Emit(std::string_view(kSnapshotMagic, sizeof(kSnapshotMagic)));
}

void SnapshotWriter::Emit(std::string_view bytes) {
  if (!status_.ok() || bytes.empty()) {
    return;
  }
  if (sink_) {
    status_ = sink_(bytes);
    if (!status_.ok()) {
      return;
    }
  } else {
    out_.append(bytes);
  }
  written_ += bytes.size();
}

template <typename Fn>
void SnapshotWriter::ForEachChunk(const PayloadPiece& piece, Fn&& fn) {
  if (piece.width == 0) {
    fn(piece.bytes);
    return;
  }
  const ColumnView& values = piece.values;
  const uint64_t bytes = values.size() * piece.width;
  if (values.width() == piece.width) {
    // Already stored at this width (a loaded column written again).
    fn(std::string_view(static_cast<const char*>(values.data()), bytes));
  } else {
    if (scratch_ == nullptr) {
      scratch_ = std::make_unique<char[]>(kColumnScratchBytes);
    }
    const size_t chunk = kColumnScratchBytes / piece.width;
    for (size_t begin = 0; begin < values.size(); begin += chunk) {
      const size_t count = std::min(chunk, values.size() - begin);
      StoreColumnValues(values, begin, count, piece.width, scratch_.get());
      fn(std::string_view(scratch_.get(), count * piece.width));
    }
  }
  const char zeros[8] = {0};
  fn(std::string_view(zeros, PaddedPayloadSize(bytes) - bytes));
}

void SnapshotWriter::AddSection(SnapshotSectionType type, std::string_view payload) {
  AddSection(type, std::vector<PayloadPiece>{payload});
}

void SnapshotWriter::AddSection(SnapshotSectionType type,
                                const std::vector<PayloadPiece>& pieces) {
  if (!status_.ok()) {
    return;  // Sticky: one failed section poisons the whole file.
  }
  // Fixed 32-byte header (see snapshot.h), payload zero-padded to 8. The
  // payload CRC chains over the pieces' chunks and the padding, so the
  // payload is checksummed where it lies, or as it is narrowed.
  uint64_t length = 0;
  uint32_t payload_crc = 0;
  for (const PayloadPiece& piece : pieces) {
    ForEachChunk(piece, [&](std::string_view chunk) {
      length += chunk.size();
      payload_crc = Crc32Update(payload_crc, chunk.data(), chunk.size());
    });
  }
  const char zeros[8] = {0};
  const uint64_t padding = PaddedPayloadSize(length) - length;
  payload_crc = Crc32Update(payload_crc, zeros, padding);
  std::string header(MarkerView());
  header.push_back(static_cast<char>(type));
  header.append(3, '\0');  // Pad after the type byte.
  AppendUint32LE(header, next_seq_++);
  AppendUint64LE(header, length);
  AppendUint32LE(header, payload_crc);
  header.append(4, '\0');
  AppendUint32LE(header, Crc32(header.data() + kSnapshotTypeOffset,
                               kSnapshotHeaderCrcOffset - kSnapshotTypeOffset));
  Emit(header);
  for (const PayloadPiece& piece : pieces) {
    ForEachChunk(piece, [this](std::string_view chunk) { Emit(chunk); });
  }
  Emit(std::string_view(zeros, padding));
}

void SnapshotWriter::Reserve(size_t total_bytes) {
  if (!sink_) {
    out_.reserve(out_.size() + total_bytes);
  }
}

Result<std::string> SnapshotWriter::Finish() {
  std::string payload;
  AppendUint64LE(payload, next_seq_);
  AddSection(kSnapshotSectionEnd, payload);
  if (!status_.ok()) {
    return status_;
  }
  return std::move(out_);
}

Result<std::vector<SnapshotSection>> ScanSnapshotSections(std::string_view bytes,
                                                          SnapshotScanMode mode) {
  if (Status magic = CheckSnapshotMagic(bytes); !magic.ok()) {
    return magic;
  }
  std::vector<SnapshotSection> sections;
  size_t pos = sizeof(kSnapshotMagic);
  while (true) {
    Frame frame = ReadFrame(bytes, pos, mode);
    const SnapshotSection& section = frame.section;
    switch (frame.fault) {
      case FrameFault::kNone:
        break;
      case FrameFault::kTruncatedHeader:
        return SectionError(pos, "truncated: no end section");
      case FrameFault::kBadMarker:
        return SectionError(pos, "bad section marker");
      case FrameFault::kHeaderCrc:
        return SectionError(pos, StrFormat("section %s header crc mismatch",
                                           SnapshotSectionName(section.type)));
      case FrameFault::kImplausibleLength:
        return SectionError(pos, StrFormat("implausible section length %llu",
                                           static_cast<unsigned long long>(frame.length)));
      case FrameFault::kPayloadCrc:
        return SectionError(pos, StrFormat("section %s crc mismatch",
                                           SnapshotSectionName(section.type)));
    }
    if (section.seq != sections.size()) {
      return SectionError(pos, StrFormat("section out of order (seq %u, expected %zu)",
                                         section.seq, sections.size()));
    }
    pos = frame.end;
    if (section.type == kSnapshotSectionEnd) {
      if (frame.length != sizeof(uint64_t)) {
        return SectionError(pos, "malformed end section");
      }
      uint64_t declared = LoadUint64LE(section.payload.data());
      if (declared != sections.size()) {
        return SectionError(pos, StrFormat("end section declares %llu sections, found %zu",
                                           static_cast<unsigned long long>(declared),
                                           sections.size()));
      }
      if (pos != bytes.size()) {
        return SectionError(pos, "trailing bytes after end section");
      }
      return sections;
    }
    sections.push_back(section);
  }
}

size_t SnapshotInspection::sections_ok() const {
  size_t n = 0;
  for (const SnapshotSectionReport& s : sections) {
    n += s.ok() ? 1 : 0;
  }
  return n;
}

size_t SnapshotInspection::sections_bad() const { return sections.size() - sections_ok(); }

bool SnapshotInspection::clean() const {
  return magic_ok && end_ok && sections_bad() == 0 && declared_sections == sections.size() &&
         stray_bytes == 0;
}

std::string SnapshotInspection::ToString() const {
  std::string out = StrFormat("snapshot size:    %s bytes\n",
                              FormatWithCommas(file_size).c_str());
  out += StrFormat("magic:            %s\n", magic_ok ? "ok (container v3)" : "BAD");
  out += StrFormat("sections:         %zu ok, %zu damaged\n", sections_ok(), sections_bad());
  for (const SnapshotSectionReport& s : sections) {
    const char* verdict = s.ok() ? (s.unrecognized ? "unrecognized (skipped)" : "ok")
                                 : s.problem.c_str();
    out += StrFormat("  [%u] offset 0x%llx %-8s %10s bytes  %s\n", s.seq,
                     static_cast<unsigned long long>(s.offset),
                     s.unrecognized ? StrFormat("type %u", s.type).c_str()
                                    : SnapshotSectionName(s.type),
                     FormatWithCommas(s.payload_size).c_str(), verdict);
  }
  if (end_ok) {
    out += StrFormat("end section:      ok (%llu sections declared, %zu found)\n",
                     static_cast<unsigned long long>(declared_sections), sections.size());
  } else {
    out += "end section:      MISSING or damaged\n";
  }
  if (stray_bytes > 0) {
    out += StrFormat("stray bytes:      %s outside any verified frame\n",
                     FormatWithCommas(stray_bytes).c_str());
  }
  return out;
}

SnapshotInspection InspectSnapshot(std::string_view bytes) {
  SnapshotInspection report;
  report.file_size = bytes.size();
  report.magic_ok = CheckSnapshotMagic(bytes).ok();
  if (!report.magic_ok) {
    return report;
  }
  size_t pos = sizeof(kSnapshotMagic);
  while (pos < bytes.size()) {
    size_t marker_pos = bytes.find(MarkerView(), pos);
    if (marker_pos == std::string_view::npos) {
      report.stray_bytes += bytes.size() - pos;
      break;
    }
    report.stray_bytes += marker_pos - pos;
    Frame frame = ReadFrame(bytes, marker_pos, SnapshotScanMode::kVerifyAll);
    SnapshotSectionReport section;
    section.offset = marker_pos;
    section.type = frame.section.type;
    section.seq = frame.section.seq;
    section.payload_size = frame.length;
    if (frame.fault == FrameFault::kTruncatedHeader) {
      section.problem = "truncated header";
      report.sections.push_back(section);
      break;
    }
    if (frame.fault != FrameFault::kNone) {
      if (frame.fault == FrameFault::kHeaderCrc) {
        // Nothing in the header can be trusted, the declared length included.
        section.payload_size = 0;
        section.problem = "header crc mismatch";
      } else if (frame.fault == FrameFault::kImplausibleLength) {
        // Clamp what we report to the bytes that could actually belong to
        // this frame, so a corrupt length pointing past a later valid frame
        // does not inflate the report.
        uint64_t clamped = ClampLengthToNextMarker(
            bytes, marker_pos + kSnapshotFrameHeaderSize, frame.length);
        section.payload_size = clamped;
        section.problem =
            StrFormat("implausible length %llu (clamped to %llu)",
                      static_cast<unsigned long long>(frame.length),
                      static_cast<unsigned long long>(clamped));
      } else {
        section.problem = "crc mismatch";
      }
      report.sections.push_back(section);
      pos = marker_pos + sizeof(kSnapshotFrameMarker);
      continue;
    }
    pos = frame.end;
    if (section.type == 0 || section.type > kSnapshotSectionEnd) {
      // CRC verified but the type is from a newer writer: the loader skips
      // it wholesale, so it is forward compatibility, not damage.
      section.unrecognized = true;
      report.sections.push_back(section);
      continue;
    }
    if (section.type == kSnapshotSectionEnd) {
      if (frame.length == sizeof(uint64_t)) {
        report.end_ok = true;
        report.declared_sections = LoadUint64LE(frame.section.payload.data());
      } else {
        section.problem = "malformed end section";
        report.sections.push_back(section);
      }
      continue;  // Keep scanning: trailing sections after end are damage.
    }
    report.sections.push_back(section);
  }
  return report;
}

SnapshotRepairResult RepairSnapshotBytes(std::string_view bytes) {
  SnapshotRepairResult result;
  if (Status magic = CheckSnapshotMagic(bytes); !magic.ok()) {
    result.dropped.push_back(magic.message());
    return result;
  }
  // Walk with the same lenient resynchronization as InspectSnapshot,
  // carrying over every verified payload into a fresh container. End
  // sections are never carried (the writer appends a fresh one); duplicated
  // frames — the corruptor's kFrameDuplicate — are dropped after their
  // first occurrence.
  SnapshotWriter writer;
  std::set<std::pair<uint8_t, uint32_t>> seen;
  size_t pos = sizeof(kSnapshotMagic);
  while (pos < bytes.size()) {
    size_t marker_pos = bytes.find(MarkerView(), pos);
    if (marker_pos == std::string_view::npos) {
      break;
    }
    auto drop = [&](uint32_t seq, uint8_t type, const char* why) {
      result.dropped.push_back(StrFormat("[%u] offset 0x%llx %s: %s", seq,
                                         static_cast<unsigned long long>(marker_pos),
                                         SnapshotSectionName(type), why));
    };
    Frame frame = ReadFrame(bytes, marker_pos, SnapshotScanMode::kVerifyAll);
    const uint8_t type = frame.section.type;
    const uint32_t seq = frame.section.seq;
    if (frame.fault == FrameFault::kTruncatedHeader) {
      drop(0, 0, "truncated header");
      break;
    }
    if (frame.fault != FrameFault::kNone) {
      drop(seq, type,
           frame.fault == FrameFault::kHeaderCrc          ? "header crc mismatch"
           : frame.fault == FrameFault::kImplausibleLength ? "implausible length (truncated?)"
                                                           : "crc mismatch");
      pos = marker_pos + sizeof(kSnapshotFrameMarker);
      continue;
    }
    pos = frame.end;
    if (type == kSnapshotSectionEnd) {
      continue;  // The writer appends its own terminator.
    }
    if (type == 0 || type > kSnapshotSectionEnd) {
      drop(seq, type, "unknown section type");
      continue;
    }
    if (!seen.insert({type, seq}).second) {
      drop(seq, type, "duplicate frame");
      continue;
    }
    writer.AddSection(static_cast<SnapshotSectionType>(type), frame.section.payload);
    ++result.sections_kept;
  }
  if (result.sections_kept > 0) {
    auto finished = writer.Finish();
    LOCKDOC_CHECK(finished.ok());  // A buffering writer cannot fail.
    result.bytes = std::move(finished).value();
  }
  return result;
}

Status CheckSnapshotMagic(std::string_view bytes) {
  if (HasMagic(bytes, kSnapshotMagic)) {
    return Status::Ok();
  }
  const char* retired = HasMagic(bytes, kSnapshotMagicV1)   ? "v1 (LOCKDB01)"
                        : HasMagic(bytes, kSnapshotMagicV2) ? "v2 (LOCKDB02)"
                                                            : nullptr;
  if (retired != nullptr) {
    return Status::Error(StrFormat(
        "snapshot: container %s is no longer readable; re-run `lockdoc import` on the trace "
        "to rebuild it",
        retired));
  }
  return Status::Error("snapshot: bad magic (not a .lockdb file)");
}

bool LooksLikeSnapshot(std::string_view bytes) {
  return HasMagic(bytes, kSnapshotMagic) || HasMagic(bytes, kSnapshotMagicV2) ||
         HasMagic(bytes, kSnapshotMagicV1);
}

bool IsSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  char magic[sizeof(kSnapshotMagic)];
  in.read(magic, sizeof(magic));
  return in.gcount() == static_cast<std::streamsize>(sizeof(magic)) &&
         LooksLikeSnapshot(std::string_view(magic, sizeof(magic)));
}

std::string EncodeStringsSection(const StringPool& pool) {
  std::string payload;
  PutVarint(payload, pool.strings().size());
  for (const std::string& text : pool.strings()) {
    PutLengthPrefixed(payload, text);
  }
  return payload;
}

Status DecodeStringsSection(std::string_view payload, StringPool* pool) {
  ByteCursor in{payload.data(), payload.size(), 0};
  uint64_t count = 0;
  if (!GetVarint(in, &count)) {
    return Status::Error("snapshot strings: bad count");
  }
  if (count == 0 || count > in.remaining() + 1) {
    // Every string costs at least its one length byte; id 0 must exist.
    return Status::Error("snapshot strings: implausible count");
  }
  std::vector<std::string> strings;
  strings.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string text;
    if (!GetLengthPrefixed(in, &text, kMaxStringSize)) {
      return Status::Error(StrFormat("snapshot strings: bad string %llu",
                                     static_cast<unsigned long long>(i)));
    }
    strings.push_back(std::move(text));
  }
  if (in.remaining() != 0) {
    return Status::Error("snapshot strings: trailing bytes");
  }
  if (!strings[0].empty()) {
    return Status::Error("snapshot strings: id 0 is not the empty string");
  }
  pool->Reset(std::move(strings));
  return Status::Ok();
}

namespace {

// Varint-encoded table header: name, column definitions (each numeric
// column followed by its width byte), indexed columns, row count.
void EncodeTableHeader(const Table& table, const std::vector<uint8_t>& widths,
                       std::string* payload) {
  PutLengthPrefixed(*payload, table.name());
  PutVarint(*payload, table.column_count());
  for (size_t column = 0; column < table.column_count(); ++column) {
    const ColumnDef& def = table.columns()[column];
    PutLengthPrefixed(*payload, def.name);
    payload->push_back(static_cast<char>(def.type));
    if (def.type != ColumnType::kString) {
      payload->push_back(static_cast<char>(widths[column]));
    }
  }
  std::vector<size_t> indexed = table.IndexedColumns();
  PutVarint(*payload, indexed.size());
  for (size_t column : indexed) {
    PutVarint(*payload, column);
  }
  PutVarint(*payload, table.row_count());
}

struct TableHeader {
  std::string name;
  std::vector<ColumnDef> columns;
  std::vector<uint8_t> widths;  // Per column; 0 for a string column.
  std::vector<size_t> indexed;
  uint64_t row_count = 0;
};

Status DecodeTableHeader(ByteCursor& in, TableHeader* header) {
  if (!GetLengthPrefixed(in, &header->name, kMaxStringSize) || header->name.empty()) {
    return Status::Error("snapshot table: bad name");
  }
  auto fail = [header](const std::string& what) {
    return Status::Error(
        StrFormat("snapshot table %s: %s", header->name.c_str(), what.c_str()));
  };
  uint64_t column_count = 0;
  if (!GetVarint(in, &column_count) || column_count == 0 || column_count > kMaxColumns) {
    return fail("bad column count");
  }
  header->columns.reserve(column_count);
  header->widths.reserve(column_count);
  for (uint64_t i = 0; i < column_count; ++i) {
    ColumnDef def;
    if (!GetLengthPrefixed(in, &def.name, kMaxStringSize) || def.name.empty()) {
      return fail("bad column name");
    }
    uint8_t type = 0;
    if (!in.Get(&type) || type > static_cast<uint8_t>(ColumnType::kString)) {
      return fail("bad column type");
    }
    def.type = static_cast<ColumnType>(type);
    uint8_t width = 0;
    if (def.type != ColumnType::kString &&
        (!in.Get(&width) || !IsColumnWidth(width) ||
         (def.type == ColumnType::kDouble && width != sizeof(double)))) {
      return fail("bad column width");
    }
    header->columns.push_back(std::move(def));
    header->widths.push_back(width);
  }
  uint64_t indexed_count = 0;
  if (!GetVarint(in, &indexed_count) || indexed_count > column_count) {
    return fail("bad index count");
  }
  header->indexed.reserve(indexed_count);
  for (uint64_t i = 0; i < indexed_count; ++i) {
    uint64_t column = 0;
    if (!GetVarint(in, &column) || column >= column_count ||
        header->columns[column].type != ColumnType::kUint64 ||
        (!header->indexed.empty() && column <= header->indexed.back())) {
      return fail("bad indexed column");
    }
    header->indexed.push_back(column);
  }
  if (!GetVarint(in, &header->row_count)) {
    return fail("bad row count");
  }
  return Status::Ok();
}

}  // namespace

void SnapshotWriter::AddTableSection(const Table& table) {
  // Numeric columns start at the next 8-byte boundary so a loader mapping
  // the (8-aligned) payload can view them in place. They go out straight
  // from the table's column memory, u64 columns narrowed on the way; only
  // the header and the (small) string columns are encoded here.
  std::vector<uint8_t> widths(table.column_count(), 0);
  for (size_t column = 0; column < table.column_count(); ++column) {
    switch (table.columns()[column].type) {
      case ColumnType::kUint64:
        widths[column] = NarrowestColumnWidth(table.Column(column));
        break;
      case ColumnType::kDouble:
        widths[column] = sizeof(double);
        break;
      case ColumnType::kString:
        break;
    }
  }
  std::string header;
  EncodeTableHeader(table, widths, &header);
  header.append(PaddedPayloadSize(header.size()) - header.size(), '\0');
  std::vector<PayloadPiece> pieces = {std::string_view(header)};
  std::string strings;
  for (size_t column = 0; column < table.column_count(); ++column) {
    switch (table.columns()[column].type) {
      case ColumnType::kUint64:
        pieces.emplace_back(table.Column(column), widths[column]);
        break;
      case ColumnType::kDouble:
        pieces.emplace_back(std::string_view(
            reinterpret_cast<const char*>(table.ColumnF64Data(column)),
            table.row_count() * sizeof(double)));
        break;
      case ColumnType::kString:
        // Variable-width columns follow the fixed-width block.
        for (const std::string& value : table.column_data(column).str) {
          PutLengthPrefixed(strings, value);
        }
        break;
    }
  }
  pieces.emplace_back(std::string_view(strings));
  AddSection(kSnapshotSectionTable, pieces);
}

bool ReadColumn(ByteCursor& in, uint8_t width, uint64_t rows, ColumnView* column) {
  if (!IsColumnWidth(width) || rows > in.remaining() / width ||
      PaddedPayloadSize(rows * width) > in.remaining()) {
    return false;
  }
  *column = ColumnView(in.data + in.pos, width, rows);
  in.pos += PaddedPayloadSize(rows * width);
  return true;
}

Status DecodeTableSection(std::string_view payload, Database* db) {
  // Columns are viewed where they lie; both loaders hand over 8-aligned
  // payloads (an aligned copy, or a page-aligned mapping).
  LOCKDOC_CHECK(reinterpret_cast<uintptr_t>(payload.data()) % alignof(uint64_t) == 0);
  ByteCursor in{payload.data(), payload.size(), 0};
  TableHeader header;
  if (Status status = DecodeTableHeader(in, &header); !status.ok()) {
    return status;
  }
  auto fail = [&header](const std::string& what) {
    return Status::Error(
        StrFormat("snapshot table %s: %s", header.name.c_str(), what.c_str()));
  };
  if (db->HasTable(header.name)) {
    return fail("duplicate table");
  }
  uint64_t pad = PaddedPayloadSize(in.pos) - in.pos;
  if (in.remaining() < pad) {
    return fail("truncated header padding");
  }
  in.pos += pad;
  uint64_t row_count = header.row_count;
  std::vector<ColumnData> storage(header.columns.size());
  for (size_t column = 0; column < header.columns.size(); ++column) {
    ColumnType type = header.columns[column].type;
    if (type == ColumnType::kString) {
      continue;
    }
    ColumnView view;
    if (!ReadColumn(in, header.widths[column], row_count, &view)) {
      return fail(type == ColumnType::kUint64 ? "truncated u64 column"
                                              : "truncated f64 column");
    }
    ColumnData& data = storage[column];
    data.view = view.data();
    data.width = view.width();
    data.view_rows = row_count;
  }
  for (size_t column = 0; column < header.columns.size(); ++column) {
    if (header.columns[column].type != ColumnType::kString) {
      continue;
    }
    ColumnData& data = storage[column];
    if (row_count > in.remaining()) {
      return fail("truncated string column");
    }
    data.str.reserve(row_count);
    for (uint64_t row = 0; row < row_count; ++row) {
      std::string value;
      if (!GetLengthPrefixed(in, &value, kMaxStringSize)) {
        return fail("truncated string column");
      }
      data.str.push_back(std::move(value));
    }
  }
  if (in.remaining() != 0) {
    return fail("trailing bytes");
  }
  Table& table = db->CreateTable(header.name, std::move(header.columns));
  table.ResetRows(row_count, std::move(storage));
  for (size_t column : header.indexed) {
    table.CreateIndex(column);
  }
  return Status::Ok();
}

}  // namespace lockdoc
