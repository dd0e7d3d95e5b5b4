#include "src/db/snapshot.h"

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

// The v2 numeric columns are stored as raw little-endian words and viewed
// in place; a big-endian host would need a byte-swapping load path that
// nothing targets today.
static_assert(std::endian::native == std::endian::little,
              ".lockdb v2 zero-copy layout requires a little-endian host");

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

SnapshotWriter::SnapshotWriter(uint64_t container_version, uint64_t max_section_payload)
    : SnapshotWriter(container_version, max_section_payload, nullptr) {}

SnapshotWriter::SnapshotWriter(uint64_t container_version, SnapshotSink sink)
    : SnapshotWriter(container_version, 0, std::move(sink)) {}

SnapshotWriter::SnapshotWriter(uint64_t container_version, uint64_t max_section_payload,
                               SnapshotSink sink)
    : version_(container_version),
      max_payload_(max_section_payload != 0      ? max_section_payload
                   : container_version == 1 ? kMaxSnapshotSectionPayloadV1
                                            : UINT64_MAX),
      sink_(std::move(sink)) {
  LOCKDOC_CHECK(version_ == 1 || version_ == 2);
  Emit(std::string_view(version_ == 1 ? kSnapshotMagic : kSnapshotMagicV2,
                        sizeof(kSnapshotMagic)));
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

void SnapshotWriter::AddSection(SnapshotSectionType type, std::string_view payload) {
  AddSection(type, std::vector<std::string_view>{payload});
}

void SnapshotWriter::AddSection(SnapshotSectionType type,
                                const std::vector<std::string_view>& pieces) {
  if (!status_.ok()) {
    return;  // Sticky: one failed section poisons the whole file.
  }
  uint64_t length = 0;
  for (std::string_view piece : pieces) {
    length += piece.size();
  }
  if (length > max_payload_) {
    status_ = Status::Error(StrFormat(
        "snapshot section %s: payload of %llu bytes exceeds the v%llu container cap of %llu "
        "bytes",
        SnapshotSectionName(type), static_cast<unsigned long long>(length),
        static_cast<unsigned long long>(version_),
        static_cast<unsigned long long>(max_payload_)));
    return;
  }
  std::string header(MarkerView());
  header.push_back(static_cast<char>(type));
  if (version_ == 1) {
    AppendUint32LE(header, next_seq_++);
    AppendUint32LE(header, static_cast<uint32_t>(length));
    // The CRC covers everything after the marker: type, seq, length, payload.
    uint32_t crc = Crc32Update(0, header.data() + sizeof(kSnapshotFrameMarker),
                               header.size() - sizeof(kSnapshotFrameMarker));
    for (std::string_view piece : pieces) {
      crc = Crc32Update(crc, piece.data(), piece.size());
    }
    std::string trailer;
    AppendUint32LE(trailer, crc);
    Emit(header);
    for (std::string_view piece : pieces) {
      Emit(piece);
    }
    Emit(trailer);
    return;
  }
  // v2: fixed 32-byte header (see snapshot.h), payload zero-padded to 8.
  // The payload CRC chains over the pieces and the padding, so the payload
  // is checksummed where it lies.
  const char zeros[8] = {0};
  const uint64_t padding = PaddedPayloadSize(length) - length;
  uint32_t payload_crc = 0;
  for (std::string_view piece : pieces) {
    payload_crc = Crc32Update(payload_crc, piece.data(), piece.size());
  }
  payload_crc = Crc32Update(payload_crc, zeros, padding);
  header.append(3, '\0');  // Pad after the type byte.
  AppendUint32LE(header, next_seq_++);
  AppendUint64LE(header, length);
  AppendUint32LE(header, payload_crc);
  header.append(4, '\0');
  AppendUint32LE(header, Crc32(header.data() + kSnapshotV2TypeOffset,
                               kSnapshotV2HeaderCrcOffset - kSnapshotV2TypeOffset));
  Emit(header);
  for (std::string_view piece : pieces) {
    Emit(piece);
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
  if (version_ == 1) {
    PutVarint(payload, next_seq_);
  } else {
    AppendUint64LE(payload, next_seq_);
  }
  AddSection(kSnapshotSectionEnd, payload);
  if (!status_.ok()) {
    return status_;
  }
  return std::move(out_);
}

namespace {

Result<std::vector<SnapshotSection>> ScanSnapshotSectionsV1(std::string_view bytes) {
  std::vector<SnapshotSection> sections;
  size_t pos = sizeof(kSnapshotMagic);
  while (true) {
    if (bytes.size() - pos < kSnapshotFrameHeaderSize + kSnapshotFrameTrailerSize) {
      return SectionError(pos, "truncated: no end section");
    }
    if (std::memcmp(bytes.data() + pos, kSnapshotFrameMarker,
                    sizeof(kSnapshotFrameMarker)) != 0) {
      return SectionError(pos, "bad section marker");
    }
    uint8_t type = static_cast<uint8_t>(bytes[pos + 4]);
    uint32_t seq = LoadUint32LE(bytes.data() + pos + 5);
    uint32_t length = LoadUint32LE(bytes.data() + pos + 9);
    if (length > kMaxSnapshotSectionPayloadV1 ||
        bytes.size() - pos - kSnapshotFrameHeaderSize - kSnapshotFrameTrailerSize < length) {
      return SectionError(pos, StrFormat("implausible section length %u", length));
    }
    uint32_t crc = Crc32(bytes.data() + pos + sizeof(kSnapshotFrameMarker),
                         kSnapshotFrameHeaderSize - sizeof(kSnapshotFrameMarker) + length);
    uint32_t stored = LoadUint32LE(bytes.data() + pos + kSnapshotFrameHeaderSize + length);
    if (crc != stored) {
      return SectionError(pos, StrFormat("section %s crc mismatch",
                                         SnapshotSectionName(type)));
    }
    if (seq != sections.size()) {
      return SectionError(pos, StrFormat("section out of order (seq %u, expected %zu)", seq,
                                         sections.size()));
    }
    SnapshotSection section;
    section.type = type;
    section.seq = seq;
    section.offset = pos;
    section.payload = bytes.substr(pos + kSnapshotFrameHeaderSize, length);
    section.padded_payload = section.payload;
    section.crc_checked = true;
    pos += kSnapshotFrameHeaderSize + length + kSnapshotFrameTrailerSize;
    if (type == kSnapshotSectionEnd) {
      ByteCursor in{section.payload.data(), section.payload.size(), 0};
      uint64_t declared = 0;
      if (!GetVarint(in, &declared) || in.remaining() != 0) {
        return SectionError(pos, "malformed end section");
      }
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
    sections.push_back(std::move(section));
  }
}

Result<std::vector<SnapshotSection>> ScanSnapshotSectionsV2(std::string_view bytes,
                                                            SnapshotScanMode mode) {
  std::vector<SnapshotSection> sections;
  size_t pos = sizeof(kSnapshotMagicV2);
  while (true) {
    if (bytes.size() - pos < kSnapshotV2FrameHeaderSize) {
      return SectionError(pos, "truncated: no end section");
    }
    if (std::memcmp(bytes.data() + pos, kSnapshotFrameMarker,
                    sizeof(kSnapshotFrameMarker)) != 0) {
      return SectionError(pos, "bad section marker");
    }
    uint8_t type = static_cast<uint8_t>(bytes[pos + kSnapshotV2TypeOffset]);
    uint32_t seq = LoadUint32LE(bytes.data() + pos + kSnapshotV2SeqOffset);
    uint64_t length = LoadUint64LE(bytes.data() + pos + kSnapshotV2LengthOffset);
    uint32_t payload_crc = LoadUint32LE(bytes.data() + pos + kSnapshotV2PayloadCrcOffset);
    uint32_t stored_header_crc =
        LoadUint32LE(bytes.data() + pos + kSnapshotV2HeaderCrcOffset);
    uint32_t header_crc = Crc32(bytes.data() + pos + kSnapshotV2TypeOffset,
                                kSnapshotV2HeaderCrcOffset - kSnapshotV2TypeOffset);
    if (header_crc != stored_header_crc) {
      return SectionError(pos, StrFormat("section %s header crc mismatch",
                                         SnapshotSectionName(type)));
    }
    if (length > bytes.size() ||
        PaddedPayloadSize(length) > bytes.size() - pos - kSnapshotV2FrameHeaderSize) {
      return SectionError(pos, StrFormat("implausible section length %llu",
                                         static_cast<unsigned long long>(length)));
    }
    SnapshotSection section;
    section.type = type;
    section.seq = seq;
    section.offset = pos;
    section.payload = bytes.substr(pos + kSnapshotV2FrameHeaderSize, length);
    section.padded_payload =
        bytes.substr(pos + kSnapshotV2FrameHeaderSize, PaddedPayloadSize(length));
    section.payload_crc = payload_crc;
    // The load path defers the (potentially huge) table payload CRCs to the
    // consumer; everything else is cheap enough to verify inline.
    section.crc_checked =
        mode == SnapshotScanMode::kVerifyAll || type != kSnapshotSectionTable;
    if (section.crc_checked && Crc32(section.padded_payload) != payload_crc) {
      return SectionError(pos, StrFormat("section %s crc mismatch",
                                         SnapshotSectionName(type)));
    }
    if (seq != sections.size()) {
      return SectionError(pos, StrFormat("section out of order (seq %u, expected %zu)", seq,
                                         sections.size()));
    }
    pos += kSnapshotV2FrameHeaderSize + PaddedPayloadSize(length);
    if (type == kSnapshotSectionEnd) {
      if (length != sizeof(uint64_t)) {
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
    sections.push_back(std::move(section));
  }
}

}  // namespace

Result<std::vector<SnapshotSection>> ScanSnapshotSections(std::string_view bytes,
                                                          SnapshotScanMode mode) {
  uint64_t version = SnapshotContainerVersion(bytes);
  if (version == 0) {
    return Status::Error("snapshot: bad magic (not a .lockdb file)");
  }
  return version == 1 ? ScanSnapshotSectionsV1(bytes) : ScanSnapshotSectionsV2(bytes, mode);
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
  out += StrFormat("magic:            %s\n",
                   magic_ok ? StrFormat("ok (container v%llu)",
                                        static_cast<unsigned long long>(container_version))
                                  .c_str()
                            : "BAD");
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

namespace {

void InspectSnapshotV1(std::string_view bytes, SnapshotInspection* report) {
  size_t pos = sizeof(kSnapshotMagic);
  while (pos < bytes.size()) {
    size_t marker_pos = bytes.find(MarkerView(), pos);
    if (marker_pos == std::string_view::npos) {
      report->stray_bytes += bytes.size() - pos;
      break;
    }
    report->stray_bytes += marker_pos - pos;
    SnapshotSectionReport section;
    section.offset = marker_pos;
    if (bytes.size() - marker_pos < kSnapshotFrameHeaderSize + kSnapshotFrameTrailerSize) {
      section.problem = "truncated header";
      report->sections.push_back(section);
      break;
    }
    section.type = static_cast<uint8_t>(bytes[marker_pos + 4]);
    section.seq = LoadUint32LE(bytes.data() + marker_pos + 5);
    uint32_t length = LoadUint32LE(bytes.data() + marker_pos + 9);
    section.payload_size = length;
    if (length > kMaxSnapshotSectionPayloadV1 ||
        bytes.size() - marker_pos - kSnapshotFrameHeaderSize - kSnapshotFrameTrailerSize <
            length) {
      // The length field itself is suspect: clamp what we report to the
      // bytes that could actually belong to this frame, so a corrupt length
      // pointing past a later valid frame does not inflate the report.
      uint64_t clamped = ClampLengthToNextMarker(
          bytes, marker_pos + kSnapshotFrameHeaderSize, length);
      section.payload_size = clamped;
      section.problem = StrFormat("implausible length %u (clamped to %llu)", length,
                                  static_cast<unsigned long long>(clamped));
      report->sections.push_back(section);
      pos = marker_pos + sizeof(kSnapshotFrameMarker);
      continue;
    }
    uint32_t crc = Crc32(bytes.data() + marker_pos + sizeof(kSnapshotFrameMarker),
                         kSnapshotFrameHeaderSize - sizeof(kSnapshotFrameMarker) + length);
    uint32_t stored =
        LoadUint32LE(bytes.data() + marker_pos + kSnapshotFrameHeaderSize + length);
    if (crc != stored) {
      section.problem = "crc mismatch";
      report->sections.push_back(section);
      pos = marker_pos + sizeof(kSnapshotFrameMarker);
      continue;
    }
    if (section.type == 0 || section.type > kSnapshotSectionEnd) {
      // CRC verified but the type is from a newer writer: the loader skips
      // it wholesale, so it is forward compatibility, not damage.
      section.unrecognized = true;
      report->sections.push_back(section);
      pos = marker_pos + kSnapshotFrameHeaderSize + length + kSnapshotFrameTrailerSize;
      continue;
    }
    pos = marker_pos + kSnapshotFrameHeaderSize + length + kSnapshotFrameTrailerSize;
    if (section.type == kSnapshotSectionEnd) {
      std::string_view payload = bytes.substr(marker_pos + kSnapshotFrameHeaderSize, length);
      ByteCursor in{payload.data(), payload.size(), 0};
      uint64_t declared = 0;
      if (GetVarint(in, &declared) && in.remaining() == 0) {
        report->end_ok = true;
        report->declared_sections = declared;
      } else {
        section.problem = "malformed end section";
        report->sections.push_back(section);
      }
      continue;  // Keep scanning: trailing sections after end are damage.
    }
    report->sections.push_back(section);
  }
}

void InspectSnapshotV2(std::string_view bytes, SnapshotInspection* report) {
  size_t pos = sizeof(kSnapshotMagicV2);
  while (pos < bytes.size()) {
    size_t marker_pos = bytes.find(MarkerView(), pos);
    if (marker_pos == std::string_view::npos) {
      report->stray_bytes += bytes.size() - pos;
      break;
    }
    report->stray_bytes += marker_pos - pos;
    SnapshotSectionReport section;
    section.offset = marker_pos;
    if (bytes.size() - marker_pos < kSnapshotV2FrameHeaderSize) {
      section.problem = "truncated header";
      report->sections.push_back(section);
      break;
    }
    section.type = static_cast<uint8_t>(bytes[marker_pos + kSnapshotV2TypeOffset]);
    section.seq = LoadUint32LE(bytes.data() + marker_pos + kSnapshotV2SeqOffset);
    uint64_t length = LoadUint64LE(bytes.data() + marker_pos + kSnapshotV2LengthOffset);
    uint32_t payload_crc =
        LoadUint32LE(bytes.data() + marker_pos + kSnapshotV2PayloadCrcOffset);
    uint32_t stored_header_crc =
        LoadUint32LE(bytes.data() + marker_pos + kSnapshotV2HeaderCrcOffset);
    uint32_t header_crc = Crc32(bytes.data() + marker_pos + kSnapshotV2TypeOffset,
                                kSnapshotV2HeaderCrcOffset - kSnapshotV2TypeOffset);
    if (header_crc != stored_header_crc) {
      // Nothing in the header can be trusted, the declared length included.
      section.payload_size = 0;
      section.problem = "header crc mismatch";
      report->sections.push_back(section);
      pos = marker_pos + sizeof(kSnapshotFrameMarker);
      continue;
    }
    section.payload_size = length;
    if (length > bytes.size() ||
        PaddedPayloadSize(length) >
            bytes.size() - marker_pos - kSnapshotV2FrameHeaderSize) {
      uint64_t clamped = ClampLengthToNextMarker(
          bytes, marker_pos + kSnapshotV2FrameHeaderSize, length);
      section.payload_size = clamped;
      section.problem =
          StrFormat("implausible length %llu (clamped to %llu)",
                    static_cast<unsigned long long>(length),
                    static_cast<unsigned long long>(clamped));
      report->sections.push_back(section);
      pos = marker_pos + sizeof(kSnapshotFrameMarker);
      continue;
    }
    std::string_view padded = bytes.substr(marker_pos + kSnapshotV2FrameHeaderSize,
                                           PaddedPayloadSize(length));
    if (Crc32(padded) != payload_crc) {
      section.problem = "crc mismatch";
      report->sections.push_back(section);
      pos = marker_pos + sizeof(kSnapshotFrameMarker);
      continue;
    }
    if (section.type == 0 || section.type > kSnapshotSectionEnd) {
      // CRC verified but the type is from a newer writer: the loader skips
      // it wholesale, so it is forward compatibility, not damage.
      section.unrecognized = true;
      report->sections.push_back(section);
      pos = marker_pos + kSnapshotV2FrameHeaderSize + PaddedPayloadSize(length);
      continue;
    }
    pos = marker_pos + kSnapshotV2FrameHeaderSize + PaddedPayloadSize(length);
    if (section.type == kSnapshotSectionEnd) {
      if (length == sizeof(uint64_t)) {
        report->end_ok = true;
        report->declared_sections =
            LoadUint64LE(bytes.data() + marker_pos + kSnapshotV2FrameHeaderSize);
      } else {
        section.problem = "malformed end section";
        report->sections.push_back(section);
      }
      continue;  // Keep scanning: trailing sections after end are damage.
    }
    report->sections.push_back(section);
  }
}

}  // namespace

SnapshotInspection InspectSnapshot(std::string_view bytes) {
  SnapshotInspection report;
  report.file_size = bytes.size();
  report.container_version = SnapshotContainerVersion(bytes);
  report.magic_ok = report.container_version != 0;
  if (!report.magic_ok) {
    return report;
  }
  if (report.container_version == 1) {
    InspectSnapshotV1(bytes, &report);
  } else {
    InspectSnapshotV2(bytes, &report);
  }
  return report;
}

SnapshotRepairResult RepairSnapshotBytes(std::string_view bytes) {
  SnapshotRepairResult result;
  uint64_t version = SnapshotContainerVersion(bytes);
  if (version == 0) {
    result.dropped.push_back("bad magic (not a .lockdb file)");
    return result;
  }
  // Walk with the same lenient resynchronization as InspectSnapshot,
  // carrying over every verified payload into a fresh container of the same
  // version. End sections are never carried (the writer appends a fresh
  // one); duplicated frames — the corruptor's kFrameDuplicate — are dropped
  // after their first occurrence.
  SnapshotWriter writer(version);
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
    uint8_t type = 0;
    uint32_t seq = 0;
    uint64_t length = 0;
    std::string_view payload;
    size_t frame_end = 0;
    if (version == 1) {
      if (bytes.size() - marker_pos < kSnapshotFrameHeaderSize + kSnapshotFrameTrailerSize) {
        drop(0, 0, "truncated header");
        break;
      }
      type = static_cast<uint8_t>(bytes[marker_pos + 4]);
      seq = LoadUint32LE(bytes.data() + marker_pos + 5);
      length = LoadUint32LE(bytes.data() + marker_pos + 9);
      if (length > kMaxSnapshotSectionPayloadV1 ||
          bytes.size() - marker_pos - kSnapshotFrameHeaderSize - kSnapshotFrameTrailerSize <
              length) {
        drop(seq, type, "implausible length (truncated?)");
        pos = marker_pos + sizeof(kSnapshotFrameMarker);
        continue;
      }
      uint32_t crc = Crc32(bytes.data() + marker_pos + sizeof(kSnapshotFrameMarker),
                           kSnapshotFrameHeaderSize - sizeof(kSnapshotFrameMarker) + length);
      uint32_t stored =
          LoadUint32LE(bytes.data() + marker_pos + kSnapshotFrameHeaderSize + length);
      if (crc != stored) {
        drop(seq, type, "crc mismatch");
        pos = marker_pos + sizeof(kSnapshotFrameMarker);
        continue;
      }
      payload = bytes.substr(marker_pos + kSnapshotFrameHeaderSize, length);
      frame_end = marker_pos + kSnapshotFrameHeaderSize + length + kSnapshotFrameTrailerSize;
    } else {
      if (bytes.size() - marker_pos < kSnapshotV2FrameHeaderSize) {
        drop(0, 0, "truncated header");
        break;
      }
      type = static_cast<uint8_t>(bytes[marker_pos + kSnapshotV2TypeOffset]);
      seq = LoadUint32LE(bytes.data() + marker_pos + kSnapshotV2SeqOffset);
      length = LoadUint64LE(bytes.data() + marker_pos + kSnapshotV2LengthOffset);
      uint32_t header_crc = Crc32(bytes.data() + marker_pos + kSnapshotV2TypeOffset,
                                  kSnapshotV2HeaderCrcOffset - kSnapshotV2TypeOffset);
      if (header_crc !=
          LoadUint32LE(bytes.data() + marker_pos + kSnapshotV2HeaderCrcOffset)) {
        drop(seq, type, "header crc mismatch");
        pos = marker_pos + sizeof(kSnapshotFrameMarker);
        continue;
      }
      if (length > bytes.size() ||
          PaddedPayloadSize(length) >
              bytes.size() - marker_pos - kSnapshotV2FrameHeaderSize) {
        drop(seq, type, "implausible length (truncated?)");
        pos = marker_pos + sizeof(kSnapshotFrameMarker);
        continue;
      }
      std::string_view padded = bytes.substr(marker_pos + kSnapshotV2FrameHeaderSize,
                                             PaddedPayloadSize(length));
      if (Crc32(padded) !=
          LoadUint32LE(bytes.data() + marker_pos + kSnapshotV2PayloadCrcOffset)) {
        drop(seq, type, "crc mismatch");
        pos = marker_pos + sizeof(kSnapshotFrameMarker);
        continue;
      }
      payload = bytes.substr(marker_pos + kSnapshotV2FrameHeaderSize, length);
      frame_end = marker_pos + kSnapshotV2FrameHeaderSize + PaddedPayloadSize(length);
    }
    pos = frame_end;
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
    writer.AddSection(static_cast<SnapshotSectionType>(type), payload);
    ++result.sections_kept;
  }
  if (result.sections_kept > 0) {
    auto finished = writer.Finish();
    // Every carried payload fit its original container, so re-emitting it
    // into the same version cannot overflow.
    LOCKDOC_CHECK(finished.ok());
    result.bytes = std::move(finished).value();
  }
  return result;
}

uint64_t SnapshotContainerVersion(std::string_view bytes) {
  if (bytes.size() < sizeof(kSnapshotMagic)) {
    return 0;
  }
  if (std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) == 0) {
    return 1;
  }
  if (std::memcmp(bytes.data(), kSnapshotMagicV2, sizeof(kSnapshotMagicV2)) == 0) {
    return 2;
  }
  return 0;
}

bool LooksLikeSnapshot(std::string_view bytes) {
  return SnapshotContainerVersion(bytes) != 0;
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

// Shared varint-encoded table header: name, column definitions, indexed
// columns, row count. Identical between v1 and v2 payloads.
void EncodeTableHeader(const Table& table, std::string* payload) {
  PutLengthPrefixed(*payload, table.name());
  PutVarint(*payload, table.column_count());
  for (const ColumnDef& column : table.columns()) {
    PutLengthPrefixed(*payload, column.name);
    payload->push_back(static_cast<char>(column.type));
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
    header->columns.push_back(std::move(def));
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

std::string EncodeTableSection(const Table& table) {
  std::string payload;
  EncodeTableHeader(table, &payload);
  for (size_t column = 0; column < table.column_count(); ++column) {
    switch (table.columns()[column].type) {
      case ColumnType::kUint64: {
        const uint64_t* data = table.ColumnU64Data(column);
        for (size_t row = 0; row < table.row_count(); ++row) {
          PutVarint(payload, data[row]);
        }
        break;
      }
      case ColumnType::kDouble: {
        const double* data = table.ColumnF64Data(column);
        for (size_t row = 0; row < table.row_count(); ++row) {
          uint64_t bits = 0;
          std::memcpy(&bits, &data[row], sizeof(bits));
          AppendUint64LE(payload, bits);
        }
        break;
      }
      case ColumnType::kString:
        for (const std::string& value : table.column_data(column).str) {
          PutLengthPrefixed(payload, value);
        }
        break;
    }
  }
  return payload;
}

Status DecodeTableSection(std::string_view payload, Database* db) {
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
  uint64_t row_count = header.row_count;
  std::vector<ColumnData> storage(header.columns.size());
  for (size_t column = 0; column < header.columns.size(); ++column) {
    ColumnData& data = storage[column];
    switch (header.columns[column].type) {
      case ColumnType::kUint64: {
        if (row_count > in.remaining()) {  // Each varint costs >= 1 byte.
          return fail("truncated u64 column");
        }
        data.u64.reserve(row_count);
        for (uint64_t row = 0; row < row_count; ++row) {
          uint64_t value = 0;
          if (!GetVarint(in, &value)) {
            return fail("truncated u64 column");
          }
          data.u64.push_back(value);
        }
        break;
      }
      case ColumnType::kDouble: {
        if (row_count > in.remaining() / sizeof(uint64_t)) {
          return fail("truncated f64 column");
        }
        data.f64.reserve(row_count);
        for (uint64_t row = 0; row < row_count; ++row) {
          char raw[sizeof(uint64_t)];
          if (!in.Read(raw, sizeof(raw))) {
            return fail("truncated f64 column");
          }
          uint64_t bits = LoadUint64LE(raw);
          double value = 0.0;
          std::memcpy(&value, &bits, sizeof(value));
          data.f64.push_back(value);
        }
        break;
      }
      case ColumnType::kString: {
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
        break;
      }
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

void SnapshotWriter::AddTableSection(const Table& table) {
  if (version_ == 1) {
    AddSection(kSnapshotSectionTable, EncodeTableSection(table));
    return;
  }
  // Numeric columns start at the next 8-byte boundary so a loader mapping
  // the (8-aligned) payload can view them in place. They go out straight
  // from the table's column memory; only the header and the (small) string
  // columns are encoded here.
  std::string header;
  EncodeTableHeader(table, &header);
  header.append(PaddedPayloadSize(header.size()) - header.size(), '\0');
  std::vector<std::string_view> pieces = {header};
  std::string strings;
  for (size_t column = 0; column < table.column_count(); ++column) {
    switch (table.columns()[column].type) {
      case ColumnType::kUint64:
        pieces.emplace_back(reinterpret_cast<const char*>(table.ColumnU64Data(column)),
                            table.row_count() * sizeof(uint64_t));
        break;
      case ColumnType::kDouble:
        pieces.emplace_back(reinterpret_cast<const char*>(table.ColumnF64Data(column)),
                            table.row_count() * sizeof(double));
        break;
      case ColumnType::kString:
        // Variable-width columns follow the fixed-width block.
        for (const std::string& value : table.column_data(column).str) {
          PutLengthPrefixed(strings, value);
        }
        break;
    }
  }
  pieces.push_back(strings);
  AddSection(kSnapshotSectionTable, pieces);
}

Status DecodeTableSectionV2(std::string_view payload, bool zero_copy, Database* db) {
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
  // In-place views additionally require the mapped payload itself to be
  // 8-aligned; a misaligned buffer silently degrades to copying.
  bool views_ok =
      zero_copy && reinterpret_cast<uintptr_t>(payload.data()) % alignof(uint64_t) == 0;
  uint64_t row_count = header.row_count;
  std::vector<ColumnData> storage(header.columns.size());
  for (size_t column = 0; column < header.columns.size(); ++column) {
    ColumnData& data = storage[column];
    ColumnType type = header.columns[column].type;
    if (type == ColumnType::kString) {
      continue;
    }
    if (row_count > in.remaining() / sizeof(uint64_t)) {
      return fail(type == ColumnType::kUint64 ? "truncated u64 column"
                                              : "truncated f64 column");
    }
    const char* raw = in.data + in.pos;
    if (type == ColumnType::kUint64) {
      if (views_ok) {
        data.u64_view = reinterpret_cast<const uint64_t*>(raw);
        data.view_rows = row_count;
      } else {
        data.u64.resize(row_count);
        std::memcpy(data.u64.data(), raw, row_count * sizeof(uint64_t));
      }
    } else {
      if (views_ok) {
        data.f64_view = reinterpret_cast<const double*>(raw);
        data.view_rows = row_count;
      } else {
        data.f64.resize(row_count);
        std::memcpy(data.f64.data(), raw, row_count * sizeof(double));
      }
    }
    in.pos += row_count * sizeof(uint64_t);
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
