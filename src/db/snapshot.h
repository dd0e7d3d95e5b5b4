// The .lockdb snapshot container: a versioned, sectioned, CRC-checksummed
// binary format persisting an imported analysis database so traces are
// imported ONCE and analyzed many times (the paper keeps its MariaDB
// instance around for the same reason, Sec. 5.3).
//
// Two container versions exist (full spec: docs/lockdb-format.md):
//
// v1 ("LOCKDB01") mirrors the framed v2 trace format with its own magic and
// frame marker:
//
//   magic "LOCKDB01" (8 bytes)
//   section*:  marker {0xAB,'L','D',0xF3} | type (1) | seq (4 LE)
//              | length (4 LE) | payload | crc32 (4 LE)
//   end section (type kSnapshotSectionEnd, payload = varint section count)
//
// The CRC covers everything after the marker (type, seq, length, payload),
// so every section is independently verifiable and corruption is localized
// — `lockdoc doctor` reports per-section damage.
//
// v2 ("LOCKDB02") is the zero-copy layout: every frame starts at an
// 8-byte-aligned offset, headers are fixed 32-byte blocks with explicit
// 64-bit payload lengths, and the payload CRC is stored in the header so a
// loader can map the file and defer payload checksumming:
//
//   magic "LOCKDB02" (8 bytes)
//   frame*: marker {0xAB,'L','D',0xF3} | type (1) | pad (3 zero)
//           | seq (4 LE) | length (8 LE, unpadded payload bytes)
//           | payload crc32 (4 LE, over the padded payload)
//           | pad (4 zero) | header crc32 (4 LE, over bytes 4..28)
//           | payload, zero-padded to a multiple of 8
//   end frame (type kSnapshotSectionEnd, payload = u64 LE section count)
//
// Header CRCs are always verified; payload CRCs are verified eagerly by
// doctor/repair and lazily by the load path (sections that are decoded into
// memory verify before decoding, mmap-viewed sections are left to doctor).
// Sections are written in a fixed deterministic order by
// src/core/snapshot.cc; a snapshot's bytes are identical no matter how many
// threads built the analysis.
//
// This layer knows containers and the db-level payloads (string pool,
// tables); the analysis-level payloads (lock-class pool, interned
// sequences, observation groups) live in src/core/snapshot.h, keeping the
// db -> core dependency direction intact.
#ifndef SRC_DB_SNAPSHOT_H_
#define SRC_DB_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/db/database.h"
#include "src/trace/string_pool.h"
#include "src/util/status.h"

namespace lockdoc {

constexpr char kSnapshotMagic[8] = {'L', 'O', 'C', 'K', 'D', 'B', '0', '1'};
constexpr char kSnapshotMagicV2[8] = {'L', 'O', 'C', 'K', 'D', 'B', '0', '2'};
constexpr uint8_t kSnapshotFrameMarker[4] = {0xAB, 'L', 'D', 0xF3};
// v1: marker + type + seq + length.
constexpr size_t kSnapshotFrameHeaderSize = 4 + 1 + 4 + 4;
constexpr size_t kSnapshotFrameTrailerSize = 4;  // crc32
// v2: marker + type + pad3 + seq + length64 + payload_crc + pad4 + header_crc.
constexpr size_t kSnapshotV2FrameHeaderSize = 32;
// Offsets into a v2 frame header (from the marker).
constexpr size_t kSnapshotV2TypeOffset = 4;
constexpr size_t kSnapshotV2SeqOffset = 8;
constexpr size_t kSnapshotV2LengthOffset = 12;
constexpr size_t kSnapshotV2PayloadCrcOffset = 20;
constexpr size_t kSnapshotV2HeaderCrcOffset = 28;
// v2 payloads are zero-padded to the next 8-byte boundary so every frame
// header (and the numeric column data inside table payloads) stays 8-aligned
// in the mapped file.
constexpr uint64_t PaddedPayloadSize(uint64_t length) { return (length + 7) & ~uint64_t{7}; }
// Payload format versions carried in the meta section; each container
// version pins the matching payload version.
constexpr uint64_t kSnapshotFormatVersion = 1;
constexpr uint64_t kSnapshotFormatVersionV2 = 2;
// v1 sections are capped (the length field is 32-bit and corrupt lengths
// must not drive allocations); v2 lengths are 64-bit and only bounded by
// the file size.
constexpr uint64_t kMaxSnapshotSectionPayloadV1 = 1ull << 30;

enum SnapshotSectionType : uint8_t {
  kSnapshotSectionMeta = 1,     // Version, import/trace stats, registry shape.
  kSnapshotSectionStrings = 2,  // The database's string pool.
  kSnapshotSectionTable = 3,    // One database table (repeats, name order).
  kSnapshotSectionPool = 4,     // Interned lock classes, id order.
  kSnapshotSectionSeqs = 5,     // Interned lock sequences, id order.
  kSnapshotSectionGroups = 6,   // Folded observation groups, key order.
  kSnapshotSectionEnd = 7,      // Terminator carrying the section count.
};

// Human name for diagnostics ("meta", "table", ...; "unknown" otherwise).
const char* SnapshotSectionName(uint8_t type);

// One parsed section; `payload` points into the scanned buffer.
struct SnapshotSection {
  uint8_t type = 0;
  uint32_t seq = 0;
  std::string_view payload;  // Unpadded payload bytes.
  uint64_t offset = 0;       // Of the frame marker in the file.
  // v2 bookkeeping for deferred payload verification: the CRC domain
  // (payload incl. zero padding), the stored CRC, and whether the scan
  // already checked it. v1 sections always scan with crc_checked == true.
  std::string_view padded_payload;
  uint32_t payload_crc = 0;
  bool crc_checked = true;
};

// Verifies a section whose payload CRC the scan deferred; Ok() when the
// scan already checked it.
Status VerifySectionPayloadCrc(const SnapshotSection& section);

// Receives framed .lockdb bytes in file order (a file being streamed, for
// instance). A non-Ok status stops the writer.
using SnapshotSink = std::function<Status(std::string_view bytes)>;

// Frames sections into the container format. Usage: add each section in
// order, then Finish exactly once. Frames are emitted as they are added:
// into an in-memory buffer that Finish returns, or to a sink. A payload can
// be given in pieces, which are checksummed and emitted in place without
// being joined, so a table section goes out straight from column memory.
// An oversized payload or a sink error poisons the writer with a typed
// error (sticky: later sections are ignored and Finish returns it) instead
// of silently truncating the 32-bit v1 length.
class SnapshotWriter {
 public:
  // Buffers the file in memory. `container_version` is 1 or 2.
  // `max_section_payload` overrides the version's payload cap — tests
  // inject a tiny cap to exercise the overflow guard without materializing
  // gigabyte payloads; 0 keeps the default (v1: kMaxSnapshotSectionPayloadV1,
  // v2: unbounded 64-bit).
  explicit SnapshotWriter(uint64_t container_version = 1,
                          uint64_t max_section_payload = 0);
  // Streams every frame to `sink`, magic first.
  SnapshotWriter(uint64_t container_version, SnapshotSink sink);

  void AddSection(SnapshotSectionType type, std::string_view payload);
  // One section whose payload is the concatenation of `pieces`.
  void AddSection(SnapshotSectionType type, const std::vector<std::string_view>& pieces);
  // A table section in this container's table payload format: v1 encodes
  // the varint payload, v2 frames the header and the column arrays in place.
  void AddTableSection(const Table& table);

  // Grows the in-memory buffer once instead of doubling through the adds;
  // `total_bytes` should be the sum of framed section sizes.
  void Reserve(size_t total_bytes);

  // Appends the end section. Returns the complete file bytes when
  // buffering, an empty string when streaming, or the sticky error if any
  // section failed.
  Result<std::string> Finish();

  const Status& status() const { return status_; }
  // Bytes framed so far, magic included.
  uint64_t bytes_written() const { return written_; }

 private:
  SnapshotWriter(uint64_t container_version, uint64_t max_section_payload, SnapshotSink sink);
  void Emit(std::string_view bytes);

  uint64_t version_ = 1;
  uint64_t max_payload_ = 0;
  SnapshotSink sink_;  // Empty when buffering into out_.
  Status status_;
  std::string out_;
  uint64_t written_ = 0;
  uint32_t next_seq_ = 0;
};

// How much of a snapshot the strict scan checksums. kVerifyAll is the
// doctor/ingest-validation mode; kVerifyHeaders is the zero-copy load mode
// for v2 — frame structure and header CRCs verify, payload CRCs are
// deferred to VerifySectionPayloadCrc (v1 has no split: its one CRC covers
// the payload, so v1 always verifies fully).
enum class SnapshotScanMode {
  kVerifyAll,
  kVerifyHeaders,
};

// Strict parse of a whole snapshot (either container version): magic,
// structure, CRCs per `mode`, contiguous sequence numbers, and a correct
// end section are all required. Returns the sections in file order, end
// section excluded; payloads view into `bytes`.
Result<std::vector<SnapshotSection>> ScanSnapshotSections(
    std::string_view bytes, SnapshotScanMode mode = SnapshotScanMode::kVerifyAll);

// Lenient walk for diagnostics (lockdoc doctor): records every section's
// status instead of stopping at the first fault, resynchronizing on the
// frame marker after damage like the trace salvage reader.
struct SnapshotSectionReport {
  uint64_t offset = 0;  // Of the frame marker.
  uint8_t type = 0;
  uint32_t seq = 0;
  uint64_t payload_size = 0;
  std::string problem;  // Empty when the section verified.
  // CRC-intact section of a type this build does not know (a future
  // writer's extension). Skipped by the loader, reported as "unrecognized
  // (skipped)" by doctor — forward compatibility, not damage.
  bool unrecognized = false;

  bool ok() const { return problem.empty(); }
};

struct SnapshotInspection {
  uint64_t file_size = 0;
  uint64_t container_version = 0;  // 1, 2, or 0 when the magic is bad.
  bool magic_ok = false;
  std::vector<SnapshotSectionReport> sections;
  bool end_ok = false;           // Intact end section with a correct count.
  uint64_t declared_sections = 0;  // From the end section when readable.
  // Bytes not covered by any verified frame: gaps between sections or
  // trailing garbage after the end section. The strict reader rejects both.
  uint64_t stray_bytes = 0;

  size_t sections_ok() const;
  size_t sections_bad() const;
  // True when the snapshot would load: magic, all sections, and the
  // terminator verified.
  bool clean() const;
  // Multi-line diagnostic block.
  std::string ToString() const;
};

SnapshotInspection InspectSnapshot(std::string_view bytes);

// Container-level repair (`lockdoc doctor FILE.lockdb --repair OUT`): walks
// the damaged container like InspectSnapshot, keeps every section whose CRC
// verifies, and re-emits them in file order with fresh contiguous sequence
// numbers, CRCs, and end section — in the same container version the input
// declared. The result is always a *structurally* clean container; whether
// it still loads depends on which sections survived (a dropped meta or
// strings section is fatal to payload decoding, a dropped table section is
// not). Mirrors the trace doctor's --repair, which re-writes the salvaged
// events as a fresh v2 file.
struct SnapshotRepairResult {
  std::string bytes;         // Empty when not even the magic survived.
  size_t sections_kept = 0;
  // One human-readable line per section that could not be carried over
  // ("[3] offset 0x... table: crc mismatch").
  std::vector<std::string> dropped;

  bool salvageable() const { return !bytes.empty() && sections_kept > 0; }
};

SnapshotRepairResult RepairSnapshotBytes(std::string_view bytes);

// Magic sniffers so CLI commands accept a trace or a snapshot and decide by
// content, not file extension. Both container versions match.
bool LooksLikeSnapshot(std::string_view bytes);
// 1, 2, or 0 when `bytes` does not start with a .lockdb magic.
uint64_t SnapshotContainerVersion(std::string_view bytes);
// Reads just the first bytes of `path`; false on unreadable files.
bool IsSnapshotFile(const std::string& path);

// --- Section payload codecs for the db layer ---

// Strings section: varint count, then each string length-prefixed, id order.
// Shared between v1 and v2 (strings are always decoded into memory).
std::string EncodeStringsSection(const StringPool& pool);
Status DecodeStringsSection(std::string_view payload, StringPool* pool);

// v1 table section: name, column definitions, indexed columns, then the
// rows column-major (u64 varints, f64 raw 8-byte LE bits, strings
// length-prefixed). Decoding creates the table in `db` (the name must not
// exist yet) and declares its indexes (built lazily on first lookup).
std::string EncodeTableSection(const Table& table);
Status DecodeTableSection(std::string_view payload, Database* db);

// v2 table section: same varint-encoded header (name, columns, indexed,
// row count) zero-padded to an 8-byte boundary, then u64/f64 columns as raw
// 8-byte LE arrays in column order — viewable in place when the payload is
// 8-aligned and the host is little-endian — and string columns
// length-prefixed at the end. SnapshotWriter::AddTableSection frames it
// from the table's own column memory. `DecodeTableSectionV2` attaches
// u64/f64 columns as zero-copy views into `payload` when `zero_copy` is set
// (the caller guarantees the backing bytes outlive the database);
// otherwise it copies.
Status DecodeTableSectionV2(std::string_view payload, bool zero_copy, Database* db);

}  // namespace lockdoc

#endif  // SRC_DB_SNAPSHOT_H_
