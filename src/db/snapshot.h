// The .lockdb snapshot container: a versioned, sectioned, CRC-checksummed
// binary format persisting an imported analysis database so traces are
// imported ONCE and analyzed many times (the paper keeps its MariaDB
// instance around for the same reason, Sec. 5.3).
//
// The layout ("LOCKDB03", full spec: docs/lockdb-format.md) is zero-copy:
// every frame starts at an 8-byte-aligned offset, headers are fixed 32-byte
// blocks with explicit 64-bit payload lengths, and the payload CRC is stored
// in the header so a loader can map the file and defer payload
// checksumming. Every numeric array in a payload is stored at the width its
// values need (src/db/column.h) and padded to 8 bytes, so it is viewed in
// place at that width:
//
//   magic "LOCKDB03" (8 bytes)
//   frame*: marker {0xAB,'L','D',0xF3} | type (1) | pad (3 zero)
//           | seq (4 LE) | length (8 LE, unpadded payload bytes)
//           | payload crc32 (4 LE, over the padded payload)
//           | pad (4 zero) | header crc32 (4 LE, over bytes 4..28)
//           | payload, zero-padded to a multiple of 8
//   end frame (type kSnapshotSectionEnd, payload = u64 LE section count)
//
// Every section is independently verifiable and corruption is localized —
// `lockdoc doctor` reports per-section damage. Header CRCs are always
// verified; payload CRCs are verified eagerly by doctor/repair and by the
// load path. Sections are written in a fixed deterministic order by
// src/core/snapshot.cc; a snapshot's bytes are identical no matter how many
// threads built the analysis. The retired containers ("LOCKDB01", and
// "LOCKDB02" with full-width columns) are recognized only to be rejected
// with a typed error.
//
// This layer knows containers and the db-level payloads (string pool,
// tables); the analysis-level payloads (lock-class pool, interned
// sequences, observation groups) live in src/core/snapshot.h, keeping the
// db -> core dependency direction intact.
#ifndef SRC_DB_SNAPSHOT_H_
#define SRC_DB_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/db/column.h"
#include "src/db/database.h"
#include "src/trace/string_pool.h"
#include "src/util/status.h"
#include "src/util/varint.h"

namespace lockdoc {

constexpr char kSnapshotMagic[8] = {'L', 'O', 'C', 'K', 'D', 'B', '0', '3'};
constexpr uint8_t kSnapshotFrameMarker[4] = {0xAB, 'L', 'D', 0xF3};
// marker + type + pad3 + seq + length64 + payload_crc + pad4 + header_crc.
constexpr size_t kSnapshotFrameHeaderSize = 32;
// Offsets into a frame header (from the marker).
constexpr size_t kSnapshotTypeOffset = 4;
constexpr size_t kSnapshotSeqOffset = 8;
constexpr size_t kSnapshotLengthOffset = 12;
constexpr size_t kSnapshotPayloadCrcOffset = 20;
constexpr size_t kSnapshotHeaderCrcOffset = 28;
// Payloads, and every numeric array inside one, are zero-padded to the next
// 8-byte boundary so every frame header and array stays 8-aligned in the
// mapped file.
constexpr uint64_t PaddedPayloadSize(uint64_t length) { return (length + 7) & ~uint64_t{7}; }
// Payload format version carried in the meta section, pinned by the
// container magic.
constexpr uint64_t kSnapshotFormatVersion = 3;

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
  // Bookkeeping for deferred payload verification: the CRC domain (payload
  // incl. zero padding), the stored CRC, and whether the scan already
  // checked it.
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

// One piece of a section payload: bytes framed as they are, or a numeric
// column stored at `width` bytes per value (the column codec, see
// src/db/column.h) and zero-padded to 8 bytes.
struct PayloadPiece {
  PayloadPiece(std::string_view bytes) : bytes(bytes) {}  // NOLINT: implicit.
  PayloadPiece(ColumnView values, uint8_t width) : values(values), width(width) {}

  std::string_view bytes;
  ColumnView values;
  uint8_t width = 0;  // 0: raw bytes.
};

// Frames sections into the container format. Usage: add each section in
// order, then Finish exactly once. Frames are emitted as they are added:
// into an in-memory buffer that Finish returns, or to a sink. A payload can
// be given in pieces, which are checksummed and emitted in place without
// being joined; a column piece is narrowed through a fixed scratch buffer,
// once for the CRC and once for the bytes, so a table section goes out
// straight from column memory and no narrowed copy of a column is held.
// A sink error poisons the writer (sticky: later sections are ignored and
// Finish returns it); a buffering writer cannot fail.
class SnapshotWriter {
 public:
  // Streams every frame to `sink`, magic first; without a sink, buffers the
  // file in memory.
  explicit SnapshotWriter(SnapshotSink sink = nullptr);

  void AddSection(SnapshotSectionType type, std::string_view payload);
  // One section whose payload is the concatenation of `pieces`.
  void AddSection(SnapshotSectionType type, const std::vector<PayloadPiece>& pieces);
  // A table section: the header and every numeric column at the width its
  // values need.
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
  void Emit(std::string_view bytes);
  // Calls fn(chunk) for the framed bytes of `piece`, in order.
  template <typename Fn>
  void ForEachChunk(const PayloadPiece& piece, Fn&& fn);

  SnapshotSink sink_;  // Empty when buffering into out_.
  std::unique_ptr<char[]> scratch_;  // Column narrowing, allocated on first use.
  Status status_;
  std::string out_;
  uint64_t written_ = 0;
  uint32_t next_seq_ = 0;
};

// How much of a snapshot the strict scan checksums. kVerifyAll is the
// doctor/load mode; kVerifyHeaders (the registry peek) checks frame
// structure and header CRCs and defers table payload CRCs to
// VerifySectionPayloadCrc.
enum class SnapshotScanMode {
  kVerifyAll,
  kVerifyHeaders,
};

// Strict parse of a whole snapshot: magic, structure, CRCs per `mode`,
// contiguous sequence numbers, and a correct end section are all required.
// Returns the sections in file order, end section excluded; payloads view
// into `bytes`.
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
  bool magic_ok = false;  // LOCKDB03; a retired container is not readable.
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
// numbers, CRCs, and end section. The result is always a *structurally* clean container; whether
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
// content, not file extension. The retired magics match too, so a LOCKDB01
// or LOCKDB02 file reaches the snapshot reader and its typed rejection,
// never the trace reader.
bool LooksLikeSnapshot(std::string_view bytes);
// Reads just the first bytes of `path`; false on unreadable files.
bool IsSnapshotFile(const std::string& path);
// Ok() when `bytes` starts with the LOCKDB03 magic. Otherwise the typed
// error: a retired container (re-run `lockdoc import` on its trace) or a
// bad magic.
Status CheckSnapshotMagic(std::string_view bytes);

// --- Section payload codecs for the db layer ---

// Strings section: varint count, then each string length-prefixed, id order
// (strings are always decoded into memory).
std::string EncodeStringsSection(const StringPool& pool);
Status DecodeStringsSection(std::string_view payload, StringPool* pool);

// The column codec's reader: views `rows` values of `width` bytes at the
// cursor (which must sit 8-aligned in an 8-aligned payload) and moves past
// them and their padding. False for a width not in {1, 2, 4, 8} or a
// column that runs past the payload.
bool ReadColumn(ByteCursor& in, uint8_t width, uint64_t rows, ColumnView* column);

// Table section: a varint-encoded header (name, column definitions with
// one width byte per numeric column, indexed columns, row count)
// zero-padded to an 8-byte boundary, then the numeric columns in column
// order — u64 columns at their width, f64 columns at 8 bytes, each padded
// to 8 and viewable in place on a little-endian host — and string columns
// length-prefixed at the end. SnapshotWriter::AddTableSection frames it
// from the table's own column memory. `DecodeTableSection` creates the
// table in `db` (the name must not exist yet), declares its indexes, and
// attaches numeric columns as zero-copy views into `payload`, which must be
// 8-aligned (the caller keeps the backing bytes alive as long as the
// database).
Status DecodeTableSection(std::string_view payload, Database* db);

}  // namespace lockdoc

#endif  // SRC_DB_SNAPSHOT_H_
