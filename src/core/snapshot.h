// Serialization of a full AnalysisSnapshot to and from the .lockdb
// container (src/db/snapshot.h): the import-once / analyze-many boundary.
// `lockdoc import` writes one; every analysis command loads one instead of
// re-importing the trace.
//
// Section order is fixed — meta, strings, one table section per database
// table in name order, pool, seqs, groups, end — and every payload is
// emitted from deterministically-ordered containers, so serializing the
// same snapshot always yields byte-identical files regardless of the thread
// count that built it. SerializeSnapshotBytes and BuildAndSaveSnapshot frame
// the sections with the same code (SnapshotWriter): one into a string, the
// other straight into the file, so their bytes match by construction.
//
// Two container versions are written and read (docs/lockdb-format.md):
// v1 keeps the original varint payloads; v2 (the default) lays out numeric
// table columns and the observation id-sequences/groups as fixed-width
// little-endian arrays, 8-byte aligned, so LoadSnapshot can mmap the file
// and attach table columns as in-place views (zero-copy) instead of
// decoding them. DeserializeSnapshot falls back to the owned-copy path for
// v1 files automatically.
#ifndef SRC_CORE_SNAPSHOT_H_
#define SRC_CORE_SNAPSHOT_H_

#include <string>
#include <string_view>

#include "src/core/pipeline.h"
#include "src/db/snapshot.h"
#include "src/model/type_registry.h"
#include "src/util/status.h"

namespace lockdoc {

struct SnapshotWriteOptions {
  // 2 writes the zero-copy columnar container, 1 the legacy varint one.
  uint64_t container_version = 2;
};

// Snapshot -> .lockdb bytes. `registry` is the registry the snapshot was
// built with; its type count is recorded in the meta section. Fails with a
// typed error if a section exceeds its container's payload cap (satellite
// of the 32-bit v1 length field).
Result<std::string> SerializeSnapshotBytes(const AnalysisSnapshot& snapshot,
                                           const TypeRegistry& registry,
                                           const SnapshotWriteOptions& options = {});

// Convenience wrapper that CHECK-fails on serialization errors; real
// snapshots sit far below the caps, so callers that just persist a freshly
// built snapshot use this.
std::string SerializeSnapshot(const AnalysisSnapshot& snapshot, const TypeRegistry& registry,
                              const SnapshotWriteOptions& options = {});

// .lockdb bytes -> snapshot (either container version). `registry` must be
// the registry the snapshot was built with; its type count is verified
// against the meta section (a snapshot is only meaningful against its own
// registry). v2 bytes are copied once into an aligned owned buffer so
// numeric table columns can be viewed in place; use LoadSnapshot to map a
// file without that copy.
Result<AnalysisSnapshot> DeserializeSnapshot(std::string_view bytes,
                                             const TypeRegistry& registry);

// Reads just the registry type count from a .lockdb file's meta section,
// without loading (or validating) the rest of the snapshot. Callers use it
// to pick the matching registry before LoadSnapshot — e.g. a snapshot of an
// address-space (mm) workload records more types than the base VFS
// registry.
Result<uint64_t> PeekSnapshotTypeCount(const std::string& path);
Result<uint64_t> PeekSnapshotTypeCountFromBytes(std::string_view bytes);

// Ingest + persist in one overlapped pass: imports `trace`, then streams
// the meta/strings/table sections of the .lockdb file to disk on a writer
// thread *while* the main thread extracts observations; only the three
// observation sections wait for extraction. The file is written atomically
// (temp + fsync + rename) and its bytes are identical to
// SaveSnapshot(BuildSnapshot(...)) — the overlap changes when bytes reach
// the disk, never which bytes. With jobs == 1 the phases run strictly
// sequentially (the serial baseline stays honest). Appends the "database
// import", "observation extraction", and "snapshot save" phases to
// `timings`; the save phase reports only the wall time not hidden behind
// extraction. On any error `path` is untouched.
Result<AnalysisSnapshot> BuildAndSaveSnapshot(const Trace& trace, const TypeRegistry& registry,
                                              const PipelineOptions& options,
                                              const SnapshotWriteOptions& write_options,
                                              const std::string& path,
                                              PipelineTimings* timings = nullptr);

// File conveniences. SaveSnapshot writes atomically (temp + fsync +
// rename). LoadSnapshot mmaps the file: for v2 containers the mapping
// becomes the snapshot's backing and numeric columns are zero-copy views
// into it; v1 containers decode into owned storage and the mapping is
// released before returning.
Status SaveSnapshot(const AnalysisSnapshot& snapshot, const TypeRegistry& registry,
                    const std::string& path, const SnapshotWriteOptions& options = {});
Result<AnalysisSnapshot> LoadSnapshot(const std::string& path, const TypeRegistry& registry);

}  // namespace lockdoc

#endif  // SRC_CORE_SNAPSHOT_H_
