// A column-oriented table with equality indexes.
//
// Numeric columns can be *view-backed*: instead of owning a vector they
// point into an externally owned buffer (an mmap-ed .lockdb snapshot), where
// a u64 column is stored at the width its values need (src/db/column.h).
// Views are copy-on-write — any mutation (Insert, SetUint64, ImportCsv)
// widens the affected columns into owned u64 vectors first — so readers
// never observe a half-owned column. The buffer behind a view must outlive
// the table; src/core keeps the snapshot backing alive on AnalysisSnapshot.
//
// Indexes are declared eagerly and checked lazily: the first LookupEqual
// against an indexed column checks once whether the column is
// non-decreasing. Lookups rely on that key order. The importer writes every
// looked-up column in key order (tests/db/table_test.cc pins this for a
// loaded snapshot), so on real inputs the column itself is the index and
// each lookup is a binary search over it, owned or mapped, at its stored
// width. A column found unordered (only hand-built tables in tests produce
// one) is scanned. The check result is published through an atomic, so
// concurrent read-only lookups are safe; mutation remains single-threaded
// and simply forgets the result.
#ifndef SRC_DB_TABLE_H_
#define SRC_DB_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/db/column.h"
#include "src/db/value.h"
#include "src/util/status.h"

namespace lockdoc {

struct ColumnDef {
  std::string name;
  ColumnType type = ColumnType::kUint64;
};

// Column-major storage for one column; only the vector (or view) matching
// the column's declared type is populated. A numeric column is view-backed
// when `view` is set: `view_rows` values of `width` bytes each (always 8
// for a kDouble column), and the owned vector is empty. Owned u64 columns
// are full width.
struct ColumnData {
  std::vector<uint64_t> u64;
  std::vector<double> f64;
  std::vector<std::string> str;
  const void* view = nullptr;
  uint8_t width = sizeof(uint64_t);
  size_t view_rows = 0;

  bool is_view() const { return view != nullptr; }
};

class Table {
 public:
  Table(std::string name, std::vector<ColumnDef> columns);

  // Movable; the moved-from table has no rows.
  // Moving a table that another thread is concurrently reading is a data
  // race, same as any other mutation.
  Table(Table&& other) noexcept;
  Table& operator=(Table&& other) noexcept;

  const std::string& name() const { return name_; }
  size_t column_count() const { return columns_.size(); }
  size_t row_count() const { return row_count_; }
  const std::vector<ColumnDef>& columns() const { return columns_; }

  // Returns the index of a column by name; CHECK-fails on unknown names
  // (schema errors are programming errors, not data errors).
  size_t ColumnIndex(std::string_view column_name) const;

  // Appends a row; values must match the schema's arity and types.
  // Materializes any view-backed columns.
  RowId Insert(const std::vector<DbValue>& values);

  // Typed accessors; column type must match.
  uint64_t GetUint64(RowId row, size_t column) const;
  double GetDouble(RowId row, size_t column) const;
  const std::string& GetString(RowId row, size_t column) const;

  void SetUint64(RowId row, size_t column, uint64_t value);

  // A kUint64 column at its stored width, owned or viewed: the read path of
  // loops over a loaded table.
  ColumnView Column(size_t column) const;
  // Contiguous u64 storage of an *owned* kUint64 column (CHECKed), valid
  // for row_count() elements: extraction's reads of a freshly imported
  // table.
  const uint64_t* ColumnU64Data(size_t column) const;
  // Contiguous storage of a kDouble column, owned or viewed.
  const double* ColumnF64Data(size_t column) const;

  // Declares an equality index over a kUint64 column. The first
  // LookupEqual against the column checks its order; Insert, SetUint64 and
  // ResetRows forget the result, and the next lookup checks the rows as
  // they are then.
  void CreateIndex(size_t column);
  bool HasIndex(size_t column) const;

  // All rows whose `column` equals `value`, ascending; binary-searches an
  // indexed column that is in key order, otherwise scans, at the column's
  // stored width (a value the width cannot hold is in no row). Safe to call
  // concurrently with other const methods.
  std::vector<RowId> LookupEqual(size_t column, uint64_t value) const;

  // Calls `fn` for each row id; returning false stops the scan.
  void Scan(const std::function<bool(RowId)>& fn) const;

  // CSV round-trip (header = column names). Import replaces table contents.
  void ExportCsv(std::ostream& out) const;
  Status ImportCsv(std::string_view document);

  // Raw column-major storage, for binary serialization (.lockdb snapshots).
  const ColumnData& column_data(size_t column) const;

  // Replaces all rows with column-major storage; `storage` must have one
  // entry per column whose populated vector *or view* matches the column
  // type and has `row_count` elements. Declared indexes are kept and
  // re-check the new rows' order on their next lookup.
  void ResetRows(size_t row_count, std::vector<ColumnData> storage);

  // Columns with a declared index, ascending — part of a snapshot so a
  // loaded table answers LookupEqual exactly like the one that was saved.
  std::vector<size_t> IndexedColumns() const;

 private:
  // What the first lookup on an indexed column found out about its order.
  enum class IndexState : uint8_t {
    kUnchecked,
    kSorted,    // The column is non-decreasing: it is its own index.
    kUnsorted,  // Lookups scan.
  };

  // Widens a view-backed column into owned storage (no-op when owned).
  void MaterializeColumn(size_t column);
  // Checks the order of an indexed `column` if not checked yet; returns
  // the result.
  IndexState CheckIndexOrder(size_t column) const;
  // Forgets the order check of `column` (no-op without an index), or of
  // every column.
  void ForgetIndexOrder(size_t column);
  void ForgetIndexOrders();

  std::string name_;
  std::vector<ColumnDef> columns_;
  std::vector<ColumnData> storage_;
  size_t row_count_ = 0;
  // One slot per column, null when the column has no declared index.
  // unique_ptr keeps the atomics' addresses stable (atomics are not movable).
  std::vector<std::unique_ptr<std::atomic<IndexState>>> indexes_;
};

}  // namespace lockdoc

#endif  // SRC_DB_TABLE_H_
