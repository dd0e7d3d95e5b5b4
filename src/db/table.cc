#include "src/db/table.h"

#include <algorithm>
#include <numeric>
#include <ostream>

#include "src/util/csv.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace lockdoc {

Table::Table(std::string name, std::vector<ColumnDef> columns)
    : name_(std::move(name)),
      columns_(std::move(columns)),
      storage_(columns_.size()),
      indexes_(columns_.size()) {
  LOCKDOC_CHECK(!columns_.empty());
}

Table::Table(Table&& other) noexcept
    : name_(std::move(other.name_)),
      columns_(std::move(other.columns_)),
      storage_(std::move(other.storage_)),
      row_count_(other.row_count_),
      indexes_(std::move(other.indexes_)) {
  other.row_count_ = 0;
}

Table& Table::operator=(Table&& other) noexcept {
  if (this != &other) {
    name_ = std::move(other.name_);
    columns_ = std::move(other.columns_);
    storage_ = std::move(other.storage_);
    row_count_ = other.row_count_;
    indexes_ = std::move(other.indexes_);
    other.row_count_ = 0;
  }
  return *this;
}

size_t Table::ColumnIndex(std::string_view column_name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == column_name) {
      return i;
    }
  }
  LOCKDOC_CHECK(false && "unknown column");
  return 0;
}

void Table::MaterializeColumn(size_t column) {
  ColumnData& data = storage_[column];
  if (!data.is_view()) {
    return;
  }
  if (data.u64_view != nullptr) {
    data.u64.assign(data.u64_view, data.u64_view + data.view_rows);
    data.u64_view = nullptr;
  }
  if (data.f64_view != nullptr) {
    data.f64.assign(data.f64_view, data.f64_view + data.view_rows);
    data.f64_view = nullptr;
  }
  data.view_rows = 0;
}

RowId Table::Insert(const std::vector<DbValue>& values) {
  LOCKDOC_CHECK(values.size() == columns_.size());
  RowId row = row_count_;
  for (size_t i = 0; i < values.size(); ++i) {
    LOCKDOC_CHECK(DbValueType(values[i]) == columns_[i].type);
    MaterializeColumn(i);
    switch (columns_[i].type) {
      case ColumnType::kUint64:
        storage_[i].u64.push_back(std::get<uint64_t>(values[i]));
        break;
      case ColumnType::kDouble:
        storage_[i].f64.push_back(std::get<double>(values[i]));
        break;
      case ColumnType::kString:
        storage_[i].str.push_back(std::get<std::string>(values[i]));
        break;
    }
  }
  ++row_count_;
  ForgetIndexOrders();
  return row;
}

uint64_t Table::GetUint64(RowId row, size_t column) const {
  LOCKDOC_CHECK(row < row_count_ && column < columns_.size());
  LOCKDOC_CHECK(columns_[column].type == ColumnType::kUint64);
  const ColumnData& data = storage_[column];
  return data.u64_view != nullptr ? data.u64_view[row] : data.u64[row];
}

double Table::GetDouble(RowId row, size_t column) const {
  LOCKDOC_CHECK(row < row_count_ && column < columns_.size());
  LOCKDOC_CHECK(columns_[column].type == ColumnType::kDouble);
  const ColumnData& data = storage_[column];
  return data.f64_view != nullptr ? data.f64_view[row] : data.f64[row];
}

const std::string& Table::GetString(RowId row, size_t column) const {
  LOCKDOC_CHECK(row < row_count_ && column < columns_.size());
  LOCKDOC_CHECK(columns_[column].type == ColumnType::kString);
  return storage_[column].str[row];
}

void Table::SetUint64(RowId row, size_t column, uint64_t value) {
  LOCKDOC_CHECK(row < row_count_ && column < columns_.size());
  LOCKDOC_CHECK(columns_[column].type == ColumnType::kUint64);
  MaterializeColumn(column);
  if (storage_[column].u64[row] == value) {
    return;
  }
  storage_[column].u64[row] = value;
  ForgetIndexOrder(column);
}

const uint64_t* Table::ColumnU64Data(size_t column) const {
  LOCKDOC_CHECK(column < columns_.size());
  LOCKDOC_CHECK(columns_[column].type == ColumnType::kUint64);
  const ColumnData& data = storage_[column];
  return data.u64_view != nullptr ? data.u64_view : data.u64.data();
}

const double* Table::ColumnF64Data(size_t column) const {
  LOCKDOC_CHECK(column < columns_.size());
  LOCKDOC_CHECK(columns_[column].type == ColumnType::kDouble);
  const ColumnData& data = storage_[column];
  return data.f64_view != nullptr ? data.f64_view : data.f64.data();
}

void Table::CreateIndex(size_t column) {
  LOCKDOC_CHECK(column < columns_.size());
  LOCKDOC_CHECK(columns_[column].type == ColumnType::kUint64);
  if (indexes_[column] == nullptr) {
    indexes_[column] = std::make_unique<std::atomic<IndexState>>(IndexState::kUnchecked);
  }
  ForgetIndexOrder(column);
}

bool Table::HasIndex(size_t column) const {
  return column < indexes_.size() && indexes_[column] != nullptr;
}

void Table::ForgetIndexOrder(size_t column) {
  if (indexes_[column] != nullptr) {
    indexes_[column]->store(IndexState::kUnchecked, std::memory_order_relaxed);
  }
}

void Table::ForgetIndexOrders() {
  for (size_t column = 0; column < indexes_.size(); ++column) {
    ForgetIndexOrder(column);
  }
}

Table::IndexState Table::CheckIndexOrder(size_t column) const {
  // The result depends on the rows alone, so threads racing the first
  // lookup compute and store the same value.
  std::atomic<IndexState>& index = *indexes_[column];
  IndexState state = index.load(std::memory_order_relaxed);
  if (state == IndexState::kUnchecked) {
    const uint64_t* data = ColumnU64Data(column);
    state = std::is_sorted(data, data + row_count_) ? IndexState::kSorted : IndexState::kUnsorted;
    index.store(state, std::memory_order_relaxed);
  }
  return state;
}

std::vector<RowId> Table::LookupEqual(size_t column, uint64_t value) const {
  LOCKDOC_CHECK(column < columns_.size());
  LOCKDOC_CHECK(columns_[column].type == ColumnType::kUint64);
  const uint64_t* data = ColumnU64Data(column);
  std::vector<RowId> result;
  if (indexes_[column] != nullptr && CheckIndexOrder(column) == IndexState::kSorted) {
    auto [lo, hi] = std::equal_range(data, data + row_count_, value);
    result.resize(static_cast<size_t>(hi - lo));
    std::iota(result.begin(), result.end(), static_cast<RowId>(lo - data));
    return result;
  }
  for (RowId row = 0; row < row_count_; ++row) {
    if (data[row] == value) {
      result.push_back(row);
    }
  }
  return result;
}

void Table::Scan(const std::function<bool(RowId)>& fn) const {
  for (RowId row = 0; row < row_count_; ++row) {
    if (!fn(row)) {
      return;
    }
  }
}

void Table::ExportCsv(std::ostream& out) const {
  CsvWriter writer(out);
  std::vector<std::string> header;
  header.reserve(columns_.size());
  for (const ColumnDef& def : columns_) {
    header.push_back(def.name);
  }
  writer.WriteRow(header);
  std::vector<std::string> row_text(columns_.size());
  for (RowId row = 0; row < row_count_; ++row) {
    for (size_t i = 0; i < columns_.size(); ++i) {
      switch (columns_[i].type) {
        case ColumnType::kUint64:
          row_text[i] = std::to_string(GetUint64(row, i));
          break;
        case ColumnType::kDouble:
          row_text[i] = StrFormat("%.17g", GetDouble(row, i));
          break;
        case ColumnType::kString:
          row_text[i] = storage_[i].str[row];
          break;
      }
    }
    writer.WriteRow(row_text);
  }
}

Status Table::ImportCsv(std::string_view document) {
  auto parsed = ParseCsv(document);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const auto& rows = parsed.value();
  if (rows.empty()) {
    return Status::Error("ImportCsv: missing header row");
  }
  if (rows[0].size() != columns_.size()) {
    return Status::Error("ImportCsv: header arity mismatch in table " + name_);
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (rows[0][i] != columns_[i].name) {
      return Status::Error("ImportCsv: header column '" + rows[0][i] + "' does not match '" +
                           columns_[i].name + "'");
    }
  }

  // Clear current contents (views included).
  for (ColumnData& column : storage_) {
    column = ColumnData{};
  }
  row_count_ = 0;
  ForgetIndexOrders();

  for (size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.size() != columns_.size()) {
      return Status::Error(StrFormat("ImportCsv: row %zu arity mismatch", r));
    }
    std::vector<DbValue> values;
    values.reserve(columns_.size());
    for (size_t i = 0; i < columns_.size(); ++i) {
      switch (columns_[i].type) {
        case ColumnType::kUint64: {
          uint64_t value = 0;
          if (!ParseUint64(row[i], &value)) {
            return Status::Error(StrFormat("ImportCsv: row %zu column %zu: bad uint64", r, i));
          }
          values.emplace_back(value);
          break;
        }
        case ColumnType::kDouble: {
          double value = 0;
          if (!ParseDouble(row[i], &value)) {
            return Status::Error(StrFormat("ImportCsv: row %zu column %zu: bad double", r, i));
          }
          values.emplace_back(value);
          break;
        }
        case ColumnType::kString:
          values.emplace_back(row[i]);
          break;
      }
    }
    Insert(values);
  }
  return Status::Ok();
}

const ColumnData& Table::column_data(size_t column) const {
  LOCKDOC_CHECK(column < columns_.size());
  return storage_[column];
}

void Table::ResetRows(size_t row_count, std::vector<ColumnData> storage) {
  LOCKDOC_CHECK(storage.size() == columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    const ColumnData& column = storage[i];
    size_t rows = column.is_view() ? column.view_rows : 0;
    switch (columns_[i].type) {
      case ColumnType::kUint64:
        if (column.is_view()) {
          LOCKDOC_CHECK(column.u64_view != nullptr && rows == row_count &&
                        column.u64.empty() && column.f64.empty() && column.str.empty());
        } else {
          LOCKDOC_CHECK(column.u64.size() == row_count && column.f64.empty() &&
                        column.str.empty());
        }
        break;
      case ColumnType::kDouble:
        if (column.is_view()) {
          LOCKDOC_CHECK(column.f64_view != nullptr && rows == row_count &&
                        column.f64.empty() && column.u64.empty() && column.str.empty());
        } else {
          LOCKDOC_CHECK(column.f64.size() == row_count && column.u64.empty() &&
                        column.str.empty());
        }
        break;
      case ColumnType::kString:
        LOCKDOC_CHECK(!column.is_view() && column.str.size() == row_count &&
                      column.u64.empty() && column.f64.empty());
        break;
    }
  }
  storage_ = std::move(storage);
  row_count_ = row_count;
  ForgetIndexOrders();
}

std::vector<size_t> Table::IndexedColumns() const {
  std::vector<size_t> columns;
  for (size_t column = 0; column < indexes_.size(); ++column) {
    if (indexes_[column] != nullptr) {
      columns.push_back(column);
    }
  }
  return columns;
}

}  // namespace lockdoc
