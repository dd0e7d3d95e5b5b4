// Numeric columns at the width their values need.
//
// The .lockdb stores every numeric array — table columns and the
// observation-group arrays alike — at the narrowest width w in {1, 2, 4, 8}
// bytes at which every non-null value is below 2^(8w) - 1. At w < 8 the
// all-ones value stands for kDbNull; w = 8 holds values verbatim, so the
// same rule reads both. A ColumnView reads such an array in place and widens
// every value back to the u64 it was written from; owned u64 vectors are
// viewed at width 8.
#ifndef SRC_DB_COLUMN_H_
#define SRC_DB_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "src/db/value.h"

namespace lockdoc {

// True for the widths a column can be stored at.
constexpr bool IsColumnWidth(uint64_t width) {
  return width == 1 || width == 2 || width == 4 || width == 8;
}

// A stored value widened to u64: T's all-ones value is kDbNull.
template <typename T>
constexpr uint64_t WidenColumnValue(T value) {
  return value == std::numeric_limits<T>::max() ? kDbNull : static_cast<uint64_t>(value);
}

// A read-only view of `size` numeric values stored `width` bytes apart. The
// memory must be aligned to the width and outlive the view.
class ColumnView {
 public:
  class Iterator;

  ColumnView() = default;
  ColumnView(const void* data, uint8_t width, size_t size)
      : data_(data), width_(width), size_(size) {}
  explicit ColumnView(const std::vector<uint64_t>& values)
      : data_(values.data()), width_(sizeof(uint64_t)), size_(values.size()) {}

  size_t size() const { return size_; }
  uint8_t width() const { return width_; }
  const void* data() const { return data_; }

  uint64_t operator[](size_t index) const {
    switch (width_) {
      case 1:
        return WidenColumnValue(static_cast<const uint8_t*>(data_)[index]);
      case 2:
        return WidenColumnValue(static_cast<const uint16_t*>(data_)[index]);
      case 4:
        return WidenColumnValue(static_cast<const uint32_t*>(data_)[index]);
      default:
        return static_cast<const uint64_t*>(data_)[index];
    }
  }

  // The values [begin, end).
  ColumnView Slice(size_t begin, size_t end) const {
    return ColumnView(static_cast<const char*>(data_) + begin * width_, width_, end - begin);
  }

  // Calls fn(values) with the typed array (const uint8_t* up to const
  // uint64_t*) and returns its result: the one width switch of a loop that
  // reads many values. Widen each value with WidenColumnValue.
  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) const {
    switch (width_) {
      case 1:
        return fn(static_cast<const uint8_t*>(data_));
      case 2:
        return fn(static_cast<const uint16_t*>(data_));
      case 4:
        return fn(static_cast<const uint32_t*>(data_));
      default:
        return fn(static_cast<const uint64_t*>(data_));
    }
  }

  Iterator begin() const;
  Iterator end() const;

 private:
  const void* data_ = nullptr;
  uint8_t width_ = sizeof(uint64_t);
  size_t size_ = 0;
};

// Yields the widened values in order.
class ColumnView::Iterator {
 public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = uint64_t;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = uint64_t;

  Iterator() = default;
  Iterator(ColumnView view, size_t index) : view_(view), index_(index) {}

  uint64_t operator*() const { return view_[index_]; }
  Iterator& operator++() {
    ++index_;
    return *this;
  }
  Iterator operator++(int) {
    Iterator before = *this;
    ++index_;
    return before;
  }
  friend bool operator==(const Iterator& a, const Iterator& b) { return a.index_ == b.index_; }

 private:
  ColumnView view_;
  size_t index_ = 0;
};

inline ColumnView::Iterator ColumnView::begin() const { return Iterator(*this, 0); }
inline ColumnView::Iterator ColumnView::end() const { return Iterator(*this, size_); }

// The narrowest width at which every non-null value of `values` is below
// the width's all-ones value. Depends only on the values.
uint8_t NarrowestColumnWidth(ColumnView values);

// Stores values [begin, begin + count) at `width` bytes each into `out`;
// kDbNull becomes the width's all-ones value. `width` must hold every
// non-null value (NarrowestColumnWidth or wider).
void StoreColumnValues(ColumnView values, size_t begin, size_t count, uint8_t width, char* out);

}  // namespace lockdoc

#endif  // SRC_DB_COLUMN_H_
