#include "src/db/column.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "src/util/logging.h"

namespace lockdoc {
namespace {

template <typename To, typename From>
void Store(const From* values, size_t count, char* out) {
  constexpr From kFromNull = std::numeric_limits<From>::max();
  constexpr To kToNull = std::numeric_limits<To>::max();
  for (size_t i = 0; i < count; ++i) {
    const To value = values[i] == kFromNull ? kToNull : static_cast<To>(values[i]);
    std::memcpy(out + i * sizeof(To), &value, sizeof(To));
  }
}

}  // namespace

uint8_t NarrowestColumnWidth(ColumnView values) {
  const uint64_t max = values.Visit([&values](const auto* data) {
    using T = std::remove_cv_t<std::remove_pointer_t<decltype(data)>>;
    T max = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      if (data[i] != std::numeric_limits<T>::max()) {
        max = std::max(max, data[i]);
      }
    }
    return static_cast<uint64_t>(max);
  });
  if (max < UINT8_MAX) {
    return 1;
  }
  if (max < UINT16_MAX) {
    return 2;
  }
  return max < UINT32_MAX ? 4 : 8;
}

void StoreColumnValues(ColumnView values, size_t begin, size_t count, uint8_t width, char* out) {
  LOCKDOC_CHECK(begin + count <= values.size() && IsColumnWidth(width));
  values.Slice(begin, begin + count).Visit([&](const auto* data) {
    switch (width) {
      case 1:
        return Store<uint8_t>(data, count, out);
      case 2:
        return Store<uint16_t>(data, count, out);
      case 4:
        return Store<uint32_t>(data, count, out);
      default:
        return Store<uint64_t>(data, count, out);
    }
  });
}

}  // namespace lockdoc
