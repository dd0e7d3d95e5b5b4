// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected) used to guard the
// framed v2 trace format against corruption. Incremental API so frames can
// be checksummed while streaming.
#ifndef SRC_UTIL_CRC32_H_
#define SRC_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace lockdoc {

// Extends a running CRC with `size` bytes. Start with `crc` = 0; the result
// of one call feeds the next.
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);

// One-shot convenience.
inline uint32_t Crc32(const void* data, size_t size) {
  return Crc32Update(0, data, size);
}
inline uint32_t Crc32(std::string_view bytes) {
  return Crc32Update(0, bytes.data(), bytes.size());
}

}  // namespace lockdoc

#endif  // SRC_UTIL_CRC32_H_
