// Shared low-level binary encoding helpers: LEB128-style varints,
// length-prefixed strings, and little-endian fixed-width integers over a
// bounds-checked cursor. Used by both on-disk formats (the framed v2 trace
// in src/trace/trace_io.cc and the .lockdb analysis snapshot in
// src/db/snapshot.cc) so the two readers share one hardened decoder.
#ifndef SRC_UTIL_VARINT_H_
#define SRC_UTIL_VARINT_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace lockdoc {

// Read-only view over a byte buffer. Every accessor is bounds-checked; a
// failed read leaves `pos` wherever the failure was detected so callers can
// report the byte offset.
struct ByteCursor {
  const char* data = nullptr;
  size_t size = 0;
  size_t pos = 0;

  size_t remaining() const { return size - pos; }
  bool Get(uint8_t* byte) {
    if (pos >= size) {
      return false;
    }
    *byte = static_cast<uint8_t>(data[pos++]);
    return true;
  }
  bool Read(void* out, size_t n) {
    if (remaining() < n) {
      return false;
    }
    std::memcpy(out, data + pos, n);
    pos += n;
    return true;
  }
};

void PutVarint(std::string& out, uint64_t value);

// Rejects truncated, overflowing (> 64 bits), and non-canonical (redundant
// trailing zero byte) encodings.
bool GetVarint(ByteCursor& in, uint64_t* value);

// Varint length prefix followed by the raw bytes.
void PutLengthPrefixed(std::string& out, const std::string& text);

// Rejects declared lengths exceeding `max_size` or the bytes actually
// remaining in the input (the allocation is capped *before* resize).
bool GetLengthPrefixed(ByteCursor& in, std::string* text, uint64_t max_size);

void AppendUint32LE(std::string& out, uint32_t value);
uint32_t LoadUint32LE(const char* data);

void AppendUint64LE(std::string& out, uint64_t value);
uint64_t LoadUint64LE(const char* data);

// Writes `value` at `out` (which must have room), for encoders that lay out
// a presized buffer instead of appending.
inline void StoreUint32LE(char* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}
inline void StoreUint64LE(char* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

}  // namespace lockdoc

#endif  // SRC_UTIL_VARINT_H_
