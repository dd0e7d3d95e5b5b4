#include "src/util/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LOCKDOC_CRC32_PCLMUL 1
#include <immintrin.h>
#endif

namespace lockdoc {
namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;

// Slice-by-8: eight tables so the inner loop folds 8 input bytes per
// iteration instead of 1. kTables[0] is the classic byte-at-a-time table;
// kTables[k][b] is the CRC of byte b followed by k zero bytes.
constexpr std::array<std::array<uint32_t, 256>, 8> MakeTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPolynomial : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      tables[k][i] = (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xff];
    }
  }
  return tables;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kTables = MakeTables();

#ifdef LOCKDOC_CRC32_PCLMUL

bool HavePclmul() {
  static const bool have =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return have;
}

// Carry-less-multiply bulk path (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ", Intel 2009): the message is treated
// as a polynomial over GF(2) and folded 512 bits at a time, so the hot loop
// retires four 16-byte lanes per iteration instead of 8 table lookups per
// 8 bytes. The constants are x^k mod P (bit-reflected) for the fold
// distances and the Barrett reduction of the IEEE polynomial; the result is
// bit-identical to the slice-by-8 loop. `crc` is the in-flight state
// (already inverted) and `size` must be a non-zero multiple of 64.
__attribute__((target("pclmul,sse4.1"))) uint32_t Crc32PclmulBlocks(
    uint32_t crc, const unsigned char* bytes, size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);  // x^576, x^512
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);  // x^128, x^192
  const __m128i k5 = _mm_cvtsi64_si128(0x0163cd6124);               // x^96
  const __m128i barrett = _mm_set_epi64x(0x01f7011641, 0x01db710641);  // mu, P'
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes));
  __m128i x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 16));
  __m128i x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 32));
  __m128i x4 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 48));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(crc)));
  bytes += 64;
  size -= 64;

  while (size >= 64) {
    __m128i t1 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
    __m128i t2 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
    __m128i t3 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
    __m128i t4 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
    x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
    x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
    x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, t1),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes)));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, t2),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 16)));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, t3),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 32)));
    x4 = _mm_xor_si128(_mm_xor_si128(x4, t4),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 48)));
    bytes += 64;
    size -= 64;
  }

  // Fold the four lanes into one.
  __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, t), x2);
  t = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, t), x3);
  t = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, t), x4);

  // 128 -> 64 bits.
  t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  // 64 -> 32 bits.
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, low32);
  x1 = _mm_clmulepi64_si128(x1, k5, 0x00);
  x1 = _mm_xor_si128(x1, t);
  // Barrett reduction modulo P.
  t = _mm_and_si128(x1, low32);
  t = _mm_clmulepi64_si128(t, barrett, 0x10);
  t = _mm_and_si128(t, low32);
  t = _mm_clmulepi64_si128(t, barrett, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<uint32_t>(_mm_extract_epi32(x1, 1));
}

#endif  // LOCKDOC_CRC32_PCLMUL

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  crc = ~crc;
  // Align to 8 so the wide loads below stay within the buffer.
  while (size != 0 && (reinterpret_cast<uintptr_t>(bytes) & 7) != 0) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *bytes++) & 0xff];
    --size;
  }
#ifdef LOCKDOC_CRC32_PCLMUL
  // Below ~2 blocks the fold prologue/epilogue costs more than it saves.
  if (size >= 128 && HavePclmul()) {
    size_t bulk = size & ~size_t{63};
    crc = Crc32PclmulBlocks(crc, bytes, bulk);
    bytes += bulk;
    size -= bulk;
  }
#endif
  while (size >= 8) {
    uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    // Little-endian fold: the low word absorbs the running CRC.
    word ^= crc;
    crc = kTables[7][word & 0xff] ^ kTables[6][(word >> 8) & 0xff] ^
          kTables[5][(word >> 16) & 0xff] ^ kTables[4][(word >> 24) & 0xff] ^
          kTables[3][(word >> 32) & 0xff] ^ kTables[2][(word >> 40) & 0xff] ^
          kTables[1][(word >> 48) & 0xff] ^ kTables[0][(word >> 56) & 0xff];
    bytes += 8;
    size -= 8;
  }
  while (size != 0) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *bytes++) & 0xff];
    --size;
  }
  return ~crc;
}

}  // namespace lockdoc
