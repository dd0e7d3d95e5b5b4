#include "src/util/crc32.h"

#include <string>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace lockdoc {
namespace {

TEST(Crc32Test, KnownVectors) {
  // Standard IEEE CRC-32 check values.
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"), 0x414FA339u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  std::string data = "frame payload with some entropy 0123456789";
  uint32_t whole = Crc32(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32Update(0, data.data(), split);
    crc = Crc32Update(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  std::string data(64, '\x5a');
  uint32_t clean = Crc32(data);
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = data;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      EXPECT_NE(Crc32(mutated), clean);
    }
  }
}

TEST(Crc32Test, UnalignedStartsMatchAlignedResult) {
  // The slice-by-8 inner loop peels unaligned leading bytes; the CRC must
  // not depend on where in memory the buffer happens to live.
  std::string data(1024 + 16, '\0');
  Rng rng(11);
  for (char& c : data) {
    c = static_cast<char>(rng.Next());
  }
  for (size_t shift = 0; shift < 8; ++shift) {
    std::string_view window(data.data() + shift, 1024);
    uint32_t direct = Crc32(window);
    uint32_t incremental = 0;
    for (size_t pos = 0; pos < window.size(); pos += 7) {
      incremental = Crc32Update(incremental, window.data() + pos,
                                std::min<size_t>(7, window.size() - pos));
    }
    EXPECT_EQ(direct, incremental) << "shift " << shift;
  }
}

TEST(Crc32Test, EverySizeAcrossTheSimdThresholdMatchesBitwiseReference) {
  // The bulk path switches implementation (table loop vs carry-less
  // multiply folding) at an internal size threshold. Pin every length
  // through and well past it against a first-principles bit-at-a-time CRC
  // so no vectorized variant can diverge on any size or tail shape.
  auto reference = [](std::string_view bytes) {
    uint32_t crc = ~0u;
    for (unsigned char byte : bytes) {
      crc ^= byte;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
      }
    }
    return ~crc;
  };
  Rng rng(17);
  std::string data(1024, '\0');
  for (char& c : data) {
    c = static_cast<char>(rng.Next());
  }
  for (size_t size = 0; size <= data.size(); ++size) {
    std::string_view window(data.data(), size);
    ASSERT_EQ(Crc32(window), reference(window)) << "size " << size;
  }
}

}  // namespace
}  // namespace lockdoc
