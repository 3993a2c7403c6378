#include "src/serial/crc32.hpp"

#include <array>
#include <cstddef>
#include <cstring>

namespace splitmed {

namespace {

constexpr std::uint32_t kPoly = 0xEDB88320U;
constexpr std::size_t kSlices = 16;

using Tables = std::array<std::array<std::uint32_t, 256>, kSlices>;

// Table 0 is the byte-at-a-time table. Table k maps byte i to the register
// contribution of i followed by k zero bytes, so one lookup per byte of a
// 16-byte block, each in its own table, folds the whole block at once.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1U) != 0 ? kPoly ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < kSlices; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = t[0][prev & 0xFFU] ^ (prev >> 8);
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

// Folds one little-endian word whose first byte sits `k` bytes before the
// end of the block: its bytes use tables k, k-1, k-2, k-3.
inline std::uint32_t fold_word(std::size_t k, std::uint32_t word) {
  return kTables[k][word & 0xFFU] ^ kTables[k - 1][(word >> 8) & 0xFFU] ^
         kTables[k - 2][(word >> 16) & 0xFFU] ^ kTables[k - 3][word >> 24];
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes, std::uint32_t seed) {
  std::uint32_t c = ~seed;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  // The block loads are little-endian words (src/serial/buffer.cpp asserts
  // a little-endian host).
  for (; n >= kSlices; p += kSlices, n -= kSlices) {
    std::uint32_t w[4];
    std::memcpy(w, p, sizeof w);
    c = fold_word(15, w[0] ^ c) ^ fold_word(11, w[1]) ^ fold_word(7, w[2]) ^
        fold_word(3, w[3]);
  }
  for (; n > 0; --n, ++p) {
    c = kTables[0][(c ^ *p) & 0xFFU] ^ (c >> 8);
  }
  return ~c;
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  return crc32(bytes, 0);
}

}  // namespace splitmed
