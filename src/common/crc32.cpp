#include "common/crc32.hpp"

#include <array>
#include <cstring>

namespace cumf {

namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// kTables[0] is the classic byte table; kTables[k][b] is the CRC of byte
/// b followed by k zero bytes, so eight lookups advance the CRC by eight
/// bytes at once (slicing-by-8).
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

}  // namespace

std::uint32_t crc32(std::uint32_t crc, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  // Eight bytes per step: the low word is folded into the running CRC and
  // every byte of the step indexes its own table (little-endian loads, the
  // only byte order this codebase targets).
  for (; n >= 8; n -= 8, p += 8) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace cumf
