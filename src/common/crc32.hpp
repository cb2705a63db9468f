// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte ranges.
//
// Used by the one binary frame (src/data/frame.*) of checkpoints, shard
// files and tuned configs to detect torn or bit-rotted files before any
// field is trusted. The checksum is standard (verifiable with
// `python3 -c 'import zlib; print(hex(zlib.crc32(data)))'`). Table-driven,
// one byte per step: about 350 MB/s on one core of a 4-core AVX-512 Xeon,
// which is 80-90% of a tile load (12 of 13-15 ms for the 16 tiles, 4.2 MB,
// of a hugewiki-shaped epoch) and 12 of the 14-22 ms that serializing a
// hugewiki-sized checkpoint (10000x100 + 120x100 floats) takes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace cumf {

/// Running CRC-32: feed `crc` from the previous call to continue a stream
/// (start with 0). Matches zlib's crc32().
std::uint32_t crc32(std::uint32_t crc, const void* data, std::size_t n);

inline std::uint32_t crc32(std::string_view bytes) {
  return crc32(0, bytes.data(), bytes.size());
}

}  // namespace cumf
