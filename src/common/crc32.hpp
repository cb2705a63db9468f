// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte ranges.
//
// Used by the one binary frame (src/data/frame.*) of checkpoints, shard
// files and tuned configs to detect torn or bit-rotted files before any
// field is trusted. The checksum is standard (verifiable with
// `python3 -c 'import zlib; print(hex(zlib.crc32(data)))'`). Slicing-by-8:
// eight table lookups per 8-byte step, about 1.8-2.0 GB/s on one core of a
// 4-core AVX-512 Xeon against 330-370 MB/s for the byte-at-a-time loop
// (bench_ingest's crc32 row), which was 80-90% of a hugewiki-shaped epoch's
// tile loads.
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
