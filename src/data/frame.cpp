#include "data/frame.hpp"

#include <algorithm>
#include <cstdio>

#include "common/crc32.hpp"

namespace cumf {
namespace {

constexpr std::size_t kMagicBytes = 8;
constexpr std::size_t kHeader = kMagicBytes + 4 + 8;  // + version + length

}  // namespace

const char* to_string(FrameReject reason) {
  switch (reason) {
    case FrameReject::io:
      return "unreadable";
    case FrameReject::bad_magic:
      return "not the expected kind of cumf file (bad magic)";
    case FrameReject::version_skew:
      return "incompatible format version";
    case FrameReject::truncated:
      return "truncated (torn write?)";
    case FrameReject::bad_crc:
      return "corrupted (CRC mismatch)";
    case FrameReject::malformed:
      return "malformed payload";
    case FrameReject::mismatch:
      return "valid, but not the one expected";
  }
  return "unknown rejection";
}

void reject(FrameReject reason, std::string_view what,
            std::string_view detail) {
  std::string message(what);
  message += ' ';
  message += to_string(reason);
  message += ": ";
  message += detail;
  throw FrameError(reason, message);
}

std::string frame(std::string_view magic, std::uint32_t version,
                  std::string_view payload) {
  CUMF_EXPECTS(magic.size() == kMagicBytes, "frame magics are 8 bytes");
  std::string out;
  out.reserve(kHeader + payload.size() + sizeof(std::uint32_t));
  out.append(magic);
  ByteWriter w(out);
  w.put(version);
  w.put<std::uint64_t>(payload.size());
  out.append(payload);
  w.put(crc32(payload));
  return out;
}

std::string_view unframe(std::string_view magic, std::uint32_t version,
                         std::string_view bytes, std::string_view what) {
  // A file shorter than the magic is judged on the bytes it has.
  const std::size_t prefix = std::min(bytes.size(), magic.size());
  if (bytes.substr(0, prefix) != magic.substr(0, prefix)) {
    reject(FrameReject::bad_magic, what,
           "expected leading \"" + std::string(magic) + "\"");
  }
  if (bytes.size() < kHeader) {
    reject(FrameReject::truncated, what, "shorter than the header");
  }
  std::uint32_t file_version = 0;
  std::memcpy(&file_version, bytes.data() + kMagicBytes, sizeof(file_version));
  if (file_version != version) {
    reject(FrameReject::version_skew, what,
           "file version " + std::to_string(file_version) +
               ", reader supports " + std::to_string(version));
  }
  std::uint64_t len = 0;
  std::memcpy(&len, bytes.data() + kMagicBytes + 4, sizeof(len));
  // Subtract rather than add: a length near 2^64 must not wrap the check.
  if (bytes.size() - kHeader < len ||
      bytes.size() - kHeader - len < sizeof(std::uint32_t)) {
    reject(FrameReject::truncated, what,
           "header promises " + std::to_string(len) +
               " payload bytes, file has " +
               std::to_string(bytes.size() - kHeader));
  }
  const std::string_view payload = bytes.substr(kHeader, len);
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + kHeader + len, sizeof(stored_crc));
  if (stored_crc != crc32(payload)) {
    reject(FrameReject::bad_crc, what, "stored CRC does not match payload");
  }
  return payload;
}

void read_file(const std::string& path, std::string& out) {
  out.clear();
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    reject(FrameReject::io, "file '" + path + "'", "cannot open");
  }
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    out.append(buf, got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    reject(FrameReject::io, "file '" + path + "'", "read error");
  }
}

std::uint64_t ByteReader::get_count(std::size_t elem_bytes) {
  const auto n = get<std::uint64_t>();
  if (n > remaining() / elem_bytes) {
    reject(FrameReject::malformed, what_, "element count exceeds payload size");
  }
  return n;
}

void ByteReader::expect_end() const {
  if (remaining() != 0) {
    reject(FrameReject::malformed, what_, "trailing bytes after the last field");
  }
}

}  // namespace cumf
