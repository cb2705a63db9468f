// One checksummed frame for every binary artifact: training checkpoints
// (data/checkpoint.hpp), the shard store's tiles, meta and test set
// (data/shards.hpp), and tuned configs (tune/tune.hpp). Each family owns
// its magic and format version; the layout, the reader's checks, the
// reject taxonomy and the payload codec live here once.
//
// Layout (fixed-width little-endian, the only byte order this codebase
// targets):
//
//   [0..8)        magic, 8 bytes ("CUMFCKPT", "CUMFTILE", "CUMFTUNE", ...)
//   [8..12)       u32 format version
//   [12..20)      u64 payload length
//   [20..20+len)  payload
//   [..+4)        u32 CRC-32 of the payload
//
// The reader trusts nothing before it is checked: wrong magic, version
// skew, a short file and a CRC mismatch each raise FrameError with a
// distinct FrameReject reason that the CLIs turn into nonzero-exit
// diagnostics. Payload reads are bounds-checked, so a CRC-valid payload
// that does not parse is rejected too, never read past its end. Writers
// go through atomic_write_file (data/atomic_file.hpp), so a crash
// mid-write never leaves a torn file under a valid name.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/check.hpp"

namespace cumf {

static_assert(std::endian::native == std::endian::little,
              "frame payloads are little-endian memory images");

/// Why a framed file was rejected.
enum class FrameReject {
  io,            ///< cannot open/read the file at all
  bad_magic,     ///< not a file of the expected family
  version_skew,  ///< written by an incompatible format version
  truncated,     ///< shorter than its header promises (torn write)
  bad_crc,       ///< payload checksum mismatch (corruption)
  malformed,     ///< CRC passed but the payload does not parse
  mismatch,      ///< valid file, but not the one the caller asked for
};

const char* to_string(FrameReject reason);

/// Thrown on any rejected file; carries the machine-readable reason so
/// callers can tell "retry another file" from "wrong run".
class FrameError : public CheckError {
 public:
  FrameError(FrameReject reason, const std::string& what)
      : CheckError(what), reason_(reason) {}
  FrameReject reason() const noexcept { return reason_; }

 private:
  FrameReject reason_;
};

/// Throws FrameError "<what> <to_string(reason)>: <detail>"; `what` names
/// the file ("checkpoint", "tile '<path>'", "tuned config", ...).
[[noreturn]] void reject(FrameReject reason, std::string_view what,
                         std::string_view detail);

/// Renders magic | version | length | payload | CRC-32.
std::string frame(std::string_view magic, std::uint32_t version,
                  std::string_view payload);

/// Checks magic, version, length and CRC, in that order, and returns the
/// payload as a view into `bytes`.
std::string_view unframe(std::string_view magic, std::uint32_t version,
                         std::string_view bytes, std::string_view what);

/// Replaces `out` with the bytes of `path`, reusing its capacity; rejects
/// (io) a file that cannot be opened or read.
void read_file(const std::string& path, std::string& out);

inline std::string read_file(const std::string& path) {
  std::string out;
  read_file(path, out);
  return out;
}

/// Appends fixed-width scalars and arrays of them as their memory images.
class ByteWriter {
 public:
  explicit ByteWriter(std::string& out) : out_(out) {}

  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.append(reinterpret_cast<const char*>(&value), sizeof(T));
  }

  /// The elements back to back, without a count.
  template <std::ranges::contiguous_range R>
  void put_array(const R& values) {
    using T = std::ranges::range_value_t<R>;
    static_assert(std::is_trivially_copyable_v<T>);
    out_.append(reinterpret_cast<const char*>(std::ranges::data(values)),
                std::ranges::size(values) * sizeof(T));
  }

 private:
  std::string& out_;
};

/// Bounds-checked cursor over a payload: a read past its end is a torn
/// write (truncated), named after the file `what`.
class ByteReader {
 public:
  ByteReader(std::string_view buf, std::string_view what)
      : buf_(buf), what_(what) {}

  template <typename T>
  T get() {
    T value{};
    get_array(std::span<T>(&value, 1));
    return value;
  }

  /// Fills `out` from the next size(out) elements.
  template <std::ranges::contiguous_range R>
  void get_array(R&& out) {
    using T = std::ranges::range_value_t<R>;
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t n = std::ranges::size(out);
    if (n > remaining() / sizeof(T)) {
      reject(FrameReject::truncated, what_, "payload ends mid-field");
    }
    if (n != 0) {
      std::memcpy(std::ranges::data(out), buf_.data() + pos_, n * sizeof(T));
      pos_ += n * sizeof(T);
    }
  }

  /// A u64 element count, rejected (malformed) when the rest of the
  /// payload cannot hold that many `elem_bytes`-sized elements, so a
  /// corrupted-but-CRC-valid count never becomes a huge allocation.
  std::uint64_t get_count(std::size_t elem_bytes);

  /// Rejects (malformed) bytes left after the last field.
  void expect_end() const;

  std::size_t remaining() const noexcept { return buf_.size() - pos_; }

 private:
  std::string_view buf_;
  std::string_view what_;
  std::size_t pos_ = 0;
};

}  // namespace cumf
