#include "data/loaders.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "prof/prof.hpp"

namespace cumf {

namespace {

[[noreturn]] void malformed(std::size_t line_no, std::string_view line) {
  std::ostringstream os;
  os << "malformed rating on line " << line_no << ": '" << line << '\'';
  throw CheckError(os.str());
}

// The common triplet line is read straight from the chunk by digit loops
// (fast_line); every other line goes through strtoll/strtod in
// consume_line. The loops take only the forms they read exactly as those
// do (digit-only ids, plain decimal ratings), and fast_line hands any line
// they do not take whole to consume_line, so every line keeps its
// strtoll/strtod bits and errors.

/// The value of the decimal digit `c`; 10 or more for any other character.
unsigned digit(char c) {
  return static_cast<unsigned>(static_cast<unsigned char>(c)) - '0';
}

/// Appends the decimal digits at `s`, at most `max` of them, to `value`;
/// returns the first character not taken.
const char* accumulate(const char* s, std::uint64_t& value, std::size_t max) {
  for (unsigned d = 0; max > 0 && (d = digit(*s)) < 10; --max, ++s) {
    value = value * 10 + d;
  }
  return s;
}

const char* skip_blanks(const char* s) {
  while (*s == ' ' || *s == '\t') {
    ++s;
  }
  return s;
}

/// The id "digits" (1 to 18 of them) at `s`: where it ends, or nullptr for
/// any other form.
const char* plain_id(const char* s, long long& out) {
  std::uint64_t value = 0;
  const char* stop = accumulate(s, value, 18);
  if (stop == s || digit(*stop) < 10) {
    return nullptr;
  }
  out = static_cast<long long>(value);
  return stop;
}

/// A plain decimal "[-]digits[.digits]" by Clinger's fast path: read as
/// an integer mantissa of at most 2^53 and a count of fraction digits, its
/// value is one division by an exact power of ten, correctly rounded, so the
/// double strtod's correctly rounded read gives. Returns where it stops, or
/// nullptr for more digits than that (the caller rejects any other
/// character after the token).
const char* read_plain_decimal(const char* s, double& out) {
  constexpr std::uint64_t kExact = std::uint64_t{1} << 53;
  constexpr std::size_t kMaxDigits = 19;  // no 19-digit mantissa wraps
  static constexpr double kPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4, 1e5,
                                      1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
                                      1e12, 1e13, 1e14, 1e15};
  const bool negative = *s == '-';
  const char* const whole = s + (negative ? 1 : 0);
  std::uint64_t mantissa = 0;
  const char* q = accumulate(whole, mantissa, kMaxDigits);
  const auto used = static_cast<std::size_t>(q - whole);
  if (used == 0) {
    return nullptr;
  }
  std::size_t digits = 0;
  if (*q == '.') {
    const char* const frac = q + 1;
    q = accumulate(frac, mantissa, kMaxDigits - used);
    digits = static_cast<std::size_t>(q - frac);
  }
  if (digits >= std::size(kPow10) || mantissa > kExact) {
    return nullptr;
  }
  const auto value = static_cast<double>(mantissa);
  out = digits == 0 ? value : value / kPow10[digits];
  if (negative) {
    out = -out;
  }
  return q;
}

constexpr index_t kDropped = std::numeric_limits<index_t>::max();

// The duplicate rule: every entry whose coordinate occurs again later is
// marked dropped (u = kDropped, never a real row: ids stop below it), so the
// latest rating of each (u, v) survives: by a bitmap of the grid where it
// costs at most 64 bits per rating, else by sorted keys, so either pass
// takes O(nnz) memory or less beside the entries.

/// One bit per cell of the m × n grid, entries walked latest first: the
/// first sighting of a cell keeps it. For grids of at most 64 bits per
/// rating.
void mark_by_bitmap(std::vector<Rating>& entries, index_t rows,
                    index_t cols) {
  std::vector<std::uint64_t> seen(
      (std::uint64_t{rows} * cols + 63) / 64, 0);
  for (std::size_t i = entries.size(); i-- > 0;) {
    const std::uint64_t cell = std::uint64_t{entries[i].u} * cols + entries[i].v;
    std::uint64_t& word = seen[cell >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (cell & 63);
    if ((word & bit) != 0) {
      entries[i].u = kDropped;
    }
    word |= bit;
  }
}

/// Sorted (coordinate, position) keys, for grids too sparse for the
/// bitmap, so a stray huge id costs no table of the grid or its rows.
void mark_by_sorted_keys(std::vector<Rating>& entries) {
  std::vector<std::pair<std::uint64_t, nnz_t>> keyed(entries.size());
  for (nnz_t i = 0; i < entries.size(); ++i) {
    keyed[i] = {std::uint64_t{entries[i].u} << 32 | entries[i].v, i};
  }
  std::sort(keyed.begin(), keyed.end());
  for (nnz_t k = 1; k < keyed.size(); ++k) {
    if (keyed[k].first == keyed[k - 1].first) {
      entries[keyed[k - 1].second].u = kDropped;
    }
  }
}

/// Applies the duplicate rule to `entries` (a rows × cols matrix); the
/// survivors keep their file order. Returns the number dropped.
nnz_t drop_earlier_duplicates(std::vector<Rating>& entries, index_t rows,
                              index_t cols) {
  const std::uint64_t n = entries.size();
  if (std::uint64_t{rows} * cols <= 64 * n + 65536) {
    mark_by_bitmap(entries, rows, cols);
  } else {
    mark_by_sorted_keys(entries);
  }
  return std::erase_if(entries,
                       [](const Rating& e) { return e.u == kDropped; });
}

/// Shared per-line parser behind both entry points. Lines arrive as
/// null-terminated in-place slices of the read buffer (the block reader
/// terminates them where the newline was), so the hot path never copies a
/// line or constructs a stream.
class RatingsParser {
 public:
  explicit RatingsParser(const LoaderOptions& options) : options_(options) {}

  void reserve(std::size_t n) { entries_.reserve(n); }

  /// `line` must be null-terminated at `len`; the terminator slot is also
  /// used to trim a trailing CR in place.
  void consume_line(char* line, std::size_t len) {
    ++line_no_;
    // Trim trailing CR (files produced on Windows) and skip blanks/comments.
    if (len > 0 && line[len - 1] == '\r') {
      line[--len] = '\0';
    }
    std::size_t first = 0;
    while (first < len && (line[first] == ' ' || line[first] == '\t')) {
      ++first;
    }
    if (first == len || line[first] == '#') {
      return;
    }

    long long u = 0;
    long long v = 0;
    double r = 0;
    if (options_.format == RatingsFormat::Triplets) {
      char* p = line + first;
      char* q = nullptr;
      u = std::strtoll(p, &q, 10);
      if (q == p) {
        malformed(line_no_, {line, len});
      }
      p = q;
      v = std::strtoll(p, &q, 10);
      if (q == p) {
        malformed(line_no_, {line, len});
      }
      p = q;
      r = std::strtod(p, &q);
      if (q == p) {
        malformed(line_no_, {line, len});
      }
    } else {
      // MovieLens "a::b::c::d": split on the literal "::" delimiter.
      const char* fields[3] = {nullptr, nullptr, nullptr};
      const char* p = line;
      std::size_t n = 0;
      while (n < 3) {
        fields[n++] = p;
        const char* next = std::strstr(p, "::");
        if (next == nullptr) {
          break;
        }
        p = next + 2;
      }
      if (n < 3) {
        malformed(line_no_, {line, len});
      }
      char* q = nullptr;
      u = std::strtoll(fields[0], &q, 10);
      if (q == fields[0]) {
        malformed(line_no_, {line, len});
      }
      v = std::strtoll(fields[1], &q, 10);
      if (q == fields[1]) {
        malformed(line_no_, {line, len});
      }
      r = std::strtod(fields[2], &q);
      if (q == fields[2]) {
        malformed(line_no_, {line, len});
      }
    }

    if (!add(u, v, r)) {
      malformed(line_no_, {line, len});
    }
  }

  /// The common triplet line "<u> <v> <rating>\n" (blanks before each
  /// field, digit-only ids, a plain decimal rating, an optional CR) read
  /// straight from the chunk; returns the next line's start, or nullptr to
  /// leave the line to consume_line. Reads up to a '\n' or a NUL sentinel.
  const char* fast_line(const char* p) {
    if (options_.format != RatingsFormat::Triplets) {
      return nullptr;
    }
    long long u = 0;
    long long v = 0;
    double r = 0;
    const char* s = plain_id(skip_blanks(p), u);
    if (s != nullptr) {
      s = plain_id(skip_blanks(s), v);
    }
    if (s != nullptr) {
      s = read_plain_decimal(skip_blanks(s), r);
    }
    if (s == nullptr) {
      return nullptr;
    }
    s += *s == '\r' ? 1 : 0;
    if (*s != '\n' || !add(u, v, r)) {
      return nullptr;
    }
    ++line_no_;
    return s + 1;
  }

  /// Appends the rating, false if an id is out of range: ids must fit
  /// index_t with room for the dimension (max id + 1).
  bool add(long long u, long long v, double r) {
    const long long base = options_.one_based ? 1 : 0;
    const long long top =
        static_cast<long long>(std::numeric_limits<index_t>::max()) - 1 +
        base;
    if (u < base || v < base || u > top || v > top) {
      return false;
    }
    const auto uu = static_cast<index_t>(u - base);
    const auto vv = static_cast<index_t>(v - base);
    max_u_ = std::max(max_u_, uu);
    max_v_ = std::max(max_v_, vv);
    entries_.push_back(Rating{uu, vv, static_cast<real_t>(r)});
    return true;
  }

  /// The ratings, each coordinate's earlier entries dropped (the count of
  /// them in `dropped`).
  RatingsCoo finish(nnz_t& dropped) {
    CUMF_EXPECTS(!entries_.empty(), "no ratings found in input");
    {
      CUMF_PROF_SCOPE("dedup", "data");
      dropped = drop_earlier_duplicates(entries_, max_u_ + 1, max_v_ + 1);
    }
    return RatingsCoo(max_u_ + 1, max_v_ + 1, std::move(entries_));
  }

 private:
  LoaderOptions options_;
  std::vector<Rating> entries_;
  index_t max_u_ = 0;
  index_t max_v_ = 0;
  std::size_t line_no_ = 0;
};

struct FileCloser {
  void operator()(std::FILE* f) const noexcept { std::fclose(f); }
};

}  // namespace

RatingsCoo load_ratings_file(const std::string& path,
                             const LoaderOptions& options,
                             nnz_t* duplicates_dropped) {
  std::unique_ptr<std::FILE, FileCloser> file(
      std::fopen(path.c_str(), "rb"));
  CUMF_EXPECTS(file != nullptr, "cannot open ratings file: " + path);

  RatingsParser parser(options);
  // Room for a line of every 8 bytes up front (a rating line is rarely
  // shorter), so the entries never regrow and copy; pages past the last
  // rating are never touched.
  std::error_code ec;
  const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
  if (!ec) {
    parser.reserve(static_cast<std::size_t>(bytes / 8 + 1));
  }

  {
    CUMF_PROF_SCOPE("parse", "data");
    // Block reads instead of per-record stream extraction: pull 1 MiB
    // chunks and read each common triplet line straight from the chunk
    // (fast_line); any other line is terminated in place where its newline
    // was and handed to consume_line. Only a line that straddles a chunk
    // boundary is copied (into `carry`). Both buffers are gone before the
    // duplicate pass allocates, so the load's peak is the entries plus that
    // pass.
    constexpr std::size_t kChunk = std::size_t{1} << 20;
    std::vector<char> buf(kChunk + 1);  // +1: sentinel / final terminator
    std::string carry;
    for (;;) {
      const std::size_t got = std::fread(buf.data(), 1, kChunk, file.get());
      if (got == 0) {
        break;
      }
      char* p = buf.data();
      char* const end = p + got;
      *end = '\0';  // fast_line's sentinel
      if (!carry.empty()) {
        char* nl = static_cast<char*>(std::memchr(p, '\n', got));
        if (nl == nullptr) {
          carry.append(p, end);
          continue;
        }
        carry.append(p, nl);
        parser.consume_line(carry.data(), carry.size());
        carry.clear();
        p = nl + 1;
      }
      while (p < end) {
        if (const char* next = parser.fast_line(p)) {
          p += next - p;
          continue;
        }
        char* nl = static_cast<char*>(std::memchr(
            p, '\n', static_cast<std::size_t>(end - p)));
        if (nl == nullptr) {
          carry.assign(p, end);
          break;
        }
        *nl = '\0';
        parser.consume_line(p, static_cast<std::size_t>(nl - p));
        p = nl + 1;
      }
    }
    CUMF_EXPECTS(std::ferror(file.get()) == 0,
                 "read error on ratings file: " + path);
    if (!carry.empty()) {  // final line without a trailing newline
      parser.consume_line(carry.data(), carry.size());
    }
  }
  nnz_t dropped = 0;
  RatingsCoo coo = parser.finish(dropped);
  if (duplicates_dropped != nullptr) {
    *duplicates_dropped = dropped;
  }
  return coo;
}

}  // namespace cumf
