#include "data/loaders.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"

namespace cumf {

namespace {

[[noreturn]] void malformed(std::size_t line_no, std::string_view line) {
  std::ostringstream os;
  os << "malformed rating on line " << line_no << ": '" << line << '\'';
  throw CheckError(os.str());
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

    if (options_.one_based) {
      --u;
      --v;
    }
    if (u < 0 || v < 0) {
      malformed(line_no_, {line, len});
    }
    const auto uu = static_cast<index_t>(u);
    const auto vv = static_cast<index_t>(v);
    max_u_ = std::max(max_u_, uu);
    max_v_ = std::max(max_v_, vv);
    entries_.push_back(Rating{uu, vv, static_cast<real_t>(r)});
  }

  RatingsCoo finish() {
    CUMF_EXPECTS(!entries_.empty(), "no ratings found in input");
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
                             const LoaderOptions& options) {
  std::unique_ptr<std::FILE, FileCloser> file(
      std::fopen(path.c_str(), "rb"));
  CUMF_EXPECTS(file != nullptr, "cannot open ratings file: " + path);

  // Block reads instead of per-record stream extraction: pull 1 MiB chunks,
  // terminate each line in place where its newline was, and hand the slice
  // to the parser. Only a line that straddles a chunk boundary is copied
  // (into `carry`).
  constexpr std::size_t kChunk = std::size_t{1} << 20;
  std::vector<char> buf(kChunk + 1);  // +1: terminator slot for a final line
  std::string carry;
  RatingsParser parser(options);

  for (;;) {
    const std::size_t got = std::fread(buf.data(), 1, kChunk, file.get());
    if (got == 0) {
      break;
    }
    char* p = buf.data();
    char* const end = p + got;
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
  return parser.finish();
}

}  // namespace cumf
