#include "data/model_io.hpp"

#include <array>
#include <charconv>
#include <cstdio>
#include <functional>
#include <istream>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "data/atomic_file.hpp"

namespace cumf {

namespace {
constexpr std::string_view kMagic = "cumf-model";
constexpr int kVersion = 1;

/// Room for one rendered value and its separator: the shortest round-trip
/// float is at most 15 characters ("-1.1754944e-38").
constexpr std::size_t kValueChars = 16;

// --- Writing: to_chars into one reserved buffer ---------------------------
// iostream formatting is deliberately avoided: it honours the global
// locale, so a model written under a comma-decimal locale would not be
// readable elsewhere, and its operator>> cannot parse the "inf"/"nan" that
// a diverged model legitimately contains.

template <typename T>
char* put_number(char* p, char* end, T value) {
  const auto res = std::to_chars(p, end, value);
  CUMF_ENSURES(res.ec == std::errc{}, "model value formatting failed");
  return res.ptr;
}

/// "<rows> <cols>\n" then one line per row, values as shortest round-trip
/// decimals (std::to_chars) separated by single spaces. Values render into
/// a line buffer that is appended a row (or a buffer) at a time.
void render_matrix(std::string& out, const Matrix& matrix) {
  char line[4096];
  char* const end = line + sizeof line;
  char* p = put_number(line, end, matrix.rows());
  *p++ = ' ';
  p = put_number(p, end, matrix.cols());
  *p++ = '\n';
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    const auto row = matrix.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (end - p <= static_cast<std::ptrdiff_t>(kValueChars)) {
        out.append(line, p);
        p = line;
      }
      if (c != 0) {
        *p++ = ' ';
      }
      p = put_number(p, end, row[c]);
    }
    *p++ = '\n';
    out.append(line, p);
    p = line;
  }
  out.append(line, p);
}

std::size_t rendered_bound(const Matrix& matrix) {
  return 48 + matrix.rows() * (matrix.cols() * kValueChars + 1);
}

std::string render_model(const FactorModel& model) {
  CUMF_EXPECTS(model.x.cols() == model.theta.cols(),
               "factor matrices must share the latent dimension");
  std::string out;
  out.reserve(32 + rendered_bound(model.x) + rendered_bound(model.theta));
  out.append(kMagic);
  out += ' ';
  out += std::to_string(kVersion);
  out += '\n';
  render_matrix(out, model.x);
  render_matrix(out, model.theta);
  return out;
}

// --- Reading: from_chars over a bounded buffer -----------------------------

/// The whitespace (isspace in the "C" locale) that separates tokens, as
/// operator>> skips it.
constexpr auto kSpace = [] {
  std::array<bool, 256> table{};
  for (const unsigned char c : {' ', '\n', '\t', '\r', '\v', '\f'}) {
    table[c] = true;
  }
  return table;
}();

bool is_space(char c) { return kSpace[static_cast<unsigned char>(c)]; }

/// Tokens of a byte source, read through one fixed buffer refilled by
/// `fill(dst, capacity)` (0 = end of input), so the whole input is never
/// held at once. Extraction follows operator>>: leading whitespace is
/// skipped, a token is a maximal run of non-whitespace, and an integer read
/// consumes only the digits it parses, leaving the rest of its token for the
/// next read. A token longer than the buffer grows it.
class TokenReader {
 public:
  using Fill = std::function<std::size_t(char*, std::size_t)>;

  explicit TokenReader(Fill fill)
      : fill_(std::move(fill)), buf_(kBufferBytes) {}

  /// The next token without consuming it; empty at the end of input. The
  /// view is valid until the next call.
  std::string_view peek() {
    for (;;) {
      while (pos_ < len_ && is_space(buf_[pos_])) {
        ++pos_;
      }
      if (pos_ < len_ || !refill()) {
        break;
      }
    }
    std::size_t n = 0;  // token bytes from pos_; refill() may move pos_
    for (;;) {
      while (pos_ + n < len_ && !is_space(buf_[pos_ + n])) {
        ++n;
      }
      if (pos_ + n < len_ || !refill()) {
        break;
      }
    }
    return {buf_.data() + pos_, n};
  }

  /// The next token parsed in place as a float, when it ends inside the
  /// buffered bytes and from_chars takes it whole; otherwise false, with
  /// nothing but whitespace consumed, for next() to take the token.
  bool read_float(real_t& out) {
    while (pos_ < len_ && is_space(buf_[pos_])) {
      ++pos_;
    }
    const char* begin = buf_.data() + pos_;
    const char* end = buf_.data() + len_;
    const auto res = std::from_chars(begin, end, out);
    if (res.ec != std::errc{} || res.ptr == end || !is_space(*res.ptr)) {
      return false;
    }
    pos_ += static_cast<std::size_t>(res.ptr - begin);
    return true;
  }

  /// Consumes the next token; empty at the end of input.
  std::string_view next() {
    const std::string_view token = peek();
    pos_ += token.size();
    return token;
  }

  /// operator>> for an integer type: an optional sign, then the longest
  /// run of decimal digits; false when there is no digit or the value does
  /// not fit T. As with strtoull, "-n" read into an unsigned type wraps to
  /// 2^bits - n.
  template <typename T>
  bool read_integer(T& out) {
    const std::string_view token = peek();
    const bool minus = !token.empty() && token[0] == '-';
    const std::size_t i = minus || (!token.empty() && token[0] == '+') ? 1 : 0;
    if (i >= token.size() || token[i] < '0' || token[i] > '9') {
      return false;
    }
    using U = std::make_unsigned_t<T>;
    U magnitude = 0;
    const auto res = std::from_chars(token.data() + i,
                                     token.data() + token.size(), magnitude);
    pos_ += static_cast<std::size_t>(res.ptr - token.data());
    if (res.ec != std::errc{}) {
      return false;
    }
    if constexpr (std::is_signed_v<T>) {
      const U limit = static_cast<U>(std::numeric_limits<T>::max()) +
                      (minus ? U{1} : U{0});
      if (magnitude > limit) {
        return false;
      }
    }
    out = static_cast<T>(minus ? U{0} - magnitude : magnitude);
    return true;
  }

 private:
  static constexpr std::size_t kBufferBytes = std::size_t{1} << 16;

  /// Moves the unconsumed bytes [pos_, len_) to the front (growing the
  /// buffer when they fill it) and reads more behind them; false at the end
  /// of input.
  bool refill() {
    if (eof_) {
      return false;
    }
    const std::size_t kept = len_ - pos_;
    if (pos_ != 0) {
      std::copy(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                buf_.begin() + static_cast<std::ptrdiff_t>(len_),
                buf_.begin());
      pos_ = 0;
      len_ = kept;
    }
    if (len_ == buf_.size()) {
      buf_.resize(2 * buf_.size());
    }
    const std::size_t got = fill_(buf_.data() + len_, buf_.size() - len_);
    if (got == 0) {
      eof_ = true;
      return false;
    }
    len_ += got;
    return true;
  }

  Fill fill_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
  bool eof_ = false;
};

Matrix read_matrix(TokenReader& in) {
  std::size_t rows = 0;
  std::size_t cols = 0;
  CUMF_EXPECTS(in.read_integer(rows) && in.read_integer(cols),
               "malformed matrix header");
  CUMF_EXPECTS(rows > 0 && cols > 0, "matrix dimensions must be positive");
  Matrix m(rows, cols);
  for (real_t& value : m.data()) {
    if (in.read_float(value)) {
      continue;
    }
    // A token at the buffer's end, the input's last, or a malformed one.
    const std::string_view token = in.next();
    CUMF_EXPECTS(!token.empty(), "truncated matrix data");
    const char* end = token.data() + token.size();
    const auto res = std::from_chars(token.data(), end, value);
    CUMF_EXPECTS(res.ec == std::errc{} && res.ptr == end,
                 "malformed matrix value '" + std::string(token) + "'");
  }
  return m;
}

FactorModel read_model(TokenReader& in) {
  CUMF_EXPECTS(in.next() == kMagic, "not a cumf model file");
  int version = 0;
  CUMF_EXPECTS(in.read_integer(version) && version == kVersion,
               "unsupported model version");
  FactorModel model;
  model.x = read_matrix(in);
  model.theta = read_matrix(in);
  CUMF_EXPECTS(model.x.cols() == model.theta.cols(),
               "model file has mismatched latent dimensions");
  return model;
}

struct FileCloser {
  void operator()(std::FILE* f) const noexcept { std::fclose(f); }
};

}  // namespace

void write_matrix(std::ostream& os, const Matrix& matrix) {
  std::string out;
  out.reserve(rendered_bound(matrix));
  render_matrix(out, matrix);
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

void write_model(std::ostream& os, const FactorModel& model) {
  const std::string out = render_model(model);
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

void write_model_file(const std::string& path, const FactorModel& model) {
  // Atomic replace: an interrupted export never clobbers the previous model.
  atomic_write_file(path, render_model(model));
}

FactorModel read_model(std::istream& is) {
  TokenReader in([&is](char* dst, std::size_t cap) {
    is.read(dst, static_cast<std::streamsize>(cap));
    return static_cast<std::size_t>(is.gcount());
  });
  return read_model(in);
}

FactorModel read_model_file(const std::string& path) {
  const std::unique_ptr<std::FILE, FileCloser> file(
      std::fopen(path.c_str(), "rb"));
  CUMF_EXPECTS(file != nullptr,
               "cannot open model file for reading: " + path);
  TokenReader in([f = file.get()](char* dst, std::size_t cap) {
    return std::fread(dst, 1, cap, f);
  });
  return read_model(in);
}

}  // namespace cumf
