// Reference ingest stages for tests and bench_ingest: the strtoll/strtod
// ratings parser, the sort-based canonicalizer and the iostream model
// reader/writer the library ran before its read-from-the-chunk line,
// counting-sort canonicalizer and buffered from_chars model I/O, plus the
// bytewise CRC-32. The differential tests compare the library against
// these; bench_ingest times them as the reference side. Each follows
// today's rules (the index_t id bound, the latest entry of a duplicated
// coordinate kept), written the plain way — an oracle, not a hot path.
#pragma once

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "data/loaders.hpp"
#include "data/model_io.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace cumf::oracle {

// --- ratings parser ---------------------------------------------------------

/// One line by strtoll/strtod: the rating, or a CheckError with the
/// loader's "malformed rating on line N: '<line>'" text. `line` is one line
/// without its newline (a trailing CR is trimmed here). Returns false for a
/// blank or '#' comment line.
inline bool parse_line(std::string line, std::size_t line_no,
                       const LoaderOptions& options, Rating& out) {
  if (!line.empty() && line.back() == '\r') {
    line.pop_back();
  }
  const auto malformed = [&] {
    throw CheckError("malformed rating on line " + std::to_string(line_no) +
                     ": '" + line + "'");
  };
  std::size_t first = 0;
  while (first < line.size() && (line[first] == ' ' || line[first] == '\t')) {
    ++first;
  }
  if (first == line.size() || line[first] == '#') {
    return false;
  }
  long long u = 0;
  long long v = 0;
  double r = 0;
  char* q = nullptr;
  if (options.format == RatingsFormat::Triplets) {
    const char* p = line.c_str() + first;
    u = std::strtoll(p, &q, 10);
    if (q == p) {
      malformed();
    }
    p = q;
    v = std::strtoll(p, &q, 10);
    if (q == p) {
      malformed();
    }
    p = q;
    r = std::strtod(p, &q);
    if (q == p) {
      malformed();
    }
  } else {
    const char* fields[3] = {nullptr, nullptr, nullptr};
    const char* p = line.c_str();
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
      malformed();
    }
    u = std::strtoll(fields[0], &q, 10);
    if (q == fields[0]) {
      malformed();
    }
    v = std::strtoll(fields[1], &q, 10);
    if (q == fields[1]) {
      malformed();
    }
    r = std::strtod(fields[2], &q);
    if (q == fields[2]) {
      malformed();
    }
  }
  const long long base = options.one_based ? 1 : 0;
  const long long top =
      static_cast<long long>(std::numeric_limits<index_t>::max()) - 1 + base;
  if (u < base || v < base || u > top || v > top) {
    malformed();
  }
  out = Rating{static_cast<index_t>(u - base), static_cast<index_t>(v - base),
               static_cast<real_t>(r)};
  return true;
}

/// Every rating of `text` in file order, duplicates included; dimensions
/// are the maxima seen plus one.
inline RatingsCoo parse_text(std::string_view text,
                             const LoaderOptions& options) {
  std::vector<Rating> entries;
  index_t max_u = 0;
  index_t max_v = 0;
  std::size_t line_no = 0;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t nl = text.find('\n', at);
    if (nl == std::string_view::npos) {
      nl = text.size();
    }
    Rating e;
    if (parse_line(std::string(text.substr(at, nl - at)), ++line_no, options,
                   e)) {
      max_u = std::max(max_u, e.u);
      max_v = std::max(max_v, e.v);
      entries.push_back(e);
    }
    at = nl + 1;
  }
  CUMF_EXPECTS(!entries.empty(), "no ratings found in input");
  return RatingsCoo(max_u + 1, max_v + 1, std::move(entries));
}

/// The triplet loader before the read-from-the-chunk line: 1 MiB chunks,
/// lines terminated in place, strtoll/strtod per field, no duplicate pass — the reference side
/// of bench_ingest's parse row.
inline RatingsCoo load_triplets_strtod(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  CUMF_EXPECTS(file != nullptr, "cannot open ratings file: " + path);
  constexpr std::size_t kChunk = std::size_t{1} << 20;
  std::vector<char> buf(kChunk + 1);
  std::string carry;
  std::vector<Rating> entries;
  index_t max_u = 0;
  index_t max_v = 0;
  const auto consume = [&](char* line, std::size_t len) {
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
    char* p = line + first;
    char* q = nullptr;
    const long long u = std::strtoll(p, &q, 10);
    CUMF_EXPECTS(q != p, "malformed rating");
    p = q;
    const long long v = std::strtoll(p, &q, 10);
    CUMF_EXPECTS(q != p, "malformed rating");
    p = q;
    const double r = std::strtod(p, &q);
    CUMF_EXPECTS(q != p && u >= 0 && v >= 0, "malformed rating");
    const auto uu = static_cast<index_t>(u);
    const auto vv = static_cast<index_t>(v);
    max_u = std::max(max_u, uu);
    max_v = std::max(max_v, vv);
    entries.push_back(Rating{uu, vv, static_cast<real_t>(r)});
  };
  for (;;) {
    const std::size_t got = std::fread(buf.data(), 1, kChunk, file);
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
      consume(carry.data(), carry.size());
      carry.clear();
      p = nl + 1;
    }
    while (p < end) {
      char* nl = static_cast<char*>(
          std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
      if (nl == nullptr) {
        carry.assign(p, end);
        break;
      }
      *nl = '\0';
      consume(p, static_cast<std::size_t>(nl - p));
      p = nl + 1;
    }
  }
  std::fclose(file);
  if (!carry.empty()) {
    consume(carry.data(), carry.size());
  }
  return RatingsCoo(max_u + 1, max_v + 1, std::move(entries));
}

/// The latest entry of each coordinate, survivors in input order.
inline std::vector<Rating> drop_earlier_duplicates(
    const std::vector<Rating>& entries) {
  std::map<std::pair<index_t, index_t>, std::size_t> latest;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    latest[{entries[i].u, entries[i].v}] = i;
  }
  std::vector<Rating> out;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (latest[{entries[i].u, entries[i].v}] == i) {
      out.push_back(entries[i]);
    }
  }
  return out;
}

// --- canonicalizer ----------------------------------------------------------

/// Canonical entries by a global stable sort: row-major, the latest entry
/// of each coordinate kept.
inline std::vector<Rating> canonical_entries(std::vector<Rating> entries) {
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Rating& a, const Rating& b) {
                     return a.u != b.u ? a.u < b.u : a.v < b.v;
                   });
  std::vector<Rating> out;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i + 1 < entries.size() && entries[i + 1].u == entries[i].u &&
        entries[i + 1].v == entries[i].v) {
      continue;
    }
    out.push_back(entries[i]);
  }
  return out;
}

/// The CSR pair the engines built before the one canonicalizer: copy the
/// COO, sort it globally and apply the duplicate rule, count rows, sort
/// every row's (column, value) pairs in a vector of its own, then
/// transpose — the reference side of bench_ingest's canonical row.
inline CsrPair csr_pair(const RatingsCoo& coo) {
  const std::vector<Rating> canonical = canonical_entries(coo.entries());
  const index_t m = coo.rows();
  std::vector<nnz_t> row_ptr(static_cast<std::size_t>(m) + 1, 0);
  for (const Rating& e : canonical) {
    ++row_ptr[e.u + 1];
  }
  for (index_t u = 0; u < m; ++u) {
    row_ptr[u + 1] += row_ptr[u];
  }
  std::vector<index_t> cols(canonical.size());
  std::vector<real_t> vals(canonical.size());
  std::vector<nnz_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (const Rating& e : canonical) {
    const nnz_t at = cursor[e.u]++;
    cols[at] = e.v;
    vals[at] = e.r;
  }
  for (index_t u = 0; u < m; ++u) {
    std::vector<std::pair<index_t, real_t>> row;
    for (nnz_t k = row_ptr[u]; k < row_ptr[u + 1]; ++k) {
      row.emplace_back(cols[k], vals[k]);
    }
    std::sort(row.begin(), row.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (nnz_t k = row_ptr[u]; k < row_ptr[u + 1]; ++k) {
      cols[k] = row[k - row_ptr[u]].first;
      vals[k] = row[k - row_ptr[u]].second;
    }
  }
  CsrPair pair;
  pair.r = CsrMatrix::from_parts(m, coo.cols(), std::move(row_ptr),
                                 std::move(cols), std::move(vals));
  pair.rt = pair.r.transposed();
  return pair;
}

// --- model text I/O ---------------------------------------------------------

/// The iostream writer: to_chars per value, each line through operator<<.
inline void write_model(std::ostream& os, const FactorModel& model) {
  os << "cumf-model" << ' ' << 1 << '\n';
  for (const Matrix* m : {&model.x, &model.theta}) {
    os << m->rows() << ' ' << m->cols() << '\n';
    std::string line;
    for (std::size_t r = 0; r < m->rows(); ++r) {
      line.clear();
      const auto row = m->row(r);
      for (std::size_t c = 0; c < row.size(); ++c) {
        if (c != 0) {
          line += ' ';
        }
        char buf[48];
        line.append(buf, std::to_chars(buf, buf + sizeof buf, row[c]).ptr);
      }
      line += '\n';
      os << line;
    }
  }
}

/// The iostream reader: operator>> for the header and every token, then
/// from_chars over the whole token.
inline FactorModel read_model(std::istream& is) {
  std::string magic;
  int version = 0;
  is >> magic >> version;
  CUMF_EXPECTS(magic == "cumf-model", "not a cumf model file");
  CUMF_EXPECTS(version == 1, "unsupported model version");
  const auto matrix = [&is] {
    std::size_t rows = 0;
    std::size_t cols = 0;
    is >> rows >> cols;
    CUMF_EXPECTS(!is.fail(), "malformed matrix header");
    CUMF_EXPECTS(rows > 0 && cols > 0, "matrix dimensions must be positive");
    Matrix m(rows, cols);
    std::string token;
    for (real_t& value : m.data()) {
      is >> token;
      CUMF_EXPECTS(!is.fail(), "truncated matrix data");
      const char* end = token.data() + token.size();
      const auto res = std::from_chars(token.data(), end, value);
      CUMF_EXPECTS(res.ec == std::errc{} && res.ptr == end,
                   "malformed matrix value '" + token + "'");
    }
    return m;
  };
  FactorModel model;
  model.x = matrix();
  model.theta = matrix();
  CUMF_EXPECTS(model.x.cols() == model.theta.cols(),
               "model file has mismatched latent dimensions");
  return model;
}

// --- CRC-32 -----------------------------------------------------------------

/// One table lookup per byte.
inline std::uint32_t crc32_bytewise(std::string_view bytes) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  std::uint32_t crc = ~0u;
  for (const char ch : bytes) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace cumf::oracle
