// Differential tests of the ingest stages against tests/ingest_oracle.hpp:
// the ratings parser against strtoll/strtod on an adversarial
// corpus, the one canonicalizer against a global stable sort, the buffered
// model reader/writer against the iostream ones, and the slicing-by-8
// CRC-32 against the bytewise table loop.
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "data/loaders.hpp"
#include "data/model_io.hpp"
#include "ingest_oracle.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace cumf {
namespace {

std::string temp_file(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) /
          (name + "-" + std::to_string(::getpid())))
      .string();
}

/// A CheckError's message without the check's expression and location.
std::string message_of(const CheckError& e) {
  const std::string what = e.what();
  const std::string sep = " — ";
  const auto at = what.find(sep);
  return at == std::string::npos ? what : what.substr(at + sep.size());
}

/// What loading `text` produced: the ratings, or the error message.
struct Loaded {
  RatingsCoo coo;
  std::string error;
};

Loaded load_library(const std::string& text, const LoaderOptions& options,
                    nnz_t* dropped = nullptr) {
  const std::string path = temp_file("ingest_load.txt");
  std::ofstream(path, std::ios::binary) << text;
  Loaded out;
  try {
    out.coo = load_ratings_file(path, options, dropped);
  } catch (const CheckError& e) {
    out.error = message_of(e);
  }
  std::filesystem::remove(path);
  return out;
}

Loaded load_oracle(const std::string& text, const LoaderOptions& options) {
  Loaded out;
  try {
    const RatingsCoo all = oracle::parse_text(text, options);
    out.coo = RatingsCoo(all.rows(), all.cols(),
                         oracle::drop_earlier_duplicates(all.entries()));
  } catch (const CheckError& e) {
    out.error = message_of(e);
  }
  return out;
}

void expect_same_load(const std::string& text, const LoaderOptions& options) {
  SCOPED_TRACE("input: " + text.substr(0, 120));
  const Loaded got = load_library(text, options);
  const Loaded want = load_oracle(text, options);
  ASSERT_EQ(got.error, want.error);
  ASSERT_EQ(got.coo.rows(), want.coo.rows());
  ASSERT_EQ(got.coo.cols(), want.coo.cols());
  ASSERT_EQ(got.coo.nnz(), want.coo.nnz());
  for (std::size_t i = 0; i < got.coo.nnz(); ++i) {
    const Rating& a = got.coo.entries()[i];
    const Rating& b = want.coo.entries()[i];
    ASSERT_EQ(a.u, b.u) << i;
    ASSERT_EQ(a.v, b.v) << i;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a.r),
              std::bit_cast<std::uint32_t>(b.r))
        << i << ": " << a.r << " vs " << b.r;
  }
}

/// Rating fields in the forms strtod reads that a plain decimal reader does
/// not (signs, hex, exponents, inf/nan, long mantissas), and malformed ones.
const std::vector<std::string> kRatings = {
    "3.5", "+3.5", "-3.5", "0x1p2", "0X1P-2", "-0x10", "1e400", "-1e400",
    "1e-400", "4.9e-324", "1e-45", "1e-46", "3.4028235e38", "3.4028236e38",
    "1e39", "9007199254740993", "9007199254740993.5", "0.30000000000000004",
    "123456789.123456789", "999999999999999.9", "inf", "-inf", "INF", "Infinity", "nan", "-nan", "nan(123)",
    ".5", "-.5", "5.", "-0", "0", "00012.50", "3.5x", "3.5#c", "3.5e",
    "3.5e+", "1e5", "1E5", "\v3.5", "\f2", "0.1000000000000000055511151231257827021181583404541015625",
    "123456789012345678901234567890", "2.2250738585072011e-308", "x", "-",
    ".", "e5", "--1", "+-1", "3.5trailing"};

/// Id fields: signs, leading zeros, overflow and the index_t bound.
const std::vector<std::string> kIds = {
    "0", "7", "+7", "-0", "007", "-1", "4294967295", "4294967296",
    "99999999999999999999", "-9223372036854775809", "0x10", "1e2", "x",
    "\v3", "18446744073709551616"};

TEST(IngestParse, TripletFieldsMatchStrtod) {
  for (const bool one_based : {false, true}) {
    LoaderOptions options;
    options.one_based = one_based;
    for (const std::string& r : kRatings) {
      expect_same_load("3 4 " + r + "\n", options);
      expect_same_load("  3\t4\t" + r + " trailing words\r\n", options);
      expect_same_load("1 1 2\n3 4 " + r, options);  // no final newline
    }
    for (const std::string& id : kIds) {
      expect_same_load(id + " 2 3.5\n", options);
      expect_same_load("2 " + id + " 3.5\n", options);
    }
    // Line ends and separators on both sides of the read-from-the-chunk
    // line and the NUL-terminated one.
    for (const std::string& text :
         {std::string("3 4 5\r\r\n"), std::string("3 4 5\rjunk\n"),
          std::string("3 4 5\0junk\n", 11), std::string("3 4 5 \n"),
          std::string("3\v4 5\n"), std::string("3 4 5:6\n"),
          std::string("\t3  4\t5\r\n"), std::string("3 4 5\n\n7 8 9\n"),
          std::string("3 4\n5\n"), std::string("3 4 5.\n"),
          std::string("123456789012345678 1 2\n")}) {
      expect_same_load(text, options);
    }
  }
}

TEST(IngestParse, RandomDecimalsMatchStrtodBitForBit) {
  // Plain decimals of 1-19 significant digits and 0-17 fraction digits,
  // both sides of the exact-mantissa fast path's limits.
  Rng rng(31);
  std::string text;
  for (int i = 0; i < 20000; ++i) {
    const std::size_t whole = rng.uniform_index(8);
    const std::size_t frac = rng.uniform_index(18);
    std::string r = rng.uniform_index(4) == 0 ? "-" : "";
    for (std::size_t d = 0; d < whole; ++d) {
      r += static_cast<char>('0' + rng.uniform_index(10));
    }
    if (whole == 0 || frac > 0 || rng.uniform_index(3) == 0) {
      r += '.';
    }
    for (std::size_t d = 0; d < frac; ++d) {
      r += static_cast<char>('0' + rng.uniform_index(10));
    }
    if (r == "." || r == "-.") {
      r += '5';
    }
    text += std::to_string(i % 97) + ' ' + std::to_string(i / 97) + ' ' + r +
            '\n';
  }
  expect_same_load(text, LoaderOptions{});
}

TEST(IngestParse, RandomLinesMatchStrtod) {
  // Mostly well-formed lines with random blanks, rating forms and line
  // ends, and one in 100 glued from the pieces either line reader branches
  // on, so lines cross between the read-from-the-chunk path and the
  // NUL-terminated one in every combination. A text stops at its first
  // malformed line; each must stop at the same one with the same message.
  Rng rng(41);
  const auto pick = [&rng](const std::vector<std::string>& from) {
    return from[rng.uniform_index(from.size())];
  };
  const std::vector<std::string> blanks = {" ", "  ", "\t", " \t"};
  const std::vector<std::string> ratings = {"3", "4.5", "-2", "0.125", "5.",
                                            "1e3", "+2", ".5", "7x"};
  const std::vector<std::string> ends = {"\n", "\r\n", " \n", "\r\r\n",
                                         " junk\n", "\t#\n"};
  const std::vector<std::string> pieces = {
      "0", "7", "42", "0042", "123456789012345678", "1234567890123456789",
      ".", "-", "+", "e", "e-3", "x", ":", " ", "\t", "\r", "#", "5.",
      ".25", "inf", std::string(1, '\0')};
  for (int t = 0; t < 400; ++t) {
    std::string text;
    for (int line = 0; line < 50; ++line) {
      if (rng.uniform_index(100) == 0) {
        for (std::size_t n = 1 + rng.uniform_index(6); n > 0; --n) {
          text += pick(pieces);
        }
        text += '\n';
        continue;
      }
      text += (rng.uniform_index(4) == 0 ? pick(blanks) : "") +
              std::to_string(rng.uniform_index(40)) + pick(blanks) +
              std::to_string(rng.uniform_index(40)) + pick(blanks) +
              pick(ratings) + pick(ends);
    }
    expect_same_load(text, LoaderOptions{});
  }
}

TEST(IngestParse, MalformedLinesKeepTheirLineNumbersAndText) {
  const LoaderOptions options;
  for (const char* text :
       {"0 0 1\n1 2\n", "0 0 1\n\n# c\na b c\n", "0 0 1\n1,2,3\n",
        "0 0 1\n1 2 x\n", "0 0 1\n-1 2 3\n", "# only a comment\n", "",
        "4294967296 1 3.5\n", "0 4294967295 3.5\n", "1 2 3\r\n1 -2 3\r\n"}) {
    expect_same_load(text, options);
  }
}

TEST(IngestParse, MovieLensFieldsMatchStrtod) {
  LoaderOptions options;
  options.format = RatingsFormat::MovieLens;
  for (const bool one_based : {false, true}) {
    options.one_based = one_based;
    for (const std::string& r : kRatings) {
      expect_same_load("3::4::" + r + "::978300760\n", options);
      expect_same_load("3::4::" + r + "\n", options);
    }
    for (const char* text :
         {"1::2::3::4\n", "1::2\n", " 1 :: 2 :: 3.5 :: 9\r\n", "::::\n",
          "1::::3\n", "1::2::3::4::5\n", "+1::+2::+3\n", "1:2:3\n"}) {
      expect_same_load(text, options);
    }
  }
}

TEST(IngestParse, LinesThatStraddleChunksAndDuplicatesMatch) {
  // Over 2 MiB of mixed forms, padded so that chunk boundaries fall inside
  // ids, ratings, separators and CRLF pairs; coordinates repeat, so the
  // duplicate rule runs at scale too.
  Rng rng(11);
  std::string text;
  std::size_t n = 0;
  while (text.size() < (std::size_t{5} << 19)) {
    const auto u = rng.uniform_index(700);
    const auto v = rng.uniform_index(300);
    std::string r = kRatings[rng.uniform_index(kRatings.size())];
    if (r == "x" || r == "-" || r == "." || r == "e5" || r == "--1" ||
        r == "+-1") {
      r = "4.25";  // keep every line valid
    }
    text += std::string(rng.uniform_index(3), ' ');
    text += std::to_string(u) + (n % 5 == 0 ? "\t" : " ") +
            std::to_string(v) + ' ' + r;
    text += n % 7 == 0 ? "\r\n" : "\n";
    if (n % 1000 == 0) {
      text += "# comment line\n\n";
    }
    ++n;
  }
  nnz_t dropped = 0;
  const Loaded got = load_library(text, LoaderOptions{}, &dropped);
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(got.coo.nnz() + dropped, n);
  expect_same_load(text, LoaderOptions{});
}

TEST(IngestParse, SparseGridsKeepTheLatestDuplicateBySortedKeys) {
  // Grids of more than 64 bits per rating take the sorted-key duplicate
  // pass: ids far past the rating count, and a 3000 x 3000 grid under
  // 20000 lines.
  const std::string text =
      "1000000 5 1\n7 3000000 2\n1000000 5 3\n7 3000000 4\n8 8 5\n"
      "1000000 5 6\n4294967294 0 7\n";
  nnz_t dropped = 0;
  const Loaded got = load_library(text, LoaderOptions{}, &dropped);
  EXPECT_EQ(dropped, 3u);
  ASSERT_EQ(got.coo.nnz(), 4u);
  EXPECT_EQ(got.coo.entries()[2].r, 6.0f);  // (1000000, 5) from its last line
  expect_same_load(text, LoaderOptions{});

  Rng rng(17);
  std::string grid;
  for (int i = 0; i < 20000; ++i) {
    const auto u = rng.uniform_index(3000);
    const auto v = i % 50 == 0 ? 7 : rng.uniform_index(3000);
    grid += std::to_string(i % 50 == 0 ? 11 : u) + ' ' + std::to_string(v) +
            ' ' + std::to_string(i % 5 + 1) + '\n';
  }
  grid += "2999 2999 1\n";
  load_library(grid, LoaderOptions{}, &dropped);
  EXPECT_GE(dropped, 399u);  // (11, 7) repeats 400 times
  expect_same_load(grid, LoaderOptions{});
}

// --- canonicalizer ----------------------------------------------------------

void expect_same_csr(const CsrMatrix& got, const CsrMatrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  ASSERT_EQ(got.row_ptr(), want.row_ptr());
  ASSERT_EQ(got.col_idx(), want.col_idx());
  ASSERT_EQ(got.values().size(), want.values().size());
  for (std::size_t k = 0; k < got.values().size(); ++k) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got.values()[k]),
              std::bit_cast<std::uint32_t>(want.values()[k]))
        << k;
  }
}

void expect_canonical_matches(const RatingsCoo& coo) {
  const CsrPair want = oracle::csr_pair(coo);
  const CsrPair got = CsrPair::from_coo(coo);
  expect_same_csr(got.r, want.r);
  expect_same_csr(got.rt, want.rt);

  RatingsCoo sorted = coo;
  sorted.sort_and_dedup();
  const std::vector<Rating> canonical = oracle::canonical_entries(coo.entries());
  ASSERT_EQ(sorted.entries().size(), canonical.size());
  for (std::size_t i = 0; i < canonical.size(); ++i) {
    ASSERT_EQ(sorted.entries()[i].u, canonical[i].u);
    ASSERT_EQ(sorted.entries()[i].v, canonical[i].v);
    ASSERT_EQ(std::bit_cast<std::uint32_t>(sorted.entries()[i].r),
              std::bit_cast<std::uint32_t>(canonical[i].r));
  }
  EXPECT_TRUE(sorted.is_canonical());
  // The warm-start mean sums the same values in the same order.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.r.mean_value()),
            std::bit_cast<std::uint64_t>(sorted.mean_value()));
}

TEST(IngestCanonical, RandomCoosMatchTheSortedOracle) {
  Rng rng(23);
  struct Shape {
    index_t m, n;
    std::size_t nnz;
    std::size_t coords;  // distinct-coordinate pool: small pools repeat
  };
  for (const Shape s : {Shape{1, 1, 0, 1}, Shape{1, 1, 1, 1},
                        Shape{1, 1, 5, 1}, Shape{7, 5, 0, 35},
                        Shape{7, 5, 1, 35}, Shape{40, 30, 300, 1200},
                        Shape{40, 30, 300, 60}, Shape{3, 2000, 4000, 6000},
                        Shape{2000, 3, 4000, 6000}, Shape{500, 400, 20000,
                                                          200000}}) {
    SCOPED_TRACE(std::to_string(s.m) + "x" + std::to_string(s.n) + " nnz " +
                 std::to_string(s.nnz));
    // Empty rows and columns: ids come from the lower half of the pool.
    RatingsCoo coo(s.m, s.n);
    for (std::size_t i = 0; i < s.nnz; ++i) {
      const auto c = rng.uniform_index(s.coords);
      const auto u = static_cast<index_t>(c % s.m / 2 * 2 % s.m);
      const auto v = static_cast<index_t>(c / s.m % s.n);
      coo.add(u, v, static_cast<real_t>(rng.normal()));
    }
    expect_canonical_matches(coo);
    // The same entries already sorted, and reversed.
    RatingsCoo sorted = coo;
    sorted.sort_and_dedup();
    expect_canonical_matches(sorted);
    std::vector<Rating> reversed(coo.entries().rbegin(),
                                 coo.entries().rend());
    expect_canonical_matches(RatingsCoo(s.m, s.n, std::move(reversed)));
  }
}

TEST(IngestCanonical, LongRowsWithDuplicatesKeepTheLatestEntry) {
  // One long row whose 500 columns each repeat three times, in a scrambled
  // column order, with distinct values: only the latest of each survives.
  RatingsCoo coo(3, 500);
  Rng rng(5);
  for (int pass = 0; pass < 3; ++pass) {
    for (index_t v = 500; v-- > 0;) {
      coo.add(1, (v * 7) % 500, static_cast<real_t>(pass * 1000 + v));
    }
  }
  coo.add(0, 3, 1.0f);
  expect_canonical_matches(coo);
  const CsrMatrix csr = CsrMatrix::from_coo(coo);
  ASSERT_EQ(csr.row_nnz(1), 500u);
  for (const real_t r : csr.row_vals(1)) {
    EXPECT_GE(r, 2000.0f);
  }
}

// --- model text I/O ---------------------------------------------------------

FactorModel random_model(std::size_t m, std::size_t n, std::size_t f,
                         std::uint64_t seed) {
  FactorModel model{Matrix(m, f), Matrix(n, f)};
  Rng rng(seed);
  const std::vector<float> special = {
      0.0f, -0.0f, std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::max(), std::numeric_limits<float>::min(),
      -1.1754944e-38f};
  std::size_t i = 0;
  for (Matrix* mat : {&model.x, &model.theta}) {
    for (real_t& v : mat->data()) {
      v = i++ % 97 == 0 ? special[i % special.size()]
                        : static_cast<real_t>(rng.normal(0.0, 3.0));
    }
  }
  return model;
}

TEST(IngestModelIo, WriterBytesAndReadersMatchIostream) {
  // 2000 x 40 and 300 x 40: over 64 KiB, so tokens straddle reader buffers.
  const FactorModel model = random_model(2000, 300, 40, 3);
  std::ostringstream want;
  oracle::write_model(want, model);
  std::ostringstream got;
  write_model(got, model);
  ASSERT_EQ(got.str(), want.str());

  const std::string path = temp_file("ingest_model.txt");
  write_model_file(path, model);
  std::ifstream file(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, want.str());
  const FactorModel back = read_model_file(path);
  std::filesystem::remove(path);
  std::istringstream is(want.str());
  const FactorModel ref = oracle::read_model(is);
  for (const auto& [a, b] :
       {std::pair{&back.x, &ref.x}, std::pair{&back.theta, &ref.theta}}) {
    ASSERT_EQ(a->rows(), b->rows());
    ASSERT_EQ(a->cols(), b->cols());
    for (std::size_t k = 0; k < a->data().size(); ++k) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(a->data()[k]),
                std::bit_cast<std::uint32_t>(b->data()[k]))
          << k;
    }
  }
}

TEST(IngestModelIo, MalformedInputsFailWithTheIostreamErrors) {
  const std::string long_token(70000, '7');
  for (const std::string& text :
       {std::string(""), std::string("not-a-model 1\n"),
        std::string("cumf-model 99\n"), std::string("cumf-model\n"),
        std::string("cumf-model -1\n1 1\n2\n1 1\n3\n"),
        std::string("cumf-model +1\n1 1\n2\n1 1\n3\n"),
        std::string("cumf-model 1x\n1 1\n2\n1 1\n3\n"),
        std::string("cumf-model 1\n-1 2\n"), std::string("cumf-model 1\n0 2\n"),
        std::string("cumf-model 1\n-0 2\n"),
        std::string("cumf-model -4294967295\n1 1\n2\n1 1\n3\n"),
        std::string("cumf-model 1\n-18446744073709551615 1\n2\n1 1\n3\n"),
        std::string("cumf-model 1\n+-1 1\n"),
        std::string("cumf-model 1\n+1 +1\n2\n1 1\n3\n"),
        std::string("cumf-model 1\n1 99999999999999999999\n"),
        std::string("cumf-model 1\n1 2\n1 abc\n1 2\n1 2\n"),
        std::string("cumf-model 1\n1 2\n1 2.5x\n1 2\n1 2\n"),
        std::string("cumf-model 1\n2 2\n1 2 3\n"),
        std::string("cumf-model 1\n1 2\n1 2\n1 3\n1 2 3\n"),
        std::string("cumf-model\t1\v1\f1\r2\n1 1 3 trailing words"),
        std::string("cumf-model 1\n1 1\n") + long_token + "\n1 1\n" +
            long_token + "x\n",
        std::string("cumf-model 1\n1 1\n") + long_token + "\n1 1\n1\n"}) {
    SCOPED_TRACE("input: " + text.substr(0, 60));
    std::string got;
    std::string want;
    FactorModel a;
    FactorModel b;
    // "-1" rows read as 2^64 - 1 (strtoull's wrap), so both fail in the
    // Matrix allocation rather than with a CheckError.
    try {
      std::istringstream is(text);
      a = read_model(is);
    } catch (const CheckError& e) {
      got = message_of(e);
    } catch (const std::exception& e) {
      got = e.what();
    }
    try {
      std::istringstream is(text);
      b = oracle::read_model(is);
    } catch (const CheckError& e) {
      want = message_of(e);
    } catch (const std::exception& e) {
      want = e.what();
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.theta, b.theta);
  }
}

// --- CRC-32 -----------------------------------------------------------------

TEST(IngestCrc32, SlicingMatchesBytewiseAtEveryLengthAndOffset) {
  Rng rng(9);
  std::string bytes(4096 + 64, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(rng.uniform_index(256));
  }
  for (std::size_t offset = 0; offset < 9; ++offset) {
    for (std::size_t len = 0; len < 80; ++len) {
      const std::string_view view(bytes.data() + offset, len);
      ASSERT_EQ(crc32(view), oracle::crc32_bytewise(view))
          << offset << "+" << len;
    }
  }
  EXPECT_EQ(crc32(bytes), oracle::crc32_bytewise(bytes));
  // A running update split at an odd point matches the one-shot CRC.
  const std::uint32_t head = crc32(0, bytes.data(), 1001);
  EXPECT_EQ(crc32(head, bytes.data() + 1001, bytes.size() - 1001),
            crc32(bytes));
}

}  // namespace
}  // namespace cumf
