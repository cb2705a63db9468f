#include "data/io.hpp"

#include <fstream>
#include <string>

#include "common/check.hpp"

namespace cumf {

RatingsCoo read_ratings(std::istream& is) {
  index_t m = 0;
  index_t n = 0;
  // nnz_t is unsigned: a negative count in the header would wrap to a huge
  // positive value and read as "truncated" gibberish. Parse signed and
  // reject the sign explicitly so the diagnostic names the real problem.
  long long nnz_signed = 0;
  is >> m >> n >> nnz_signed;
  CUMF_EXPECTS(is.good() || is.eof(), "malformed header");
  CUMF_EXPECTS(m > 0 && n > 0, "matrix dimensions must be positive");
  CUMF_EXPECTS(nnz_signed >= 0, "header nnz must be non-negative");
  const auto nnz = static_cast<nnz_t>(nnz_signed);

  RatingsCoo out(m, n);
  for (nnz_t i = 0; i < nnz; ++i) {
    index_t u = 0;
    index_t v = 0;
    real_t r = 0;
    is >> u >> v >> r;
    CUMF_EXPECTS(!is.fail(),
                 "ratings truncated: header promises " + std::to_string(nnz) +
                     " entries, stream ended after " + std::to_string(i));
    out.add(u, v, r);  // add() validates the index range
  }
  return out;
}

RatingsCoo read_ratings_file(const std::string& path) {
  std::ifstream is(path);
  CUMF_EXPECTS(is.good(), "cannot open file for reading: " + path);
  return read_ratings(is);
}

}  // namespace cumf
