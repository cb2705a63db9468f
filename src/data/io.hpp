// Plain-text I/O for rating matrices.
//
// Format: a header line "m n nnz" followed by one "u v r" triplet per line
// (0-based indices). This is the interchange format of the example programs;
// it is deliberately the same simple layout used by LIBMF and NOMAD inputs.
#pragma once

#include <iosfwd>
#include <string>

#include "sparse/coo.hpp"

namespace cumf {

/// Parses the format above. Throws CheckError on malformed input (bad
/// header, out-of-range indices, truncated file).
RatingsCoo read_ratings(std::istream& is);
RatingsCoo read_ratings_file(const std::string& path);

}  // namespace cumf
