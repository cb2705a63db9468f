// Loaders for the rating-file formats the MF ecosystem actually uses.
//
// Beyond our own header-prefixed format (data/io.hpp) this parses:
//  - LIBMF / NOMAD style: one "user item rating" triplet per line,
//    whitespace-separated, no header; dimensions inferred from the data.
//  - MovieLens style: "user::item::rating::timestamp" (the `::` delimiter
//    of the ml-1m/ml-10m releases); the timestamp is ignored.
// Both accept 0- or 1-based ids (`one_based`), skip blank and '#'-comment
// lines, and reject malformed rows with a CheckError naming the line. An id
// is malformed unless its 0-based value is below 2^32 - 1 (index_t's
// maximum), so the dimension max id + 1 fits index_t. A coordinate that
// occurs on several lines keeps its latest line: earlier ones are dropped
// and the survivors stay in file order, so a file without duplicates loads
// exactly as written.
#pragma once

#include <string>

#include "sparse/coo.hpp"

namespace cumf {

enum class RatingsFormat {
  Triplets,   ///< "u v r" per line (LIBMF, NOMAD inputs)
  MovieLens,  ///< "u::v::r::timestamp" per line
};

struct LoaderOptions {
  RatingsFormat format = RatingsFormat::Triplets;
  /// Subtract 1 from user/item ids (MovieLens and most public sets are
  /// 1-based).
  bool one_based = false;
};

/// Parses the file; matrix dimensions are the maxima seen plus one. The
/// number of earlier duplicate lines dropped is stored in
/// `duplicates_dropped` when given.
RatingsCoo load_ratings_file(const std::string& path,
                             const LoaderOptions& options,
                             nnz_t* duplicates_dropped = nullptr);

}  // namespace cumf
