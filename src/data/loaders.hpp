// Loaders for the rating-file formats the MF ecosystem actually uses.
//
// Beyond our own header-prefixed format (data/io.hpp) this parses:
//  - LIBMF / NOMAD style: one "user item rating" triplet per line,
//    whitespace-separated, no header; dimensions inferred from the data.
//  - MovieLens style: "user::item::rating::timestamp" (the `::` delimiter
//    of the ml-1m/ml-10m releases); the timestamp is ignored.
// Both accept 0- or 1-based ids (`one_based`), skip blank and '#'-comment
// lines, and reject malformed rows with a CheckError naming the line.
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

/// Parses the file; matrix dimensions are the maxima seen plus one.
RatingsCoo load_ratings_file(const std::string& path,
                             const LoaderOptions& options);

}  // namespace cumf
