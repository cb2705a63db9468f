// Helpers several test files share and no shipped binary needs: a writer
// for the plain-text ratings format that data/io.hpp reads, the largest
// elementwise difference of two vectors, and the observed-vs-random AUC the
// ranking tests measure a preference model with.
#pragma once

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <span>
#include <string>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "linalg/dense.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace cumf {

/// Writes "m n nnz", then one "u v r" line per entry: the format
/// read_ratings parses.
inline void write_ratings(std::ostream& os, const RatingsCoo& ratings) {
  os << ratings.rows() << ' ' << ratings.cols() << ' ' << ratings.nnz()
     << '\n';
  for (const Rating& e : ratings.entries()) {
    os << e.u << ' ' << e.v << ' ' << e.r << '\n';
  }
}

inline void write_ratings_file(const std::string& path,
                               const RatingsCoo& ratings) {
  std::ofstream os(path);
  write_ratings(os, ratings);
  CUMF_ENSURES(os.good(), "ratings serialization failed: " + path);
}

/// max_i |a_i − b_i|.
inline double max_abs_diff(std::span<const real_t> a,
                           std::span<const real_t> b) {
  CUMF_EXPECTS(a.size() == b.size(), "max_abs_diff: size mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(a[i]) -
                                     static_cast<double>(b[i])));
  }
  return worst;
}

/// AUC estimate: probability that a random observed (u, v) pair outscores a
/// random unobserved item for the same user. `samples` pairs are drawn;
/// negatives are rejection-sampled so an item the user has rated is never
/// counted as "unobserved" (draws for users who rated every item are
/// skipped). Returns 0.5 when every draw was skipped.
inline double auc_observed_vs_random(const Matrix& x, const Matrix& theta,
                                     const CsrMatrix& observed,
                                     std::size_t samples, Rng& rng) {
  CUMF_EXPECTS(observed.nnz() > 0, "need observed interactions");
  CUMF_EXPECTS(samples > 0, "need at least one sample");
  std::size_t wins = 0;
  std::size_t ties = 0;
  std::size_t effective = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    // Uniform observed pair via a uniform position in the CSR arrays.
    const auto pos = rng.uniform_index(observed.nnz());
    // Find its row by binary search over row_ptr.
    const auto& ptr = observed.row_ptr();
    const auto it = std::upper_bound(ptr.begin(), ptr.end(), pos);
    const auto u = static_cast<index_t>(it - ptr.begin() - 1);
    const index_t v = observed.col_idx()[pos];
    // The negative must be genuinely unobserved for u: rejection-sample
    // until the draw misses row_cols(u). A user who has rated every item
    // has no negatives, so that draw is skipped rather than spun forever.
    const auto rated = observed.row_cols(u);
    if (rated.size() >= observed.cols()) {
      continue;
    }
    index_t rv = 0;
    do {
      rv = static_cast<index_t>(rng.uniform_index(observed.cols()));
    } while (std::binary_search(rated.begin(), rated.end(), rv));
    const double pos_score = dot(x.row(u), theta.row(v));
    const double neg_score = dot(x.row(u), theta.row(rv));
    wins += pos_score > neg_score;
    ties += pos_score == neg_score;
    ++effective;
  }
  if (effective == 0) {
    return 0.5;  // every user is saturated: no ranking question to ask
  }
  return (static_cast<double>(wins) + 0.5 * static_cast<double>(ties)) /
         static_cast<double>(effective);
}

}  // namespace cumf
