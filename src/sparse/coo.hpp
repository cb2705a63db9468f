// Coordinate-format rating matrix: the interchange format between the data
// generators, the train/test splitter, and the CSR/CSC builders.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace cumf {

/// One observed entry r_{uv} of the rating matrix R.
struct Rating {
  index_t u = 0;  ///< row (user)
  index_t v = 0;  ///< column (item)
  real_t r = 0;   ///< observed value

  friend bool operator==(const Rating&, const Rating&) = default;
};

/// A sparse m×n matrix in coordinate form. Entries may be unsorted; call
/// sort_and_dedup() to canonicalize (row-major order, the latest entry of
/// a duplicated coordinate kept).
class RatingsCoo {
 public:
  RatingsCoo() = default;
  RatingsCoo(index_t m, index_t n) : m_(m), n_(n) {}
  RatingsCoo(index_t m, index_t n, std::vector<Rating> entries);

  index_t rows() const noexcept { return m_; }
  index_t cols() const noexcept { return n_; }
  nnz_t nnz() const noexcept { return entries_.size(); }

  const std::vector<Rating>& entries() const noexcept { return entries_; }
  std::vector<Rating>& entries() noexcept { return entries_; }

  /// Appends one entry. Indices are validated against the matrix shape.
  void add(index_t u, index_t v, real_t r);

  /// Sorts row-major and keeps only the latest entry (highest position) of
  /// each duplicated coordinate, in O(nnz + m + n) (sparse/canonical.hpp).
  void sort_and_dedup();

  /// True if entries are sorted row-major with no duplicate coordinates.
  bool is_canonical() const noexcept;

  /// Mean of all stored values (0 if empty).
  double mean_value() const noexcept;

 private:
  index_t m_ = 0;
  index_t n_ = 0;
  std::vector<Rating> entries_;
};

}  // namespace cumf
