// Compressed sparse row storage of the rating matrix.
//
// ALS consumes R twice per epoch: update-X walks rows of R (CSR) and
// update-Θ walks columns (CSR of Rᵀ). Both views are built once up front,
// mirroring cuMF's device-resident CSR/CSC pair.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "sparse/canonical.hpp"
#include "sparse/coo.hpp"

namespace cumf {

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds the canonical CSR of `coo` (sparse/canonical.hpp): the input
  /// need not be sorted, and a duplicated coordinate keeps its latest entry.
  static CsrMatrix from_coo(const RatingsCoo& coo);

  /// Adopts pre-built CSR arrays (the out-of-core tile reader decodes
  /// straight into these). Validates the structural invariants — row_ptr
  /// has rows+1 monotone entries ending at col_idx.size(), columns are in
  /// range — and throws CheckError otherwise; per-row column order is the
  /// caller's contract (tiles store rows already column-sorted).
  static CsrMatrix from_parts(index_t rows, index_t cols,
                              std::vector<nnz_t> row_ptr,
                              std::vector<index_t> col_idx,
                              std::vector<real_t> values);

  index_t rows() const noexcept { return m_; }
  index_t cols() const noexcept { return n_; }
  nnz_t nnz() const noexcept { return values_.size(); }

  /// Column indices of row u.
  std::span<const index_t> row_cols(index_t u) const;
  /// Values of row u.
  std::span<const real_t> row_vals(index_t u) const;
  /// Number of non-zeros in row u (n^x_u in the paper).
  index_t row_nnz(index_t u) const;

  const std::vector<nnz_t>& row_ptr() const noexcept { return row_ptr_; }
  const std::vector<index_t>& col_idx() const noexcept { return col_idx_; }
  const std::vector<real_t>& values() const noexcept { return values_; }

  /// Mean of the stored values, summed in storage order — for a
  /// from_coo matrix the (u, v) order RatingsCoo::mean_value() sums a
  /// canonical COO in, so both give the same bits (0 if empty).
  double mean_value() const noexcept;

  /// R → Rᵀ (i.e. the CSC view of R expressed as a CSR matrix).
  CsrMatrix transposed() const;

 private:
  friend struct CsrPair;
  /// Adopts arrays the canonicalizer built (no re-validation).
  CsrMatrix(index_t rows, index_t cols, CsrArrays&& arrays);

  index_t m_ = 0;
  index_t n_ = 0;
  std::vector<nnz_t> row_ptr_;    // size m+1
  std::vector<index_t> col_idx_;  // size nnz
  std::vector<real_t> values_;    // size nnz
};

/// Both views an ALS sweep reads: `r` by row (update-X) and `rt` = Rᵀ by
/// row (update-Θ), built once and handed to whichever consumers need them.
struct CsrPair {
  CsrMatrix r;
  CsrMatrix rt;

  /// Canonicalizes `coo` (CsrMatrix::from_coo) and transposes the result.
  static CsrPair from_coo(const RatingsCoo& coo);
};

}  // namespace cumf
