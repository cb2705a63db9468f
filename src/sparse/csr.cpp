#include "sparse/csr.hpp"

#include "common/check.hpp"
#include "sparse/canonical.hpp"

namespace cumf {

CsrMatrix::CsrMatrix(index_t rows, index_t cols, CsrArrays&& arrays)
    : m_(rows),
      n_(cols),
      row_ptr_(std::move(arrays.ptr)),
      col_idx_(std::move(arrays.idx)),
      values_(std::move(arrays.val)) {}

CsrMatrix CsrMatrix::from_coo(const RatingsCoo& coo) {
  CsrArrays out;
  CsrArrays scratch;
  canonicalize(coo.entries(), coo.rows(), coo.cols(), out, scratch);
  return CsrMatrix(coo.rows(), coo.cols(), std::move(out));
}

CsrMatrix CsrMatrix::from_parts(index_t rows, index_t cols,
                                std::vector<nnz_t> row_ptr,
                                std::vector<index_t> col_idx,
                                std::vector<real_t> values) {
  CUMF_EXPECTS(row_ptr.size() == static_cast<std::size_t>(rows) + 1,
               "from_parts: row_ptr must have rows+1 entries");
  CUMF_EXPECTS(row_ptr.front() == 0 && row_ptr.back() == col_idx.size(),
               "from_parts: row_ptr must span [0, nnz]");
  CUMF_EXPECTS(col_idx.size() == values.size(),
               "from_parts: col_idx/values length mismatch");
  for (index_t u = 0; u < rows; ++u) {
    CUMF_EXPECTS(row_ptr[u] <= row_ptr[u + 1],
                 "from_parts: row_ptr must be non-decreasing");
  }
  for (const index_t v : col_idx) {
    CUMF_EXPECTS(v < cols, "from_parts: column index out of range");
  }
  CsrMatrix csr;
  csr.m_ = rows;
  csr.n_ = cols;
  csr.row_ptr_ = std::move(row_ptr);
  csr.col_idx_ = std::move(col_idx);
  csr.values_ = std::move(values);
  return csr;
}

std::span<const index_t> CsrMatrix::row_cols(index_t u) const {
  CUMF_EXPECTS(u < m_, "row out of bounds");
  return {col_idx_.data() + row_ptr_[u], row_ptr_[u + 1] - row_ptr_[u]};
}

std::span<const real_t> CsrMatrix::row_vals(index_t u) const {
  CUMF_EXPECTS(u < m_, "row out of bounds");
  return {values_.data() + row_ptr_[u], row_ptr_[u + 1] - row_ptr_[u]};
}

index_t CsrMatrix::row_nnz(index_t u) const {
  CUMF_EXPECTS(u < m_, "row out of bounds");
  return static_cast<index_t>(row_ptr_[u + 1] - row_ptr_[u]);
}

double CsrMatrix::mean_value() const noexcept {
  if (values_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const real_t r : values_) {
    sum += static_cast<double>(r);
  }
  return sum / static_cast<double>(values_.size());
}

CsrMatrix CsrMatrix::transposed() const {
  CsrArrays t;
  transpose(row_ptr_, col_idx_, values_, n_, t);
  return CsrMatrix(n_, m_, std::move(t));
}

CsrPair CsrPair::from_coo(const RatingsCoo& coo) {
  // The by-column scratch of the canonicalizer becomes the transpose.
  CsrArrays r;
  CsrArrays t;
  canonicalize(coo.entries(), coo.rows(), coo.cols(), r, t);
  transpose(r.ptr, r.idx, r.val, coo.cols(), t);
  CsrPair pair;
  pair.r = CsrMatrix(coo.rows(), coo.cols(), std::move(r));
  pair.rt = CsrMatrix(coo.cols(), coo.rows(), std::move(t));
  return pair;
}

}  // namespace cumf
