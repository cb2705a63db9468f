#include "sparse/csr.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace cumf {

CsrMatrix CsrMatrix::from_coo(const RatingsCoo& coo) {
  CsrMatrix csr;
  csr.m_ = coo.rows();
  csr.n_ = coo.cols();
  csr.row_ptr_.assign(static_cast<std::size_t>(csr.m_) + 1, 0);
  csr.col_idx_.resize(coo.nnz());
  csr.values_.resize(coo.nnz());

  // Counting sort by row: stable, O(nnz + m), no global sort needed.
  for (const Rating& e : coo.entries()) {
    ++csr.row_ptr_[e.u + 1];
  }
  for (index_t u = 0; u < csr.m_; ++u) {
    csr.row_ptr_[u + 1] += csr.row_ptr_[u];
  }
  std::vector<nnz_t> cursor(csr.row_ptr_.begin(), csr.row_ptr_.end() - 1);
  for (const Rating& e : coo.entries()) {
    const nnz_t at = cursor[e.u]++;
    csr.col_idx_[at] = e.v;
    csr.values_[at] = e.r;
  }
  // Sort columns within each row so binary lookups / merges are possible.
  for (index_t u = 0; u < csr.m_; ++u) {
    const nnz_t lo = csr.row_ptr_[u];
    const nnz_t hi = csr.row_ptr_[u + 1];
    // Sort (col, val) pairs by column using an index permutation.
    std::vector<std::pair<index_t, real_t>> row;
    row.reserve(hi - lo);
    for (nnz_t k = lo; k < hi; ++k) {
      row.emplace_back(csr.col_idx_[k], csr.values_[k]);
    }
    std::sort(row.begin(), row.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (nnz_t k = lo; k < hi; ++k) {
      csr.col_idx_[k] = row[k - lo].first;
      csr.values_[k] = row[k - lo].second;
    }
  }
  return csr;
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

CsrMatrix CsrMatrix::transposed() const {
  CsrMatrix t;
  t.m_ = n_;
  t.n_ = m_;
  t.row_ptr_.assign(static_cast<std::size_t>(t.m_) + 1, 0);
  t.col_idx_.resize(values_.size());
  t.values_.resize(values_.size());

  for (const index_t v : col_idx_) {
    ++t.row_ptr_[v + 1];
  }
  for (index_t v = 0; v < t.m_; ++v) {
    t.row_ptr_[v + 1] += t.row_ptr_[v];
  }
  std::vector<nnz_t> cursor(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (index_t u = 0; u < m_; ++u) {
    for (nnz_t k = row_ptr_[u]; k < row_ptr_[u + 1]; ++k) {
      const index_t v = col_idx_[k];
      const nnz_t at = cursor[v]++;
      t.col_idx_[at] = u;  // already ascending because u is ascending
      t.values_[at] = values_[k];
    }
  }
  return t;
}

}  // namespace cumf
