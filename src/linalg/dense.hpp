// Dense row-major matrix/vector containers used for the factor matrices
// X (m×f), Θ (n×f) and the per-row Hermitian systems A_u (f×f).
//
// The vector helpers carry a KernelPath: the default runs the SIMD hot path
// when the build enables it (CUMF_SIMD), passing KernelPath::scalar pins the
// reference loops for differential testing. Elementwise ops (axpy, scal) are
// bitwise identical across paths; reductions (dot, symv rows) accumulate in
// double either way but the SIMD path reassociates lanes, so results agree
// to a few ULP, not bitwise.
#pragma once

#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "simd/vec.hpp"

namespace cumf {

/// Owning dense row-major matrix of `real_t`.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, real_t fill = 0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }

  real_t& operator()(std::size_t r, std::size_t c) {
    CUMF_EXPECTS(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  real_t operator()(std::size_t r, std::size_t c) const {
    CUMF_EXPECTS(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Mutable view of row r.
  std::span<real_t> row(std::size_t r) {
    CUMF_EXPECTS(r < rows_, "row out of range");
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const real_t> row(std::size_t r) const {
    CUMF_EXPECTS(r < rows_, "row out of range");
    return {data_.data() + r * cols_, cols_};
  }

  std::span<real_t> data() noexcept { return data_; }
  std::span<const real_t> data() const noexcept { return data_; }

  void fill(real_t value) { std::fill(data_.begin(), data_.end(), value); }

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<real_t> data_;
};

// --- Small dense vector helpers (operate on spans, no allocation) ---

/// dot(a, b) with double accumulation for robustness at f ≥ 100.
double dot(std::span<const real_t> a, std::span<const real_t> b,
           simd::KernelPath path = simd::kDefaultPath);

/// Batched row dots (the serving gemv): out[i] = dot(x, a.row(row_begin+i))
/// for row_begin ≤ row < row_end, bit-identical per row to calling dot()
/// with the same path. The SIMD variant widens x to double once for the
/// whole scan and reuses the pre-widened chunks across every row — the
/// float→double converts drop from two per chunk to one, not the reduction
/// order; each row still runs dot()'s exact chunk/accumulator/tail
/// sequence, so ranking code may mix dot() and dot_rows() freely.
void dot_rows(std::span<const real_t> x, const Matrix& a,
              std::size_t row_begin, std::size_t row_end,
              std::span<double> out,
              simd::KernelPath path = simd::kDefaultPath);

/// y ← y + alpha * x
void axpy(real_t alpha, std::span<const real_t> x, std::span<real_t> y,
          simd::KernelPath path = simd::kDefaultPath);

/// Dense symmetric matvec y = A·x where A is n×n row-major (full storage).
void symv(std::size_t n, std::span<const real_t> a,
          std::span<const real_t> x, std::span<real_t> y,
          simd::KernelPath path = simd::kDefaultPath);

}  // namespace cumf
