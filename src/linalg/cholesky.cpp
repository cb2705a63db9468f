#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.hpp"

namespace cumf {

namespace {

constexpr std::size_t kLanes = simd::vd8::kLanes;

/// Row stride of Lᵀ: n rounded up to whole 8-lane blocks.
std::size_t padded(std::size_t n) noexcept {
  return (n + kLanes - 1) / kLanes * kLanes;
}

/// Lᵀ inside the workspace, from its first 64-byte boundary: with a padded
/// stride every 8-lane block of a row is one aligned cache line.
double* transposed_factor(std::size_t n, std::span<double> workspace) {
  CUMF_EXPECTS(workspace.size() >= cholesky_workspace_size(n),
               "cholesky: the SIMD path needs cholesky_workspace_size(n) "
               "doubles of workspace");
  const auto misaligned = reinterpret_cast<std::uintptr_t>(workspace.data()) %
                          (kLanes * sizeof(double));
  return workspace.data() +
         (misaligned == 0 ? 0 : kLanes - misaligned / sizeof(double));
}

/// Lᵀ starts as A's lower triangle, transposed and widened: row j holds
/// a_ij at lane i ≥ j. Lanes of its 8-lane blocks above the diagonal and
/// past n hold zero; they compute values nothing reads. Walked in 8×8
/// tiles, so the strided side stays within a few cache lines.
void load_lower_transposed(const real_t* a, std::size_t n, double* lt,
                           std::size_t ld) {
  for (std::size_t j0 = 0; j0 < n; j0 += kLanes) {
    const std::size_t j1 = std::min(j0 + kLanes, n);
    for (std::size_t i0 = j0; i0 < ld; i0 += kLanes) {
      for (std::size_t j = j0; j < j1; ++j) {
        for (std::size_t i = i0; i < i0 + kLanes; ++i) {
          lt[j * ld + i] =
              i >= j && i < n ? static_cast<double>(a[i * n + j]) : 0.0;
        }
      }
    }
  }
}

/// Columns [0, cols) of L into the lower triangle of `a`, tile by tile.
/// Every Lᵀ entry is a float widened, so the narrowing is exact.
void store_lower(real_t* a, std::size_t n, const double* lt, std::size_t ld,
                 std::size_t cols) {
  for (std::size_t j0 = 0; j0 < cols; j0 += kLanes) {
    const std::size_t j1 = std::min(j0 + kLanes, cols);
    for (std::size_t i0 = j0; i0 < n; i0 += kLanes) {
      for (std::size_t i = i0; i < std::min(i0 + kLanes, n); ++i) {
        for (std::size_t j = j0; j < std::min(j1, i + 1); ++j) {
          a[i * n + j] = static_cast<real_t>(lt[j * ld + i]);
        }
      }
    }
  }
}

/// Register block of the left-looking factor: kRows 8-lane blocks of rows
/// from i0 × columns [j, j + kCols), held in vd8 accumulators while
/// acc_i,c −= l_ik·l_{j+c,k} runs over k in [k0, k1) ascending — the scalar
/// loop's order for every element. Lᵀ row k holds l_ik at lane i, so each
/// step loads kRows contiguous blocks and broadcasts kCols of its lanes.
template <std::size_t kRows, std::size_t kCols>
void update_block(double* lt, std::size_t ld, std::size_t j, std::size_t i0,
                  std::size_t k0, std::size_t k1) {
  simd::vd8 acc[kCols][kRows];
  CUMF_UNROLL
  for (std::size_t c = 0; c < kCols; ++c) {
    CUMF_UNROLL
    for (std::size_t r = 0; r < kRows; ++r) {
      acc[c][r] = simd::vd8::load(lt + (j + c) * ld + i0 + r * kLanes);
    }
  }
  for (std::size_t k = k0; k < k1; ++k) {
    const double* row = lt + k * ld;
    simd::vd8 lik[kRows];
    CUMF_UNROLL
    for (std::size_t r = 0; r < kRows; ++r) {
      lik[r] = simd::vd8::load(row + i0 + r * kLanes);
    }
    CUMF_UNROLL
    for (std::size_t c = 0; c < kCols; ++c) {
      const simd::vd8 ljk = simd::vd8::broadcast(row[j + c]);
      CUMF_UNROLL
      for (std::size_t r = 0; r < kRows; ++r) {
        acc[c][r] = acc[c][r] - lik[r] * ljk;
      }
    }
  }
  CUMF_UNROLL
  for (std::size_t c = 0; c < kCols; ++c) {
    CUMF_UNROLL
    for (std::size_t r = 0; r < kRows; ++r) {
      acc[c][r].store(lt + (j + c) * ld + i0 + r * kLanes);
    }
  }
}

/// Full-size register block: 16 accumulators of AVX-512's 32 registers,
/// or 8 of AVX2's 16 where a vd8 is two.
constexpr std::size_t kPanel = simd::kWideVectors ? 4 : 2;
constexpr std::size_t kRowBlocks = simd::kWideVectors ? 4 : 2;

/// Rows [i0, ld) of columns [j, j + kCols) over k in [k0, k1): blocks of
/// kRows row blocks, then kRows/2, …, 1.
template <std::size_t kRows, std::size_t kCols>
void update_columns(double* lt, std::size_t ld, std::size_t j, std::size_t i0,
                    std::size_t k0, std::size_t k1) {
  for (; i0 + kRows * kLanes <= ld; i0 += kRows * kLanes) {
    update_block<kRows, kCols>(lt, ld, j, i0, k0, k1);
  }
  if constexpr (kRows > 1) {
    update_columns<kRows / 2, kCols>(lt, ld, j, i0, k0, k1);
  }
}

bool cholesky_factor_simd(std::size_t n, std::span<real_t> a,
                          std::span<double> workspace) {
  const std::size_t ld = padded(n);
  double* lt = transposed_factor(n, workspace);
  load_lower_transposed(a.data(), n, lt, ld);
  // Panels of kPanel columns share each row block of Lᵀ they load. A panel
  // first takes every product from the columns before it, then its own
  // columns one at a time: each adds the products of the panel columns
  // already finished, so every element still sees k in ascending order.
  for (std::size_t j0 = 0; j0 < n; j0 += kPanel) {
    const std::size_t i0 = j0 - j0 % kLanes;
    const std::size_t j1 = std::min(j0 + kPanel, n);
    if (j1 - j0 == kPanel) {
      update_columns<kRowBlocks, kPanel>(lt, ld, j0, i0, 0, j0);
    } else {
      for (std::size_t j = j0; j < j1; ++j) {
        update_columns<kRowBlocks, 1>(lt, ld, j, i0, 0, j0);
      }
    }
    for (std::size_t j = j0; j < j1; ++j) {
      update_columns<kRowBlocks, 1>(lt, ld, j, i0, j0, j);
      double* col = lt + j * ld;
      const double diag = col[j];
      if (diag <= 0.0 || !std::isfinite(diag)) {
        store_lower(a.data(), n, lt, ld, j);
        return false;
      }
      const double ljj = std::sqrt(diag);
      const simd::vd8 div = simd::vd8::broadcast(ljj);
      for (std::size_t i = i0; i < ld; i += kLanes) {
        simd::vd8::widen((simd::vd8::load(col + i) / div).narrow())
            .store(col + i);
      }
      col[j] = static_cast<double>(static_cast<real_t>(ljj));
    }
  }
  store_lower(a.data(), n, lt, ld, n);
  return true;
}

void cholesky_solve_simd(std::size_t n, std::span<const real_t> b,
                         std::span<real_t> x, std::span<double> workspace) {
  const std::size_t ld = padded(n);
  double* lt = transposed_factor(n, workspace);
  double* y = lt + n * ld;  // the row past Lᵀ
  // Forward substitution in column form: y_i −= l_ik·x_k for every i > k,
  // k ascending, so each y_i takes its products in the scalar row form's
  // order. b is read in full before x is written (x may alias b).
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<double>(b[i]);
  }
  std::fill(y + n, y + ld, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    const auto xk = static_cast<real_t>(y[k] / lt[k * ld + k]);
    x[k] = xk;
    const simd::vd8 xb = simd::vd8::broadcast(static_cast<double>(xk));
    for (std::size_t i = (k + 1) - (k + 1) % kLanes; i < ld; i += kLanes) {
      (simd::vd8::load(y + i) - simd::vd8::load(lt + k * ld + i) * xb)
          .store(y + i);
    }
  }
  // Back substitution keeps the row form: its ascending-k sum is one serial
  // chain. Row ii of Lᵀ holds l_k,ii contiguously.
  for (std::size_t ii = n; ii-- > 0;) {
    const double* row = lt + ii * ld;
    double acc = static_cast<double>(x[ii]);
    for (std::size_t k = ii + 1; k < n; ++k) {
      acc -= row[k] * static_cast<double>(x[k]);
    }
    x[ii] = static_cast<real_t>(acc / row[ii]);
  }
}

}  // namespace

std::size_t cholesky_workspace_size(std::size_t n) noexcept {
  return (n + 1) * padded(n) + kLanes - 1;
}

bool cholesky_factor(std::size_t n, std::span<real_t> a,
                     simd::KernelPath path, std::span<double> workspace) {
  CUMF_EXPECTS(a.size() == n * n, "cholesky: A must be n*n");
  if (path == simd::KernelPath::simd) {
    return cholesky_factor_simd(n, a, workspace);
  }
  for (std::size_t j = 0; j < n; ++j) {
    double diag = static_cast<double>(a[j * n + j]);
    for (std::size_t k = 0; k < j; ++k) {
      const double ljk = static_cast<double>(a[j * n + k]);
      diag -= ljk * ljk;
    }
    if (diag <= 0.0 || !std::isfinite(diag)) {
      return false;
    }
    const double ljj = std::sqrt(diag);
    a[j * n + j] = static_cast<real_t>(ljj);
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = static_cast<double>(a[i * n + j]);
      for (std::size_t k = 0; k < j; ++k) {
        acc -= static_cast<double>(a[i * n + k]) *
               static_cast<double>(a[j * n + k]);
      }
      a[i * n + j] = static_cast<real_t>(acc / ljj);
    }
  }
  return true;
}

void cholesky_solve(std::size_t n, std::span<const real_t> l,
                    std::span<const real_t> b, std::span<real_t> x,
                    simd::KernelPath path, std::span<double> workspace) {
  CUMF_EXPECTS(l.size() == n * n, "cholesky_solve: L must be n*n");
  CUMF_EXPECTS(b.size() == n && x.size() == n,
               "cholesky_solve: vector size mismatch");
  if (path == simd::KernelPath::simd) {
    cholesky_solve_simd(n, b, x, workspace);
    return;
  }
  // Forward substitution: L y = b (y stored in x).
  for (std::size_t i = 0; i < n; ++i) {
    double acc = static_cast<double>(b[i]);
    for (std::size_t k = 0; k < i; ++k) {
      acc -= static_cast<double>(l[i * n + k]) * static_cast<double>(x[k]);
    }
    x[i] = static_cast<real_t>(acc / static_cast<double>(l[i * n + i]));
  }
  // Back substitution: Lᵀ x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = static_cast<double>(x[ii]);
    for (std::size_t k = ii + 1; k < n; ++k) {
      acc -= static_cast<double>(l[k * n + ii]) * static_cast<double>(x[k]);
    }
    x[ii] = static_cast<real_t>(acc / static_cast<double>(l[ii * n + ii]));
  }
}

}  // namespace cumf
