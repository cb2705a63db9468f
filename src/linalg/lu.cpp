#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace cumf {

namespace {

/// SIMD body of the row update a_ij ← float(a_ij − l_ik·u_kj) over j in
/// [j, n), 8 lanes per step; returns where the whole steps end, for the
/// scalar loop to finish. Each lane is the scalar expression widened to
/// double, so it contracts to one FMA exactly where the scalar one does.
std::size_t update_row_simd(real_t* arow, const real_t* urow, double lik,
                            std::size_t j, std::size_t n) {
  constexpr std::size_t kLanes = simd::vd8::kLanes;
  const simd::vd8 l = simd::vd8::broadcast(lik);
  for (; j + kLanes <= n; j += kLanes) {
    const simd::vd8 aij = simd::vd8::widen(simd::vf8::load(arow + j));
    const simd::vd8 ukj = simd::vd8::widen(simd::vf8::load(urow + j));
    (aij - l * ukj).narrow().store(arow + j);
  }
  return j;
}

}  // namespace

bool lu_factor(std::size_t n, std::span<real_t> a,
               std::span<index_t> pivots, simd::KernelPath path) {
  CUMF_EXPECTS(a.size() == n * n, "lu: A must be n*n");
  CUMF_EXPECTS(pivots.size() == n, "lu: pivot array must have n entries");
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest |a_ik| for i >= k.
    std::size_t piv = k;
    double best = std::abs(static_cast<double>(a[k * n + k]));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double cand = std::abs(static_cast<double>(a[i * n + k]));
      if (cand > best) {
        best = cand;
        piv = i;
      }
    }
    if (best == 0.0 || !std::isfinite(best)) {
      return false;
    }
    pivots[k] = static_cast<index_t>(piv);
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(a[k * n + j], a[piv * n + j]);
      }
    }
    const double akk = static_cast<double>(a[k * n + k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double lik = static_cast<double>(a[i * n + k]) / akk;
      a[i * n + k] = static_cast<real_t>(lik);
      std::size_t j = k + 1;
      if (path == simd::KernelPath::simd) {
        j = update_row_simd(a.data() + i * n, a.data() + k * n, lik, j, n);
      }
      for (; j < n; ++j) {
        a[i * n + j] = static_cast<real_t>(
            static_cast<double>(a[i * n + j]) -
            lik * static_cast<double>(a[k * n + j]));
      }
    }
  }
  return true;
}

void lu_solve(std::size_t n, std::span<const real_t> lu,
              std::span<const index_t> pivots, std::span<const real_t> b,
              std::span<real_t> x) {
  CUMF_EXPECTS(lu.size() == n * n, "lu_solve: factor must be n*n");
  CUMF_EXPECTS(pivots.size() == n && b.size() == n && x.size() == n,
               "lu_solve: size mismatch");
  if (x.data() != b.data()) {
    std::copy(b.begin(), b.end(), x.begin());
  }
  // Apply the recorded row swaps to the right-hand side.
  for (std::size_t k = 0; k < n; ++k) {
    const index_t piv = pivots[k];
    if (piv != k) {
      std::swap(x[k], x[piv]);
    }
  }
  // Forward: L y = P b (L has unit diagonal).
  for (std::size_t i = 1; i < n; ++i) {
    double acc = static_cast<double>(x[i]);
    for (std::size_t k = 0; k < i; ++k) {
      acc -= static_cast<double>(lu[i * n + k]) * static_cast<double>(x[k]);
    }
    x[i] = static_cast<real_t>(acc);
  }
  // Back: U x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = static_cast<double>(x[ii]);
    for (std::size_t k = ii + 1; k < n; ++k) {
      acc -= static_cast<double>(lu[ii * n + k]) * static_cast<double>(x[k]);
    }
    x[ii] = static_cast<real_t>(acc / static_cast<double>(lu[ii * n + ii]));
  }
}

}  // namespace cumf
