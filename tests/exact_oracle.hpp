// Exact dense solves for tests: factor + solve on a scratch copy, pinned to
// the scalar reference kernels. Allocates per call — an oracle, not a hot
// path.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"

namespace cumf {

/// Solves the SPD system A x = b by Cholesky. False if A is not SPD.
[[nodiscard]] inline bool solve_spd(std::size_t n, std::span<const real_t> a,
                                    std::span<const real_t> b,
                                    std::span<real_t> x) {
  std::vector<real_t> scratch(a.begin(), a.end());
  if (!cholesky_factor(n, scratch, simd::KernelPath::scalar)) {
    return false;
  }
  cholesky_solve(n, scratch, b, x, simd::KernelPath::scalar);
  return true;
}

/// Solves A x = b by LU with partial pivoting. False if A is singular.
[[nodiscard]] inline bool solve_lu(std::size_t n, std::span<const real_t> a,
                                   std::span<const real_t> b,
                                   std::span<real_t> x) {
  std::vector<real_t> scratch(a.begin(), a.end());
  std::vector<index_t> pivots(n);
  if (!lu_factor(n, scratch, pivots, simd::KernelPath::scalar)) {
    return false;
  }
  lu_solve(n, scratch, pivots, b, x);
  return true;
}

}  // namespace cumf
