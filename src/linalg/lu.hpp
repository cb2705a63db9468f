// Dense LU factorization with partial pivoting.
//
// This is the exact solver the paper benchmarks (cuBLAS batched LU,
// LU-FP32 in Fig. 5): O(f³) per system. Works on any non-singular matrix,
// not just SPD ones.
//
// Two kernel paths for the factor, bitwise identical (docs/performance.md,
// "Exact solvers"): the SIMD path runs the right-looking row update
// a_ij ← float(a_ij − l_ik·a_kj) over contiguous j, 8 lanes at a time
// (widen, multiply-subtract in double, narrow). l_ik·a_kj is double×float
// and not exact, so the lanes must contract to FMA exactly where the
// scalar loop does; both are the same `a - l * u` expression under the
// same flags. Pivot search, row swaps and the substitutions are shared.
#pragma once

#include <span>

#include "common/types.hpp"
#include "simd/vec.hpp"

namespace cumf {

/// In-place LU with partial pivoting: A → L\U (unit lower, upper packed).
/// Reads and writes all of `a`. `pivots[i]` records the row swapped into
/// position i. Returns false if the matrix is numerically singular (or
/// non-finite), at the same column on both paths. Needs no workspace.
[[nodiscard]] bool lu_factor(std::size_t n, std::span<real_t> a,
                             std::span<index_t> pivots,
                             simd::KernelPath path = simd::KernelPath::scalar);

/// Solves A x = b given the packed factor and pivots. `x` may alias `b`.
void lu_solve(std::size_t n, std::span<const real_t> lu,
              std::span<const index_t> pivots, std::span<const real_t> b,
              std::span<real_t> x);

}  // namespace cumf
