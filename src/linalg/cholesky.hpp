// Dense Cholesky factorization and solve for SPD systems.
//
// Every ALS normal-equation matrix A_u = Σ θ_v θ_vᵀ + λ n_u I is symmetric
// positive definite (λ > 0 guarantees it even for empty rows), so Cholesky is
// the natural *exact* solver. The paper benchmarks against cuBLAS batched LU;
// we provide both so the "exact baseline" choice is itself ablatable.
//
// Two kernel paths, bitwise identical (docs/performance.md, "Exact
// solvers"). The scalar path is the reference loop over row-major L. The
// SIMD path is left-looking: a panel of columns of L comes from passes over
// every row i ≥ j at once, 8 lanes per vd8, reading columns of L
// contiguously from a transposed copy Lᵀ held in double in a caller-owned
// workspace. Each element still subtracts its products l_ik·l_jk in
// ascending k, and a float×float product is exact in double, so neither the
// lane layout nor FMA contraction can change a bit.
#pragma once

#include <cstddef>
#include <span>

#include "common/types.hpp"
#include "simd/vec.hpp"

namespace cumf {

/// Doubles of workspace the SIMD path needs for an n×n system: Lᵀ with rows
/// padded to whole 8-lane blocks, one row for the substitutions, and slack
/// to start Lᵀ on a 64-byte boundary.
std::size_t cholesky_workspace_size(std::size_t n) noexcept;

/// In-place Cholesky A = L·Lᵀ of an n×n row-major SPD matrix. Only the
/// lower triangle of `a` is read — the upper one may hold anything, NaN
/// included — and it is overwritten by L (upper triangle left untouched).
/// Returns false if a non-positive or non-finite pivot is met (A not
/// positive definite), with columns before that pivot already holding L on
/// both paths. The SIMD path also leaves Lᵀ in `workspace`, which must
/// hold cholesky_workspace_size(n) doubles; the scalar path ignores it.
[[nodiscard]] bool cholesky_factor(
    std::size_t n, std::span<real_t> a,
    simd::KernelPath path = simd::KernelPath::scalar,
    std::span<double> workspace = {});

/// Solves L·Lᵀ x = b given the factor produced by cholesky_factor on the
/// same path. The scalar path reads L from the lower triangle of `l`; the
/// SIMD path reads Lᵀ from `workspace` (and needs the factor's workspace,
/// untouched since). `x` may alias `b`.
void cholesky_solve(std::size_t n, std::span<const real_t> l,
                    std::span<const real_t> b, std::span<real_t> x,
                    simd::KernelPath path = simd::KernelPath::scalar,
                    std::span<double> workspace = {});

}  // namespace cumf
