// get_hermitian — the compute-bound half of an ALS update (paper §III).
//
// For every row u with non-zeros {v : r_uv ≠ 0} it forms
//     A_u = Σ_v θ_v θ_vᵀ + λ n_u I           (f×f, symmetric)
//     b_u = Σ_v r_uv θ_v                      (the get_bias term)
//
// The GPU structure of the kernel (Fig. 2) — θ columns staged into a BIN×f
// "shared memory" buffer in batches, A_u accumulated in T×T register tiles
// over the lower-triangular tile pairs (x ≤ y), mirrored on flush — is
// modelled by cusim (cusim/kernels.hpp) and costed by gpusim; that is where
// the resource accounting (registers = T², smem = BIN·f floats) lives. The
// host kernel below keeps the staging, but its SIMD path holds blocks of A
// rows in vector registers across each staged batch instead of walking T×T
// tiles; `tile` shapes only the scalar path and the model. Every element
// adds its θ products in staged-column order on both paths, so A_u and b_u
// are bitwise equal across paths and, without FP16 staging, to the naive
// reference (unit-tested).
#pragma once

#include <span>
#include <vector>

#include "linalg/dense.hpp"
#include "simd/vec.hpp"
#include "sparse/csr.hpp"

namespace cumf {

struct HermitianParams {
  int tile = 10;  ///< register tile size T (paper: 10 for f=100)
  int bin = 32;   ///< θ columns staged per batch (paper: 32)
  /// Stage θ in FP16 (the paper's §VII Tensor-Core future work): inputs are
  /// rounded to half precision on the way into shared memory, accumulation
  /// stays FP32 — exactly the Tensor-Core mixed-precision contract. Halves
  /// the staging traffic at a bounded (≤2⁻¹¹ relative) input perturbation.
  bool fp16_staging = false;
};

/// Reusable scratch for the staged batch. Call prepare() once per worker so
/// the per-row hot loop never touches allocator paths; unprepared workspaces
/// are sized lazily on first use.
struct HermitianWorkspace {
  std::vector<real_t> staged;  ///< BIN × f "shared memory" buffer

  void prepare(std::size_t f, const HermitianParams& params);
};

/// Production kernel: writes the full symmetric A_u (f×f row-major) into
/// `a_out` and b_u into `b_out`. λ·n_u is added to the diagonal (ALS-WR
/// weighting, eq. (2)). Rows with no non-zeros produce A_u = λ·0·I = 0 plus
/// b=0; the caller decides how to handle them (AlsEngine keeps the old
/// factor). `path` selects the SIMD variant (register-resident row blocks,
/// 16-lane) or the scalar variant (the T×T tile loop) of the accumulation,
/// the FP16 staging transform, and the b_u update; both add each element's
/// products in the same order, so they are bitwise identical and
/// differentially tested. f must be a multiple of params.tile.
void get_hermitian_row(const CsrMatrix& r, const Matrix& theta, index_t u,
                       real_t lambda, const HermitianParams& params,
                       HermitianWorkspace& ws, std::span<real_t> a_out,
                       std::span<real_t> b_out,
                       simd::KernelPath path = simd::kDefaultPath);

/// Naive reference (plain accumulation loops) for differential testing.
void get_hermitian_row_reference(const CsrMatrix& r, const Matrix& theta,
                                 index_t u, real_t lambda,
                                 std::span<real_t> a_out,
                                 std::span<real_t> b_out);

/// Static value-range envelope of the get_hermitian outputs over every row
/// of `r`, assuming factor magnitudes up to `theta_absmax`:
///     |A_ij| ≤ n_u·θmax²  (i≠j),   A_ii ≤ n_u·θmax² + λ·n_u,
///     A_ii ≥ λ·n_u,                |b_i| ≤ n_u·|r|max·θmax.
/// The analysis layer's FP16 range pass (analysis/cuverify/fp16range.hpp)
/// propagates these through the CG dataflow to predict whether the CG-FP16
/// solver's A pack can overflow for a dataset — before any epoch runs.
struct HermitianValueBounds {
  std::uint64_t max_nnz = 0;   ///< densest row's non-zero count
  std::uint64_t min_nnz = 0;   ///< sparsest *non-empty* row (0: all empty)
  double rating_absmax = 0.0;  ///< max |r_uv| over the matrix
  double a_offdiag_abs = 0.0;  ///< ≥ max |A_ij|, i ≠ j
  double a_diag_max = 0.0;     ///< ≥ max A_ii (including the λ·n_u ridge)
  double a_diag_min = 0.0;     ///< ≤ min A_ii of a non-empty row (λ floor)
  double b_abs = 0.0;          ///< ≥ max |b_i|
};

HermitianValueBounds hermitian_value_bounds(const CsrMatrix& r,
                                            double theta_absmax,
                                            double lambda);

}  // namespace cumf
