// Approximate conjugate-gradient solver (paper Algorithm 1).
//
// This is the approximate-computing half of the paper's contribution: solving
// A x = b with at most `fs` CG iterations costs O(fs·f²) instead of the LU
// solver's O(f³); with fs ≪ f (the paper uses fs = 6 for f = 100) the ALS
// epoch becomes 4x faster at the same final accuracy. The solvers are
// templates over A's storage type T: the library instantiates T = float,
// and CG-FP16 (Solution 4, FP16 storage halving the bytes of the dominant
// A·p matvec) runs that instantiation on A rounded through binary16. The
// tests instantiate T = half (tests/half_cg_oracle.hpp) as its bitwise
// oracle. All arithmetic is performed in FP32 regardless of the storage
// type, matching the GPU implementation; a storage type other than float
// supplies load_as_float(T) and load8(const T*) in its own namespace, where
// argument-dependent lookup finds them.
//
// Every per-iteration primitive — the gemv, both dot products, and the
// x/r/p updates — has a SIMD and a scalar variant selected by the trailing
// KernelPath argument (default: the configure-time choice). Elementwise
// updates are bitwise identical across paths; the gemv/dot reductions
// accumulate in double on both paths but the SIMD path sums lanes in
// parallel, so iterates agree to reassociation error only.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "linalg/dense.hpp"
#include "simd/vec.hpp"

namespace cumf {

/// Curvature threshold below which a CG step is declared broken down: a
/// pᵀAp this small (or negative, or non-finite) makes α = rᵀr / pᵀAp
/// meaningless, which happens only when A lost positive definiteness or the
/// system contains non-finite values.
inline constexpr double kCgBreakdownEps = 1e-30;

/// Outcome of one cg_solve call; also feeds the roofline bookkeeping.
struct CgResult {
  std::uint32_t iterations = 0;  ///< CG steps actually taken (≤ fs)
  double residual_norm = 0.0;    ///< ‖b − A·x‖ proxy: √(rᵀr) at exit
  bool converged = false;        ///< true if tolerance reached before fs
  /// True when the solve terminated on a non-finite residual or on
  /// pᵀAp ≤ kCgBreakdownEps (indefinite or corrupted system). The iterate
  /// in `x` is not trustworthy; callers should fall back to an exact
  /// factorization (SystemSolver reroutes to LU and counts the event).
  bool breakdown = false;
};

/// Value envelope of one CG matvec intermediate: with |A_ij| ≤ a_abs and
/// |v_i| ≤ v_abs, every partial sum of (A·v)_i is within f·a_abs·v_abs.
/// CG arithmetic runs in FP32 regardless of A's storage precision, so this
/// bound is compared against float range by the static FP16 range pass —
/// only the A *pack* itself is range-limited to half.
inline constexpr double cg_matvec_abs_bound(std::size_t f, double a_abs,
                                            double v_abs) noexcept {
  return static_cast<double>(f) * a_abs * v_abs;
}

/// Storage-precision conversion of one element.
inline float load_as_float(float v) noexcept { return v; }

/// Double-accumulated dot product on real_t spans (internal helper).
double dot_d(std::span<const real_t> a, std::span<const real_t> b,
             simd::KernelPath path = simd::kDefaultPath);

namespace detail {

/// 8-lane load of the storage type (bitwise identical to elementwise
/// load_as_float).
inline simd::vf8 load8(const float* p) noexcept { return simd::vf8::load(p); }

/// One gemv row's result from its vd8 accumulator: the lanes' pairwise sum,
/// then the columns past the last full chunk in order.
template <typename T>
real_t gemv_row_finish(std::size_t n, std::size_t j, const T* row,
                       const real_t* in, const simd::vd8& acc) noexcept {
  double sum = acc.hsum();
  for (; j < n; ++j) {
    sum += static_cast<double>(load_as_float(row[j])) *
           static_cast<double>(in[j]);
  }
  return static_cast<real_t>(sum);
}

/// out = A·in for row-major n×n A of storage type T, FP32 data, double
/// accumulation per row (exact float→double products on both paths). The
/// SIMD path runs 4 rows at a time so their accumulation chains overlap;
/// each row still sums its 8-lane chunks in order into one vd8, reduces it
/// with vd8::hsum and adds its scalar tail, so the rows' results do not
/// depend on the interleave.
template <typename T>
void gemv(std::size_t n, const T* a, const real_t* in, real_t* out,
          simd::KernelPath path) {
  if (path == simd::KernelPath::simd) {
    // Both bodies are bounded up front and each tail starts at its bound
    // (a tail resuming the body's counter made GCC 12, inlining a call with
    // a compile-time n, warn -Waggressive-loop-optimizations).
    constexpr std::size_t kRows = 4;
    const std::size_t body = n - n % simd::vf8::kLanes;
    const std::size_t row_body = n - n % kRows;
    for (std::size_t i = 0; i < row_body; i += kRows) {
      simd::vd8 acc[kRows]{};  // value-initialized: every lane +0.0
      for (std::size_t j = 0; j < body; j += simd::vf8::kLanes) {
        const simd::vd8 xv = simd::vd8::widen(simd::vf8::load(in + j));
        CUMF_UNROLL
        for (std::size_t r = 0; r < kRows; ++r) {
          acc[r].mul_acc(xv, load8(a + (i + r) * n + j));
        }
      }
      for (std::size_t r = 0; r < kRows; ++r) {
        out[i + r] = gemv_row_finish(n, body, a + (i + r) * n, in, acc[r]);
      }
    }
    for (std::size_t i = row_body; i < n; ++i) {
      simd::vd8 acc = simd::vd8::zero();
      for (std::size_t j = 0; j < body; j += simd::vf8::kLanes) {
        acc.mul_acc(simd::vd8::widen(simd::vf8::load(in + j)),
                    load8(a + i * n + j));
      }
      out[i] = gemv_row_finish(n, body, a + i * n, in, acc);
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    const T* row = a + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      acc += static_cast<double>(load_as_float(row[j])) *
             static_cast<double>(in[j]);
    }
    out[i] = static_cast<real_t>(acc);
  }
}

/// x += α·p and r −= α·ap, fused (CG line 5). Elementwise: bitwise equal
/// across paths.
inline void cg_step_update(std::size_t n, real_t alpha, const real_t* p,
                           const real_t* ap, real_t* x, real_t* r,
                           simd::KernelPath path) {
  std::size_t body = 0;
  if (path == simd::KernelPath::simd) {
    body = n - n % 8;
    const simd::vf8 av = simd::vf8::broadcast(alpha);
    for (std::size_t i = 0; i < body; i += 8) {
      (simd::vf8::load(x + i) + av * simd::vf8::load(p + i)).store(x + i);
      (simd::vf8::load(r + i) - av * simd::vf8::load(ap + i)).store(r + i);
    }
  }
  for (std::size_t i = body; i < n; ++i) {
    x[i] += alpha * p[i];
    r[i] -= alpha * ap[i];
  }
}

/// p = z + β·p (CG line 10 / PCG direction update).
inline void xpby(std::size_t n, const real_t* z, real_t beta, real_t* p,
                 simd::KernelPath path) {
  std::size_t body = 0;
  if (path == simd::KernelPath::simd) {
    body = n - n % 8;
    const simd::vf8 bv = simd::vf8::broadcast(beta);
    for (std::size_t i = 0; i < body; i += 8) {
      (simd::vf8::load(z + i) + bv * simd::vf8::load(p + i)).store(p + i);
    }
  }
  for (std::size_t i = body; i < n; ++i) {
    p[i] = z[i] + beta * p[i];
  }
}

/// z = d ⊙ r (Jacobi preconditioner application).
inline void hadamard(std::size_t n, const real_t* d, const real_t* r,
                     real_t* z, simd::KernelPath path) {
  std::size_t body = 0;
  if (path == simd::KernelPath::simd) {
    body = n - n % 8;
    for (std::size_t i = 0; i < body; i += 8) {
      (simd::vf8::load(d + i) * simd::vf8::load(r + i)).store(z + i);
    }
  }
  for (std::size_t i = body; i < n; ++i) {
    z[i] = d[i] * r[i];
  }
}

}  // namespace detail

/// Solves A·x = b for symmetric positive definite A (n×n row-major, full
/// storage, element type T). `x` holds the initial guess on
/// entry (warm start from the previous ALS sweep is the intended use) and the
/// solution on exit.
///
/// fs: maximum iterations (paper's truncation knob). eps: tolerance on
/// √(rᵀr) (Algorithm 1 line 7). path: SIMD or scalar kernels.
template <typename T>
CgResult cg_solve(std::size_t n, std::span<const T> a,
                  std::span<const real_t> b, std::span<real_t> x,
                  std::uint32_t fs, real_t eps,
                  simd::KernelPath path = simd::kDefaultPath) {
  CUMF_EXPECTS(a.size() == n * n, "cg: A must be n*n");
  CUMF_EXPECTS(b.size() == n && x.size() == n, "cg: vector size mismatch");
  CUMF_EXPECTS(fs > 0, "cg: need at least one iteration");

  // Workspace kept as locals: n is the latent dimension f (≤ a few hundred),
  // so this mirrors the GPU version's shared-memory scratch.
  std::vector<real_t> r(n);
  std::vector<real_t> p(n);
  std::vector<real_t> ap(n);

  // r = b − A·x; p = r; rsold = rᵀr   (Algorithm 1, line 2)
  detail::gemv(n, a.data(), x.data(), r.data(), path);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = b[i] - r[i];
    p[i] = r[i];
  }
  double rsold = dot_d(r, r, path);

  CgResult result;
  result.residual_norm = std::sqrt(rsold);
  if (!std::isfinite(rsold)) {
    // NaN/inf in A, b, or the warm start: no iterate can be trusted.
    result.breakdown = true;
    return result;
  }
  if (result.residual_norm < static_cast<double>(eps)) {
    result.converged = true;
    return result;
  }

  for (std::uint32_t j = 0; j < fs; ++j) {
    detail::gemv(n, a.data(), p.data(), ap.data(), path);  // ap = A·p (line 4)
    const double pap = dot_d(p, ap, path);
    if (!(pap > kCgBreakdownEps)) {
      // Non-finite, negative (A not SPD), or vanishing curvature.
      result.breakdown = true;
      break;
    }
    const double alpha = rsold / pap;
    detail::cg_step_update(n, static_cast<real_t>(alpha), p.data(), ap.data(),
                           x.data(), r.data(), path);  // line 5
    const double rsnew = dot_d(r, r, path);            // line 6
    if (!std::isfinite(rsnew)) {
      result.breakdown = true;
      break;
    }
    ++result.iterations;
    result.residual_norm = std::sqrt(rsnew);
    if (result.residual_norm < static_cast<double>(eps)) {  // line 7
      result.converged = true;
      return result;
    }
    const double beta = rsnew / rsold;
    detail::xpby(n, r.data(), static_cast<real_t>(beta), p.data(),
                 path);  // line 10
    rsold = rsnew;
  }
  return result;
}

/// Jacobi-preconditioned CG: solves M⁻¹A x = M⁻¹b with M = diag(A).
/// For ALS the Hermitian matrices are diagonally dominant-ish once the
/// λ·n_u ridge is added, so the preconditioner shrinks the iteration count
/// when θ columns have very unequal norms (an extension beyond the paper,
/// ablated in bench_ablation). Interface matches cg_solve.
template <typename T>
CgResult pcg_solve(std::size_t n, std::span<const T> a,
                   std::span<const real_t> b, std::span<real_t> x,
                   std::uint32_t fs, real_t eps,
                   simd::KernelPath path = simd::kDefaultPath) {
  CUMF_EXPECTS(a.size() == n * n, "pcg: A must be n*n");
  CUMF_EXPECTS(b.size() == n && x.size() == n, "pcg: vector size mismatch");
  CUMF_EXPECTS(fs > 0, "pcg: need at least one iteration");

  std::vector<real_t> r(n);
  std::vector<real_t> z(n);
  std::vector<real_t> p(n);
  std::vector<real_t> ap(n);
  std::vector<real_t> inv_diag(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float d = load_as_float(a[i * n + i]);
    CUMF_EXPECTS(d > 0, "pcg: non-positive diagonal (A not SPD)");
    inv_diag[i] = real_t{1} / d;
  }

  detail::gemv(n, a.data(), x.data(), r.data(), path);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = b[i] - r[i];
    z[i] = inv_diag[i] * r[i];
    p[i] = z[i];
  }
  double rz_old = dot_d(r, z, path);

  CgResult result;
  const double rs0 = dot_d(r, r, path);
  result.residual_norm = std::sqrt(rs0);
  if (!std::isfinite(rs0)) {
    result.breakdown = true;
    return result;
  }
  if (result.residual_norm < static_cast<double>(eps)) {
    result.converged = true;
    return result;
  }

  for (std::uint32_t j = 0; j < fs; ++j) {
    detail::gemv(n, a.data(), p.data(), ap.data(), path);
    const double pap = dot_d(p, ap, path);
    if (!(pap > kCgBreakdownEps)) {
      result.breakdown = true;
      break;
    }
    const double alpha = rz_old / pap;
    detail::cg_step_update(n, static_cast<real_t>(alpha), p.data(), ap.data(),
                           x.data(), r.data(), path);
    const double rsnew = dot_d(r, r, path);
    if (!std::isfinite(rsnew)) {
      result.breakdown = true;
      break;
    }
    ++result.iterations;
    result.residual_norm = std::sqrt(rsnew);
    if (result.residual_norm < static_cast<double>(eps)) {
      result.converged = true;
      return result;
    }
    detail::hadamard(n, inv_diag.data(), r.data(), z.data(), path);
    const double rz_new = dot_d(r, z, path);
    const double beta = rz_new / rz_old;
    detail::xpby(n, z.data(), static_cast<real_t>(beta), p.data(), path);
    rz_old = rz_new;
  }
  return result;
}

extern template CgResult cg_solve<float>(std::size_t, std::span<const float>,
                                         std::span<const real_t>,
                                         std::span<real_t>, std::uint32_t,
                                         real_t, simd::KernelPath);
extern template CgResult pcg_solve<float>(std::size_t, std::span<const float>,
                                          std::span<const real_t>,
                                          std::span<real_t>, std::uint32_t,
                                          real_t, simd::KernelPath);

}  // namespace cumf
