#include "core/solver.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "half/half_simd.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"

namespace cumf {

const char* to_string(SolverKind kind) {
  switch (kind) {
    case SolverKind::LuFp32:
      return "LU-FP32";
    case SolverKind::CholeskyFp32:
      return "Cholesky-FP32";
    case SolverKind::CgFp32:
      return "CG-FP32";
    case SolverKind::CgFp16:
      return "CG-FP16";
    case SolverKind::PcgFp32:
      return "PCG-FP32";
  }
  return "unknown";
}

const char* solver_cli_name(SolverKind kind) {
  switch (kind) {
    case SolverKind::LuFp32:
      return "lu";
    case SolverKind::CholeskyFp32:
      return "cholesky";
    case SolverKind::CgFp32:
      return "cg";
    case SolverKind::CgFp16:
      return "cg16";
    case SolverKind::PcgFp32:
      return "pcg";
  }
  return "unknown";
}

std::optional<SolverKind> solver_from_cli_name(std::string_view name) {
  if (name == "lu") {
    return SolverKind::LuFp32;
  }
  if (name == "cholesky") {
    return SolverKind::CholeskyFp32;
  }
  if (name == "cg") {
    return SolverKind::CgFp32;
  }
  if (name == "cg16") {
    return SolverKind::CgFp16;
  }
  if (name == "pcg") {
    return SolverKind::PcgFp32;
  }
  return std::nullopt;
}

namespace {

bool all_finite(std::span<const real_t> v) noexcept {
  for (const real_t e : v) {
    if (!std::isfinite(e)) {
      return false;
    }
  }
  return true;
}

}  // namespace

SystemSolver::SystemSolver(std::size_t f, const SolverOptions& options)
    : f_(f), options_(options) {
  CUMF_EXPECTS(f_ > 0, "latent dimension must be positive");
  CUMF_EXPECTS(options_.cg_fs > 0, "CG needs at least one iteration");
  // Every kind carries the exact-LU scratch: for the approximate kinds it
  // is the breakdown fallback path, not just the primary solver.
  scratch_fp32_.resize(f_ * f_);
  pivots_.resize(f_);
  backup_.resize(f_);
  if (options_.kind == SolverKind::CholeskyFp32 &&
      options_.path == simd::KernelPath::simd) {
    cholesky_ws_.resize(cholesky_workspace_size(f_));
  }
}

bool SystemSolver::solve_exact(std::span<const real_t> a,
                               std::span<const real_t> b, std::span<real_t> x,
                               bool via_cholesky) {
  std::copy(a.begin(), a.end(), scratch_fp32_.begin());
  bool ok;
  if (via_cholesky) {
    ok = cholesky_factor(f_, scratch_fp32_, options_.path, cholesky_ws_);
    if (ok) {
      cholesky_solve(f_, scratch_fp32_, b, x, options_.path, cholesky_ws_);
    }
  } else {
    ok = lu_factor(f_, scratch_fp32_, pivots_, options_.path);
    if (ok) {
      lu_solve(f_, scratch_fp32_, pivots_, b, x);
    }
  }
  // A factorization can "succeed" on a corrupted or nearly singular system
  // and still emit inf/NaN; a non-finite factor must never escape.
  if (ok && !all_finite(x)) {
    ok = false;
  }
  if (!ok) {
    std::copy(backup_.begin(), backup_.end(), x.begin());
    ++stats_.failures;
  }
  return ok;
}

bool SystemSolver::solve_cg(std::span<const real_t> a,
                            std::span<const real_t> a_exact,
                            std::span<const real_t> b, std::span<real_t> x,
                            bool preconditioned) {
  CgResult result;
  bool usable = true;
  if (preconditioned) {
    // Jacobi needs a strictly positive finite diagonal; pcg_solve treats a
    // violation as a precondition error, so screen it here and degrade.
    for (std::size_t i = 0; i < f_ && usable; ++i) {
      const float d = a[i * f_ + i];
      usable = std::isfinite(d) && d > 0.0f;
    }
    if (usable) {
      result = pcg_solve<float>(f_, a, b, x, options_.cg_fs, options_.cg_eps,
                                options_.path);
    }
  } else {
    result = cg_solve<float>(f_, a, b, x, options_.cg_fs, options_.cg_eps,
                             options_.path);
  }
  if (usable && !result.breakdown && all_finite(x)) {
    stats_.record_cg(result.iterations);
    return true;
  }
  // Degradation: the truncated-CG iterate is not trustworthy. Restore the
  // warm start and solve the same system with the exact LU path (LU handles
  // the indefinite matrices that break CG; a non-finite system fails there
  // too and is reported as a failure).
  ++stats_.cg_fallbacks;
  std::copy(backup_.begin(), backup_.end(), x.begin());
  return solve_exact(a_exact, b, x, /*via_cholesky=*/false);
}

bool SystemSolver::fp16_diagonal_flushed(
    std::span<const real_t> a) const noexcept {
  for (std::size_t d = 0; d < f_; ++d) {
    const std::size_t i = d * f_ + d;
    // A diagonal flushed to zero (|a| < 2^-25) silently destroys the ridge
    // that keeps A SPD. (A binary16 value is zero exactly when its widened
    // float is, so this reads the rounded copy in scratch_fp32_.)
    if (a[i] != 0.0f && scratch_fp32_[i] == 0.0f) {
      return true;
    }
  }
  return false;
}

bool SystemSolver::solve(std::span<const real_t> a,
                         std::span<const real_t> b, std::span<real_t> x) {
  CUMF_EXPECTS(a.size() == f_ * f_, "A must be f*f");
  CUMF_EXPECTS(b.size() == f_ && x.size() == f_, "vector size mismatch");
  ++stats_.systems;
  std::copy(x.begin(), x.end(), backup_.begin());

  switch (options_.kind) {
    case SolverKind::LuFp32:
      return solve_exact(a, b, x, /*via_cholesky=*/false);
    case SolverKind::CholeskyFp32:
      return solve_exact(a, b, x, /*via_cholesky=*/true);
    case SolverKind::CgFp32:
      return solve_cg(a, a, b, x, /*preconditioned=*/false);
    case SolverKind::PcgFp32:
      return solve_cg(a, a, b, x, /*preconditioned=*/true);
    case SolverKind::CgFp16: {
      // Solution 4 stores A in half precision. The host rounds A through
      // binary16 once, into FP32 scratch, and runs the FP32 CG on it:
      // widening a half is exact, so every iterate equals CG over the half
      // pack, without an unpack per matvec. The model still charges the
      // matvecs half-width traffic. b and x stay FP32. The round reports
      // in the same pass whether a finite element overflowed to ±inf (half
      // max is 65504: a heavy row's hermitian diagonal, which grows with
      // nnz_u, can exceed it even though the FP32 value is fine).
      const bool overflow = round_through_half_n(
          a.data(), scratch_fp32_.data(), a.size(), options_.path);
      stats_.fp16_converted += a.size();
      if (overflow || fp16_diagonal_flushed(a)) {
        // Overflow/underflow in the pack: retry this system with A kept in
        // FP32 (the paper's Solution 3 path) rather than solving a wrong
        // system fast.
        ++stats_.fp16_fallbacks;
        return solve_cg(a, a, b, x, /*preconditioned=*/false);
      }
      return solve_cg(scratch_fp32_, a, b, x, /*preconditioned=*/false);
    }
  }
  CUMF_ENSURES(false, "unreachable solver kind");
  return false;
}

}  // namespace cumf
