// FP16 value-range analysis — predicts, per dataset, whether the CG-FP16
// solver's half-precision A pack can overflow or flush, before any epoch
// runs (ISSUE pass 4).
//
// The dynamic ground truth is the CG-FP16 pack check in SystemSolver::solve
// (core/solver.cpp): round_through_half_n reports a finite |A_ij| that
// rounds past half::max() = 65504 to inf, and fp16_diagonal_flushed a
// nonzero diagonal that flushes to half-zero; each failure costs a
// discarded pack plus an FP32 re-solve and increments
// SolveStats::fp16_fallbacks.
//
// Interval propagation, from dataset bounds through the hermitian dataflow
// (core::hermitian_value_bounds) into the CG pack:
//
//   * Equilibrium model (the verdict). At convergence the factor model
//     reproduces the ratings: θ_uᵀθ_v ≈ r_uv, so per-coordinate factor
//     magnitude settles near √(r_max / f). The dominant A entry is then
//         A_ii ≈ n_max·r_max/f + λ·n_max,
//     which is what the pack actually sees from epoch ~1 onward. Verdict:
//     predicted_fp16_safe ⇔ a_eq_max ≤ 65504 and the diagonal's λ·n_min
//     floor stays above half's subnormal range (no flush-to-zero).
//   * Epoch-0 sound bound (reported, not the verdict). From the init
//     magnitude θ0 alone, |A_ij| ≤ n_max·θ0² + λ·n_max is a hard guarantee
//     for the very first pack — useful context, but far too loose a lens
//     for later epochs, where factor scale is set by the data.
//
// CG arithmetic itself runs in FP32 (linalg/cg.hpp); cg_matvec_abs_bound
// confirms the matvec intermediates fit float whenever A packs, so the A
// pack is the only half-range constraint.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "core/hermitian.hpp"
#include "sparse/csr.hpp"

namespace cumf::analysis::cuverify {

struct Fp16RangeOptions {
  std::size_t f = 100;         ///< factor dimension
  double lambda = 0.05;        ///< ALS regularization weight
  double theta0_absmax = 0.4;  ///< |θ| bound at init (AlsEngine: N(0, 0.1))
  std::uint32_t cg_fs = 6;     ///< CG iteration cap (context only)
};

struct Fp16RangeResult {
  HermitianValueBounds bounds;  ///< dataset envelope at equilibrium θ scale
  double factor_eq_abs = 0.0;   ///< √(r_max/f): per-coordinate factor scale
  double a_eq_max = 0.0;        ///< equilibrium max |A| entry (the verdict)
  double a_epoch0_max = 0.0;    ///< sound epoch-0 bound from theta0_absmax
  double cg_intermediate_abs = 0.0;  ///< matvec envelope (FP32, context)
  double diag_floor = 0.0;      ///< λ·n_min: smallest nonzero diagonal
  bool overflow_risk = false;   ///< a_eq_max > half::max()
  bool flush_risk = false;      ///< diag_floor below half subnormal range
  bool predicted_fp16_safe = true;  ///< the --metrics predicted_fp16_safe bit
  std::string explanation;      ///< one human-readable line per quantity
};

/// Propagates `r`'s rating/degree bounds through the hermitian + CG pack
/// dataflow. Pure arithmetic on dataset statistics — no factors, no epochs.
Fp16RangeResult analyze_fp16_range(const CsrMatrix& r,
                                   const Fp16RangeOptions& options);

/// Renders the result in the shared report format: predicted-unsafe is a
/// Warning when the CG-FP16 solver is actually selected (the pack will
/// fall back and waste work), Info otherwise (advisory only).
std::vector<Finding> fp16_findings(const Fp16RangeResult& result,
                                   bool cg_fp16_selected,
                                   const std::string& subject);

}  // namespace cumf::analysis::cuverify
