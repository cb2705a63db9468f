#include "analysis/cuverify/fp16range.hpp"

#include <cmath>
#include <sstream>

#include "half/half.hpp"
#include "linalg/cg.hpp"

namespace cumf::analysis::cuverify {

Fp16RangeResult analyze_fp16_range(const CsrMatrix& r,
                                   const Fp16RangeOptions& options) {
  Fp16RangeResult out;
  const double f = static_cast<double>(options.f);
  const double half_max = static_cast<double>(static_cast<float>(half::max()));
  const double half_denorm =
      static_cast<double>(static_cast<float>(half::denorm_min()));

  // Equilibrium factor scale: θᵀθ ≈ r ⇒ |θ_i| ≈ √(r_max/f) per coordinate.
  const HermitianValueBounds raw = hermitian_value_bounds(r, 1.0, 0.0);
  out.factor_eq_abs = raw.rating_absmax > 0.0 && options.f > 0
                          ? std::sqrt(raw.rating_absmax / f)
                          : 0.0;
  out.bounds =
      hermitian_value_bounds(r, out.factor_eq_abs, options.lambda);
  out.a_eq_max = out.bounds.a_diag_max;

  // Epoch-0 sound bound: before any update the factors are still at init
  // scale, so the first pack is provably within n_max·θ0² + λ·n_max.
  const HermitianValueBounds epoch0 =
      hermitian_value_bounds(r, options.theta0_absmax, options.lambda);
  out.a_epoch0_max = epoch0.a_diag_max;

  out.diag_floor = out.bounds.a_diag_min;
  out.overflow_risk = out.a_eq_max > half_max;
  // The solver's flush test (fp16_diagonal_flushed): a nonzero source
  // diagonal rounding to half-zero. The diagonal floor is λ·n_min; flag
  // when it is not safely above the subnormal threshold (where half rounds
  // small values to 0).
  out.flush_risk =
      out.bounds.min_nnz > 0 && out.diag_floor < half_denorm;
  out.predicted_fp16_safe = !out.overflow_risk && !out.flush_risk;

  // CG runs in FP32; the matvec envelope is context showing the pack is the
  // only half-range constraint (float max ≈ 3.4e38 dwarfs this).
  out.cg_intermediate_abs =
      cg_matvec_abs_bound(options.f, out.a_eq_max, out.factor_eq_abs);

  std::ostringstream os;
  os << "cuverify fp16-range: r_max=" << out.bounds.rating_absmax
     << " nnz/row=[" << out.bounds.min_nnz << "," << out.bounds.max_nnz
     << "] f=" << options.f << " lambda=" << options.lambda
     << "; equilibrium |theta|~" << out.factor_eq_abs
     << " => max|A|~" << out.a_eq_max << " vs half::max=" << half_max
     << " (epoch-0 sound bound " << out.a_epoch0_max
     << "); diagonal floor lambda*n_min=" << out.diag_floor
     << "; predicted_fp16_safe="
     << (out.predicted_fp16_safe ? "true" : "false");
  if (out.overflow_risk) {
    os << " [A pack would overflow half range: expect fp16_fallbacks > 0"
       << " under the CG-FP16 solver]";
  }
  if (out.flush_risk) {
    os << " [diagonal may flush to half-zero: expect fp16_fallbacks > 0]";
  }
  out.explanation = os.str();
  return out;
}

std::vector<Finding> fp16_findings(const Fp16RangeResult& result,
                                   bool cg_fp16_selected,
                                   const std::string& subject) {
  std::vector<Finding> findings;
  const Severity severity = !result.predicted_fp16_safe && cg_fp16_selected
                                ? Severity::Warning
                                : Severity::Info;
  findings.push_back({severity, "fp16-range", subject, result.explanation});
  return findings;
}

}  // namespace cumf::analysis::cuverify
