// The `solve` step of ALS: pluggable exact and approximate batch solvers.
//
// The paper's progression (Fig. 5): batched LU in FP32 (the cuBLAS baseline,
// O(f³)) → truncated CG in FP32 (O(fs·f²), 4x faster) → truncated CG with
// A stored in FP16 (half the memory traffic, another 2x). Cholesky is
// included as a second exact solver since every A_u is SPD.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "linalg/cg.hpp"

namespace cumf {

enum class SolverKind {
  LuFp32,        ///< exact batched LU (the paper's baseline `solve`)
  CholeskyFp32,  ///< exact batched Cholesky (SPD-aware exact alternative)
  CgFp32,        ///< approximate CG, A in FP32 (Solution 3)
  /// Approximate CG, A stored in FP16 (Solution 4). The host rounds A
  /// through binary16 once and iterates in FP32 on the rounded values
  /// (bitwise the CG over the half pack); the cost model still charges
  /// half-width matvec traffic.
  CgFp16,
  PcgFp32,       ///< Jacobi-preconditioned CG (extension beyond the paper)
};

const char* to_string(SolverKind kind);

/// CLI spelling of a solver ("lu", "cholesky", "cg", "cg16", "pcg") — what
/// cumf_train's --solver flag accepts and tuned-config JSON stores; distinct
/// from the display names to_string() renders.
const char* solver_cli_name(SolverKind kind);

/// Inverse of solver_cli_name; std::nullopt on an unknown spelling.
std::optional<SolverKind> solver_from_cli_name(std::string_view name);

/// Truncation / tolerance knobs for the CG variants (Algorithm 1).
struct SolverOptions {
  SolverKind kind = SolverKind::CgFp32;
  std::uint32_t cg_fs = 6;    ///< max CG iterations (paper: 6 for f=100)
  real_t cg_eps = 1e-4f;      ///< ε tolerance on √(rᵀr)
  /// Kernel path for every solve: the CG inner loops, the FP16 A
  /// conversion, and the exact Cholesky and LU factors and substitutions
  /// (LU also as the CG breakdown fallback). The scalar/SIMD variants are
  /// differentially tested — bitwise for everything but CG's reductions
  /// (see docs/performance.md).
  simd::KernelPath path = simd::kDefaultPath;
};

/// Accumulated behaviour of the solver across a batch of systems.
struct SolveStats {
  /// Histogram buckets for per-solve CG iteration counts: index i counts
  /// solves that took exactly i iterations, the last bucket collects
  /// everything at or above kCgHistMax (practical fs values are ≤ 32).
  static constexpr std::size_t kCgHistMax = 32;

  std::uint64_t systems = 0;
  std::uint64_t cg_iterations = 0;  ///< total CG steps over all systems
  std::uint64_t failures = 0;       ///< singular / non-SPD systems skipped
  /// A-matrix elements converted to FP16 (CG-FP16 staging volume; ×2 for
  /// bytes). Feeds the telemetry stream's pack-volume counter.
  std::uint64_t fp16_converted = 0;
  /// Graceful-degradation events. `cg_fallbacks`: CG broke down (non-finite
  /// residual or pᵀAp ≤ ε) and the system was rerouted to the exact LU
  /// path. `fp16_fallbacks`: the FP16 pack of A overflowed to inf (or
  /// flushed a diagonal to zero) and the system was retried with A in FP32.
  /// Both stay 0 on healthy SPD systems; the telemetry stream surfaces them
  /// per epoch so a degrading run is visible before it diverges.
  std::uint64_t cg_fallbacks = 0;
  std::uint64_t fp16_fallbacks = 0;
  std::array<std::uint64_t, kCgHistMax + 1> cg_hist{};

  void record_cg(std::uint32_t iterations) noexcept {
    cg_iterations += iterations;
    ++cg_hist[std::min<std::size_t>(iterations, kCgHistMax)];
  }

  SolveStats& operator+=(const SolveStats& o) noexcept {
    systems += o.systems;
    cg_iterations += o.cg_iterations;
    failures += o.failures;
    fp16_converted += o.fp16_converted;
    cg_fallbacks += o.cg_fallbacks;
    fp16_fallbacks += o.fp16_fallbacks;
    for (std::size_t i = 0; i < cg_hist.size(); ++i) {
      cg_hist[i] += o.cg_hist[i];
    }
    return *this;
  }

  /// Field-wise equality: the multi-GPU bit-identity tests assert that
  /// per-device stats merged in device order equal the single-engine run.
  friend bool operator==(const SolveStats&, const SolveStats&) = default;

  /// Delta between two cumulative snapshots (per-epoch telemetry); all
  /// fields are monotone, so `newer - older` is well-defined.
  friend SolveStats operator-(SolveStats newer, const SolveStats& older) {
    newer.systems -= older.systems;
    newer.cg_iterations -= older.cg_iterations;
    newer.failures -= older.failures;
    newer.fp16_converted -= older.fp16_converted;
    newer.cg_fallbacks -= older.cg_fallbacks;
    newer.fp16_fallbacks -= older.fp16_fallbacks;
    for (std::size_t i = 0; i < newer.cg_hist.size(); ++i) {
      newer.cg_hist[i] -= older.cg_hist[i];
    }
    return newer;
  }
};

/// Per-call scratch so the hot loop never allocates. The exact kinds read
/// only the lower triangle of A for Cholesky and all of it for LU; the
/// SIMD Cholesky path keeps Lᵀ in a workspace sized once at construction.
class SystemSolver {
 public:
  explicit SystemSolver(std::size_t f, const SolverOptions& options);

  /// Solves A x = b. `x` carries the warm start for CG (previous epoch's
  /// factor) and receives the solution.
  ///
  /// Degradation ladder for the approximate kinds: an FP16 pack that
  /// overflows retries the system with A in FP32, and a CG breakdown
  /// (non-finite residual, pᵀAp ≤ ε) reroutes to the exact LU path — each
  /// counted in stats(). Returns false (and restores `x` to its entry
  /// value) only when even the exact path cannot produce a finite solution
  /// (singular or non-finite system); such systems count as failures and
  /// callers keep the previous factor.
  [[nodiscard]] bool solve(std::span<const real_t> a,
                           std::span<const real_t> b, std::span<real_t> x);

  const SolveStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = SolveStats{}; }
  const SolverOptions& options() const noexcept { return options_; }
  std::size_t f() const noexcept { return f_; }

 private:
  /// Exact solve used both as a primary kind and as the CG fallback.
  /// Assumes backup_ holds the entry value of x; restores it on failure.
  bool solve_exact(std::span<const real_t> a, std::span<const real_t> b,
                   std::span<real_t> x, bool via_cholesky);

  /// CG/PCG on A with breakdown → exact-LU degradation. `a_exact` is the
  /// unrounded FP32 system for the fallback (`a` itself for FP32 kinds).
  bool solve_cg(std::span<const real_t> a, std::span<const real_t> a_exact,
                std::span<const real_t> b, std::span<real_t> x,
                bool preconditioned);

  /// True when a nonzero diagonal of A rounded through binary16 (held in
  /// scratch_fp32_) flushed to zero. With round_through_half_n's overflow
  /// verdict, the CG-FP16 pack check.
  bool fp16_diagonal_flushed(std::span<const real_t> a) const noexcept;

  std::size_t f_;
  SolverOptions options_;
  SolveStats stats_;
  /// LU/Cholesky factor scratch; for CgFp16 also A rounded through half.
  std::vector<real_t> scratch_fp32_;
  std::vector<index_t> pivots_;
  /// Lᵀ of the SIMD Cholesky path (cholesky_workspace_size(f) doubles);
  /// empty for every other kind and path.
  std::vector<double> cholesky_ws_;
  std::vector<real_t> backup_;  ///< x on entry, for failure restoration
};

}  // namespace cumf
