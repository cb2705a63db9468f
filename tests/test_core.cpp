// Tests for the paper's core contribution: the tiled get_hermitian kernel,
// the pluggable solvers, the ALS engine, implicit ALS, multi-GPU ALS and the
// kernel cost-model bridge.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "analysis/faultinject.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/als.hpp"
#include "core/hermitian.hpp"
#include "core/implicit_als.hpp"
#include "core/kernel_stats.hpp"
#include "core/multi_gpu.hpp"
#include "core/solver.hpp"
#include "data/generator.hpp"
#include "data/implicit.hpp"
#include "half/half.hpp"
#include "linalg/cg.hpp"
#include "metrics/rmse.hpp"
#include "sparse/csr.hpp"
#include "sparse/split.hpp"

#include "half_cg_oracle.hpp"

namespace cumf {
namespace {

SyntheticDataset small_dataset(nnz_t nnz = 6000, std::uint64_t seed = 7) {
  SyntheticConfig cfg;
  cfg.m = 300;
  cfg.n = 80;
  cfg.nnz = nnz;
  cfg.true_rank = 4;
  cfg.mean = 3.5;
  cfg.signal_std = 0.7;
  cfg.noise_std = 0.25;
  cfg.seed = seed;
  return generate_synthetic(cfg);
}

// ---------- get_hermitian ----------

class HermitianTileSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(HermitianTileSweep, TiledMatchesReference) {
  const auto [f, tile, bin] = GetParam();
  SyntheticConfig cfg;
  cfg.m = 50;
  cfg.n = 40;
  cfg.nnz = 800;
  cfg.seed = 11;
  const auto data = generate_synthetic(cfg);
  const auto csr = CsrMatrix::from_coo(data.ratings);

  Matrix theta(40, static_cast<std::size_t>(f));
  Rng rng(5);
  for (std::size_t v = 0; v < theta.rows(); ++v) {
    for (std::size_t k = 0; k < theta.cols(); ++k) {
      theta(v, k) = static_cast<real_t>(rng.normal(0.0, 1.0));
    }
  }

  // Both kernel paths add every element's θ products in the reference's
  // order, so A_u and b_u must match it bit for bit — at every tile, at a
  // BIN that does or does not divide the row's nnz, and at any f.
  const std::size_t ff = static_cast<std::size_t>(f);
  std::vector<real_t> a_tiled(ff * ff);
  std::vector<real_t> b_tiled(ff);
  std::vector<real_t> a_ref(ff * ff);
  std::vector<real_t> b_ref(ff);
  HermitianParams params{tile, bin};
  for (const auto path : {simd::KernelPath::scalar, simd::KernelPath::simd}) {
    HermitianWorkspace ws;
    for (index_t u = 0; u < csr.rows(); ++u) {
      get_hermitian_row(csr, theta, u, 0.05f, params, ws, a_tiled, b_tiled,
                        path);
      get_hermitian_row_reference(csr, theta, u, 0.05f, a_ref, b_ref);
      for (std::size_t i = 0; i < a_ref.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(a_tiled[i]),
                  std::bit_cast<std::uint32_t>(a_ref[i]))
            << "A[" << i << "] u=" << u << " path=" << to_string(path);
      }
      for (std::size_t i = 0; i < b_ref.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(b_tiled[i]),
                  std::bit_cast<std::uint32_t>(b_ref[i]))
            << "b[" << i << "] u=" << u << " path=" << to_string(path);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TileBinGrid, HermitianTileSweep,
    ::testing::Values(std::tuple{20, 10, 32}, std::tuple{20, 5, 32},
                      std::tuple{20, 4, 8}, std::tuple{16, 8, 4},
                      std::tuple{24, 6, 16}, std::tuple{20, 20, 32},
                      std::tuple{20, 2, 1},
                      // f below one 16-lane chunk, f not a multiple of 8
                      // or 16, BIN 1 (one column per batch) and BIN 7
                      // (a short last batch on most rows).
                      std::tuple{6, 3, 7}, std::tuple{12, 4, 1},
                      std::tuple{20, 10, 7}, std::tuple{21, 7, 7},
                      std::tuple{36, 6, 1}, std::tuple{36, 9, 7},
                      std::tuple{36, 12, 32}));

TEST(Hermitian, OutputIsSymmetricWithRidgeDiagonal) {
  const auto data = small_dataset(2000);
  const auto csr = CsrMatrix::from_coo(data.ratings);
  const std::size_t f = 20;
  Matrix theta(csr.cols(), f, 0.5f);
  std::vector<real_t> a(f * f);
  std::vector<real_t> b(f);
  HermitianWorkspace ws;
  get_hermitian_row(csr, theta, 0, 0.1f, HermitianParams{10, 32}, ws, a, b);
  for (std::size_t i = 0; i < f; ++i) {
    for (std::size_t j = 0; j < f; ++j) {
      EXPECT_EQ(a[i * f + j], a[j * f + i]);
    }
  }
  // With constant θ = 0.5: off-diagonal = deg·0.25, diagonal adds λ·deg.
  const double deg = csr.row_nnz(0);
  EXPECT_NEAR(a[1], deg * 0.25, 1e-3);
  EXPECT_NEAR(a[0], deg * 0.25 + 0.1 * deg, 1e-3);
}

TEST(Hermitian, EmptyRowYieldsZeroSystem) {
  RatingsCoo coo(3, 2);
  coo.add(0, 0, 1.0f);
  const auto csr = CsrMatrix::from_coo(coo);
  Matrix theta(2, 4, 1.0f);
  std::vector<real_t> a(16, 99.0f);
  std::vector<real_t> b(4, 99.0f);
  HermitianWorkspace ws;
  get_hermitian_row(csr, theta, 2, 0.1f, HermitianParams{2, 4}, ws, a, b);
  for (const real_t v : a) {
    EXPECT_EQ(v, 0.0f);
  }
  for (const real_t v : b) {
    EXPECT_EQ(v, 0.0f);
  }
}

TEST(Hermitian, RejectsBadTile) {
  const auto data = small_dataset(2000);
  const auto csr = CsrMatrix::from_coo(data.ratings);
  Matrix theta(csr.cols(), 20);
  std::vector<real_t> a(400);
  std::vector<real_t> b(20);
  HermitianWorkspace ws;
  EXPECT_THROW(get_hermitian_row(csr, theta, 0, 0.1f, HermitianParams{7, 32},
                                 ws, a, b),
               CheckError);
}

// ---------- SystemSolver ----------

class SolverKindSweep : public ::testing::TestWithParam<SolverKind> {};

TEST_P(SolverKindSweep, SolvesSpdSystem) {
  const std::size_t f = 16;
  Rng rng(3);
  std::vector<real_t> m(f * f);
  for (auto& v : m) {
    v = static_cast<real_t>(rng.normal(0.0, 1.0));
  }
  std::vector<real_t> a(f * f, 0);
  for (std::size_t i = 0; i < f; ++i) {
    for (std::size_t j = 0; j < f; ++j) {
      double acc = i == j ? 2.0 : 0.0;
      for (std::size_t k = 0; k < f; ++k) {
        acc += static_cast<double>(m[i * f + k]) *
               static_cast<double>(m[j * f + k]);
      }
      a[i * f + j] = static_cast<real_t>(acc);
    }
  }
  std::vector<real_t> b(f, 1.0f);
  std::vector<real_t> x(f, 0.0f);

  SolverOptions options;
  options.kind = GetParam();
  options.cg_fs = 64;  // enough for convergence in the exactness test
  options.cg_eps = 1e-5f;
  SystemSolver solver(f, options);
  ASSERT_TRUE(solver.solve(a, b, x));
  double worst = 0;
  for (std::size_t i = 0; i < f; ++i) {
    double acc = 0;
    for (std::size_t j = 0; j < f; ++j) {
      acc += static_cast<double>(a[i * f + j]) * static_cast<double>(x[j]);
    }
    worst = std::max(worst, std::abs(acc - 1.0));
  }
  // FP16 A storage perturbs the system itself: looser bound.
  EXPECT_LT(worst, GetParam() == SolverKind::CgFp16 ? 0.1 : 1e-2);
  EXPECT_EQ(solver.stats().systems, 1u);
  EXPECT_EQ(solver.stats().failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SolverKindSweep,
                         ::testing::Values(SolverKind::LuFp32,
                                           SolverKind::CholeskyFp32,
                                           SolverKind::CgFp32,
                                           SolverKind::CgFp16));

TEST(SystemSolver, ReportsFailureOnSingularSystem) {
  std::vector<real_t> a{1, 1, 1, 1};  // singular
  std::vector<real_t> b{1, 1};
  std::vector<real_t> x{0, 0};
  SolverOptions options;
  options.kind = SolverKind::LuFp32;
  SystemSolver solver(2, options);
  EXPECT_FALSE(solver.solve(a, b, x));
  EXPECT_EQ(solver.stats().failures, 1u);
}

TEST(SystemSolver, CgCountsIterations) {
  std::vector<real_t> a{4, 1, 1, 3};
  std::vector<real_t> b{1, 2};
  std::vector<real_t> x{0, 0};
  SolverOptions options;
  options.kind = SolverKind::CgFp32;
  options.cg_fs = 6;
  SystemSolver solver(2, options);
  ASSERT_TRUE(solver.solve(a, b, x));
  EXPECT_GE(solver.stats().cg_iterations, 1u);
  EXPECT_LE(solver.stats().cg_iterations, 6u);
}

TEST(SystemSolver, CgIterationHistogramTracksSolves) {
  std::vector<real_t> a{4, 1, 1, 3};
  std::vector<real_t> b{1, 2};
  std::vector<real_t> x{0, 0};
  SolverOptions options;
  options.kind = SolverKind::CgFp32;
  options.cg_fs = 6;
  SystemSolver solver(2, options);
  ASSERT_TRUE(solver.solve(a, b, x));
  x.assign({0, 0});
  ASSERT_TRUE(solver.solve(a, b, x));
  const SolveStats& stats = solver.stats();
  std::uint64_t histogram_total = 0;
  std::uint64_t weighted = 0;
  for (std::size_t i = 0; i < stats.cg_hist.size(); ++i) {
    histogram_total += stats.cg_hist[i];
    weighted += stats.cg_hist[i] * i;
  }
  EXPECT_EQ(histogram_total, 2u);  // one bucket entry per solve
  EXPECT_EQ(weighted, stats.cg_iterations);
}

/// Random SPD system A = GᵀG/f + I whose entries are not binary16 values,
/// so the CG-FP16 pack really rounds.
std::vector<real_t> random_spd(std::size_t f, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real_t> g(f * f);
  for (auto& v : g) {
    v = static_cast<real_t>(rng.normal());
  }
  std::vector<real_t> a(f * f);
  for (std::size_t i = 0; i < f; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < f; ++k) {
        acc += static_cast<double>(g[k * f + i]) * g[k * f + j];
      }
      a[i * f + j] = a[j * f + i] =
          static_cast<real_t>(acc / static_cast<double>(f));
    }
    a[i * f + i] += real_t{1};
  }
  return a;
}

TEST(SystemSolver, CgFp16MatchesCgOverTheHalfPackBitForBit) {
  // The solver rounds A through binary16 once and runs the FP32 CG on the
  // rounded floats; that must be exactly CG over the half pack itself.
  // f = 7, 20 and 100 cover the gemv's 4-row interleave with and without
  // leftover rows and its scalar column tail.
  for (const std::size_t f : {7ul, 20ul, 100ul}) {
    for (const auto path :
         {simd::KernelPath::scalar, simd::KernelPath::simd}) {
      SolverOptions options;
      options.kind = SolverKind::CgFp16;
      options.cg_fs = 6;
      options.path = path;
      SystemSolver solver(f, options);
      SolveStats expect;
      Rng rng(f);
      for (std::uint64_t sys = 0; sys < 4; ++sys) {
        const auto a = random_spd(f, 100 * f + sys);
        std::vector<real_t> b(f);
        std::vector<real_t> x0(f);
        for (std::size_t i = 0; i < f; ++i) {
          b[i] = static_cast<real_t>(rng.normal());
          x0[i] = static_cast<real_t>(rng.normal(0.0, 0.1));
        }
        std::vector<half> pack(f * f);
        for (std::size_t i = 0; i < a.size(); ++i) {
          pack[i] = half(a[i]);
        }
        std::vector<real_t> x_half = x0;
        const CgResult ref =
            cg_solve<half>(f, std::span<const half>(pack), b, x_half,
                           options.cg_fs, options.cg_eps, path);
        ASSERT_FALSE(ref.breakdown);
        ++expect.systems;
        expect.fp16_converted += f * f;
        expect.record_cg(ref.iterations);

        std::vector<real_t> x = x0;
        ASSERT_TRUE(solver.solve(a, b, x));
        for (std::size_t i = 0; i < f; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(x[i]),
                    std::bit_cast<std::uint32_t>(x_half[i]))
              << "f=" << f << " path=" << to_string(path) << " sys=" << sys
              << " i=" << i;
        }
      }
      EXPECT_EQ(solver.stats(), expect) << "f=" << f;
    }
  }
}

TEST(SystemSolver, CgFp16PackCheckKeepsItsVerdicts) {
  // The overflow half of the check is fused into the vector round, so place
  // each probe value at the first and last lane of the vector body, at the
  // first and last lane of its last vector, and in the scalar tail: f = 2
  // is all tail, f = 7 a body plus a one-element tail, f = 16, 20 and 100
  // all body.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  struct Probe {
    float value;
    std::uint64_t fallbacks;
  };
  // 65520 is the tie between half max (65504) and inf; it rounds to inf.
  // 65519 rounds to 65504. An element that is already infinite or NaN did
  // not overflow in the pack; the CG breakdown ladder handles it instead.
  const Probe probes[] = {{65520.0f, 1}, {-65520.0f, 1}, {1e30f, 1},
                          {65519.0f, 0}, {-65519.0f, 0}, {inf, 0},
                          {-inf, 0},     {nan, 0}};
  for (const std::size_t f : {2ul, 7ul, 16ul, 20ul, 100ul}) {
    const std::size_t n = f * f;
    const std::size_t body = n - n % 8;
    std::vector<std::size_t> where = {0, n - 1};
    if (body >= 8) {
      where.insert(where.end(), {7, body - 8, body - 1});
    }
    if (body > 0 && body < n) {
      where.push_back(body);
    }
    const auto base = random_spd(f, 7 * f);
    const std::vector<real_t> b(f, real_t{1});
    for (const auto path :
         {simd::KernelPath::scalar, simd::KernelPath::simd}) {
      SolverOptions options;
      options.kind = SolverKind::CgFp16;
      options.cg_fs = 8;
      options.path = path;
      for (const std::size_t at : where) {
        for (const Probe& p : probes) {
          SystemSolver solver(f, options);
          auto a = base;
          a[at] = p.value;
          std::vector<real_t> x(f, real_t{0});
          (void)solver.solve(a, b, x);
          EXPECT_EQ(solver.stats().fp16_fallbacks, p.fallbacks)
              << "f=" << f << " path=" << to_string(path) << " at=" << at
              << " value=" << p.value;
        }
      }
    }
  }

  SolverOptions options;
  options.kind = SolverKind::CgFp16;
  options.cg_fs = 8;
  const std::vector<real_t> b = {1.0f, 1.0f};
  const auto fallbacks = [&](const std::vector<real_t>& a) {
    SystemSolver solver(2, options);
    std::vector<real_t> x = {0.0f, 0.0f};
    (void)solver.solve(a, b, x);
    return solver.stats().fp16_fallbacks;
  };
  // A nonzero diagonal below 2^-25 flushes to zero: retry in FP32.
  EXPECT_EQ(fallbacks({1e-8f, 0.0f, 0.0f, 1.0f}), 1u);
  // A flushed off-diagonal loses nothing that keeps A SPD: no retry.
  EXPECT_EQ(fallbacks({1.0f, 1e-8f, 1e-8f, 1.0f}), 0u);
}

TEST(SolveStats, DeltaOfCumulativeSnapshots) {
  SolveStats older;
  older.systems = 10;
  older.cg_iterations = 55;
  older.fp16_converted = 100;
  older.cg_hist[5] = 5;
  older.cg_hist[6] = 5;
  SolveStats newer = older;
  newer.systems += 4;
  newer.cg_iterations += 24;
  newer.fp16_converted += 40;
  newer.cg_hist[6] += 4;
  const SolveStats delta = newer - older;
  EXPECT_EQ(delta.systems, 4u);
  EXPECT_EQ(delta.cg_iterations, 24u);
  EXPECT_EQ(delta.fp16_converted, 40u);
  EXPECT_EQ(delta.cg_hist[5], 0u);
  EXPECT_EQ(delta.cg_hist[6], 4u);
}

// ---------- AlsEngine ----------

TEST(Als, RmseDecreasesAndReachesNoiseFloor) {
  const auto data = small_dataset(8000);
  Rng rng(17);
  const auto split = split_holdout(data.ratings, 0.1, rng);

  AlsOptions options;
  options.f = 16;
  options.lambda = 0.05f;
  options.solver.kind = SolverKind::CgFp32;
  options.solver.cg_fs = 6;
  AlsEngine als(split.train, options);

  double prev = 1e9;
  double best = 1e9;
  for (int epoch = 0; epoch < 12; ++epoch) {
    als.run_epoch();
    const double test =
        rmse(split.test, als.user_factors(), als.item_factors());
    best = std::min(best, test);
    if (epoch >= 2) {
      EXPECT_LT(test, prev * 1.10) << "diverging at epoch " << epoch;
    }
    prev = test;
  }
  // Must approach the irreducible noise (within 50%: small test set, wide
  // f relative to the row degree, regularization bias).
  EXPECT_LT(best, data.noise_floor_rmse * 1.5);
}

TEST(Als, CgMatchesLuFinalAccuracy) {
  // The paper's central accuracy claim: truncated CG (fs=6) converges to
  // the same RMSE as the exact LU solver.
  const auto data = small_dataset(8000, 23);
  Rng rng(19);
  const auto split = split_holdout(data.ratings, 0.1, rng);

  const auto run = [&](SolverKind kind) {
    AlsOptions options;
    options.f = 16;
    options.lambda = 0.05f;
    options.solver.kind = kind;
    options.solver.cg_fs = 6;
    AlsEngine als(split.train, options);
    for (int epoch = 0; epoch < 10; ++epoch) {
      als.run_epoch();
    }
    return rmse(split.test, als.user_factors(), als.item_factors());
  };

  const double lu = run(SolverKind::LuFp32);
  const double cg32 = run(SolverKind::CgFp32);
  const double cg16 = run(SolverKind::CgFp16);
  EXPECT_NEAR(cg32, lu, 0.02 * lu);
  EXPECT_NEAR(cg16, lu, 0.04 * lu);  // FP16: slightly looser, still converged
}

TEST(Als, TiledAndReferenceHermitianGiveSameTrajectory) {
  const auto data = small_dataset(5000, 29);
  AlsOptions tiled;
  tiled.f = 16;
  tiled.solver.kind = SolverKind::CholeskyFp32;
  auto plain = tiled;
  plain.tiled_hermitian = false;

  AlsEngine a(data.ratings, tiled);
  AlsEngine b(data.ratings, plain);
  for (int epoch = 0; epoch < 3; ++epoch) {
    a.run_epoch();
    b.run_epoch();
  }
  const double ra = rmse(data.ratings, a.user_factors(), a.item_factors());
  const double rb = rmse(data.ratings, b.user_factors(), b.item_factors());
  EXPECT_NEAR(ra, rb, 1e-3);
}

TEST(Als, HandlesRowsAndColsWithNoTrainingData) {
  RatingsCoo coo(5, 4);
  coo.add(0, 0, 4.0f);
  coo.add(1, 0, 3.0f);
  coo.add(0, 1, 5.0f);
  // rows 2-4 and cols 2-3 unobserved
  AlsOptions options;
  options.f = 4;
  AlsEngine als(coo, options);
  als.run_epoch();
  als.run_epoch();
  for (const real_t v : als.user_factors().data()) {
    EXPECT_TRUE(std::isfinite(v));
  }
  for (const real_t v : als.item_factors().data()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Als, MeasuredOpsMatchAnalyticComplexity) {
  const auto data = small_dataset(6000, 31);
  AlsOptions options;
  options.f = 16;
  options.solver.kind = SolverKind::CgFp32;
  options.solver.cg_fs = 6;
  AlsEngine als(data.ratings, options);
  als.run_epoch();
  const double f = 16;
  const double nnz = static_cast<double>(data.ratings.nnz());
  // Hermitian FLOPs = 2·Nz·(f² + 2f) (both half-sweeps).
  const double expected = 2.0 * nnz * (f * f + 2.0 * f);
  EXPECT_NEAR(als.hermitian_ops_per_epoch().flops, expected,
              0.01 * expected);
  EXPECT_GT(als.solve_ops_per_epoch().flops, 0.0);
}

TEST(Als, PickTileDividesF) {
  EXPECT_EQ(pick_tile(100, 10), 10);
  EXPECT_EQ(pick_tile(16, 10), 8);
  EXPECT_EQ(pick_tile(24, 10), 8);
  EXPECT_EQ(pick_tile(17, 10), 1);  // prime: degenerate tile
  EXPECT_EQ(pick_tile(40, 40), 40);
}

TEST(Als, RejectsBadOptions) {
  const auto data = small_dataset(2000, 37);
  AlsOptions options;
  options.lambda = 0.0f;
  EXPECT_THROW(AlsEngine(data.ratings, options), CheckError);
}

// ---------- implicit ALS ----------

/// The implicit training objective Σ_uv c_uv (p_uv − x_uᵀθ_v)² +
/// λ(‖X‖²+‖Θ‖²), evaluated exactly over all m·n cells: O(m·n·f), so small
/// data only.
double implicit_dense_loss(const ImplicitDataset& data, const Matrix& x,
                           const Matrix& theta, double lambda) {
  RatingsCoo canonical = data.interactions;
  canonical.sort_and_dedup();
  const auto r = CsrMatrix::from_coo(canonical);
  double loss = 0.0;
  for (index_t u = 0; u < r.rows(); ++u) {
    const auto cols = r.row_cols(u);
    const auto vals = r.row_vals(u);
    std::size_t k = 0;
    for (index_t v = 0; v < r.cols(); ++v) {
      const double pred = dot(x.row(u), theta.row(v));
      double c = 1.0;  // unobserved cells: p = 0, c = 1
      double p = 0.0;
      if (k < cols.size() && cols[k] == v) {
        c = 1.0 + data.alpha * static_cast<double>(vals[k]);
        p = 1.0;
        ++k;
      }
      loss += c * (p - pred) * (p - pred);
    }
  }
  double reg = 0.0;
  for (const Matrix* m : {&x, &theta}) {
    for (const real_t w : m->data()) {
      reg += static_cast<double>(w) * w;
    }
  }
  return loss + lambda * reg;
}

TEST(ImplicitAls, DenseLossDecreasesMonotonically) {
  SyntheticConfig cfg;
  cfg.m = 60;
  cfg.n = 30;
  cfg.nnz = 600;
  cfg.seed = 41;
  const auto data = generate_synthetic(cfg);
  const auto implicit = to_implicit(data.ratings, 3.0f, 10.0);

  ImplicitAlsOptions options;
  options.f = 8;
  options.lambda = 0.1f;
  options.solver.kind = SolverKind::CholeskyFp32;
  ImplicitAlsEngine engine(implicit, options);

  const auto dense_loss = [&] {
    return implicit_dense_loss(implicit, engine.user_factors(),
                               engine.item_factors(), options.lambda);
  };
  double prev = dense_loss();
  for (int epoch = 0; epoch < 5; ++epoch) {
    engine.run_epoch();
    const double loss = dense_loss();
    EXPECT_LE(loss, prev * 1.0001) << "epoch " << epoch;
    prev = loss;
  }
}

TEST(ImplicitAls, RanksObservedAboveUnobserved) {
  SyntheticConfig cfg;
  cfg.m = 80;
  cfg.n = 40;
  cfg.nnz = 800;
  cfg.seed = 43;
  const auto data = generate_synthetic(cfg);
  const auto implicit = to_implicit(data.ratings, 3.5f, 40.0);

  ImplicitAlsOptions options;
  options.f = 8;
  options.lambda = 0.05f;
  ImplicitAlsEngine engine(implicit, options);
  for (int epoch = 0; epoch < 8; ++epoch) {
    engine.run_epoch();
  }

  // Mean score of observed pairs must exceed mean score of random pairs.
  const auto csr = CsrMatrix::from_coo(implicit.interactions);
  double observed = 0.0;
  nnz_t count = 0;
  for (const Rating& e : implicit.interactions.entries()) {
    observed += engine.score(e.u, e.v);
    ++count;
  }
  observed /= static_cast<double>(count);

  Rng rng(45);
  double background = 0.0;
  for (int i = 0; i < 2000; ++i) {
    background += engine.score(
        static_cast<index_t>(rng.uniform_index(cfg.m)),
        static_cast<index_t>(rng.uniform_index(cfg.n)));
  }
  background /= 2000.0;
  EXPECT_GT(observed, background + 0.2);
}

// ---------- multi-GPU ----------

TEST(MultiGpu, PartitionCoversAllRows) {
  const auto parts = partition_rows(103, 4);
  ASSERT_EQ(parts.size(), 4u);
  index_t total = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    total += parts[p].size();
    if (p > 0) {
      EXPECT_EQ(parts[p].begin, parts[p - 1].end);
    }
  }
  EXPECT_EQ(total, 103u);
  EXPECT_THROW(partition_rows(103, 0), CheckError);
}

TEST(MultiGpu, PartitionYieldsEmptyTailsWhenPartsExceedRows) {
  // A 4-GPU run on a 2-row dataset idles the surplus devices instead of
  // refusing to construct.
  const auto parts = partition_rows(2, 4);
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0].size(), 1u);
  EXPECT_EQ(parts[1].size(), 1u);
  EXPECT_EQ(parts[2].size(), 0u);
  EXPECT_EQ(parts[3].size(), 0u);
  EXPECT_EQ(parts[3].end, 2u);

  const auto empty = partition_rows(0, 3);
  ASSERT_EQ(empty.size(), 3u);
  for (const RowRange& r : empty) {
    EXPECT_EQ(r.size(), 0u);
  }
}

TEST(MultiGpu, NnzBalancedShardsCoverRowsAndBalanceWork) {
  SyntheticConfig cfg;
  cfg.m = 400;
  cfg.n = 60;
  cfg.nnz = 12000;
  cfg.row_zipf = 1.1;  // heavy skew: the case row-count splits lose on
  cfg.seed = 61;
  const auto data = generate_synthetic(cfg);
  const auto csr = CsrMatrix::from_coo(data.ratings);
  const auto& ptr = csr.row_ptr();

  const auto shards = nnz_balanced_shards(csr, 4);
  ASSERT_EQ(shards.size(), 4u);
  EXPECT_EQ(shards.front().begin, 0u);
  EXPECT_EQ(shards.back().end, csr.rows());
  nnz_t heaviest_nnz = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (s > 0) {
      EXPECT_EQ(shards[s].begin, shards[s - 1].end);
    }
    heaviest_nnz = std::max(
        heaviest_nnz, ptr[shards[s].end] - ptr[shards[s].begin]);
  }
  // The heaviest shard cannot exceed the perfect quarter by more than the
  // heaviest single row (contiguous cuts cannot split a row).
  nnz_t max_row = 0;
  for (index_t u = 0; u < csr.rows(); ++u) {
    max_row = std::max(max_row, ptr[u + 1] - ptr[u]);
  }
  EXPECT_LE(heaviest_nnz, csr.nnz() / 4 + max_row);

  // More shards than rows: tails are empty, coverage still exact.
  SyntheticConfig tiny;
  tiny.m = 3;
  tiny.n = 5;
  tiny.nnz = 10;
  tiny.seed = 3;
  const auto small_csr =
      CsrMatrix::from_coo(generate_synthetic(tiny).ratings);
  const auto wide = nnz_balanced_shards(small_csr, 6);
  ASSERT_EQ(wide.size(), 6u);
  EXPECT_EQ(wide.front().begin, 0u);
  EXPECT_EQ(wide.back().end, small_csr.rows());
}

TEST(MultiGpu, FourGpusMatchSingleGpuExactly) {
  const auto data = small_dataset(4000, 47);
  AlsOptions options;
  options.f = 16;
  options.solver.kind = SolverKind::CholeskyFp32;

  MultiGpuAls single(data.ratings, options, 1);
  MultiGpuAls quad(data.ratings, options, 4);
  for (int epoch = 0; epoch < 2; ++epoch) {
    single.run_epoch();
    quad.run_epoch();
  }
  EXPECT_EQ(single.user_factors(), quad.user_factors());
  EXPECT_EQ(single.item_factors(), quad.item_factors());
  // Merged per-device SolveStats are integer sums, so they must match the
  // single-device totals exactly, not approximately.
  EXPECT_EQ(single.solve_stats(), quad.solve_stats());
}

TEST(MultiGpu, MatchesAlsEngineBitForBit) {
  // The concurrent sharded engine and the reference AlsEngine share the
  // als_update_rows hot loop; with identical seeds the factors and the
  // solver accounting must agree to the last bit, CG-FP16 quirks included.
  const auto data = small_dataset(5000, 59);
  AlsOptions options;
  options.f = 16;
  options.solver.kind = SolverKind::CgFp16;
  options.solver.cg_fs = 5;

  AlsEngine reference(data.ratings, options);
  MultiGpuAls quad(data.ratings, options, 4);
  for (int epoch = 0; epoch < 3; ++epoch) {
    reference.run_epoch();
    quad.run_epoch();
  }
  EXPECT_EQ(reference.user_factors(), quad.user_factors());
  EXPECT_EQ(reference.item_factors(), quad.item_factors());
  EXPECT_EQ(reference.solve_stats(), quad.solve_stats());
  EXPECT_GT(quad.solve_stats().systems, 0u);
}

TEST(MultiGpu, StaticRowScheduleIsAlsoBitIdentical) {
  // AlsSchedule::static_rows swaps the nnz-balanced device shards for the
  // row-count split (the ablation baseline); any disjoint partition must
  // produce the same factors.
  const auto data = small_dataset(4000, 67);
  AlsOptions options;
  options.f = 12;
  options.schedule = AlsSchedule::static_rows;

  MultiGpuAls single(data.ratings, options, 1);
  MultiGpuAls quad(data.ratings, options, 4);
  for (int epoch = 0; epoch < 2; ++epoch) {
    single.run_epoch();
    quad.run_epoch();
  }
  EXPECT_EQ(single.user_factors(), quad.user_factors());
  // The shards really are row-count cuts, not nnz cuts.
  const auto& shards = quad.user_shards();
  ASSERT_EQ(shards.size(), 4u);
  EXPECT_LE(shards[0].size() - shards[3].size(), 1u);
}

TEST(MultiGpu, FaultInjectionCountsMatchDeviceCounts) {
  // Fault decisions are pure functions of (seed, site, row), so a plan
  // must corrupt exactly the same systems — and trigger exactly the same
  // degradations — on 1 device, on 4 devices, and in AlsEngine.
  const auto data = small_dataset(4000, 71);
  AlsOptions options;
  options.f = 16;
  options.solver.kind = SolverKind::CgFp16;

  analysis::FaultPlan plan;
  plan.seed = 5;
  plan.indefinite_a_prob = 0.05;
  plan.fp16_overflow_prob = 0.05;

  const auto run_counts = [&](auto& engine) {
    analysis::FaultInjector::instance().arm(plan);  // arm resets counts
    engine.run_epoch();
    engine.run_epoch();
    const auto& c = analysis::FaultInjector::instance().counts();
    return std::pair{c.indefinite_a.load(), c.fp16_overflow.load()};
  };

  AlsEngine reference(data.ratings, options);
  MultiGpuAls quad(data.ratings, options, 4);
  const auto ref_counts = run_counts(reference);
  const auto quad_counts = run_counts(quad);
  analysis::FaultInjector::instance().disarm();

  EXPECT_GT(ref_counts.first + ref_counts.second, 0u);
  EXPECT_EQ(ref_counts, quad_counts);
  EXPECT_EQ(reference.user_factors(), quad.user_factors());
  EXPECT_EQ(reference.item_factors(), quad.item_factors());
  // Degradation accounting (CG breakdowns -> LU fallbacks, FP16 overflow
  // -> FP32 retries) merges across devices without loss.
  EXPECT_EQ(reference.solve_stats(), quad.solve_stats());
  EXPECT_GT(quad.solve_stats().cg_fallbacks, 0u);
  EXPECT_GT(quad.solve_stats().fp16_fallbacks, 0u);
}

TEST(MultiGpu, EpochHookAndRestoreContinueBitIdentically) {
  const auto data = small_dataset(3000, 73);
  AlsOptions options;
  options.f = 12;

  std::vector<int> hooked;
  MultiGpuAls full(data.ratings, options, 4);
  full.set_epoch_hook([&](int epoch) { hooked.push_back(epoch); });
  full.run_epoch();
  full.run_epoch();
  const Matrix snap_x = full.user_factors();
  const Matrix snap_theta = full.item_factors();
  const SolveStats snap_stats = full.solve_stats();
  full.run_epoch();
  EXPECT_EQ(hooked, (std::vector<int>{1, 2, 3}));

  // A fresh engine restored from the epoch-2 snapshot (with a different
  // device count, like a post-crash resume on other hardware) must land on
  // the same epoch-3 state and carry the stats baseline forward.
  MultiGpuAls resumed(data.ratings, options, 2);
  resumed.restore(snap_x, snap_theta, 2, snap_stats);
  EXPECT_EQ(resumed.epochs_run(), 2);
  resumed.run_epoch();
  EXPECT_EQ(resumed.epochs_run(), 3);
  EXPECT_EQ(resumed.user_factors(), full.user_factors());
  EXPECT_EQ(resumed.item_factors(), full.item_factors());
  EXPECT_EQ(resumed.solve_stats(), full.solve_stats());
}

TEST(MultiGpu, EpochTimeImprovesWithMoreGpus) {
  const auto data = small_dataset(4000, 53);
  AlsOptions options;
  options.f = 20;
  MultiGpuAls one(data.ratings, options, 1);
  MultiGpuAls four(data.ratings, options, 4);
  const auto dev = gpusim::DeviceSpec::pascal_p100();
  const auto config = AlsKernelConfig{};
  const double t1 =
      one.epoch_timeline(dev, config, gpusim::LinkSpec::nvlink()).total_s();
  const double t4 =
      four.epoch_timeline(dev, config, gpusim::LinkSpec::nvlink()).total_s();
  EXPECT_LT(t4, t1);
  EXPECT_GT(t4, t1 / 4.0);  // communication keeps it sublinear
}

TEST(MultiGpu, TimelineChargesInterconnectAndOverlap) {
  const auto data = small_dataset(6000, 79);
  AlsOptions options;
  options.f = 16;
  MultiGpuAls four(data.ratings, options, 4);
  const auto dev = gpusim::DeviceSpec::pascal_p100();
  const AlsKernelConfig config{};

  const auto nvlink = gpusim::LinkSpec::nvlink();
  const auto pcie = gpusim::LinkSpec::pcie3();
  const auto overlapped = four.epoch_timeline(dev, config, nvlink);
  const auto serial =
      four.epoch_timeline(dev, config, nvlink, /*overlap=*/false);
  // Same wire traffic either way; overlap only changes the exposed part.
  EXPECT_DOUBLE_EQ(overlapped.update_x.comm_total_s,
                   serial.update_x.comm_total_s);
  EXPECT_GT(overlapped.comm_s(), 0.0);
  EXPECT_LT(overlapped.comm_s(), serial.comm_s());
  EXPECT_LT(overlapped.total_s(), serial.total_s());

  // The slower link exposes more communication time.
  const auto on_pcie = four.epoch_timeline(dev, config, pcie);
  EXPECT_GT(on_pcie.comm_s(), overlapped.comm_s());

  // One device pays no interconnect at all.
  MultiGpuAls one(data.ratings, options, 1);
  const auto alone = one.epoch_timeline(dev, config, nvlink);
  EXPECT_EQ(alone.comm_s(), 0.0);

  // And the scaling report is internally consistent.
  const auto report = four.scaling_report(dev, config, nvlink);
  EXPECT_EQ(report.gpus, 4);
  EXPECT_NEAR(report.total_s, report.compute_s + report.comm_s, 1e-12);
  EXPECT_NEAR(report.efficiency, report.speedup / 4.0, 1e-12);
  EXPECT_GT(report.speedup, 1.0);
  EXPECT_LT(report.speedup, 4.0);
  EXPECT_GT(report.comm_fraction, 0.0);
  EXPECT_LT(report.comm_fraction, 1.0);
}

TEST(MultiGpu, PooledTimelineMatchesSerialUnderOneTwoThreeDevices) {
  const auto data = small_dataset(5000, 61);
  AlsOptions options;
  options.f = 16;
  // The engine's canonical views, rebuilt here to model them serially.
  RatingsCoo canonical = data.ratings;
  canonical.sort_and_dedup();
  const CsrMatrix r = CsrMatrix::from_coo(canonical);
  const CsrMatrix rt = r.transposed();
  const auto dev = gpusim::DeviceSpec::pascal_p100();
  const auto link = gpusim::LinkSpec::nvlink();
  const AlsKernelConfig config{};
  for (const int gpus : {1, 2, 3}) {
    const MultiGpuAls engine(data.ratings, options, gpus);
    const std::vector<RowRange> x_shards = nnz_balanced_shards(r, gpus);
    ASSERT_EQ(engine.user_shards().size(), x_shards.size());
    for (std::size_t d = 0; d < x_shards.size(); ++d) {
      ASSERT_EQ(engine.user_shards()[d].begin, x_shards[d].begin);
      ASSERT_EQ(engine.user_shards()[d].end, x_shards[d].end);
    }
    const MultiGpuTimeline serial{
        multi_gpu_half_sweep(dev, config, link, r, x_shards, true),
        multi_gpu_half_sweep(dev, config, link, rt,
                             nnz_balanced_shards(rt, gpus), true)};
    const MultiGpuTimeline pooled = engine.epoch_timeline(dev, config, link);
    EXPECT_TRUE(pooled == serial) << gpus << " devices";
    const MultiGpuScaling report = engine.scaling_report(dev, config, link);
    EXPECT_TRUE(report.timeline == serial) << gpus << " devices";
    EXPECT_EQ(report.total_s, serial.total_s());
    EXPECT_EQ(report.single_gpu_s,
              update_phase_times(dev, {300, 80, static_cast<double>(r.nnz())},
                                 config)
                      .total_seconds() +
                  update_phase_times(
                      dev, {80, 300, static_cast<double>(r.nnz())}, config)
                      .total_seconds());
  }
}

// ---------- kernel cost-model bridge ----------

/// Every TraceStats field: warp instructions, line accesses, L1/L2/DRAM
/// hits, worst-level instruction counts, rows.
std::array<std::uint64_t, 9> trace_fields(const gpusim::TraceStats& s) {
  return {s.warp_instructions, s.line_accesses,   s.l1_hits,
          s.l2_hits,           s.dram_accesses,   s.inst_worst_l1,
          s.inst_worst_l2,     s.inst_worst_dram, s.rows_simulated};
}

TEST(KernelStats, LoadTraceMatchesGoldenStatsOfTheMaterializedReplay) {
  // TraceStats the materialized replay (tests/trace_oracle.hpp) produced
  // for the synthetic rows of these shapes. Each is read twice — the
  // second read comes from the memo.
  const auto expect_stats = [](const gpusim::TraceStats& s,
                               const std::array<std::uint64_t, 9>& want) {
    EXPECT_EQ(trace_fields(s), want);
  };
  AlsKernelConfig config;  // f=100, tile=10, BIN=32, nonCoal-L1
  const auto p100 = gpusim::DeviceSpec::pascal_p100();
  const auto titan = gpusim::DeviceSpec::maxwell_titan_x();
  // A hugewiki-ooc column tile: 12 items over 10000 users.
  const UpdateShape tile{12, 10000, 35714};
  // The netflix-incore verdict shapes (6000 x 250, 10% held out).
  const UpdateShape x{6000, 250, 270000};
  const UpdateShape t{250, 6000, 270000};
  for (int read = 0; read < 2; ++read) {
    expect_stats(hermitian_load_stats(p100, tile, config),
                 {93000, 2972000, 142141, 2657570, 172289, 0, 55111, 37889,
                  5});
    expect_stats(hermitian_load_stats(titan, x, config),
                 {1800, 54350, 50442, 3199, 709, 568, 1038, 194, 6});
    expect_stats(hermitian_load_stats(titan, t, config),
                 {40500, 1291488, 591468, 650882, 49138, 0, 33029, 7471, 6});
  }
  config.load_scheme = LoadScheme::Coalesced;
  expect_stats(hermitian_load_stats(titan, x, config),
               {2160, 3564, 2406, 449, 709, 1186, 366, 608, 6});
  config.load_scheme = LoadScheme::NonCoalescedNoL1;
  expect_stats(hermitian_load_stats(titan, x, config),
               {1800, 54350, 0, 53641, 709, 0, 1606, 194, 6});
}

TEST(KernelStats, LoadTraceMemoKeysOnEverythingTheTraceReads) {
  const auto p100 = gpusim::DeviceSpec::pascal_p100();
  const AlsKernelConfig config;
  const UpdateShape shape{100, 250, 5000};
  const auto base = trace_fields(hermitian_load_stats(p100, shape, config));
  // The same average degree ⌊nnz/rows⌋ and fixed side: the same trace.
  EXPECT_EQ(trace_fields(hermitian_load_stats(p100, {200, 250, 10099}, config)),
            base);
  // Anything else the trace reads gets its own entry.
  EXPECT_NE(trace_fields(hermitian_load_stats(p100, {100, 60000, 5000}, config)),
            base);
  EXPECT_NE(trace_fields(hermitian_load_stats(p100, {100, 250, 7000}, config)),
            base);
  EXPECT_NE(trace_fields(hermitian_load_stats(
                gpusim::DeviceSpec::maxwell_titan_x(), shape, config)),
            base);
  AlsKernelConfig other = config;
  other.bin = 16;
  EXPECT_NE(trace_fields(hermitian_load_stats(p100, shape, other)), base);
  other = config;
  other.load_scheme = LoadScheme::NonCoalescedNoL1;
  EXPECT_NE(trace_fields(hermitian_load_stats(p100, shape, other)), base);
  other = config;
  other.f = 40;
  EXPECT_NE(trace_fields(hermitian_load_stats(p100, shape, other)), base);
}

TEST(KernelStats, UpdateSecondsIsIdenticalOnAnyPoolSize) {
  const auto dev = gpusim::DeviceSpec::pascal_p100();
  const AlsKernelConfig config{};
  const std::vector<UpdateShape> shapes{
      {500, 120, 9000}, {12, 10000, 30000}, {7, 900, 4000}, {500, 120, 9001}};
  const std::vector<double> serial = update_seconds(dev, shapes, config);
  ASSERT_EQ(serial.size(), shapes.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    EXPECT_EQ(serial[i],
              update_phase_times(dev, shapes[i], config).total_seconds());
  }
  for (const std::size_t threads : {1u, 2u, 3u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(update_seconds(dev, shapes, config, &pool), serial);
  }
  // A failing shape surfaces on the caller, from the pool as well.
  const std::vector<UpdateShape> bad{{10, 10, 100}, {0, 10, 100}};
  ThreadPool pool(2);
  EXPECT_THROW(update_seconds(dev, bad, config, &pool), CheckError);
  EXPECT_THROW(update_seconds(dev, bad, config), CheckError);
}

TEST(KernelStats, PaperOccupancyThroughConfig) {
  AlsKernelConfig config;  // f=100, tile=10, bin=32
  const auto occ =
      hermitian_occupancy(gpusim::DeviceSpec::maxwell_titan_x(), config);
  EXPECT_EQ(occ.blocks_per_sm, 6);
}

TEST(KernelStats, Fig4LoadOrdering) {
  // nonCoal-L1 < nonCoal-noL1 < coal for the load phase (Netflix shape).
  const auto dev = gpusim::DeviceSpec::maxwell_titan_x();
  UpdateShape shape{480189, 17770, 99e6};
  AlsKernelConfig config;
  config.load_scheme = LoadScheme::NonCoalescedL1;
  const double t_l1 = update_phase_times(dev, shape, config).load.seconds;
  config.load_scheme = LoadScheme::NonCoalescedNoL1;
  const double t_nol1 = update_phase_times(dev, shape, config).load.seconds;
  config.load_scheme = LoadScheme::Coalesced;
  const double t_coal = update_phase_times(dev, shape, config).load.seconds;
  EXPECT_LT(t_l1, t_nol1);
  EXPECT_LT(t_nol1, t_coal);
}

TEST(KernelStats, Fig4ComputeInvariantAcrossSchemes) {
  const auto dev = gpusim::DeviceSpec::maxwell_titan_x();
  UpdateShape shape{480189, 17770, 99e6};
  AlsKernelConfig a;
  a.load_scheme = LoadScheme::Coalesced;
  AlsKernelConfig b;
  b.load_scheme = LoadScheme::NonCoalescedL1;
  EXPECT_DOUBLE_EQ(update_phase_times(dev, shape, a).compute.seconds,
                   update_phase_times(dev, shape, b).compute.seconds);
}

TEST(KernelStats, Fig5SolverOrdering) {
  // LU-FP32 ≫ CG-FP32 > CG-FP16 (paper: 4x and 2x).
  const auto dev = gpusim::DeviceSpec::maxwell_titan_x();
  UpdateShape shape{480189, 17770, 99e6};
  AlsKernelConfig config;
  config.solver = SolverKind::LuFp32;
  const double lu = update_phase_times(dev, shape, config).solve.seconds;
  config.solver = SolverKind::CgFp32;
  const double cg32 = update_phase_times(dev, shape, config).solve.seconds;
  config.solver = SolverKind::CgFp16;
  const double cg16 = update_phase_times(dev, shape, config).solve.seconds;
  EXPECT_GT(lu / cg32, 2.5);
  EXPECT_NEAR(cg32 / cg16, 2.0, 0.35);
}

TEST(KernelStats, EpochFasterOnNewerDevices) {
  AlsKernelConfig config;
  const double k = als_epoch_seconds(gpusim::DeviceSpec::kepler_k40(),
                                     480189, 17770, 99e6, config);
  const double m = als_epoch_seconds(gpusim::DeviceSpec::maxwell_titan_x(),
                                     480189, 17770, 99e6, config);
  const double p = als_epoch_seconds(gpusim::DeviceSpec::pascal_p100(),
                                     480189, 17770, 99e6, config);
  EXPECT_GT(k, m);
  EXPECT_GT(m, p);
}

TEST(KernelStats, SgdEpochMemoryBoundAndHalvedByFp16) {
  const auto dev = gpusim::DeviceSpec::maxwell_titan_x();
  const double fp32 = sgd_epoch_seconds(dev, 99e6, 100, false);
  const double fp16 = sgd_epoch_seconds(dev, 99e6, 100, true);
  EXPECT_NEAR(fp32 / fp16, 2.0, 0.25);
}


// ---------- additional property sweeps & failure injection ----------

class AlsLatentDimSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AlsLatentDimSweep, ConvergesForAnyF) {
  // Includes f=17 (prime → degenerate tile of 1) and non-multiples of the
  // default tile 10, exercising the pick_tile fallback.
  const std::size_t f = GetParam();
  const auto data = small_dataset(6000, 200 + f);
  AlsOptions options;
  options.f = f;
  options.lambda = 0.05f;
  options.solver.kind = SolverKind::CgFp32;
  options.solver.cg_fs = 6;
  AlsEngine als(data.ratings, options);
  double first = 0;
  double last = 0;
  for (int epoch = 0; epoch < 6; ++epoch) {
    als.run_epoch();
    const double r =
        rmse(data.ratings, als.user_factors(), als.item_factors());
    if (epoch == 0) {
      first = r;
    }
    last = r;
  }
  EXPECT_LT(last, first * 1.001) << "f=" << f;
  EXPECT_LT(last, 0.6) << "f=" << f;
  for (const real_t v : als.user_factors().data()) {
    ASSERT_TRUE(std::isfinite(v));
  }
}

INSTANTIATE_TEST_SUITE_P(LatentDims, AlsLatentDimSweep,
                         ::testing::Values(4, 8, 12, 17, 24, 40));

TEST(Als, RejectsNonFiniteRatings) {
  RatingsCoo coo(2, 2);
  coo.add(0, 0, std::numeric_limits<real_t>::quiet_NaN());
  coo.add(1, 1, 1.0f);
  AlsOptions options;
  options.f = 4;
  EXPECT_THROW(AlsEngine(coo, options), CheckError);

  RatingsCoo inf_coo(2, 2);
  inf_coo.add(0, 0, std::numeric_limits<real_t>::infinity());
  inf_coo.add(1, 1, 1.0f);
  EXPECT_THROW(AlsEngine(inf_coo, options), CheckError);
}

TEST(KernelStats, TraceDrivenTimesAreDeterministic) {
  const auto dev = gpusim::DeviceSpec::maxwell_titan_x();
  UpdateShape shape{480189, 17770, 99e6};
  AlsKernelConfig config;
  const auto a = update_phase_times(dev, shape, config);
  const auto b = update_phase_times(dev, shape, config);
  EXPECT_DOUBLE_EQ(a.load.seconds, b.load.seconds);
  EXPECT_DOUBLE_EQ(a.total_seconds(), b.total_seconds());
}

TEST(KernelStats, EpochTimeMonotoneInProblemSize) {
  const auto dev = gpusim::DeviceSpec::maxwell_titan_x();
  AlsKernelConfig config;
  const double base = als_epoch_seconds(dev, 1e5, 1e4, 1e7, config);
  EXPECT_LT(base, als_epoch_seconds(dev, 2e5, 1e4, 2e7, config));
  AlsKernelConfig bigger_f = config;
  bigger_f.f = 200;
  bigger_f.tile = 10;
  EXPECT_LT(base, als_epoch_seconds(dev, 1e5, 1e4, 1e7, bigger_f));
}

}  // namespace
}  // namespace cumf
