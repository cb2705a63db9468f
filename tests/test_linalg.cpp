// Tests for the dense linear algebra kernels: Cholesky, LU, CG (FP32/FP16),
// GEMM/SYRK, vector helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "linalg/cg.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/dense.hpp"
#include "linalg/gemm.hpp"
#include "linalg/lu.hpp"

#include "exact_oracle.hpp"

namespace cumf {
namespace {

/// Random SPD matrix M·Mᵀ + ridge·I (row-major, full storage).
std::vector<real_t> random_spd(std::size_t n, real_t ridge,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real_t> m(n * n);
  for (auto& v : m) {
    v = static_cast<real_t>(rng.normal(0.0, 1.0));
  }
  std::vector<real_t> a(n * n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::size_t k = 0; k < n; ++k) {
        acc += static_cast<double>(m[i * n + k]) *
               static_cast<double>(m[j * n + k]);
      }
      a[i * n + j] = static_cast<real_t>(acc);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    a[i * n + i] += ridge;
  }
  return a;
}

std::vector<real_t> random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real_t> v(n);
  for (auto& x : v) {
    x = static_cast<real_t>(rng.normal(0.0, 1.0));
  }
  return v;
}

double residual_norm(std::size_t n, std::span<const real_t> a,
                     std::span<const real_t> x, std::span<const real_t> b) {
  double worst = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0;
    for (std::size_t j = 0; j < n; ++j) {
      acc += static_cast<double>(a[i * n + j]) * static_cast<double>(x[j]);
    }
    worst = std::max(worst, std::abs(acc - static_cast<double>(b[i])));
  }
  return worst;
}

// ---------- vector helpers ----------

TEST(Dense, DotAxpyScalNrm2) {
  std::vector<real_t> a{1, 2, 3};
  std::vector<real_t> b{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  axpy(2.0f, a, b);  // b = {6, 9, 12}
  EXPECT_EQ(b[0], 6.0f);
  EXPECT_EQ(b[2], 12.0f);
  scal(0.5f, b);
  EXPECT_EQ(b[1], 4.5f);
  EXPECT_NEAR(nrm2(a), std::sqrt(14.0), 1e-6);
}

TEST(Dense, MatrixIndexingAndBounds) {
  Matrix m(3, 2, 1.0f);
  m(2, 1) = 7.0f;
  EXPECT_EQ(m(2, 1), 7.0f);
  EXPECT_EQ(m.row(2)[1], 7.0f);
  EXPECT_THROW(m(3, 0), CheckError);
  EXPECT_THROW(m(0, 2), CheckError);
  EXPECT_THROW(m.row(5), CheckError);
}

TEST(Dense, SymvMatchesManual) {
  const std::size_t n = 4;
  const auto a = random_spd(n, 1.0f, 21);
  const auto x = random_vector(n, 22);
  std::vector<real_t> y(n);
  symv(n, a, x, y);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0;
    for (std::size_t j = 0; j < n; ++j) {
      acc += static_cast<double>(a[i * n + j]) * static_cast<double>(x[j]);
    }
    EXPECT_NEAR(y[i], acc, 1e-4);
  }
}

// ---------- Cholesky ----------

class SpdSolveSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpdSolveSweep, CholeskySolvesRandomSystem) {
  const std::size_t n = GetParam();
  const auto a = random_spd(n, 0.5f, 100 + n);
  const auto b = random_vector(n, 200 + n);
  std::vector<real_t> x(n);
  ASSERT_TRUE(solve_spd(n, a, b, x));
  EXPECT_LT(residual_norm(n, a, x, b), 1e-2 * static_cast<double>(n));
}

TEST_P(SpdSolveSweep, LuSolvesRandomSystem) {
  const std::size_t n = GetParam();
  const auto a = random_spd(n, 0.5f, 300 + n);
  const auto b = random_vector(n, 400 + n);
  std::vector<real_t> x(n);
  ASSERT_TRUE(solve_lu(n, a, b, x));
  EXPECT_LT(residual_norm(n, a, x, b), 1e-2 * static_cast<double>(n));
}

TEST_P(SpdSolveSweep, CgWithFullIterationsMatchesExact) {
  const std::size_t n = GetParam();
  const auto a = random_spd(n, 1.0f, 500 + n);
  const auto b = random_vector(n, 600 + n);
  std::vector<real_t> exact(n);
  ASSERT_TRUE(solve_spd(n, a, b, exact));
  std::vector<real_t> x(n, 0.0f);
  // CG reaches the exact solution in at most n steps (paper §IV-A).
  const auto result = cg_solve<float>(n, a, b, x,
                                      static_cast<std::uint32_t>(2 * n),
                                      1e-6f);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(max_abs_diff(x, exact), 5e-2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpdSolveSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 40, 100));

TEST(Cholesky, RejectsIndefiniteMatrix) {
  // [[1, 2], [2, 1]] has a negative eigenvalue.
  std::vector<real_t> a{1, 2, 2, 1};
  std::vector<real_t> scratch = a;
  EXPECT_FALSE(cholesky_factor(2, scratch));
}

TEST(Cholesky, KnownFactorization) {
  // A = [[4, 2], [2, 3]] → L = [[2, 0], [1, sqrt(2)]].
  std::vector<real_t> a{4, 2, 2, 3};
  ASSERT_TRUE(cholesky_factor(2, a));
  EXPECT_NEAR(a[0], 2.0f, 1e-6);
  EXPECT_NEAR(a[2], 1.0f, 1e-6);
  EXPECT_NEAR(a[3], std::sqrt(2.0f), 1e-6);
}

// ---------- LU ----------

TEST(Lu, DetectsSingularMatrix) {
  std::vector<real_t> a{1, 2, 2, 4};  // rank 1
  std::vector<index_t> pivots(2);
  EXPECT_FALSE(lu_factor(2, a, pivots));
}

TEST(Lu, SolvesNonSymmetricSystem) {
  // LU must handle general matrices, unlike Cholesky.
  std::vector<real_t> a{0, 2, 3, 1};  // needs pivoting (a00 = 0)
  std::vector<real_t> b{4, 5};
  std::vector<real_t> x(2);
  ASSERT_TRUE(solve_lu(2, a, b, x));
  // 2·x1 = 4 → x1 = 2; 3·x0 + x1 = 5 → x0 = 1.
  EXPECT_NEAR(x[0], 1.0f, 1e-5);
  EXPECT_NEAR(x[1], 2.0f, 1e-5);
}

// ---------- CG specifics ----------

TEST(Cg, TruncationLimitsIterations) {
  const std::size_t n = 50;
  const auto a = random_spd(n, 0.1f, 900);
  const auto b = random_vector(n, 901);
  std::vector<real_t> x(n, 0.0f);
  const auto result = cg_solve<float>(n, a, b, x, 6, 1e-20f);
  EXPECT_EQ(result.iterations, 6u);
  EXPECT_FALSE(result.converged);
}

TEST(Cg, ToleranceStopsEarly) {
  const std::size_t n = 20;
  const auto a = random_spd(n, 5.0f, 902);
  const auto b = random_vector(n, 903);
  std::vector<real_t> x(n, 0.0f);
  const auto result = cg_solve<float>(n, a, b, x, 100, 1e-3f);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 100u);
  EXPECT_LT(result.residual_norm, 1e-3);
}

TEST(Cg, WarmStartAtSolutionTerminatesImmediately) {
  const std::size_t n = 10;
  const auto a = random_spd(n, 1.0f, 904);
  std::vector<real_t> truth = random_vector(n, 905);
  std::vector<real_t> b(n);
  symv(n, a, truth, b);
  std::vector<real_t> x = truth;  // warm start = exact solution
  const auto result = cg_solve<float>(n, a, b, x, 10, 1e-2f);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.iterations, 1u);
}

TEST(Cg, Fp16StorageStillConverges) {
  const std::size_t n = 24;
  const auto a32 = random_spd(n, 2.0f, 906);
  std::vector<half> a16(n * n);
  for (std::size_t i = 0; i < a32.size(); ++i) {
    a16[i] = half(a32[i]);
  }
  const auto b = random_vector(n, 907);
  std::vector<real_t> exact(n);
  ASSERT_TRUE(solve_spd(n, a32, b, exact));

  std::vector<real_t> x(n, 0.0f);
  cg_solve<half>(n, std::span<const half>(a16), b, x, 40, 1e-4f);
  // FP16 storage perturbs A by ≤ 2^-11 relative — the solution should be
  // close to the FP32 one, not identical.
  EXPECT_LT(max_abs_diff(x, exact), 0.05);
}

TEST(Cg, RejectsBadArguments) {
  std::vector<real_t> a{1.0f};
  std::vector<real_t> b{1.0f};
  std::vector<real_t> x{0.0f};
  EXPECT_THROW(cg_solve<float>(1, a, b, x, 0, 1e-4f), CheckError);
  EXPECT_THROW(
      cg_solve<float>(2, a, b, x, 1, 1e-4f), CheckError);
}

// ---------- GEMM / SYRK ----------

TEST(Gemm, MatchesBruteForce) {
  const std::size_t m = 4;
  const std::size_t k = 3;
  const std::size_t n = 5;
  const auto a = random_vector(m * k, 908);
  const auto b = random_vector(k * n, 909);
  std::vector<real_t> c(m * n, 1.0f);
  gemm(m, n, k, 2.0f, a, b, 0.5f, c);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) *
               static_cast<double>(b[p * n + j]);
      }
      EXPECT_NEAR(c[i * n + j], 2.0 * acc + 0.5, 1e-4);
    }
  }
}

TEST(Syrk, ProducesSymmetricGram) {
  const std::size_t n = 6;
  const std::size_t k = 4;
  const auto a = random_vector(n * k, 910);
  std::vector<real_t> c(n * n, 0.0f);
  syrk(n, k, 1.0f, a, 0.0f, c);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(c[i * n + j], c[j * n + i]);
      double acc = 0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) *
               static_cast<double>(a[j * k + p]);
      }
      EXPECT_NEAR(c[i * n + j], acc, 1e-4);
    }
  }
}

TEST(Gemm, ValidatesShapes) {
  std::vector<real_t> a(6), b(6), c(5);
  EXPECT_THROW(gemm(2, 3, 3, 1.0f, a, b, 0.0f, c), CheckError);
}


// ---------- preconditioned CG ----------

TEST(Pcg, MatchesCgOnWellConditionedSystem) {
  const std::size_t n = 20;
  const auto a = random_spd(n, 2.0f, 950);
  const auto b = random_vector(n, 951);
  std::vector<real_t> x_cg(n, 0.0f);
  std::vector<real_t> x_pcg(n, 0.0f);
  cg_solve<float>(n, a, b, x_cg, 200, 1e-5f);
  pcg_solve<float>(n, a, b, x_pcg, 200, 1e-5f);
  EXPECT_LT(max_abs_diff(x_cg, x_pcg), 1e-2);
}

TEST(Pcg, FewerIterationsOnIllScaledSystem) {
  // Diagonal scaling spanning 4 orders of magnitude: plain CG crawls,
  // Jacobi preconditioning restores fast convergence.
  const std::size_t n = 40;
  auto a = random_spd(n, 1.0f, 952);
  std::vector<real_t> scale(n);
  Rng rng(953);
  for (std::size_t i = 0; i < n; ++i) {
    scale[i] = static_cast<real_t>(std::pow(10.0, rng.uniform(-2.0, 2.0)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a[i * n + j] *= scale[i] * scale[j];
    }
  }
  const auto b = random_vector(n, 954);
  std::vector<real_t> x1(n, 0.0f);
  std::vector<real_t> x2(n, 0.0f);
  const auto plain = cg_solve<float>(n, std::span<const real_t>(a), b, x1,
                                     500, 1e-3f);
  const auto precond = pcg_solve<float>(n, std::span<const real_t>(a), b, x2,
                                        500, 1e-3f);
  EXPECT_TRUE(precond.converged);
  EXPECT_LT(precond.iterations, plain.iterations)
      << "PCG " << precond.iterations << " vs CG " << plain.iterations;
}

TEST(Pcg, RejectsNonPositiveDiagonal) {
  std::vector<real_t> a{0, 1, 1, 2};  // a00 = 0
  std::vector<real_t> b{1, 1};
  std::vector<real_t> x{0, 0};
  EXPECT_THROW(pcg_solve<float>(2, std::span<const real_t>(a), b, x, 5,
                                1e-4f),
               CheckError);
}

TEST(Pcg, HalfStorageWorks) {
  const std::size_t n = 12;
  const auto a32 = random_spd(n, 2.0f, 955);
  std::vector<half> a16(n * n);
  for (std::size_t i = 0; i < a32.size(); ++i) {
    a16[i] = half(a32[i]);
  }
  const auto b = random_vector(n, 956);
  std::vector<real_t> exact(n);
  ASSERT_TRUE(solve_spd(n, a32, b, exact));
  std::vector<real_t> x(n, 0.0f);
  pcg_solve<half>(n, std::span<const half>(a16), b, x, 60, 1e-4f);
  EXPECT_LT(max_abs_diff(x, exact), 0.05);
}

}  // namespace
}  // namespace cumf
