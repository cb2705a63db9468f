// Tests for the cusim SIMT execution layer and the CUDA-style kernels
// written on it: barrier semantics, shared-memory communication, barrier-
// divergence detection, and differential tests of the hermitian and
// batch-CG kernels against the direct host implementations.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/hermitian.hpp"
#include "cusim/cusim.hpp"
#include "cusim/kernels.hpp"
#include "data/generator.hpp"
#include "linalg/cg.hpp"
#include "sparse/csr.hpp"

#include "exact_oracle.hpp"

namespace cumf::cusim {
namespace {

// ---------- execution layer ----------

TEST(Cusim, EveryThreadOfEveryBlockRuns) {
  std::vector<int> counts(4 * 8, 0);
  LaunchConfig config{Dim3{4}, Dim3{8}, 0};
  launch(config, [&](KernelCtx ctx) -> ThreadTask {
    counts[ctx.blockIdx.x * 8 + ctx.tid()] += 1;
    co_return;
  });
  for (const int c : counts) {
    EXPECT_EQ(c, 1);
  }
}

TEST(Cusim, GridStrideLoopCoversArray) {
  // The canonical CUDA saxpy: y += a*x with a grid-stride loop.
  const std::size_t n = 1000;
  std::vector<float> x(n, 2.0f);
  std::vector<float> y(n, 1.0f);
  LaunchConfig config{Dim3{4}, Dim3{32}, 0};
  launch(config, [&](KernelCtx ctx) -> ThreadTask {
    const unsigned stride = ctx.gridDim.x * ctx.blockDim.x;
    for (std::size_t i = ctx.blockIdx.x * ctx.blockDim.x + ctx.tid(); i < n;
         i += stride) {
      y[i] += 3.0f * x[i];
    }
    co_return;
  });
  for (const float v : y) {
    EXPECT_EQ(v, 7.0f);
  }
}

TEST(Cusim, BarrierOrdersSharedMemoryAccess) {
  // Producer/consumer through shared memory: thread 0 writes, everyone
  // reads after the barrier. Without barrier semantics the read would be 0.
  std::vector<int> seen(16, -1);
  LaunchConfig config{Dim3{1}, Dim3{16}, sizeof(int)};
  launch(config, [&](KernelCtx ctx) -> ThreadTask {
    auto cell = ctx.shared_array<int>(0, 1);
    if (ctx.tid() == 15) {  // deliberately the LAST thread produces
      cell[0] = 42;
    }
    co_await ctx.sync();
    seen[ctx.tid()] = cell[0];
    co_return;
  });
  for (const int v : seen) {
    EXPECT_EQ(v, 42);
  }
}

TEST(Cusim, TreeReductionAcrossBarriers) {
  const unsigned n = 24;  // non-power-of-two
  std::vector<float> result(1, 0);
  LaunchConfig config{Dim3{1}, Dim3{n}, n * sizeof(float)};
  launch(config, [&](KernelCtx ctx) -> ThreadTask {
    auto red = ctx.shared_array<float>(0, n);
    const unsigned t = ctx.tid();
    red[t] = static_cast<float>(t + 1);  // sum = n(n+1)/2
    co_await ctx.sync();
    for (unsigned s = 16; s > 0; s >>= 1) {
      if (t < s && t + s < n) {
        red[t] += red[t + s];
      }
      co_await ctx.sync();
    }
    if (t == 0) {
      result[0] = red[0];
    }
    co_return;
  });
  EXPECT_EQ(result[0], n * (n + 1) / 2);
}

TEST(Cusim, DetectsBarrierDivergence) {
  LaunchConfig config{Dim3{1}, Dim3{4}, 0};
  EXPECT_THROW(
      launch(config,
             [&](KernelCtx ctx) -> ThreadTask {
               if (ctx.tid() < 2) {
                 co_await ctx.sync();  // half the block syncs…
               }
               co_return;  // …the other half exits: CUDA UB, cusim error
             }),
      BarrierDivergence);
}

TEST(Cusim, BarrierDivergenceMessageNamesBlockAndPendingCount) {
  // One thread of block (2,0,0) exits while the rest wait: the diagnostic
  // must name that block and say how many threads never reached the barrier.
  LaunchConfig config{Dim3{3}, Dim3{4}, 0};
  try {
    launch(config, [&](KernelCtx ctx) -> ThreadTask {
      if (ctx.blockIdx.x == 2 && ctx.tid() == 3) {
        co_return;
      }
      co_await ctx.sync();
      co_return;
    });
    FAIL() << "expected BarrierDivergence";
  } catch (const BarrierDivergence& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("block (2,0,0)"), std::string::npos) << what;
    EXPECT_NE(what.find("3 of 4 threads reached __syncthreads()"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("1 still pending"), std::string::npos) << what;
  }
}

TEST(Cusim, BarrierDivergenceMessageCountsAllPendingThreads) {
  // The converse skew: only thread 0 syncs, three never arrive.
  LaunchConfig config{Dim3{1}, Dim3{4}, 0};
  try {
    launch(config, [&](KernelCtx ctx) -> ThreadTask {
      if (ctx.tid() == 0) {
        co_await ctx.sync();
      }
      co_return;
    });
    FAIL() << "expected BarrierDivergence";
  } catch (const BarrierDivergence& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("block (0,0,0)"), std::string::npos) << what;
    EXPECT_NE(what.find("1 of 4 threads reached __syncthreads()"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("3 still pending"), std::string::npos) << what;
  }
}

TEST(Cusim, SharedMemoryIsZeroedPerBlock) {
  std::vector<int> observed(3, -1);
  LaunchConfig config{Dim3{3}, Dim3{1}, sizeof(int)};
  launch(config, [&](KernelCtx ctx) -> ThreadTask {
    auto cell = ctx.shared_array<int>(0, 1);
    observed[ctx.blockIdx.x] = cell[0];  // must not see prior block's 7
    cell[0] = 7;
    co_return;
  });
  for (const int v : observed) {
    EXPECT_EQ(v, 0);
  }
}

TEST(Cusim, PropagatesKernelExceptions) {
  LaunchConfig config{Dim3{1}, Dim3{2}, 0};
  EXPECT_THROW(launch(config,
                      [&](KernelCtx ctx) -> ThreadTask {
                        if (ctx.tid() == 1) {
                          throw std::runtime_error("device assert");
                        }
                        co_return;
                      }),
               std::runtime_error);
}

TEST(Cusim, SharedArrayValidatesBounds) {
  LaunchConfig config{Dim3{1}, Dim3{1}, 8};
  EXPECT_THROW(launch(config,
                      [&](KernelCtx ctx) -> ThreadTask {
                        (void)ctx.shared_array<double>(0, 2);  // 16 > 8
                        co_return;
                      }),
               CheckError);
}

// ---------- hermitian kernel ----------

TEST(CusimKernels, HermitianMatchesHostImplementation) {
  SyntheticConfig cfg;
  cfg.m = 40;
  cfg.n = 30;
  cfg.nnz = 600;
  cfg.seed = 3;
  const auto data = generate_synthetic(cfg);
  const auto csr = CsrMatrix::from_coo(data.ratings);
  const std::size_t f = 20;
  Matrix theta(csr.cols(), f);
  Rng rng(5);
  for (auto& v : theta.data()) {
    v = static_cast<real_t>(rng.normal(0.0, 1.0));
  }

  const auto device = hermitian_kernel_launch(csr, theta, 0.05f, 5, 8);

  std::vector<real_t> a_host(f * f);
  std::vector<real_t> b_host(f);
  HermitianWorkspace ws;
  for (index_t u = 0; u < csr.rows(); ++u) {
    get_hermitian_row(csr, theta, u, 0.05f, HermitianParams{5, 8}, ws,
                      a_host, b_host);
    const double deg = csr.row_nnz(u) + 1.0;
    for (std::size_t i = 0; i < f * f; ++i) {
      ASSERT_NEAR(device.a[u * f * f + i], a_host[i], 1e-3 * deg)
          << "row " << u << " element " << i;
    }
    for (std::size_t i = 0; i < f; ++i) {
      ASSERT_NEAR(device.b[u * f + i], b_host[i], 1e-3 * deg);
    }
  }
}

TEST(CusimKernels, HermitianHandlesEmptyRows) {
  RatingsCoo coo(3, 4);
  coo.add(0, 1, 2.0f);  // rows 1 and 2 empty
  const auto csr = CsrMatrix::from_coo(coo);
  Matrix theta(4, 4, 1.0f);
  const auto device = hermitian_kernel_launch(csr, theta, 0.1f, 2, 4);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(device.a[1 * 16 + i], 0.0f);
    EXPECT_EQ(device.a[2 * 16 + i], 0.0f);
  }
  // Row 0: A = θθᵀ + λ·1·I = all-ones + 0.1 on the diagonal.
  EXPECT_NEAR(device.a[0], 1.1f, 1e-6);
  EXPECT_NEAR(device.a[1], 1.0f, 1e-6);
}

// ---------- batch CG kernel ----------

TEST(CusimKernels, CgMatchesHostSolver) {
  const std::size_t batch = 6;
  const std::size_t f = 24;
  Rng rng(7);
  std::vector<real_t> a(batch * f * f);
  std::vector<real_t> b(batch * f);
  for (std::size_t i = 0; i < batch; ++i) {
    std::vector<real_t> g(f * f);
    for (auto& v : g) {
      v = static_cast<real_t>(rng.normal(0.0, 1.0));
    }
    for (std::size_t r = 0; r < f; ++r) {
      for (std::size_t c = 0; c < f; ++c) {
        double acc = r == c ? 2.0 : 0.0;
        for (std::size_t k = 0; k < f; ++k) {
          acc += static_cast<double>(g[r * f + k]) *
                 static_cast<double>(g[c * f + k]);
        }
        a[i * f * f + r * f + c] = static_cast<real_t>(acc);
      }
    }
  }
  for (auto& v : b) {
    v = static_cast<real_t>(rng.normal(0.0, 1.0));
  }

  std::vector<real_t> x_device(batch * f, 0.0f);
  cg_kernel_launch(batch, f, a, b, x_device, 6, 1e-4f);

  for (std::size_t i = 0; i < batch; ++i) {
    std::vector<real_t> x_host(f, 0.0f);
    cg_solve<float>(f, std::span<const real_t>(a).subspan(i * f * f, f * f),
                    std::span<const real_t>(b).subspan(i * f, f), x_host, 6,
                    1e-4f);
    for (std::size_t k = 0; k < f; ++k) {
      // The device kernel reduces in FP32, the host in FP64: allow small
      // divergence between the two 6-step iterates.
      EXPECT_NEAR(x_device[i * f + k], x_host[k], 0.02) << "sys " << i;
    }
  }
}

TEST(CusimKernels, CgSolvesToExactnessWithEnoughIterations) {
  const std::size_t f = 16;
  Rng rng(9);
  std::vector<real_t> g(f * f);
  for (auto& v : g) {
    v = static_cast<real_t>(rng.normal(0.0, 1.0));
  }
  std::vector<real_t> a(f * f);
  for (std::size_t r = 0; r < f; ++r) {
    for (std::size_t c = 0; c < f; ++c) {
      double acc = r == c ? 1.0 : 0.0;
      for (std::size_t k = 0; k < f; ++k) {
        acc += static_cast<double>(g[r * f + k]) *
               static_cast<double>(g[c * f + k]);
      }
      a[r * f + c] = static_cast<real_t>(acc);
    }
  }
  std::vector<real_t> b(f, 1.0f);
  std::vector<real_t> exact(f);
  ASSERT_TRUE(solve_spd(f, a, b, exact));

  std::vector<real_t> x(f, 0.0f);
  cg_kernel_launch(1, f, a, b, x, 3 * static_cast<std::uint32_t>(f), 1e-6f);
  EXPECT_LT(max_abs_diff(x, exact), 5e-2);
}

TEST(CusimKernels, CgWarmStartConvergesInstantly) {
  const std::size_t f = 8;
  std::vector<real_t> a(f * f, 0.0f);
  std::vector<real_t> b(f);
  std::vector<real_t> x(f);
  for (std::size_t i = 0; i < f; ++i) {
    a[i * f + i] = 2.0f;
    x[i] = static_cast<real_t>(i);  // exact solution of 2I·x = b
    b[i] = 2.0f * x[i];
  }
  const auto expected = x;
  cg_kernel_launch(1, f, a, b, x, 10, 1e-5f);
  EXPECT_EQ(x, expected);  // residual 0 at entry → untouched
}

}  // namespace
}  // namespace cumf::cusim
