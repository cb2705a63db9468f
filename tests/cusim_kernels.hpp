// The paper's device kernels, written CUDA-style on the cusim SIMT layer.
//
// These are the shapes a CUDA port would take — one block per rating row
// for get_hermitian (Fig. 2), one block per linear system for the batch CG
// solver (Algorithm 1) with shared-memory tree reductions — executed
// functionally. Being ~10x slower than the direct host loops
// (core/hermitian, linalg/cg), they are not the training path: the tests
// run them as oracles. CusimKernels.* differential-test them against the
// host implementations, CucheckKernels.* run them under the dynamic
// checker, and the cuverify differential tests hold the access plans that
// src/cusim/kernels.hpp declares for them to what they do.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/spans.hpp"
#include "common/check.hpp"
#include "cusim/cusim.hpp"
#include "linalg/dense.hpp"
#include "sparse/csr.hpp"

namespace cumf::cusim {

struct HermitianBatchResult {
  std::vector<real_t> a;  ///< m × f·f, row-major per system
  std::vector<real_t> b;  ///< m × f
};

/// get_hermitian over every row of `r`: one block per row, one thread per
/// lower-triangular tile pair, θ batches staged through shared memory with
/// __syncthreads() between staging and accumulation (the Fig. 2 kernel).
/// All memory traffic goes through cucheck's checked spans; pass `check`
/// (see analysis/cucheck.hpp) to run the launch under race/memcheck.
inline HermitianBatchResult hermitian_kernel_launch(
    const CsrMatrix& r, const Matrix& theta, real_t lambda, int tile, int bin,
    AccessObserver* check = nullptr) {
  const std::size_t f = theta.cols();
  CUMF_EXPECTS(tile > 0 && f % static_cast<std::size_t>(tile) == 0,
               "f must be a multiple of the tile size");
  CUMF_EXPECTS(bin > 0, "BIN must be positive");
  const auto t_sz = static_cast<std::size_t>(tile);
  const auto nt = static_cast<unsigned>(f / t_sz);
  const unsigned pairs = nt * (nt + 1) / 2;

  HermitianBatchResult out;
  out.a.assign(static_cast<std::size_t>(r.rows()) * f * f, real_t{0});
  out.b.assign(static_cast<std::size_t>(r.rows()) * f, real_t{0});

  // Shared memory: staged θ batch (BIN × f) then the bias accumulator (f).
  const std::size_t staged_floats = static_cast<std::size_t>(bin) * f;
  LaunchConfig config;
  config.grid = Dim3{r.rows(), 1, 1};
  config.block = Dim3{std::max(pairs, static_cast<unsigned>(f)), 1, 1};
  config.shared_bytes = (staged_floats + f) * sizeof(real_t);
  config.check = check;
  config.name = "get_hermitian_kernel";

  // The __global__ function: every thread of the block runs this coroutine.
  // Every shared/global access goes through cucheck spans: reads via
  // span(i), writes via span[i] — bounds-checked always, hazard-checked
  // when `check` is set.
  const Kernel kernel = [&](KernelCtx ctx) -> ThreadTask {
    const index_t u = ctx.blockIdx.x;
    const unsigned t = ctx.tid();
    const auto cols = analysis::global_span<const index_t>(ctx, r.row_cols(u), "cols");
    const auto vals = analysis::global_span<const real_t>(ctx, r.row_vals(u), "vals");
    const auto theta_g =
        analysis::global_span<const real_t>(ctx, theta.data(), "theta");
    const auto a_g = analysis::global_span<real_t>(ctx, std::span<real_t>(out.a), "A");
    const auto b_g = analysis::global_span<real_t>(ctx, std::span<real_t>(out.b), "b");
    auto staged = analysis::shared_span<real_t>(ctx, 0, staged_floats, "staged");
    auto bias =
        analysis::shared_span<real_t>(ctx, staged_floats * sizeof(real_t), f, "bias");

    // Map thread → lower-triangular tile pair (x ≤ y), as in Fig. 2.
    unsigned tx = 0;
    unsigned ty = 0;
    if (t < pairs) {
      unsigned p = t;
      while (p > ty) {
        p -= ty + 1;
        ++ty;
      }
      tx = p;
    }
    // Register accumulator: one T×T sub-block of A_u per thread.
    std::vector<real_t> acc(t_sz * t_sz, real_t{0});

    const auto bin_sz = static_cast<std::size_t>(bin);
    const std::size_t nnz = cols.size();
    for (std::size_t batch = 0;
         batch < nnz || (batch == 0 && nnz == 0); batch += bin_sz) {
      if (nnz == 0) {
        break;  // uniform across the block: no thread ever syncs
      }
      const std::size_t len = std::min(bin_sz, nnz - batch);

      // Cooperative staging: threads stride over the batch's elements.
      for (std::size_t idx = t; idx < len * f; idx += ctx.blockDim.x) {
        const std::size_t s = idx / f;
        const std::size_t i = idx % f;
        staged[s * f + i] =
            theta_g(static_cast<std::size_t>(cols(batch + s)) * f + i);
      }
      co_await ctx.sync();  // staging complete before anyone reads

      // Tile accumulation in "registers" (threads beyond `pairs` idle).
      if (t < pairs) {
        for (std::size_t s = 0; s < len; ++s) {
          const std::size_t frag_x = s * f + tx * t_sz;
          const std::size_t frag_y = s * f + ty * t_sz;
          for (std::size_t i = 0; i < t_sz; ++i) {
            const real_t yi = staged(frag_y + i);
            for (std::size_t j = 0; j < t_sz; ++j) {
              acc[i * t_sz + j] += yi * staged(frag_x + j);
            }
          }
        }
      }
      // Bias accumulation: thread t owns components t, t+blockDim, … so
      // there are no shared-memory races.
      for (std::size_t i = t; i < f; i += ctx.blockDim.x) {
        real_t sum = 0;
        for (std::size_t s = 0; s < len; ++s) {
          sum += vals(batch + s) * staged(s * f + i);
        }
        bias[i] += sum;
      }
      co_await ctx.sync();  // all reads done before the next batch restages
    }

    // Flush: each thread writes its tile (and its mirror) to global memory.
    const std::size_t a_base = static_cast<std::size_t>(u) * f * f;
    if (t < pairs && nnz != 0) {
      for (std::size_t i = 0; i < t_sz; ++i) {
        for (std::size_t j = 0; j < t_sz; ++j) {
          const real_t v = acc[i * t_sz + j];
          a_g[a_base + (ty * t_sz + i) * f + (tx * t_sz + j)] = v;
          a_g[a_base + (tx * t_sz + j) * f + (ty * t_sz + i)] = v;
        }
      }
    }
    for (std::size_t i = t; i < f; i += ctx.blockDim.x) {
      b_g[static_cast<std::size_t>(u) * f + i] = bias(i);
      // λ·n_u ridge on the diagonal (eq. (2)); owner of component i also
      // owns diagonal element (i, i), so this does not race.
      if (nnz != 0) {
        a_g[a_base + i * f + i] += lambda * static_cast<real_t>(nnz);
      }
    }
    co_return;
  };

  launch(config, kernel);
  return out;
}

/// Batch CG (Algorithm 1): one block per system, one thread per row of A,
/// dot products via shared-memory tree reduction. A is f×f per system
/// (batch-contiguous); x carries warm starts and receives solutions.
/// `check` as above.
inline void cg_kernel_launch(std::size_t batch, std::size_t f,
                             std::span<const real_t> a,
                             std::span<const real_t> b, std::span<real_t> x,
                             std::uint32_t fs, real_t eps,
                             AccessObserver* check = nullptr) {
  CUMF_EXPECTS(a.size() == batch * f * f, "A batch shape mismatch");
  CUMF_EXPECTS(b.size() == batch * f && x.size() == batch * f,
               "vector batch shape mismatch");
  CUMF_EXPECTS(fs > 0, "need at least one CG iteration");

  // Shared layout: xs, rs, ps, aps, red — five f-float arrays.
  LaunchConfig config;
  config.grid = Dim3{static_cast<unsigned>(batch), 1, 1};
  config.block = Dim3{static_cast<unsigned>(f), 1, 1};
  config.shared_bytes = 5 * f * sizeof(real_t);
  config.check = check;
  config.name = "cg_kernel";

  const unsigned red_start = std::bit_ceil(static_cast<unsigned>(f)) / 2;

  const Kernel kernel = [&, red_start](KernelCtx ctx) -> ThreadTask {
    const std::size_t sys = ctx.blockIdx.x;
    const unsigned t = ctx.tid();
    auto xs = analysis::shared_span<real_t>(ctx, 0 * f * sizeof(real_t), f, "xs");
    auto rs = analysis::shared_span<real_t>(ctx, 1 * f * sizeof(real_t), f, "rs");
    auto ps = analysis::shared_span<real_t>(ctx, 2 * f * sizeof(real_t), f, "ps");
    auto aps = analysis::shared_span<real_t>(ctx, 3 * f * sizeof(real_t), f, "aps");
    auto red = analysis::shared_span<real_t>(ctx, 4 * f * sizeof(real_t), f, "red");
    const auto a_g = analysis::global_span<const real_t>(ctx, a, "A");
    const auto b_g = analysis::global_span<const real_t>(ctx, b, "b");
    const auto x_g = analysis::global_span<real_t>(ctx, x, "x");
    const std::size_t a_base = sys * f * f;

    xs[t] = x_g(sys * f + t);
    co_await ctx.sync();

    // r = b − A·x ; p = r        (Algorithm 1, line 2)
    {
      real_t acc = 0;
      for (std::size_t j = 0; j < f; ++j) {
        acc += a_g(a_base + t * f + j) * xs(j);
      }
      const real_t r0 = b_g(sys * f + t) - acc;
      rs[t] = r0;
      ps[t] = r0;
      red[t] = r0 * r0;
    }
    co_await ctx.sync();
    // rsold = Σ red (tree reduction)
    for (unsigned s = red_start; s > 0; s >>= 1) {
      if (t < s && t + s < f) {
        red[t] += red(t + s);
      }
      co_await ctx.sync();
    }
    // Every thread reads the total, then a barrier protects red[] before it
    // is reused — the same fence real CUDA code needs here.
    real_t rsold = red(0);
    co_await ctx.sync();

    for (std::uint32_t iter = 0; iter < fs; ++iter) {
      if (std::sqrt(rsold) < eps) {
        break;  // uniform: rsold is a shared value
      }
      // ap = A·p                  (line 4)
      {
        real_t acc = 0;
        for (std::size_t j = 0; j < f; ++j) {
          acc += a_g(a_base + t * f + j) * ps(j);
        }
        aps[t] = acc;
        red[t] = ps(t) * acc;
      }
      co_await ctx.sync();
      for (unsigned s = red_start; s > 0; s >>= 1) {
        if (t < s && t + s < f) {
          red[t] += red(t + s);
        }
        co_await ctx.sync();
      }
      const real_t pap = red(0);
      co_await ctx.sync();  // reads of red[0] complete before red is reused
      if (pap <= 0) {
        break;  // uniform: loss of positive definiteness
      }
      const real_t alpha = rsold / pap;

      // x += α p ; r −= α ap      (line 5)
      xs[t] += alpha * ps(t);
      rs[t] -= alpha * aps(t);
      const real_t rv = rs(t);
      red[t] = rv * rv;
      co_await ctx.sync();
      for (unsigned s = red_start; s > 0; s >>= 1) {
        if (t < s && t + s < f) {
          red[t] += red(t + s);
        }
        co_await ctx.sync();
      }
      const real_t rsnew = red(0);
      co_await ctx.sync();  // reads of red[0] complete before red is reused

      // p = r + (rsnew/rsold) p   (line 10)
      ps[t] = rs(t) + (rsnew / rsold) * ps(t);
      rsold = rsnew;
      co_await ctx.sync();  // ps complete before the next matvec
    }

    x_g[sys * f + t] = xs(t);
    co_return;
  };

  launch(config, kernel);
}

}  // namespace cumf::cusim
