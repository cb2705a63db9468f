#include "core/hermitian.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "half/half.hpp"
#include "half/half_simd.hpp"

namespace cumf {

namespace {

/// T×T tile accumulation (scalar path): for every staged column s of the
/// batch, block[i,:] += y_i · frag_x[:] — the GPU thread's register block.
void accumulate_tile_scalar(real_t* block, std::size_t f, std::size_t tile,
                            const real_t* frag_x, const real_t* frag_y) {
  for (std::size_t i = 0; i < tile; ++i) {
    const real_t yi = frag_y[i];
    for (std::size_t j = 0; j < tile; ++j) {
      block[i * f + j] += yi * frag_x[j];
    }
  }
}

/// Register block of the SIMD path: kRows rows × kChunks 16-lane column
/// chunks of A, starting at (i0, j0), held in vf16 accumulators for the
/// whole staged batch. Each element adds its θ products in staged-column
/// order — the same per-element sequence as the scalar tile loop.
template <std::size_t kRows, std::size_t kChunks>
void accumulate_block(real_t* a, std::size_t f, const real_t* staged,
                      std::size_t batch_len, std::size_t i0, std::size_t j0) {
  constexpr std::size_t kW = simd::vf16::kLanes;
  simd::vf16 acc[kRows][kChunks]{};
  CUMF_UNROLL
  for (std::size_t r = 0; r < kRows; ++r) {
    CUMF_UNROLL
    for (std::size_t c = 0; c < kChunks; ++c) {
      acc[r][c] = simd::vf16::load(a + (i0 + r) * f + j0 + c * kW);
    }
  }
  for (std::size_t s = 0; s < batch_len; ++s) {
    const real_t* xs = staged + s * f + j0;  // this block's columns of θ_s
    const real_t* ys = staged + s * f + i0;  // and its rows
    simd::vf16 x[kChunks]{};
    CUMF_UNROLL
    for (std::size_t c = 0; c < kChunks; ++c) {
      x[c] = simd::vf16::load(xs + c * kW);
    }
    CUMF_UNROLL
    for (std::size_t r = 0; r < kRows; ++r) {
      const simd::vf16 y = simd::vf16::broadcast(ys[r]);
      CUMF_UNROLL
      for (std::size_t c = 0; c < kChunks; ++c) {
        acc[r][c] += y * x[c];
      }
    }
  }
  CUMF_UNROLL
  for (std::size_t r = 0; r < kRows; ++r) {
    CUMF_UNROLL
    for (std::size_t c = 0; c < kChunks; ++c) {
      acc[r][c].store(a + (i0 + r) * f + j0 + c * kW);
    }
  }
}

/// Full-size register block: its accumulators take half of the vector
/// registers — 16 of AVX-512's 32, or 8 of AVX2's 16 where a vf16 is two.
constexpr std::size_t kBlockRows = simd::kWideVectors ? 8 : 4;
constexpr std::size_t kBlockChunks = simd::kWideVectors ? 2 : 1;

/// Lower triangle of rows [i0, i0 + kRows) for one staged batch (SIMD
/// path). Column chunks cover [0, i0 + kRows) and may spill into the upper
/// triangle (the mirror overwrites it), but never past column f: the
/// columns a full chunk cannot reach go through a scalar tail.
template <std::size_t kRows>
void accumulate_rows(real_t* a, std::size_t f, const real_t* staged,
                     std::size_t batch_len, std::size_t i0) {
  constexpr std::size_t kW = simd::vf16::kLanes;
  const std::size_t cols = i0 + kRows;  // j ≤ i < i0 + kRows
  std::size_t j0 = 0;
  for (; j0 + (kBlockChunks - 1) * kW < cols && j0 + kBlockChunks * kW <= f;
       j0 += kBlockChunks * kW) {
    accumulate_block<kRows, kBlockChunks>(a, f, staged, batch_len, i0, j0);
  }
  if (kBlockChunks > 1 && j0 < cols && j0 + kW <= f) {
    accumulate_block<kRows, 1>(a, f, staged, batch_len, i0, j0);
    j0 += kW;
  }
  for (std::size_t i = std::max(i0, j0); i < cols; ++i) {
    real_t* arow = a + i * f;
    for (std::size_t s = 0; s < batch_len; ++s) {
      const real_t* col = staged + s * f;
      const real_t yi = col[i];
      for (std::size_t j = j0; j <= i; ++j) {
        arow[j] += yi * col[j];
      }
    }
  }
}

/// Lower triangle of rows [i0, f) for one staged batch: blocks of kRows
/// rows, then the remaining rows in blocks of kRows/2, kRows/4, …, 1.
template <std::size_t kRows>
void accumulate_lower(real_t* a, std::size_t f, const real_t* staged,
                      std::size_t batch_len, std::size_t i0) {
  for (; i0 + kRows <= f; i0 += kRows) {
    accumulate_rows<kRows>(a, f, staged, batch_len, i0);
  }
  if constexpr (kRows > 1) {
    accumulate_lower<kRows / 2>(a, f, staged, batch_len, i0);
  }
}

/// Copies the strictly-lower triangle of A onto the upper one. The SIMD
/// path moves every 8×8 block below the diagonal through a register
/// transpose (8 row loads and 8 row stores instead of 64 strided stores);
/// the diagonal blocks, the ragged rows past the last full block and the
/// whole scalar path copy element by element. Either way a copy, so exact.
void mirror_lower(real_t* a, std::size_t f, bool use_simd) {
  constexpr std::size_t kB = simd::vf8::kLanes;
  const std::size_t full = use_simd ? f - f % kB : 0;
  for (std::size_t i0 = 0; i0 < full; i0 += kB) {
    for (std::size_t j0 = 0; j0 < i0; j0 += kB) {
      simd::vf8 block[kB];
      CUMF_UNROLL
      for (std::size_t r = 0; r < kB; ++r) {
        block[r] = simd::vf8::load(a + (i0 + r) * f + j0);
      }
      simd::transpose(block);
      CUMF_UNROLL
      for (std::size_t r = 0; r < kB; ++r) {
        block[r].store(a + (j0 + r) * f + i0);
      }
    }
    for (std::size_t i = i0 + 1; i < i0 + kB; ++i) {
      for (std::size_t j = i0; j < i; ++j) {
        a[j * f + i] = a[i * f + j];
      }
    }
  }
  for (std::size_t i = full; i < f; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      a[j * f + i] = a[i * f + j];
    }
  }
}

}  // namespace

void HermitianWorkspace::prepare(std::size_t f, const HermitianParams& params) {
  CUMF_EXPECTS(params.bin > 0, "BIN must be positive");
  staged.resize(static_cast<std::size_t>(params.bin) * f);
}

void get_hermitian_row(const CsrMatrix& r, const Matrix& theta, index_t u,
                       real_t lambda, const HermitianParams& params,
                       HermitianWorkspace& ws, std::span<real_t> a_out,
                       std::span<real_t> b_out, simd::KernelPath path) {
  const std::size_t f = theta.cols();
  CUMF_EXPECTS(params.tile > 0 && f % static_cast<std::size_t>(params.tile) == 0,
               "f must be a multiple of the tile size");
  CUMF_EXPECTS(params.bin > 0, "BIN must be positive");
  CUMF_EXPECTS(a_out.size() == f * f, "A_u must be f*f");
  CUMF_EXPECTS(b_out.size() == f, "b_u must be length f");

  const auto tile = static_cast<std::size_t>(params.tile);
  const auto bin = static_cast<std::size_t>(params.bin);
  const std::size_t nt = f / tile;  // tiles per dimension
  const bool use_simd = path == simd::KernelPath::simd;

  std::fill(a_out.begin(), a_out.end(), real_t{0});
  std::fill(b_out.begin(), b_out.end(), real_t{0});
  // Steady state never touches the allocator: AlsEngine prepares each
  // worker's workspace once; ad-hoc callers pay a single resize here.
  if (ws.staged.size() < bin * f) {
    ws.staged.resize(bin * f);
  }

  const auto cols = r.row_cols(u);
  const auto vals = r.row_vals(u);

  for (std::size_t batch = 0; batch < cols.size(); batch += bin) {
    const std::size_t batch_len = std::min(bin, cols.size() - batch);

    // Stage the batch's θ columns from "global" into "shared" memory,
    // optionally rounding through FP16 (Tensor-Core input precision).
    for (std::size_t s = 0; s < batch_len; ++s) {
      const auto trow = theta.row(cols[batch + s]);
      if (params.fp16_staging) {
        round_through_half_n(trow.data(), ws.staged.data() + s * f, f, path);
      } else {
        std::copy(trow.begin(), trow.end(), ws.staged.begin() + s * f);
      }
    }

    if (use_simd) {
      // Row blocks of A stay in registers across the whole batch (the
      // host's take on Fig. 2).
      accumulate_lower<kBlockRows>(a_out.data(), f, ws.staged.data(),
                                   batch_len, 0);
    } else {
      // One "thread" per lower-triangular tile pair (x ≤ y); its T×T
      // register block adds θ^(y) ⊗ θ^(x) for every staged column.
      for (std::size_t y = 0; y < nt; ++y) {
        for (std::size_t x = 0; x <= y; ++x) {
          real_t* block = a_out.data() + (y * tile) * f + (x * tile);
          for (std::size_t s = 0; s < batch_len; ++s) {
            accumulate_tile_scalar(block, f, tile,
                                   ws.staged.data() + s * f + x * tile,
                                   ws.staged.data() + s * f + y * tile);
          }
        }
      }
    }

    // get_bias accumulation alongside (b_u += r_uv · θ_v).
    for (std::size_t s = 0; s < batch_len; ++s) {
      const real_t ruv = vals[batch + s];
      const real_t* col = ws.staged.data() + s * f;
      if (use_simd) {
        const simd::vf8 rv = simd::vf8::broadcast(ruv);
        std::size_t i = 0;
        for (; i + 8 <= f; i += 8) {
          (simd::vf8::load(b_out.data() + i) +
           rv * simd::vf8::load(col + i))
              .store(b_out.data() + i);
        }
        for (; i < f; ++i) {
          b_out[i] += ruv * col[i];
        }
      } else {
        for (std::size_t i = 0; i < f; ++i) {
          b_out[i] += ruv * col[i];
        }
      }
    }
  }

  // Mirror the strictly-lower triangle to the upper one (block30' in
  // Fig. 2) — done at flush time on the GPU, done here after accumulation.
  mirror_lower(a_out.data(), f, use_simd);

  // λ·n_u ridge on the diagonal (eq. (2)).
  const real_t ridge = lambda * static_cast<real_t>(cols.size());
  for (std::size_t i = 0; i < f; ++i) {
    a_out[i * f + i] += ridge;
  }
}

void get_hermitian_row_reference(const CsrMatrix& r, const Matrix& theta,
                                 index_t u, real_t lambda,
                                 std::span<real_t> a_out,
                                 std::span<real_t> b_out) {
  const std::size_t f = theta.cols();
  CUMF_EXPECTS(a_out.size() == f * f, "A_u must be f*f");
  CUMF_EXPECTS(b_out.size() == f, "b_u must be length f");
  std::fill(a_out.begin(), a_out.end(), real_t{0});
  std::fill(b_out.begin(), b_out.end(), real_t{0});

  const auto cols = r.row_cols(u);
  const auto vals = r.row_vals(u);
  for (std::size_t k = 0; k < cols.size(); ++k) {
    const auto t = theta.row(cols[k]);
    for (std::size_t i = 0; i < f; ++i) {
      for (std::size_t j = 0; j < f; ++j) {
        a_out[i * f + j] += t[i] * t[j];
      }
      b_out[i] += vals[k] * t[i];
    }
  }
  const real_t ridge = lambda * static_cast<real_t>(cols.size());
  for (std::size_t i = 0; i < f; ++i) {
    a_out[i * f + i] += ridge;
  }
}

HermitianValueBounds hermitian_value_bounds(const CsrMatrix& r,
                                            double theta_absmax,
                                            double lambda) {
  HermitianValueBounds out;
  for (index_t u = 0; u < r.rows(); ++u) {
    const auto nnz = static_cast<std::uint64_t>(r.row_nnz(u));
    if (nnz == 0) {
      continue;
    }
    out.max_nnz = std::max(out.max_nnz, nnz);
    out.min_nnz = out.min_nnz == 0 ? nnz : std::min(out.min_nnz, nnz);
  }
  for (const real_t v : r.values()) {
    out.rating_absmax = std::max(out.rating_absmax,
                                 std::abs(static_cast<double>(v)));
  }
  const auto n = static_cast<double>(out.max_nnz);
  out.a_offdiag_abs = n * theta_absmax * theta_absmax;
  out.a_diag_max = out.a_offdiag_abs + lambda * n;
  out.a_diag_min = lambda * static_cast<double>(out.min_nnz);
  out.b_abs = n * out.rating_absmax * theta_absmax;
  return out;
}

}  // namespace cumf
