#include "cusim/kernels.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace cumf::cusim {

namespace {

namespace cv = analysis::cuverify;

/// Thread → lower-triangular tile pair, exactly as the kernel computes it.
void tile_pair(unsigned t, unsigned& tx, unsigned& ty) {
  unsigned p = t;
  ty = 0;
  while (p > ty) {
    p -= ty + 1;
    ++ty;
  }
  tx = p;
}

/// An access owned per-thread: element = base + tid (the `buf[t]` pattern).
cv::PlanAccess owned_access(std::uint32_t buffer, cusim::AccessKind kind,
                            std::uint32_t thread_end, const char* label) {
  cv::PlanAccess a;
  a.buffer = buffer;
  a.kind = kind;
  a.thread_end = thread_end;
  a.index.thread_coeff = 1;
  a.label = label;
  return a;
}

}  // namespace

cv::AccessPlan hermitian_kernel_plan(const HermitianPlanParams& params) {
  const std::size_t f = params.f;
  CUMF_EXPECTS(params.tile > 0 && f > 0 &&
                   f % static_cast<std::size_t>(params.tile) == 0,
               "f must be a multiple of the tile size");
  CUMF_EXPECTS(params.bin > 0, "BIN must be positive");
  const auto t_sz = static_cast<std::size_t>(params.tile);
  const auto nt = static_cast<unsigned>(f / t_sz);
  const unsigned pairs = nt * (nt + 1) / 2;
  const unsigned block = std::max(pairs, static_cast<unsigned>(f));
  const auto bin_sz = static_cast<std::size_t>(params.bin);
  const std::size_t nnz = params.cols.size();
  const std::size_t staged_floats = bin_sz * f;

  cv::AccessPlan plan;
  plan.kernel = "get_hermitian_kernel";
  plan.grid = Dim3{params.rows, 1, 1};
  plan.block = Dim3{block, 1, 1};
  plan.shared_bytes = (staged_floats + f) * sizeof(real_t);
  plan.regs_per_thread = params.regs_per_thread;

  enum Buf : std::uint32_t { kCols, kVals, kTheta, kA, kB, kStaged, kBias };
  const auto ff = static_cast<std::int64_t>(f);
  plan.buffers = {
      {"cols", MemSpace::Global, nnz, sizeof(index_t), 0x0800'0000ULL},
      {"vals", MemSpace::Global, nnz, sizeof(real_t), 0x0900'0000ULL},
      {"theta", MemSpace::Global, params.theta_rows * f, sizeof(real_t),
       0x1000'0000ULL},
      {"A", MemSpace::Global, static_cast<std::uint64_t>(params.rows) * f * f,
       sizeof(real_t), 0x2000'0000ULL},
      {"b", MemSpace::Global, static_cast<std::uint64_t>(params.rows) * f,
       sizeof(real_t), 0x3000'0000ULL},
      {"staged", MemSpace::Shared, staged_floats, sizeof(real_t), 0},
      {"bias", MemSpace::Shared, f, sizeof(real_t),
       staged_floats * sizeof(real_t)},
  };

  // The kernel's triangular thread map, host-side (flush/accumulate terms).
  std::vector<std::int64_t> frag_y(pairs);
  std::vector<std::int64_t> frag_x(pairs);
  std::vector<std::int64_t> tile_elem(pairs);
  std::vector<std::int64_t> mirror_elem(pairs);
  for (unsigned t = 0; t < pairs; ++t) {
    unsigned tx = 0;
    unsigned ty = 0;
    tile_pair(t, tx, ty);
    frag_y[t] = static_cast<std::int64_t>(ty * t_sz);
    frag_x[t] = static_cast<std::int64_t>(tx * t_sz);
    tile_elem[t] = static_cast<std::int64_t>(ty * t_sz) * ff + frag_x[t];
    mirror_elem[t] = static_cast<std::int64_t>(tx * t_sz) * ff + frag_y[t];
  }

  const auto fcount = static_cast<std::uint32_t>(f);
  for (std::size_t batch = 0; batch < nnz; batch += bin_sz) {
    const std::size_t len = std::min(bin_sz, nnz - batch);
    const std::size_t dom = len * f;  // strided staging domain: idx < len·f
    const auto trips = static_cast<std::uint32_t>((dom + block - 1) / block);

    // Staging segment: idx = t + k·blockDim strides over the batch, guarded
    // by idx < len·f; the non-affine idx/f, idx%f indirection becomes an
    // exact host-built gather over the composed value.
    cv::AffineForm stride;
    stride.thread_coeff = 1;
    stride.loop_coeffs = {static_cast<std::int64_t>(block)};

    cv::PlanSegment stage;
    cv::PlanAccess cols_rd;
    cols_rd.buffer = kCols;
    cols_rd.kind = cusim::AccessKind::Read;
    cols_rd.loops = {{trips, "k"}};
    cols_rd.index = stride;
    cols_rd.guard = stride;
    cols_rd.guard_bound = static_cast<std::int64_t>(dom);
    cols_rd.gather.resize(dom);
    cols_rd.label = "cols[batch+idx/f] (staging)";

    cv::PlanAccess theta_rd = cols_rd;
    theta_rd.buffer = kTheta;
    theta_rd.label = "theta[cols*f+idx%f] (staging)";
    for (std::size_t v = 0; v < dom; ++v) {
      const std::size_t s = v / f;
      cols_rd.gather[v] = static_cast<std::int64_t>(batch + s);
      theta_rd.gather[v] =
          static_cast<std::int64_t>(params.cols[batch + s]) * ff +
          static_cast<std::int64_t>(v % f);
    }

    cv::PlanAccess staged_wr;
    staged_wr.buffer = kStaged;
    staged_wr.kind = cusim::AccessKind::Write;
    staged_wr.loops = {{trips, "k"}};
    staged_wr.index = stride;
    staged_wr.guard = stride;
    staged_wr.guard_bound = static_cast<std::int64_t>(dom);
    staged_wr.label = "staged[idx] (staging)";

    stage.accesses = {cols_rd, theta_rd, staged_wr};
    plan.segments.push_back(std::move(stage));

    // Accumulate + bias segment (between the two __syncthreads()).
    cv::PlanSegment acc;
    const auto len32 = static_cast<std::uint32_t>(len);
    const auto tile32 = static_cast<std::uint32_t>(t_sz);

    cv::PlanAccess fy;
    fy.buffer = kStaged;
    fy.kind = cusim::AccessKind::Read;
    fy.thread_end = pairs;
    fy.loops = {{len32, "s"}, {tile32, "i"}};
    fy.index.thread_table = frag_y;
    fy.index.loop_coeffs = {ff, 1};
    fy.label = "staged[frag_y+i] (accumulate)";

    cv::PlanAccess fx = fy;
    fx.index.thread_table = frag_x;
    fx.loops = {{len32, "s"}, {tile32, "j"}};
    fx.label = "staged[frag_x+j] (accumulate)";

    cv::PlanAccess vals_rd;
    vals_rd.buffer = kVals;
    vals_rd.kind = cusim::AccessKind::Read;
    vals_rd.thread_end = fcount;
    vals_rd.loops = {{len32, "s"}};
    vals_rd.index.base = static_cast<std::int64_t>(batch);
    vals_rd.index.loop_coeffs = {1};
    vals_rd.label = "vals[batch+s] (bias)";

    cv::PlanAccess st_bias = vals_rd;
    st_bias.buffer = kStaged;
    st_bias.index.base = 0;
    st_bias.index.thread_coeff = 1;
    st_bias.index.loop_coeffs = {ff};
    st_bias.label = "staged[s*f+t] (bias)";

    // bias[t] += sum — a compound assignment: one read and one write event.
    cv::PlanAccess bias_rd =
        owned_access(kBias, cusim::AccessKind::Read, fcount, "bias[t] (bias)");
    cv::PlanAccess bias_wr = owned_access(kBias, cusim::AccessKind::Write,
                                          fcount, "bias[t] (bias)");

    acc.accesses = {fy, fx, vals_rd, st_bias, bias_rd, bias_wr};
    plan.segments.push_back(std::move(acc));
  }

  // Flush segment (final: ends at kernel exit, no barrier).
  cv::PlanSegment flush;
  if (nnz != 0) {
    const auto tile32 = static_cast<std::uint32_t>(t_sz);
    cv::PlanAccess tile_wr;
    tile_wr.buffer = kA;
    tile_wr.kind = cusim::AccessKind::Write;
    tile_wr.thread_end = pairs;
    tile_wr.loops = {{tile32, "i"}, {tile32, "j"}};
    tile_wr.index.block_coeff = ff * ff;
    tile_wr.index.thread_table = tile_elem;
    tile_wr.index.loop_coeffs = {ff, 1};
    tile_wr.label = "A[tile] (flush)";

    cv::PlanAccess mirror_wr = tile_wr;
    mirror_wr.index.thread_table = mirror_elem;
    mirror_wr.index.loop_coeffs = {1, ff};
    mirror_wr.label = "A[tile mirror] (flush)";
    flush.accesses.push_back(std::move(tile_wr));
    flush.accesses.push_back(std::move(mirror_wr));
  }
  cv::PlanAccess bias_out =
      owned_access(kBias, cusim::AccessKind::Read, fcount, "bias[t] (flush)");
  cv::PlanAccess b_wr =
      owned_access(kB, cusim::AccessKind::Write, fcount, "b[u*f+t] (flush)");
  b_wr.index.block_coeff = ff;
  flush.accesses.push_back(std::move(bias_out));
  flush.accesses.push_back(std::move(b_wr));
  if (nnz != 0) {
    // A[diag] += λ·nnz — compound: read + write on the diagonal element.
    for (const auto kind : {cusim::AccessKind::Read, cusim::AccessKind::Write}) {
      cv::PlanAccess diag =
          owned_access(kA, kind, fcount, "A[diag] += lambda*nnz (flush)");
      diag.index.block_coeff = ff * ff;
      diag.index.thread_coeff = ff + 1;
      flush.accesses.push_back(std::move(diag));
    }
  }
  plan.segments.push_back(std::move(flush));
  return plan;
}

cv::AccessPlan cg_kernel_plan(std::size_t batch, std::size_t f,
                              std::uint32_t fs, int regs_per_thread) {
  CUMF_EXPECTS(batch > 0 && f > 0, "empty CG batch");
  CUMF_EXPECTS(fs > 0, "need at least one CG iteration");

  cv::AccessPlan plan;
  plan.kernel = "cg_kernel";
  plan.grid = Dim3{static_cast<unsigned>(batch), 1, 1};
  plan.block = Dim3{static_cast<unsigned>(f), 1, 1};
  plan.shared_bytes = 5 * f * sizeof(real_t);
  plan.regs_per_thread = regs_per_thread;

  enum Buf : std::uint32_t { kA, kB, kX, kXs, kRs, kPs, kAps, kRed };
  const auto ff = static_cast<std::int64_t>(f);
  plan.buffers = {
      {"A", MemSpace::Global, batch * f * f, sizeof(real_t), 0x2000'0000ULL},
      {"b", MemSpace::Global, batch * f, sizeof(real_t), 0x3000'0000ULL},
      {"x", MemSpace::Global, batch * f, sizeof(real_t), 0x3800'0000ULL},
      {"xs", MemSpace::Shared, f, sizeof(real_t), 0 * f * sizeof(real_t)},
      {"rs", MemSpace::Shared, f, sizeof(real_t), 1 * f * sizeof(real_t)},
      {"ps", MemSpace::Shared, f, sizeof(real_t), 2 * f * sizeof(real_t)},
      {"aps", MemSpace::Shared, f, sizeof(real_t), 3 * f * sizeof(real_t)},
      {"red", MemSpace::Shared, f, sizeof(real_t), 4 * f * sizeof(real_t)},
  };

  const auto fcount = static_cast<std::uint32_t>(f);
  const unsigned red_start = std::bit_ceil(static_cast<unsigned>(f)) / 2;

  // buf[j] for all j — the broadcast read every thread makes in a matvec.
  const auto bcast = [&](std::uint32_t buffer, const char* label) {
    cv::PlanAccess a;
    a.buffer = buffer;
    a.kind = cusim::AccessKind::Read;
    a.loops = {{fcount, "j"}};
    a.index.loop_coeffs = {1};
    a.label = label;
    return a;
  };
  // A[sys·f·f + t·f + j] — each thread reads its row of the system matrix.
  const auto a_row = [&](const char* label) {
    cv::PlanAccess a;
    a.buffer = kA;
    a.kind = cusim::AccessKind::Read;
    a.loops = {{fcount, "j"}};
    a.index.block_coeff = ff * ff;
    a.index.thread_coeff = ff;
    a.index.loop_coeffs = {1};
    a.label = label;
    return a;
  };
  // The tree-reduction ladder: one segment per halving step.
  const auto reduce_ladder = [&](const char* label) {
    for (unsigned s = red_start; s > 0; s >>= 1) {
      cv::PlanSegment seg;
      const auto active = static_cast<std::uint32_t>(
          std::min<unsigned>(s, static_cast<unsigned>(f) - s));
      if (active > 0) {
        cv::PlanAccess up;  // red(t+s)
        up.buffer = kRed;
        up.kind = cusim::AccessKind::Read;
        up.thread_end = active;
        up.index.base = static_cast<std::int64_t>(s);
        up.index.thread_coeff = 1;
        up.label = label;
        // red[t] += … — compound read + write on the owned slot.
        cv::PlanAccess down_rd =
            owned_access(kRed, cusim::AccessKind::Read, active, label);
        cv::PlanAccess down_wr =
            owned_access(kRed, cusim::AccessKind::Write, active, label);
        seg.accesses = {up, down_rd, down_wr};
      }
      plan.segments.push_back(std::move(seg));
    }
  };
  // Every thread reads the reduced total red[0], then a barrier fences it.
  const auto total_read = [&](const char* label) {
    cv::PlanSegment seg;
    cv::PlanAccess a;
    a.buffer = kRed;
    a.kind = cusim::AccessKind::Read;
    a.label = label;
    seg.accesses = {a};
    plan.segments.push_back(std::move(seg));
  };

  // Load: xs[t] = x[sys·f + t].
  {
    cv::PlanSegment seg;
    cv::PlanAccess x_rd =
        owned_access(kX, cusim::AccessKind::Read, fcount, "x[sys*f+t] (load)");
    x_rd.index.block_coeff = ff;
    seg.accesses = {x_rd, owned_access(kXs, cusim::AccessKind::Write, fcount,
                                       "xs[t] (load)")};
    plan.segments.push_back(std::move(seg));
  }
  // r = b − A·x ; p = r ; red = r².
  {
    cv::PlanSegment seg;
    cv::PlanAccess b_rd =
        owned_access(kB, cusim::AccessKind::Read, fcount, "b[sys*f+t] (init)");
    b_rd.index.block_coeff = ff;
    seg.accesses = {a_row("A[t*f+j] (init matvec)"),
                    bcast(kXs, "xs[j] (init matvec)"), b_rd,
                    owned_access(kRs, cusim::AccessKind::Write, fcount,
                                 "rs[t] (init)"),
                    owned_access(kPs, cusim::AccessKind::Write, fcount,
                                 "ps[t] (init)"),
                    owned_access(kRed, cusim::AccessKind::Write, fcount,
                                 "red[t] (init)")};
    plan.segments.push_back(std::move(seg));
  }
  reduce_ladder("red (rsold reduce)");
  total_read("red[0] (rsold)");

  for (std::uint32_t iter = 0; iter < fs; ++iter) {
    // ap = A·p ; red = p·ap.
    {
      cv::PlanSegment seg;
      seg.accesses = {a_row("A[t*f+j] (matvec)"),
                      bcast(kPs, "ps[j] (matvec)"),
                      owned_access(kPs, cusim::AccessKind::Read, fcount,
                                   "ps[t] (pAp)"),
                      owned_access(kAps, cusim::AccessKind::Write, fcount,
                                   "aps[t] (matvec)"),
                      owned_access(kRed, cusim::AccessKind::Write, fcount,
                                   "red[t] (pAp)")};
      plan.segments.push_back(std::move(seg));
    }
    reduce_ladder("red (pAp reduce)");
    total_read("red[0] (pAp)");
    // x += α p ; r −= α ap ; red = r².
    {
      cv::PlanSegment seg;
      seg.accesses = {
          owned_access(kPs, cusim::AccessKind::Read, fcount, "ps[t] (update)"),
          owned_access(kXs, cusim::AccessKind::Read, fcount, "xs[t] (update)"),
          owned_access(kXs, cusim::AccessKind::Write, fcount,
                       "xs[t] (update)"),
          owned_access(kAps, cusim::AccessKind::Read, fcount,
                       "aps[t] (update)"),
          owned_access(kRs, cusim::AccessKind::Read, fcount, "rs[t] (update)"),
          owned_access(kRs, cusim::AccessKind::Write, fcount,
                       "rs[t] (update)"),
          owned_access(kRed, cusim::AccessKind::Write, fcount,
                       "red[t] (update)")};
      plan.segments.push_back(std::move(seg));
    }
    reduce_ladder("red (rsnew reduce)");
    total_read("red[0] (rsnew)");
    // p = r + β p.
    {
      cv::PlanSegment seg;
      seg.accesses = {
          owned_access(kRs, cusim::AccessKind::Read, fcount, "rs[t] (p)"),
          owned_access(kPs, cusim::AccessKind::Read, fcount, "ps[t] (p)"),
          owned_access(kPs, cusim::AccessKind::Write, fcount, "ps[t] (p)")};
      plan.segments.push_back(std::move(seg));
    }
  }
  // Store: x[sys·f + t] = xs[t] (final segment, no barrier).
  {
    cv::PlanSegment seg;
    cv::PlanAccess x_wr = owned_access(kX, cusim::AccessKind::Write, fcount,
                                       "x[sys*f+t] (store)");
    x_wr.index.block_coeff = ff;
    seg.accesses = {owned_access(kXs, cusim::AccessKind::Read, fcount,
                                 "xs[t] (store)"),
                    x_wr};
    plan.segments.push_back(std::move(seg));
  }
  return plan;
}

}  // namespace cumf::cusim
