#include "core/als.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <numeric>

#include "analysis/faultinject.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "half/half.hpp"
#include "prof/prof.hpp"

namespace cumf {
namespace {

const AlsOptions& checked(const AlsOptions& options) {
  CUMF_EXPECTS(options.f > 0, "latent dimension must be positive");
  CUMF_EXPECTS(options.lambda > 0, "ALS-WR needs lambda > 0");
  return options;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::uint64_t largest_tile_bytes(const ShardMeta& meta) {
  std::uint64_t largest = 0;
  for (const std::vector<TileRange>* table : {&meta.row_tiles,
                                              &meta.col_tiles}) {
    for (const TileRange& t : *table) {
      largest = std::max(largest, tile_resident_bytes(t));
    }
  }
  return largest;
}

/// Contiguous shards from row 0 as the cut list {0, end_0, end_1, …}.
std::vector<std::size_t> cuts_of(const std::vector<RowRange>& shards) {
  std::vector<std::size_t> cuts{0};
  for (const RowRange& shard : shards) {
    cuts.push_back(shard.end);
  }
  return cuts;
}

}  // namespace

int pick_tile(std::size_t f, int requested) {
  CUMF_EXPECTS(f > 0, "latent dimension must be positive");
  CUMF_EXPECTS(requested > 0, "tile must be positive");
  for (int t = std::min<int>(requested, static_cast<int>(f)); t > 1; --t) {
    if (f % static_cast<std::size_t>(t) == 0) {
      return t;
    }
  }
  return 1;
}

/// Initializes factors so that x·θ starts near the global rating mean:
/// entries are sqrt(mean/f) with ±10% noise (the standard ALS warm start;
/// a zero init would make the first update-X see Θ = 0 and stall).
void als_init_factors(Matrix& factors, double mean, std::uint64_t seed) {
  Rng rng(seed);
  const double base =
      std::sqrt(std::max(0.1, std::abs(mean)) /
                static_cast<double>(factors.cols()));
  for (std::size_t i = 0; i < factors.rows(); ++i) {
    for (std::size_t k = 0; k < factors.cols(); ++k) {
      factors(i, k) = static_cast<real_t>(base * (1.0 + 0.1 * rng.normal()));
    }
  }
}

std::vector<std::size_t> ooc_tile_order(std::size_t tiles, int sweep) {
  std::vector<std::size_t> order(tiles);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (sweep % 2 != 0) {
    std::reverse(order.begin(), order.end());
  }
  return order;
}

std::vector<RowRange> partition_rows(index_t count, int parts) {
  CUMF_EXPECTS(parts > 0, "need at least one partition");
  std::vector<RowRange> out;
  out.reserve(static_cast<std::size_t>(parts));
  // With parts > count this degenerates to `count` single-row ranges
  // followed by empty tails (base = 0, extra = count) — surplus devices
  // idle instead of the constructor throwing.
  const index_t base = count / static_cast<index_t>(parts);
  const index_t extra = count % static_cast<index_t>(parts);
  index_t begin = 0;
  for (index_t p = 0; p < static_cast<index_t>(parts); ++p) {
    const index_t len = base + (p < extra ? 1 : 0);
    out.push_back(RowRange{begin, begin + len});
    begin += len;
  }
  CUMF_ENSURES(begin == count, "partition must cover all rows");
  return out;
}

std::vector<RowRange> nnz_balanced_shards(const CsrMatrix& r, int parts) {
  CUMF_EXPECTS(parts > 0, "need at least one shard");
  const std::vector<std::size_t> bounds =
      nnz_balanced_bounds(r, static_cast<std::size_t>(parts));
  std::vector<RowRange> out;
  out.reserve(static_cast<std::size_t>(parts));
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    out.push_back(RowRange{static_cast<index_t>(bounds[i]),
                           static_cast<index_t>(bounds[i + 1])});
  }
  // Fewer balanced cuts than devices: the tail devices hold empty shards.
  while (out.size() < static_cast<std::size_t>(parts)) {
    out.push_back(RowRange{r.rows(), r.rows()});
  }
  CUMF_ENSURES(out.size() == static_cast<std::size_t>(parts) &&
                   out.front().begin == 0 && out.back().end == r.rows(),
               "shards must cover all rows");
  return out;
}

AlsEngine::AlsEngine(const RatingsCoo& train, const AlsOptions& options)
    : options_(checked(options)) {
  CUMF_EXPECTS(options_.workers >= 1, "need at least one worker");
  load_in_core(train, options_.workers);
}

AlsEngine::AlsEngine(const RatingsCoo& train, const AlsOptions& options,
                     int gpus)
    : options_(checked(options)) {
  CUMF_EXPECTS(gpus >= 1, "need at least one GPU");
  load_in_core(train, gpus);
  // Device shards: nnz-balanced by default (hermitian work per row is
  // proportional to its nnz, so power-law degree skew would strand an
  // epoch behind the device that drew the head rows under a plain
  // row-count split); AlsSchedule::static_rows keeps the row-count split
  // as the ablation baseline.
  for (const std::uint32_t side : {0u, 1u}) {
    const CsrMatrix& view = side == 0 ? r_ : rt_;
    device_shards_[side] = options_.schedule == AlsSchedule::nnz_guided
                               ? nnz_balanced_shards(view, gpus)
                               : partition_rows(view.rows(), gpus);
  }
}

AlsEngine::AlsEngine(const std::string& shard_dir, const AlsOptions& options,
                     const OocOptions& ooc)
    : options_(checked(options)),
      cache_(std::make_unique<TileCache>(shard_dir, read_shard_meta(shard_dir),
                                         ooc.host_mem_bytes)) {
  CUMF_EXPECTS(options_.workers >= 1, "need at least one worker");
  const ShardMeta& meta = cache_->meta();
  // meta.mean is the bit-exact mean_value() of the canonical train split,
  // so this warm start is byte-for-byte the in-core one.
  init(meta.rows, meta.cols, meta.mean, options_.workers);
  // Prefetch keeps two tiles in flight (one computing, one loading), so it
  // needs headroom for both in the host cache and, when a device budget is
  // modeled, room to double-buffer them beside the factors. Without the
  // headroom the engine degrades to synchronous loads instead of lying
  // about the budget.
  const std::uint64_t largest = largest_tile_bytes(meta);
  overlap_ = ooc.overlap && ooc.host_mem_bytes >= 2 * largest &&
             (ooc.device_mem_bytes == 0 ||
              ooc.device_mem_bytes >= 2 * largest);
}

void AlsEngine::load_in_core(const RatingsCoo& train, int contexts) {
  RatingsCoo canonical = train;
  canonical.sort_and_dedup();
  for (const Rating& e : canonical.entries()) {
    CUMF_EXPECTS(std::isfinite(e.r), "ratings must be finite");
  }
  r_ = CsrMatrix::from_coo(canonical);
  rt_ = r_.transposed();
  // `canonical` is freed only after init() has allocated the factors:
  // freeing it first raised cumf_train's peak RSS by the size of the copy.
  init(r_.rows(), r_.cols(), canonical.mean_value(), contexts);
}

void AlsEngine::init(index_t rows, index_t cols, double mean, int contexts) {
  options_.hermitian.tile = pick_tile(options_.f, options_.hermitian.tile);
  x_ = Matrix(rows, options_.f);
  theta_ = Matrix(cols, options_.f);
  als_init_factors(x_, mean, options_.seed);
  als_init_factors(theta_, mean, options_.seed + 1);
  workers_.reserve(static_cast<std::size_t>(contexts));
  for (int w = 0; w < contexts; ++w) {
    workers_.emplace_back(options_.f, options_.solver, options_.hermitian);
  }
  if (contexts > 1) {
    pool_ = std::make_unique<ThreadPool>(static_cast<std::size_t>(contexts));
  }
}

void als_update_rows(const AlsOptions& options, const CsrMatrix& ratings,
                     const Matrix& fixed, Matrix& solved, index_t begin,
                     index_t end, std::uint32_t fault_site,
                     AlsWorkerContext& ctx, index_t row_offset) {
  const std::size_t f = options.f;
  // One flag check per chunk: when the cuprof tracer is off the loop runs
  // the plain hot path with no clock reads (and with CUMF_PROF=OFF this
  // whole branch folds to `false` at compile time anyway).
  const bool profiled = prof::Tracer::enabled();
  for (index_t u = begin; u < end; ++u) {
    const index_t nnz_u = ratings.row_nnz(u);
    if (nnz_u == 0) {
      continue;  // unobserved row: keep the previous factor
    }
    const std::uint64_t t0 = profiled ? prof::now_ns() : 0;
    if (options.tiled_hermitian) {
      get_hermitian_row(ratings, fixed, u, options.lambda,
                        options.hermitian, ctx.ws, ctx.a_scratch,
                        ctx.b_scratch, options.solver.path);
    } else {
      get_hermitian_row_reference(ratings, fixed, u, options.lambda,
                                  ctx.a_scratch, ctx.b_scratch);
    }
    std::uint64_t t1 = 0;
    if (profiled) {
      t1 = prof::now_ns();
      prof::Tracer::instance().complete_span("get_hermitian", "als", t0, t1);
      ctx.herm_ns += t1 - t0;
    }
    // Global row id: fault decisions and the factor write must be keyed the
    // same way whether this range is a whole matrix or one streamed tile.
    const index_t g = u + row_offset;
    if (analysis::FaultInjector::enabled()) {
      // Deterministic corruption of the assembled system (NaN/inf/indefinite
      // diag/FP16-range blowup) so the solver's degradation ladder gets
      // exercised; the site id keeps the two half-sweeps independent.
      analysis::FaultInjector::instance().corrupt_system(
          fault_site, g, ctx.a_scratch, ctx.b_scratch);
    }
    // Traffic per rating: one θ row (FP32 even when staging rounds to FP16
    // in "shared memory" — the global read is full precision), the rating
    // value and its column index. Written: A_u plus the b_u vector.
    constexpr double kReal = sizeof(real_t);
    constexpr double kIdx = sizeof(index_t);
    ctx.herm_ops.flops += static_cast<double>(nnz_u) * (f * f + 2.0 * f);
    ctx.herm_ops.bytes_read +=
        static_cast<double>(nnz_u) * (f * kReal + kReal + kIdx);
    ctx.herm_ops.bytes_written += (static_cast<double>(f) * f + f) * kReal;

    const bool ok =
        ctx.solver.solve(ctx.a_scratch, ctx.b_scratch, solved.row(g));
    if (!ok) {
      // Even the exact fallback could not produce a finite solution (a
      // corrupted or singular system — impossible for healthy data with
      // λ > 0). Keep the previous factor: the solver restored the row and
      // counted the failure, and training continues on the other rows.
      continue;
    }
    if (profiled) {
      const std::uint64_t t2 = prof::now_ns();
      prof::Tracer::instance().complete_span("solve", "als", t1, t2);
      ctx.solve_ns += t2 - t1;
    }
    const double ff = static_cast<double>(f);
    if (options.solver.kind == SolverKind::CgFp32 ||
        options.solver.kind == SolverKind::PcgFp32 ||
        options.solver.kind == SolverKind::CgFp16) {
      const double a_elem_bytes = options.solver.kind == SolverKind::CgFp16
                                      ? sizeof(half)
                                      : sizeof(real_t);
      const double fs = options.solver.cg_fs;
      ctx.solve_ops.flops += fs * (2.0 * ff * ff + 10.0 * ff);
      // fs sweeps over A (half-width for the FP16 solver) plus the CG
      // warm start reading the previous x_u once.
      ctx.solve_ops.bytes_read += fs * ff * ff * a_elem_bytes + ff * kReal;
    } else {
      ctx.solve_ops.flops += (2.0 / 3.0) * ff * ff * ff;
      ctx.solve_ops.bytes_read += ff * ff * kReal;
    }
    ctx.solve_ops.bytes_written += ff * kReal;
  }
}

std::vector<std::size_t> AlsEngine::row_cuts(const CsrMatrix& block,
                                             std::uint32_t side) const {
  if (!device_shards_[side].empty()) {
    return cuts_of(device_shards_[side]);
  }
  if (options_.schedule == AlsSchedule::nnz_guided) {
    // ~8 chunks per worker of equal nnz: power-law degree skew costs at
    // most one trailing chunk of imbalance instead of an entire static
    // range (see docs/performance.md).
    return nnz_balanced_bounds(block, 8 * workers_.size());
  }
  return cuts_of(
      partition_rows(block.rows(), static_cast<int>(workers_.size())));
}

void AlsEngine::update_block(const CsrMatrix& block, const Matrix& fixed,
                             Matrix& solved, std::uint32_t side,
                             index_t row_offset) {
  if (pool_ == nullptr) {
    als_update_rows(options_, block, fixed, solved, 0, block.rows(), side,
                    workers_[0], row_offset);
    return;
  }
  // Rows are independent and each worker index is held by exactly one task,
  // so one context per worker (or device) stays race-free under any cuts.
  // No row is touched by two tasks, and `fixed` is read-only during the
  // sweep; the pool's wait is the functional all-gather.
  pool_->parallel_for_chunks(
      row_cuts(block, side),
      [&](std::size_t begin, std::size_t end, std::size_t worker) {
        als_update_rows(options_, block, fixed, solved,
                        static_cast<index_t>(begin),
                        static_cast<index_t>(end), side, workers_[worker],
                        row_offset);
      });
}

void AlsEngine::update_side(std::uint32_t side, const Matrix& fixed,
                            Matrix& solved) {
  if (cache_ == nullptr) {
    update_block(side == 0 ? r_ : rt_, fixed, solved, side, 0);
    return;
  }
  const TileView view = side == 0 ? TileView::by_row : TileView::by_col;
  // The schedule depends only on (tile count, epoch counter): deterministic
  // across worker counts and budgets, and restore(epochs) re-enters the
  // identical sweep sequence.
  const std::vector<std::size_t> order =
      ooc_tile_order(cache_->meta().tiles(view).size(), epochs_);
  const bool profiled = prof::Tracer::enabled();
  std::future<std::shared_ptr<const CsrTile>> pending;
  for (std::size_t i = 0; i < order.size(); ++i) {
    // Wait for the tile (prefetched by the previous iteration, or loaded
    // synchronously); the blocked time is the exposed transfer stall.
    const std::uint64_t w0 = profiled ? prof::now_ns() : 0;
    const auto wait0 = std::chrono::steady_clock::now();
    std::shared_ptr<const CsrTile> tile =
        pending.valid() ? pending.get() : cache_->get(view, order[i]);
    ooc_stats_.stall_s += seconds_since(wait0);
    if (profiled) {
      prof::Tracer::instance().complete_span("ooc_wait_tile", "ooc", w0,
                                             prof::now_ns());
    }
    if (overlap_ && i + 1 < order.size()) {
      const std::size_t next = order[i + 1];
      pending = std::async(std::launch::async, [this, view, next] {
        return cache_->get(view, next);
      });
    }
    const std::uint64_t c0 = profiled ? prof::now_ns() : 0;
    const auto comp0 = std::chrono::steady_clock::now();
    update_block(tile->csr, fixed, solved, side, tile->row_begin);
    ooc_stats_.compute_s += seconds_since(comp0);
    if (profiled) {
      prof::Tracer::instance().complete_span("ooc_tile_compute", "ooc", c0,
                                             prof::now_ns());
    }
    ++ooc_stats_.tiles;
  }
}

void AlsEngine::run_epoch() {
  CUMF_PROF_SCOPE("als_epoch", "als");
  // Measured per-epoch counters: reset so callers always see "last epoch".
  for (AlsWorkerContext& ctx : workers_) {
    ctx.herm_ops = OpCounts{};
    ctx.solve_ops = OpCounts{};
    ctx.herm_ns = 0;
    ctx.solve_ns = 0;
  }
  ooc_stats_ = OocEpochStats{};
  const TileCache::Stats before = cache_ ? cache_->stats() : TileCache::Stats{};
  {
    CUMF_PROF_SCOPE("update_X", "als");
    update_side(0, theta_, x_);
  }
  {
    CUMF_PROF_SCOPE("update_Theta", "als");
    update_side(1, x_, theta_);
  }
  if (cache_ != nullptr) {
    const TileCache::Stats after = cache_->stats();
    ooc_stats_.cache_hits = after.hits - before.hits;
    ooc_stats_.cache_misses = after.misses - before.misses;
    ooc_stats_.bytes_loaded = after.bytes_loaded - before.bytes_loaded;
    ooc_stats_.load_s = after.load_seconds - before.load_seconds;
  }
  herm_ops_ = OpCounts{};
  solve_ops_ = OpCounts{};
  phase_ = PhaseSeconds{};
  for (const AlsWorkerContext& ctx : workers_) {
    herm_ops_ += ctx.herm_ops;
    solve_ops_ += ctx.solve_ops;
    phase_.hermitian += static_cast<double>(ctx.herm_ns) / 1e9;
    phase_.solve += static_cast<double>(ctx.solve_ns) / 1e9;
  }
  ++epochs_;
  if (epoch_hook_) {
    epoch_hook_(epochs_);
  }
}

void AlsEngine::restore(const Matrix& x, const Matrix& theta, int epochs_run,
                        const SolveStats& stats) {
  CUMF_EXPECTS(x.rows() == x_.rows() && x.cols() == x_.cols(),
               "restore: user-factor shape mismatch");
  CUMF_EXPECTS(theta.rows() == theta_.rows() && theta.cols() == theta_.cols(),
               "restore: item-factor shape mismatch");
  CUMF_EXPECTS(epochs_run >= 0, "restore: negative epoch counter");
  x_ = x;
  theta_ = theta;
  epochs_ = epochs_run;
  restored_stats_ = stats;
  for (AlsWorkerContext& ctx : workers_) {
    ctx.solver.reset_stats();
  }
}

SolveStats AlsEngine::solve_stats() const noexcept {
  SolveStats total = restored_stats_;
  for (const AlsWorkerContext& ctx : workers_) {
    total += ctx.solver.stats();
  }
  return total;
}

}  // namespace cumf
