// AlsEngine — the cuMF-ALS training loop (functional execution).
//
// One epoch is the paper's two half-sweeps: update every x_u with Θ fixed
// (eq. 2), then every θ_v with X fixed (eq. 3). Each half-sweep runs
// get_hermitian/get_bias followed by the configured solver. The engine
// performs the real numerics on the host; simulated device time for these
// kernels is produced separately by core/kernel_stats.hpp against a
// DeviceSpec, so convergence benches can plot true RMSE against modelled
// GPU seconds.
//
// Every ALS training run is this one engine, varied along two axes that it
// holds as data:
//  - the *row source*: where a half-sweep's rows come from — the in-core
//    CSR pair (one block at row offset 0), or a shard store's tiles walked
//    in ooc_tile_order through a bounded TileCache with single-slot
//    prefetch (one block per tile, at the tile's first global row);
//  - the *partition*: how one block's rows are cut into ThreadPool tasks —
//    ~8 nnz-balanced chunks per worker, one equal-row range per worker, or
//    the device shards fixed at construction.
// MultiGpuAls (in-core × device shards) and OocAlsEngine (streamed × worker
// cuts) are constructors over this engine plus their modeled timelines.
// Every pair runs the same als_update_rows hot loop on the same global row
// ids, so all of them produce bit-identical factors and SolveStats.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/hermitian.hpp"
#include "core/solver.hpp"
#include "data/shards.hpp"
#include "linalg/dense.hpp"
#include "metrics/roofline.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/partition.hpp"  // nnz_balanced_bounds (worker schedules)

namespace cumf {

/// How a half-sweep's rows are distributed over the worker pool.
enum class AlsSchedule {
  /// One contiguous equal-row-count range per worker. Power-law row degrees
  /// concentrate nnz (and therefore hermitian work) in the first ranges, so
  /// an epoch serializes behind the heaviest worker.
  static_rows,
  /// Rows are cut into ~8·workers chunks of roughly equal *nnz* (from the
  /// CSR row_ptr prefix) and workers pull chunks from an atomic counter, so
  /// degree skew costs at most one chunk of imbalance.
  nnz_guided,
};

inline const char* to_string(AlsSchedule schedule) {
  return schedule == AlsSchedule::static_rows ? "static" : "nnz";
}

/// Inverse of to_string(AlsSchedule) — the spellings cumf_train's
/// --schedule flag and tuned-config JSON use; std::nullopt when unknown.
inline std::optional<AlsSchedule> schedule_from_name(std::string_view name) {
  if (name == "static") {
    return AlsSchedule::static_rows;
  }
  if (name == "nnz") {
    return AlsSchedule::nnz_guided;
  }
  return std::nullopt;
}

struct AlsOptions {
  std::size_t f = 40;         ///< latent dimension
  real_t lambda = 0.05f;      ///< ALS-WR regularization (λ·n_u on diagonal)
  /// Exact or approximate `solve` step. `solver.path` is the engine's single
  /// kernel-path knob: it also selects the SIMD/scalar variant of
  /// get_hermitian_row, so one switch pins a whole training run to either
  /// path (the differential tests rely on this).
  SolverOptions solver;
  HermitianParams hermitian;  ///< tile/BIN of the memory-optimized kernel
  bool tiled_hermitian = true;  ///< false → naive reference kernel (ablation)
  /// Host threads updating rows concurrently. Row updates are independent
  /// (§II), so any worker count produces the same factors as the serial run
  /// up to floating-point associativity — and exactly the same here, since
  /// each row's arithmetic is self-contained (and independent of which
  /// worker or schedule runs it).
  int workers = 1;
  AlsSchedule schedule = AlsSchedule::nnz_guided;
  std::uint64_t seed = 1;
};

/// The streamed row source's budgets (OocAlsEngine).
struct OocOptions {
  /// Hard host-side budget for cached decoded tiles (--host-mem). Must
  /// admit the largest tile; smaller-than-dataset budgets are the point.
  std::uint64_t host_mem_bytes = 0;
  /// Modeled device memory (--device-mem). 0 = unconstrained. Overlap
  /// needs room to double-buffer the two largest tiles beside the factors;
  /// when the budget is too small the engine falls back to synchronous
  /// loads (overlap_active() reports the effective mode).
  std::uint64_t device_mem_bytes = 0;
  /// Prefetch the next tile while the current one computes. false is the
  /// no-overlap ablation the bench gate compares against.
  bool overlap = true;
};

/// Measured wall-time breakdown of the last epoch's tile streaming.
struct OocEpochStats {
  double stall_s = 0.0;    ///< compute thread blocked waiting for a tile
  double compute_s = 0.0;  ///< inside the tile row-update loops
  double load_s = 0.0;     ///< inside tile loads (overlaps compute when
                           ///< prefetch is on, so load_s can exceed stall_s)
  std::uint64_t tiles = 0;        ///< tile fetches issued
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t bytes_loaded = 0;  ///< disk bytes read on misses
};

/// The block schedule: tile visit order of sweep number `sweep` over
/// `tiles` tiles. Serpentine — even sweeps ascend, odd sweeps descend — so
/// consecutive sweeps of the same view share their boundary tile (an LRU
/// hit instead of a reload). Pure function of (tiles, sweep): deterministic
/// across worker counts, budgets, and prefetch settings.
std::vector<std::size_t> ooc_tile_order(std::size_t tiles, int sweep);

/// Contiguous range of rows owned by one device.
struct RowRange {
  index_t begin = 0;
  index_t end = 0;
  index_t size() const noexcept { return end - begin; }
};

/// Near-equal row-count partition of [0, count) into `parts` ranges. When
/// parts > count the tail ranges are empty (a 4-GPU run on a 3-column
/// dataset simply idles one device); count == 0 yields all-empty ranges.
std::vector<RowRange> partition_rows(index_t count, int parts);

/// Exactly `parts` contiguous shards over the rows of `r`, cut at the row
/// boundaries of roughly equal total nnz that nnz_balanced_bounds finds.
/// Hermitian work per row is proportional to its nnz, so this is the
/// balance that matters for the per-device critical path; when fewer
/// balanced cuts than `parts` exist (tiny or extremely skewed data) the
/// tail shards are empty.
std::vector<RowRange> nnz_balanced_shards(const CsrMatrix& r, int parts);

/// Everything one worker (or one simulated device) needs to update a row
/// without touching shared mutable state: the device analogue is a
/// thread-block's scratch. The engine keeps one per partition task slot
/// (host worker or device), so every row runs the identical hot loop and
/// the SolveStats/OpCounts accounting merges the same way.
struct AlsWorkerContext {
  AlsWorkerContext(std::size_t f, const SolverOptions& options,
                   const HermitianParams& hermitian)
      : solver(f, options), a_scratch(f * f), b_scratch(f) {
    ws.prepare(f, hermitian);
  }
  SystemSolver solver;
  HermitianWorkspace ws;
  std::vector<real_t> a_scratch;
  std::vector<real_t> b_scratch;
  OpCounts herm_ops;
  OpCounts solve_ops;
  std::uint64_t herm_ns = 0;   ///< profiled time in get_hermitian_row
  std::uint64_t solve_ns = 0;  ///< profiled time in the solve step
};

/// Measured host seconds per kernel phase, summed across workers/devices.
/// Collected only while the cuprof tracer is enabled; zero otherwise.
struct AlsPhaseSeconds {
  double hermitian = 0.0;  ///< get_hermitian_row (load+compute+write)
  double solve = 0.0;      ///< the batched solve step
};

/// The ALS row-update hot loop over [begin, end): get_hermitian (or the
/// naive reference kernel), optional fault injection, then the configured
/// solve, accumulating ops/spans/stats into `ctx`. `fault_site` tags the
/// half-sweep (0 = update-X, 1 = update-Θ) so the deterministic fault
/// injector corrupts the same systems under any row source, partition,
/// worker count, or device count. Rows never read other rows of `solved`,
/// so any disjoint partition of calls is race-free and produces
/// bit-identical factors. `row_offset` maps local row u of `ratings` to
/// global row u + row_offset of `solved` — a streamed tile passes its
/// first global row here, so fault decisions and factor writes land on the
/// same global ids as an in-core sweep.
void als_update_rows(const AlsOptions& options, const CsrMatrix& ratings,
                     const Matrix& fixed, Matrix& solved, index_t begin,
                     index_t end, std::uint32_t fault_site,
                     AlsWorkerContext& ctx, index_t row_offset = 0);

class AlsEngine {
 public:
  /// In-core rows cut across `options.workers` host workers under
  /// `options.schedule`.
  AlsEngine(const RatingsCoo& train, const AlsOptions& options);

  /// Runs one full epoch (update-X then update-Θ).
  void run_epoch();

  /// Per-epoch hook, invoked at the end of every run_epoch() with the new
  /// epochs_run() value. This is the checkpoint attachment point: a hook
  /// that snapshots user_factors()/item_factors()/solve_stats() at epoch k
  /// captures exactly the state restore() needs to continue bit-identically
  /// (see data/checkpoint.hpp and tests/test_robustness.cpp).
  using EpochHook = std::function<void(int epoch)>;
  void set_epoch_hook(EpochHook hook) { epoch_hook_ = std::move(hook); }

  /// Resumes from checkpointed state: replaces both factor matrices and the
  /// epoch counter, and seeds solve_stats() with the pre-crash cumulative
  /// stats so telemetry deltas and final totals span the whole logical run.
  /// The engine must have been constructed with the same ratings and
  /// options as the run that produced the snapshot; epochs are
  /// deterministic (the tile schedule is a function of the epoch counter
  /// alone), so the continuation is bit-identical to never having stopped,
  /// under any row source and partition. Throws CheckError on shape
  /// mismatch.
  void restore(const Matrix& x, const Matrix& theta, int epochs_run,
               const SolveStats& stats = SolveStats{});

  int epochs_run() const noexcept { return epochs_; }
  std::size_t f() const noexcept { return options_.f; }
  const AlsOptions& options() const noexcept { return options_; }

  const Matrix& user_factors() const noexcept { return x_; }
  const Matrix& item_factors() const noexcept { return theta_; }

  /// Simulated devices when the partition is device shards fixed at
  /// construction (MultiGpuAls); 0 when rows are cut across host workers.
  int gpus() const noexcept {
    return static_cast<int>(device_shards_[0].size());
  }

  /// The shard layout when rows stream from a shard store (OocAlsEngine);
  /// nullptr when they are in core.
  const ShardMeta* streamed_meta() const noexcept {
    return cache_ ? &cache_->meta() : nullptr;
  }
  /// True when tile prefetch is actually running (requested overlap minus
  /// the budget fallback); always false in core.
  bool overlap_active() const noexcept { return overlap_; }
  /// Measured streaming breakdown of the last epoch; all zero in core.
  const OocEpochStats& ooc_stats_last_epoch() const noexcept {
    return ooc_stats_;
  }

  /// Solver behaviour accumulated since construction (plus any restore()d
  /// baseline), merged across workers or devices. The counters are integer
  /// sums, so the merge is associative and the totals are bit-identical
  /// under every partition. CG iteration counts feed the cost model;
  /// failures and the fallback counters stay 0 for λ > 0 on healthy data —
  /// they move only when the approximate path degrades (FP16 overflow, CG
  /// breakdown) or a system is unsolvable even exactly, in which case the
  /// affected row keeps its previous factor instead of poisoning the model.
  SolveStats solve_stats() const noexcept;

  /// Operations actually performed per epoch (measured, not analytic).
  const OpCounts& hermitian_ops_per_epoch() const noexcept {
    return herm_ops_;
  }
  const OpCounts& solve_ops_per_epoch() const noexcept { return solve_ops_; }

  /// Per-phase host seconds summed across workers (so with W busy workers
  /// an epoch's wall time is roughly total/W).
  using PhaseSeconds = AlsPhaseSeconds;
  const PhaseSeconds& phase_seconds_last_epoch() const noexcept {
    return phase_;
  }

 protected:
  /// In-core rows cut into `gpus` device shards: nnz-balanced under
  /// nnz_guided, row-count under static_rows. Each device owns one worker
  /// context; `options.workers` is ignored.
  AlsEngine(const RatingsCoo& train, const AlsOptions& options, int gpus);
  /// Rows streamed from the shard store in `shard_dir`, each tile cut
  /// across `options.workers` host workers.
  AlsEngine(const std::string& shard_dir, const AlsOptions& options,
            const OocOptions& ooc);

  /// The worker pool (one thread per worker context), or nullptr with a
  /// single context. Idle between epochs, so the engines' timeline models
  /// run their independent per-tile and per-shard evaluations on it.
  ThreadPool* worker_pool() const noexcept { return pool_.get(); }

  /// In-core row source (empty when streamed): the train ratings by row
  /// (update-X view) and their transpose (update-Θ view).
  CsrMatrix r_;
  CsrMatrix rt_;
  /// Device-shard partition per side (0 = update-X, 1 = update-Θ); empty
  /// when rows are cut across host workers.
  std::array<std::vector<RowRange>, 2> device_shards_;

 private:
  /// Canonicalizes `train` into the in-core CSR pair, then init()s.
  void load_in_core(const RatingsCoo& train, int contexts);
  /// Warm-starts the m×f / n×f factors and builds `contexts` worker
  /// contexts (plus a pool when there is more than one).
  void init(index_t rows, index_t cols, double mean, int contexts);
  void update_side(std::uint32_t side, const Matrix& fixed, Matrix& solved);
  /// The partition: cuts of one block of `side` into pool tasks.
  std::vector<std::size_t> row_cuts(const CsrMatrix& block,
                                    std::uint32_t side) const;
  void update_block(const CsrMatrix& block, const Matrix& fixed,
                    Matrix& solved, std::uint32_t side, index_t row_offset);

  AlsOptions options_;
  std::unique_ptr<TileCache> cache_;  ///< streamed row source, else null
  bool overlap_ = false;
  OocEpochStats ooc_stats_;
  Matrix x_;      ///< m×f user factors
  Matrix theta_;  ///< n×f item factors
  std::vector<AlsWorkerContext> workers_;
  std::unique_ptr<ThreadPool> pool_;  ///< only with more than one context
  int epochs_ = 0;
  OpCounts herm_ops_;
  OpCounts solve_ops_;
  PhaseSeconds phase_;
  EpochHook epoch_hook_;
  SolveStats restored_stats_;  ///< baseline from restore(), added on read
};

/// Largest tile size ≤ `requested` that divides f (so any f works with the
/// paper's default tile of 10).
int pick_tile(std::size_t f, int requested);

/// Shared warm start: entries near sqrt(mean/f) so x·θ begins at the global
/// rating mean. Every row source and partition starts from it.
void als_init_factors(Matrix& factors, double mean, std::uint64_t seed);

}  // namespace cumf
