#include "core/kernel_stats.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <mutex>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace cumf {

namespace {

// --- Calibration factors -------------------------------------------------
// These scale the device's generic compute efficiency to the specific
// kernel. They are calibrated once against the published measurements
// (Fig. 5/7 and Table IV of the paper and the open-source cuMF kernels)
// and are NOT tuned per experiment; every bench uses the same values.

/// Register-tiled get_hermitian sustains ~75% of a dense-GEMM's efficiency
/// (it also walks the sparse row structure).
constexpr double kHermTiledEff = 0.75;
/// Without register tiling (GPU-ALS [31]) the accumulator spills to L1 and
/// sustained FLOPS drop by a further ~2.2x.
constexpr double kHermPlainEff = 0.34;
/// Batched LU with partial pivoting on f×f blocks: heavy branch divergence,
/// ~5% of dense peak — consistent with Fig. 5's LU-FP32 bar.
constexpr double kLuEff = 0.05;
/// Batched Cholesky: no pivoting, somewhat better than LU.
constexpr double kCholeskyEff = 0.08;
/// Streaming writes / coalesced CG matvec reads sustain ~85% of DRAM peak
/// (above the 75% memcpy reference — Fig. 7b).
constexpr double kStreamBwEff = 0.85;
/// SGD's scattered factor updates sustain ~55% of DRAM peak.
constexpr double kSgdBwEff = 0.55;

gpusim::TraceConfig trace_config(const AlsKernelConfig& config) {
  gpusim::TraceConfig tc;
  tc.f = config.f;
  tc.bin = config.bin;
  tc.threads_per_block =
      gpusim::hermitian_threads_per_block(config.f, config.tile);
  tc.coalesced = config.load_scheme == LoadScheme::Coalesced;
  tc.l1_enabled = config.load_scheme != LoadScheme::NonCoalescedNoL1;
  return tc;
}

/// Rows each resident block stages in the load trace.
constexpr int kTraceRounds = 2;

/// Column lists for the resident blocks of the trace from real rows: a
/// deterministic stride through the matrix, skipping empty rows.
std::vector<std::vector<index_t>> sampled_block_rows(const CsrMatrix& sample,
                                                     int blocks) {
  std::vector<std::vector<index_t>> rows;
  rows.reserve(static_cast<std::size_t>(blocks));
  const index_t stride = std::max<index_t>(1, sample.rows() / 97);
  index_t u = 0;
  while (rows.size() < static_cast<std::size_t>(blocks)) {
    std::vector<index_t> cols;
    for (int round = 0; round < kTraceRounds; ++round) {
      for (index_t probe = 0; probe < sample.rows(); ++probe) {
        u = (u + stride) % sample.rows();
        if (sample.row_nnz(u) > 0) {
          const auto rc = sample.row_cols(u);
          cols.insert(cols.end(), rc.begin(), rc.end());
          break;
        }
      }
    }
    rows.push_back(std::move(cols));
  }
  return rows;
}

/// Everything the synthetic load trace reads: the device's cache geometry
/// and warp size, the trace configuration, the resident blocks, and the
/// shape reduced to its average degree ⌊nnz/rows⌋ and fixed dimension.
struct SyntheticTraceKey {
  int warp_size;
  int line_bytes;
  int l1_bytes;
  std::int64_t l2_bytes;
  int sm_count;
  int f;
  int bin;
  int threads_per_block;
  bool coalesced;
  bool l1_enabled;
  std::uint64_t theta_base;
  int blocks;
  std::size_t degree;
  std::uint64_t cols;

  auto operator<=>(const SyntheticTraceKey&) const = default;
};

/// Synthetic rows with the key's average degree and uniform columns.
std::vector<std::vector<index_t>> synthetic_block_rows(
    const SyntheticTraceKey& key) {
  std::vector<std::vector<index_t>> rows;
  rows.reserve(static_cast<std::size_t>(key.blocks));
  Rng rng(0xC0FFEE);
  for (int b = 0; b < key.blocks; ++b) {
    std::vector<index_t> cols(key.degree *
                              static_cast<std::size_t>(kTraceRounds));
    for (auto& c : cols) {
      c = static_cast<index_t>(rng.uniform_index(key.cols));
    }
    rows.push_back(std::move(cols));
  }
  return rows;
}

/// simulate_hermitian_load over synthetic rows, memoized process-wide on
/// SyntheticTraceKey: tile layouts, multi-GPU shards, tuner candidates
/// that differ only in solver or fs, and repeated runs in one process all
/// share an average degree far more often than an exact shape. Concurrent
/// callers of one key wait for a single simulation.
gpusim::TraceStats synthetic_trace_stats(const gpusim::DeviceSpec& dev,
                                         const gpusim::TraceConfig& tc,
                                         const SyntheticTraceKey& key) {
  struct Entry {
    std::once_flag once;
    gpusim::TraceStats stats;
  };
  // Bounded so a long-lived process sweeping shapes cannot grow it
  // without limit; entries in use survive a reset through their shared_ptr.
  constexpr std::size_t kMaxEntries = 4096;
  static std::mutex mutex;
  static std::map<SyntheticTraceKey, std::shared_ptr<Entry>> memo;
  std::shared_ptr<Entry> entry;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    if (memo.size() >= kMaxEntries) {
      memo.clear();
    }
    std::shared_ptr<Entry>& slot = memo[key];
    if (slot == nullptr) {
      slot = std::make_shared<Entry>();
    }
    entry = slot;
  }
  std::call_once(entry->once, [&] {
    entry->stats = simulate_hermitian_load(dev, tc, synthetic_block_rows(key));
  });
  return entry->stats;
}

/// The load-phase trace of `config` at `shape`: real rows when a CSR sample
/// is available, otherwise synthetic rows with the average degree.
gpusim::TraceStats load_trace_stats(const gpusim::DeviceSpec& dev,
                                    const UpdateShape& shape,
                                    const AlsKernelConfig& config,
                                    const gpusim::Occupancy& occ,
                                    const CsrMatrix* sample) {
  const gpusim::TraceConfig tc = trace_config(config);
  const int blocks = std::max(1, occ.blocks_per_sm);
  if (sample != nullptr && sample->rows() > 0) {
    return simulate_hermitian_load(dev, tc, sampled_block_rows(*sample,
                                                               blocks));
  }
  const SyntheticTraceKey key{
      dev.warp_size,
      dev.cache_line_bytes,
      dev.l1_bytes,
      dev.l2_bytes,
      dev.sm_count,
      tc.f,
      tc.bin,
      tc.threads_per_block,
      tc.coalesced,
      tc.l1_enabled,
      tc.theta_base,
      blocks,
      static_cast<std::size_t>(
          std::max(1.0, shape.nnz / std::max(1.0, shape.rows))),
      static_cast<std::uint64_t>(std::max(1.0, shape.cols))};
  return synthetic_trace_stats(dev, tc, key);
}

}  // namespace

const char* to_string(LoadScheme scheme) {
  switch (scheme) {
    case LoadScheme::Coalesced:
      return "coal";
    case LoadScheme::NonCoalescedL1:
      return "nonCoal-L1";
    case LoadScheme::NonCoalescedNoL1:
      return "nonCoal-noL1";
  }
  return "unknown";
}

gpusim::TraceStats hermitian_load_stats(const gpusim::DeviceSpec& dev,
                                        const UpdateShape& shape,
                                        const AlsKernelConfig& config,
                                        const CsrMatrix* sample_rows) {
  CUMF_EXPECTS(shape.rows > 0 && shape.cols > 0 && shape.nnz > 0,
               "update shape must be non-empty");
  return load_trace_stats(dev, shape, config,
                          hermitian_occupancy(dev, config), sample_rows);
}

gpusim::Occupancy hermitian_occupancy(const gpusim::DeviceSpec& dev,
                                      const AlsKernelConfig& config) {
  gpusim::KernelResources res;
  res.regs_per_thread =
      gpusim::hermitian_regs_per_thread(config.f, config.tile);
  res.threads_per_block =
      gpusim::hermitian_threads_per_block(config.f, config.tile);
  res.smem_per_block_bytes =
      config.bin * config.f * static_cast<int>(sizeof(real_t));
  return compute_occupancy(dev, res);
}

UpdatePhaseTimes update_phase_times(const gpusim::DeviceSpec& dev,
                                    const UpdateShape& shape,
                                    const AlsKernelConfig& config,
                                    const CsrMatrix* sample_rows) {
  CUMF_EXPECTS(shape.rows > 0 && shape.cols > 0 && shape.nnz > 0,
               "update shape must be non-empty");
  const double f = config.f;
  UpdatePhaseTimes out;

  const gpusim::Occupancy occ = hermitian_occupancy(dev, config);

  // --- load: stage θ batches from global memory (trace-driven) ---
  {
    const gpusim::TraceStats trace =
        load_trace_stats(dev, shape, config, occ, sample_rows);

    gpusim::KernelProfile p;
    p.name = "hermitian_load";
    p.warps_per_sm = occ.warps_per_sm;
    p.dram_efficiency = kStreamBwEff;
    const bool tensor =
        config.tensor_core_hermitian && dev.tensor_flops > 0;
    // The staging loop is load → shared-store → __syncthreads: the next
    // batch's loads depend on the previous store, so a warp keeps only ~1
    // memory instruction in flight. This is why low occupancy makes the
    // coalesced scheme latency-bound (Observation 2).
    p.outstanding_per_warp = 1;
    apply_trace(dev, trace, shape.rows, p);
    if (tensor) {
      // FP16 θ staging halves every byte of θ traffic (the trace assumed
      // 4-byte elements); stall counts are unaffected.
      p.dram_read_bytes *= 0.5;
      p.l2_read_bytes *= 0.5;
    }
    // The CSR structure of R itself streams in once (indices + values).
    p.dram_read_bytes += shape.nnz * 8.0;
    out.load = kernel_time(dev, p);
  }

  // --- compute: θθᵀ tile accumulation + get_bias ---
  {
    gpusim::KernelProfile p;
    p.name = "hermitian_compute";
    p.flops = shape.nnz * (f * f + 2.0 * f);
    const bool tensor =
        config.tensor_core_hermitian && dev.tensor_flops > 0;
    double eff = dev.compute_efficiency *
                 (config.register_tiling ? kHermTiledEff : kHermPlainEff);
    if (tensor) {
      // Tensor Cores: the f×f outer-product accumulation maps onto mma
      // tiles; sustained throughput ≈ 40% of the Tensor peak for this
      // irregular batch shape. Expressed as an efficiency against the FP32
      // peak so the rest of the model is unchanged.
      eff = 0.40 * dev.tensor_flops / dev.peak_flops;
    }
    // ALU latency hiding needs ~8 resident warps; below that the pipeline
    // stalls (this is what makes BIN so large it evicts all other blocks a
    // bad trade despite fewer batch barriers).
    eff *= std::min(1.0, occ.warps_per_sm / 8.0);
    // A T×T register tile does T² FMAs per 2·T shared-memory reads; below
    // T≈8 the shared-memory throughput, not the FPUs, limits the kernel.
    if (config.register_tiling) {
      eff *= std::min(1.0, config.tile / 8.0);
    }
    p.compute_efficiency = eff;
    p.warps_per_sm = occ.warps_per_sm;
    out.compute = kernel_time(dev, p);
  }

  // --- write: flush A_u and b_u to global memory ---
  {
    gpusim::KernelProfile p;
    p.name = "hermitian_write";
    p.dram_write_bytes = shape.rows * (f * f + f) * 4.0;
    p.dram_efficiency = kStreamBwEff;
    p.warps_per_sm = occ.warps_per_sm;
    out.write = kernel_time(dev, p);
  }

  // --- solve: batched LU / Cholesky / CG ---
  {
    gpusim::KernelProfile p;
    p.name = "solve";
    p.warps_per_sm = dev.max_threads_per_sm / dev.warp_size;  // high occ.
    switch (config.solver) {
      case SolverKind::LuFp32:
        p.flops = shape.rows * (2.0 / 3.0) * f * f * f;
        p.compute_efficiency = dev.compute_efficiency * kLuEff;
        p.dram_read_bytes = shape.rows * f * f * 4.0;
        p.dram_write_bytes = shape.rows * f * 4.0;
        p.dram_efficiency = kStreamBwEff;
        break;
      case SolverKind::CholeskyFp32:
        p.flops = shape.rows * (1.0 / 3.0) * f * f * f;
        p.compute_efficiency = dev.compute_efficiency * kCholeskyEff;
        p.dram_read_bytes = shape.rows * f * f * 4.0;
        p.dram_write_bytes = shape.rows * f * 4.0;
        p.dram_efficiency = kStreamBwEff;
        break;
      case SolverKind::CgFp32:
      case SolverKind::PcgFp32:
      case SolverKind::CgFp16: {
        const double elem =
            config.solver == SolverKind::CgFp16 ? 2.0 : 4.0;
        const double iters = config.cg_fs;
        // Dominant traffic: A is re-read every iteration (paper Obs. 4).
        p.dram_read_bytes = shape.rows * iters * f * f * elem;
        p.dram_write_bytes = shape.rows * f * 4.0;
        p.flops = shape.rows * iters * (2.0 * f * f + 10.0 * f);
        p.compute_efficiency = dev.compute_efficiency;
        p.dram_efficiency = kStreamBwEff;
        // Fig. 5: enabling L1 for the coalesced CG read changes nothing;
        // the model reflects that by not depending on config.solver_l1.
        break;
      }
    }
    out.solve = kernel_time(dev, p);
  }
  return out;
}

std::vector<double> update_seconds(const gpusim::DeviceSpec& dev,
                                   std::span<const UpdateShape> shapes,
                                   const AlsKernelConfig& config,
                                   ThreadPool* pool) {
  std::vector<double> seconds(shapes.size());
  std::vector<std::exception_ptr> errors(shapes.size());
  const auto body = [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      try {
        seconds[i] = update_phase_times(dev, shapes[i], config).total_seconds();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  if (pool != nullptr && shapes.size() > 1) {
    // One shape per chunk: a few shapes of very uneven cost (a column tile
    // traces hundreds of times the lines of a row tile) balance best when
    // workers pull them one at a time.
    std::vector<std::size_t> bounds(shapes.size() + 1);
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      bounds[i] = i;
    }
    pool->parallel_for_chunks(bounds, body);
  } else {
    body(0, shapes.size(), 0);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
  return seconds;
}

double als_epoch_seconds(const gpusim::DeviceSpec& dev, double m, double n,
                         double nnz, const AlsKernelConfig& config,
                         int gpus, const gpusim::LinkSpec& link) {
  CUMF_EXPECTS(gpus >= 1, "need at least one GPU");
  const double g = gpus;
  // Rows are partitioned across devices; every device sees the full fixed
  // side, so per-device work is 1/g of each half-sweep.
  const UpdateShape x_shape{m / g, n, nnz / g};
  const UpdateShape t_shape{n / g, m, nnz / g};
  const double t_x = update_phase_times(dev, x_shape, config).total_seconds();
  const double t_theta =
      update_phase_times(dev, t_shape, config).total_seconds();

  double comm = 0.0;
  if (gpus > 1) {
    // After each half-sweep the updated factor partition is all-gathered.
    comm = gpusim::allgather_seconds(link, gpus, m / g * config.f * 4.0) +
           gpusim::allgather_seconds(link, gpus, n / g * config.f * 4.0);
  }
  return t_x + t_theta + comm;
}

double sgd_epoch_seconds(const gpusim::DeviceSpec& dev, double nnz, int f,
                         bool half_precision, int gpus,
                         const gpusim::LinkSpec& link, double m, double n) {
  CUMF_EXPECTS(gpus >= 1, "need at least one GPU");
  const double g = gpus;
  gpusim::KernelProfile p;
  p.name = "sgd_update";
  const double elem = half_precision ? 2.0 : 4.0;
  p.flops = nnz / g * 10.0 * f;
  p.dram_read_bytes = nnz / g * (2.0 * f * elem + 8.0);
  p.dram_write_bytes = nnz / g * 2.0 * f * elem;
  p.dram_efficiency = kSgdBwEff;
  p.compute_efficiency = dev.compute_efficiency;
  p.warps_per_sm = dev.max_threads_per_sm / dev.warp_size;
  double t = kernel_time(dev, p).seconds;
  if (gpus > 1 && m > 0 && n > 0) {
    t += gpusim::allgather_seconds(link, gpus, (m + n) / g * f * elem);
  }
  return t;
}

}  // namespace cumf
