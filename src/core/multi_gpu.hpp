// Multi-GPU ALS (the four-GPU Hugewiki runs of Fig. 6/8).
//
// cuMF-ALS partitions the rows of the matrix being updated across devices;
// each device holds the full fixed factor matrix, computes its row slice
// with its own solver and hermitian workspace, and the updated slices are
// all-gathered over NVLink before the next half-sweep. Because ALS row
// updates are independent, the partitioned computation is bit-identical to
// the single-device one. Functionally this is AlsEngine with the in-core
// row source cut into device shards (one pool task and private
// AlsWorkerContext per device); the time model here charges per-device
// compute plus interconnect traffic with a pipelined compute/communication
// overlap bound.
#pragma once

#include <vector>

#include "core/als.hpp"
#include "core/kernel_stats.hpp"
#include "gpusim/device.hpp"
#include "gpusim/interconnect.hpp"

namespace cumf {

/// Modeled wall time of one half-sweep on g concurrent devices.
struct MultiGpuHalfSweep {
  std::vector<double> device_compute_s;  ///< per-device compute time
  double compute_s = 0.0;     ///< barrier: the slowest device
  double comm_total_s = 0.0;  ///< raw ring all-gather wire time
  double comm_s = 0.0;        ///< exposed comm after pipelined overlap
  double seconds() const noexcept { return compute_s + comm_s; }

  bool operator==(const MultiGpuHalfSweep&) const = default;
};

/// Modeled epoch timeline: both half-sweeps plus their all-gathers.
struct MultiGpuTimeline {
  MultiGpuHalfSweep update_x;
  MultiGpuHalfSweep update_theta;
  double compute_s() const noexcept {
    return update_x.compute_s + update_theta.compute_s;
  }
  double comm_s() const noexcept {
    return update_x.comm_s + update_theta.comm_s;
  }
  double total_s() const noexcept {
    return update_x.seconds() + update_theta.seconds();
  }

  bool operator==(const MultiGpuTimeline&) const = default;
};

/// Scaling-efficiency report against the modeled single-device epoch.
struct MultiGpuScaling {
  int gpus = 1;
  double single_gpu_s = 0.0;  ///< modeled 1-GPU epoch (no interconnect)
  double total_s = 0.0;       ///< modeled g-GPU epoch
  double compute_s = 0.0;     ///< barrier-summed compute portion
  double comm_s = 0.0;        ///< exposed communication portion
  double speedup = 0.0;       ///< single_gpu_s / total_s
  double efficiency = 0.0;    ///< speedup / gpus
  double comm_fraction = 0.0; ///< comm_s / total_s
  /// The g-device timeline the totals above summarize (empty when the
  /// report was not built from an engine's shards).
  MultiGpuTimeline timeline;
};

/// Models one half-sweep of `view`'s rows cut into device `shards` joined
/// by `link`: per-device compute from the cost model evaluated at each
/// shard's actual rows/nnz, a ragged ring all-gather of the updated slices,
/// and (when `overlap` is true) a pipelined overlap bound — devices stream
/// finished row blocks into the ring while computing the remainder, so a
/// half-sweep costs max(compute, comm) + min(compute, comm)/C with C =
/// MultiGpuAls::kOverlapPipelineDepth chunks instead of compute + comm.
/// The per-shard compute models run on `pool` when given; the result is
/// identical for any pool size.
MultiGpuHalfSweep multi_gpu_half_sweep(const gpusim::DeviceSpec& dev,
                                       const AlsKernelConfig& config,
                                       const gpusim::LinkSpec& link,
                                       const CsrMatrix& view,
                                       const std::vector<RowRange>& shards,
                                       bool overlap,
                                       ThreadPool* pool = nullptr);

/// AlsEngine over the in-core rows cut into `gpus` device shards (see
/// AlsEngine's protected device constructor), plus the modeled multi-device
/// timeline of that partition.
class MultiGpuAls : public AlsEngine {
 public:
  MultiGpuAls(const RatingsCoo& train, const AlsOptions& options, int gpus)
      : AlsEngine(train, options, gpus) {}

  /// Device shard boundaries of the update-X rows (nnz-balanced under the
  /// default nnz_guided schedule; row-count split under static_rows).
  const std::vector<RowRange>& user_shards() const noexcept {
    return device_shards_[0];
  }

  /// Modeled epoch timeline on `dev` devices joined by `link`: both
  /// half-sweeps of multi_gpu_half_sweep over this engine's shards, the
  /// shard models evaluated on the engine's device pool.
  MultiGpuTimeline epoch_timeline(const gpusim::DeviceSpec& dev,
                                  const AlsKernelConfig& config,
                                  const gpusim::LinkSpec& link,
                                  bool overlap = true) const;

  /// Speedup / efficiency / comm-fraction of epoch_timeline() against the
  /// modeled single-device epoch on the same data and config; the report
  /// carries that timeline, so callers need not build it again.
  MultiGpuScaling scaling_report(const gpusim::DeviceSpec& dev,
                                 const AlsKernelConfig& config,
                                 const gpusim::LinkSpec& link,
                                 bool overlap = true) const;

  /// Pipeline depth of the overlap model: each device exchanges its shard
  /// in this many chunks, so all but one chunk of the all-gather can hide
  /// under compute.
  static constexpr int kOverlapPipelineDepth = 8;
};

}  // namespace cumf
