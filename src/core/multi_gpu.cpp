#include "core/multi_gpu.hpp"

#include <algorithm>

namespace cumf {

MultiGpuHalfSweep multi_gpu_half_sweep(const gpusim::DeviceSpec& dev,
                                       const AlsKernelConfig& config,
                                       const gpusim::LinkSpec& link,
                                       const CsrMatrix& view,
                                       const std::vector<RowRange>& shards,
                                       bool overlap) {
  MultiGpuHalfSweep sweep;
  const std::vector<nnz_t>& ptr = view.row_ptr();
  std::vector<double> slice_bytes;
  slice_bytes.reserve(shards.size());
  sweep.device_compute_s.reserve(shards.size());
  for (const RowRange& shard : shards) {
    // Cost model at the shard's *actual* rows and nnz, not an even split:
    // the timeline reflects whatever balance the sharding achieved.
    double compute = 0.0;
    if (shard.size() > 0) {
      const UpdateShape shape{
          static_cast<double>(shard.size()),
          static_cast<double>(view.cols()),
          static_cast<double>(ptr[shard.end] - ptr[shard.begin])};
      compute = update_phase_times(dev, shape, config).total_seconds();
    }
    sweep.device_compute_s.push_back(compute);
    sweep.compute_s = std::max(sweep.compute_s, compute);
    slice_bytes.push_back(static_cast<double>(shard.size()) * config.f *
                          sizeof(real_t));
  }
  if (shards.size() > 1) {
    sweep.comm_total_s = gpusim::allgather_seconds_ragged(link, slice_bytes);
    if (overlap) {
      // Pipelined ring: each device exchanges its shard in C chunks,
      // streaming finished row blocks while computing the rest. Classic
      // pipeline bound — the longer of compute and comm dominates, plus
      // one fill of the shorter stage; only the excess over compute is
      // exposed as communication time.
      const double c = MultiGpuAls::kOverlapPipelineDepth;
      const double wall =
          std::max(sweep.compute_s, sweep.comm_total_s) +
          std::min(sweep.compute_s, sweep.comm_total_s) / c;
      sweep.comm_s = wall - sweep.compute_s;
    } else {
      sweep.comm_s = sweep.comm_total_s;
    }
  }
  return sweep;
}

MultiGpuTimeline MultiGpuAls::epoch_timeline(const gpusim::DeviceSpec& dev,
                                             const AlsKernelConfig& config,
                                             const gpusim::LinkSpec& link,
                                             bool overlap) const {
  MultiGpuTimeline timeline;
  timeline.update_x = multi_gpu_half_sweep(dev, config, link, r_,
                                           device_shards_[0], overlap);
  timeline.update_theta = multi_gpu_half_sweep(dev, config, link, rt_,
                                               device_shards_[1], overlap);
  return timeline;
}

MultiGpuScaling MultiGpuAls::scaling_report(const gpusim::DeviceSpec& dev,
                                            const AlsKernelConfig& config,
                                            const gpusim::LinkSpec& link,
                                            bool overlap) const {
  MultiGpuScaling report;
  report.gpus = gpus();
  const UpdateShape x_full{static_cast<double>(r_.rows()),
                           static_cast<double>(r_.cols()),
                           static_cast<double>(r_.nnz())};
  const UpdateShape t_full{static_cast<double>(rt_.rows()),
                           static_cast<double>(rt_.cols()),
                           static_cast<double>(rt_.nnz())};
  report.single_gpu_s =
      update_phase_times(dev, x_full, config).total_seconds() +
      update_phase_times(dev, t_full, config).total_seconds();
  const MultiGpuTimeline timeline =
      epoch_timeline(dev, config, link, overlap);
  report.total_s = timeline.total_s();
  report.compute_s = timeline.compute_s();
  report.comm_s = timeline.comm_s();
  report.speedup = report.total_s > 0 ? report.single_gpu_s / report.total_s
                                      : 0.0;
  report.efficiency = report.speedup / static_cast<double>(report.gpus);
  report.comm_fraction =
      report.total_s > 0 ? report.comm_s / report.total_s : 0.0;
  return report;
}

}  // namespace cumf
