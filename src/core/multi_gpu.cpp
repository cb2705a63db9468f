#include "core/multi_gpu.hpp"

#include <algorithm>

namespace cumf {

MultiGpuHalfSweep multi_gpu_half_sweep(const gpusim::DeviceSpec& dev,
                                       const AlsKernelConfig& config,
                                       const gpusim::LinkSpec& link,
                                       const CsrMatrix& view,
                                       const std::vector<RowRange>& shards,
                                       bool overlap, ThreadPool* pool) {
  MultiGpuHalfSweep sweep;
  const std::vector<nnz_t>& ptr = view.row_ptr();
  // Cost model at each shard's *actual* rows and nnz, not an even split:
  // the timeline reflects whatever balance the sharding achieved. An empty
  // shard computes nothing.
  std::vector<UpdateShape> shapes;
  for (const RowRange& shard : shards) {
    if (shard.size() > 0) {
      shapes.push_back({static_cast<double>(shard.size()),
                        static_cast<double>(view.cols()),
                        static_cast<double>(ptr[shard.end] -
                                            ptr[shard.begin])});
    }
  }
  const std::vector<double> seconds =
      update_seconds(dev, shapes, config, pool);
  auto next = seconds.begin();
  std::vector<double> slice_bytes;
  slice_bytes.reserve(shards.size());
  sweep.device_compute_s.reserve(shards.size());
  for (const RowRange& shard : shards) {
    const double compute = shard.size() > 0 ? *next++ : 0.0;
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
  timeline.update_x = multi_gpu_half_sweep(
      dev, config, link, r_, device_shards_[0], overlap, worker_pool());
  timeline.update_theta = multi_gpu_half_sweep(
      dev, config, link, rt_, device_shards_[1], overlap, worker_pool());
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
  const std::vector<double> single =
      update_seconds(dev, std::vector<UpdateShape>{x_full, t_full}, config,
                     worker_pool());
  report.single_gpu_s = single[0] + single[1];
  report.timeline = epoch_timeline(dev, config, link, overlap);
  report.total_s = report.timeline.total_s();
  report.compute_s = report.timeline.compute_s();
  report.comm_s = report.timeline.comm_s();
  report.speedup = report.total_s > 0 ? report.single_gpu_s / report.total_s
                                      : 0.0;
  report.efficiency = report.speedup / static_cast<double>(report.gpus);
  report.comm_fraction =
      report.total_s > 0 ? report.comm_s / report.total_s : 0.0;
  return report;
}

}  // namespace cumf
