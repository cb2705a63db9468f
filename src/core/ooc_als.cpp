#include "core/ooc_als.hpp"

#include <map>
#include <numeric>
#include <utility>

namespace cumf {

OocTimeline ooc_epoch_timeline(const gpusim::DeviceSpec& dev,
                               const AlsKernelConfig& config,
                               const gpusim::LinkSpec& link,
                               const ShardMeta& meta, bool overlap) {
  OocTimeline tl;
  const struct {
    const std::vector<TileRange>* tiles;
    double fixed_dim;
  } views[] = {{&meta.row_tiles, static_cast<double>(meta.cols)},
               {&meta.col_tiles, static_cast<double>(meta.rows)}};
  for (const auto& view : views) {
    std::vector<double> transfer;
    std::vector<double> compute;
    transfer.reserve(view.tiles->size());
    compute.reserve(view.tiles->size());
    // update_phase_times is a pure function of the shape, and evenly cut
    // layouts (the full-scale benches) repeat one shape per view — memoize
    // so a 16-tile billion-nnz layout costs two cost-model evaluations, not
    // sixteen.
    std::map<std::pair<index_t, nnz_t>, double> memo;
    for (const TileRange& t : *view.tiles) {
      transfer.push_back(
          gpusim::transfer_seconds(link, static_cast<double>(t.bytes)));
      const auto key = std::make_pair(
          static_cast<index_t>(t.row_end - t.row_begin), t.nnz);
      auto it = memo.find(key);
      if (it == memo.end()) {
        const UpdateShape shape{static_cast<double>(key.first),
                                view.fixed_dim,
                                static_cast<double>(t.nnz)};
        it = memo.emplace(key,
                          update_phase_times(dev, shape, config)
                              .total_seconds())
                 .first;
      }
      compute.push_back(it->second);
    }
    const double t_sum =
        std::accumulate(transfer.begin(), transfer.end(), 0.0);
    const double c_sum = std::accumulate(compute.begin(), compute.end(), 0.0);
    tl.transfer_s += t_sum;
    tl.compute_s += c_sum;
    tl.serial_s += t_sum + c_sum;
    tl.pipelined_s += overlap
                          ? gpusim::pipelined_stream_seconds(transfer, compute)
                          : t_sum + c_sum;
  }
  tl.overlap_gain = tl.pipelined_s > 0 ? tl.serial_s / tl.pipelined_s : 1.0;
  return tl;
}

}  // namespace cumf
