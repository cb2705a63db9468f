#include "core/ooc_als.hpp"

#include <numeric>

namespace cumf {

OocTimeline ooc_epoch_timeline(const gpusim::DeviceSpec& dev,
                               const AlsKernelConfig& config,
                               const gpusim::LinkSpec& link,
                               const ShardMeta& meta, bool overlap,
                               ThreadPool* pool) {
  const struct {
    const std::vector<TileRange>* tiles;
    double fixed_dim;
  } views[] = {{&meta.row_tiles, static_cast<double>(meta.cols)},
               {&meta.col_tiles, static_cast<double>(meta.rows)}};
  // Every tile's compute model is independent: evaluate both views' tiles
  // in one batch (on the pool when given), then sum each view in order.
  std::vector<UpdateShape> shapes;
  for (const auto& view : views) {
    for (const TileRange& t : *view.tiles) {
      shapes.push_back({static_cast<double>(t.row_end - t.row_begin),
                        view.fixed_dim, static_cast<double>(t.nnz)});
    }
  }
  const std::vector<double> seconds =
      update_seconds(dev, shapes, config, pool);

  OocTimeline tl;
  auto next = seconds.begin();
  for (const auto& view : views) {
    std::vector<double> transfer;
    transfer.reserve(view.tiles->size());
    for (const TileRange& t : *view.tiles) {
      transfer.push_back(
          gpusim::transfer_seconds(link, static_cast<double>(t.bytes)));
    }
    const std::vector<double> compute(
        next, next + static_cast<std::ptrdiff_t>(view.tiles->size()));
    next += static_cast<std::ptrdiff_t>(view.tiles->size());
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
