// Out-of-core ALS: stream a sharded rating matrix through bounded memory.
//
// The factors stay resident (2·(m+n)·f floats — the part ALS must keep hot),
// while the ratings live in checksummed tile files (data/shards.hpp) and
// flow through a bounded host cache. One epoch is the usual two half-sweeps,
// but each half-sweep walks its view tile by tile: the block scheduler
// (ooc_tile_order) orders tiles serpentine across sweeps (ascending, then
// descending) so the boundary tile of one sweep is the first tile of the
// next — the only reuse a strict two-view sweep structure admits — and a
// single-slot prefetch loads tile i+1 while tile i computes, the same
// pipelining the multi-GPU timeline applies to communication. Functionally
// this is AlsEngine's streamed row source; transfers are charged through
// gpusim/interconnect in the modeled timeline here, and the measured
// per-epoch transfer/stall/compute breakdown (OocEpochStats) feeds cuprof
// spans and the --metrics telemetry.
//
// Row updates are independent and every tile row carries its global row id,
// so streamed training is bit-identical to the in-core AlsEngine on the
// same split under any tile count, host budget, worker count, schedule, or
// overlap setting.
#pragma once

#include <string>

#include "core/als.hpp"
#include "core/kernel_stats.hpp"
#include "data/shards.hpp"
#include "gpusim/device.hpp"
#include "gpusim/interconnect.hpp"

namespace cumf {

/// Modeled epoch timeline of a streamed run: per-tile transfers charged to
/// `link`, per-tile compute from the cost model, pipelined per half-sweep.
struct OocTimeline {
  double transfer_s = 0.0;   ///< total wire seconds, both half-sweeps
  double compute_s = 0.0;    ///< total modeled device compute
  double serial_s = 0.0;     ///< no-overlap wall: Σ (transfer + compute)
  double pipelined_s = 0.0;  ///< overlap wall (pipelined_stream_seconds)
  double overlap_gain = 0.0; ///< serial_s / pipelined_s

  bool operator==(const OocTimeline&) const = default;
};

/// Models a streamed epoch for a shard layout without touching tile files —
/// the engine's epoch_timeline and the full-scale Hugewiki bench both feed
/// through here. Per tile: transfer of its on-disk bytes over `link`,
/// compute from update_phase_times at its rows/nnz; each half-sweep is
/// pipelined (or summed serially when `overlap` is false). The per-tile
/// compute models run on `pool` when given; the result is identical for
/// any pool size.
OocTimeline ooc_epoch_timeline(const gpusim::DeviceSpec& dev,
                               const AlsKernelConfig& config,
                               const gpusim::LinkSpec& link,
                               const ShardMeta& meta, bool overlap = true,
                               ThreadPool* pool = nullptr);

/// AlsEngine over the tiles of the shard store in `shard_dir` (see
/// AlsEngine's protected streamed constructor), plus the modeled timeline
/// of that layout. `options.workers` parallelizes rows *within* a tile.
class OocAlsEngine : public AlsEngine {
 public:
  OocAlsEngine(const std::string& shard_dir, const AlsOptions& options,
               const OocOptions& ooc)
      : AlsEngine(shard_dir, options, ooc) {}

  const ShardMeta& meta() const noexcept { return *streamed_meta(); }

  /// Modeled streamed-epoch timeline for this shard layout on `dev`/`link`,
  /// its tile models evaluated on the engine's worker pool.
  OocTimeline epoch_timeline(const gpusim::DeviceSpec& dev,
                             const AlsKernelConfig& config,
                             const gpusim::LinkSpec& link,
                             bool overlap = true) const {
    return ooc_epoch_timeline(dev, config, link, meta(), overlap,
                              worker_pool());
  }
};

}  // namespace cumf
