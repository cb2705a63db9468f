// Shared helpers for the per-table/per-figure benchmark binaries.
//
// Convention used by every bench: *numerics* (RMSE trajectories, epoch
// counts) are computed natively on scaled-down synthetic datasets that match
// the paper datasets' shape; *device time* is produced by the gpusim cost
// model evaluated at the paper's full-scale m/n/Nz/f (Table II), so the
// printed seconds are comparable to the publication. Each bench prints the
// substitution it makes.
#pragma once

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "core/als.hpp"
#include "core/kernel_stats.hpp"
#include "data/presets.hpp"
#include "metrics/convergence.hpp"
#include "metrics/rmse.hpp"
#include "sparse/split.hpp"

namespace cumf::bench {

/// Timed blocks per time_ns measurement.
inline constexpr int kTimingBlocks = 5;

/// Times `fn` in kTimingBlocks blocks that together take about
/// `min_seconds` of wall time, each repeating `fn` until its share has
/// passed (at least `min_reps` calls per check), and returns the fastest
/// block's mean ns per call. Host noise only ever adds time, so a block it
/// hit reads slow and drops out. The one timing loop every bench shares —
/// keep micro-benchmarks comparable.
inline double time_ns(const std::function<void()>& fn, double min_seconds,
                      int min_reps) {
  fn();  // warm-up, touches caches and faults pages
  double best = std::numeric_limits<double>::infinity();
  for (int block = 0; block < kTimingBlocks; ++block) {
    std::size_t reps = 0;
    Stopwatch sw;
    do {
      for (int i = 0; i < min_reps; ++i) {
        fn();
      }
      reps += static_cast<std::size_t>(min_reps);
    } while (sw.seconds() < min_seconds / kTimingBlocks);
    best = std::min(best, sw.seconds() * 1e9 / static_cast<double>(reps));
  }
  return best;
}

/// Folds a result into a volatile sink so the optimizer cannot delete a
/// benchmarked loop whose output is otherwise unused.
inline volatile double g_sink = 0.0;

/// A scaled dataset with its train/test split and full-scale statistics.
struct PreparedDataset {
  DatasetPreset preset;
  SyntheticDataset data;
  TrainTestSplit split;
  double scaled_target = 0.0;  ///< scaled analogue of the acceptable RMSE
};

/// Generates, splits and (optionally) resizes a preset. The scaled
/// "acceptable RMSE" is the dataset's noise floor × 1.22, mirroring how the
/// paper's thresholds sit slightly above the best published RMSEs.
inline PreparedDataset prepare(DatasetPreset preset, double resize = 1.0) {
  PreparedDataset out;
  out.preset = resize == 1.0 ? preset : preset.resized(resize);
  out.data = generate(out.preset);
  Rng rng(2024);
  out.split = split_holdout(out.data.ratings, 0.1, rng);
  out.scaled_target = out.data.noise_floor_rmse * 1.22;
  return out;
}

/// Full-scale update shapes of a preset (for the cost model).
inline UpdateShape full_x_shape(const DatasetPreset& p) {
  return UpdateShape{static_cast<double>(p.full_m),
                     static_cast<double>(p.full_n),
                     static_cast<double>(p.full_nnz)};
}
inline UpdateShape full_theta_shape(const DatasetPreset& p) {
  return UpdateShape{static_cast<double>(p.full_n),
                     static_cast<double>(p.full_m),
                     static_cast<double>(p.full_nnz)};
}

/// Trains `engine` (anything with run_epoch/user_factors/item_factors) for
/// up to `max_epochs`, recording test RMSE against simulated time at
/// `seconds_per_epoch`. Stops early once `stop_rmse` is reached (if given).
template <typename Engine>
ConvergenceTracker run_convergence(Engine& engine, const RatingsCoo& test,
                                   int max_epochs, double seconds_per_epoch,
                                   std::optional<double> stop_rmse = {}) {
  ConvergenceTracker tracker;
  for (int epoch = 1; epoch <= max_epochs; ++epoch) {
    engine.run_epoch();
    const double r = rmse(test, engine.user_factors(),
                          engine.item_factors());
    tracker.record(epoch * seconds_per_epoch, r, epoch);
    if (stop_rmse && r <= *stop_rmse) {
      break;
    }
  }
  return tracker;
}

inline std::string fmt_time(std::optional<double> seconds) {
  if (!seconds) {
    return "—";
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", *seconds);
  return buf;
}

inline void print_header(const char* experiment, const char* description) {
  std::printf("==================================================================\n");
  std::printf("%s — %s\n", experiment, description);
  std::printf("==================================================================\n");
}

}  // namespace cumf::bench
