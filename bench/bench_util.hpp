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
#include <vector>

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

/// Block pairs per time_ratio measurement (odd, so the median is a pair).
inline constexpr int kRatioPairs = 9;

/// Two functions timed against each other: the median over block pairs of
/// num's mean ns per call over den's, and each side's fastest block.
struct RatioTiming {
  double ratio = 0.0;
  double num_ns = 0.0;
  double den_ns = 0.0;
};

/// Times `num` and `den` in kRatioPairs pairs of back-to-back blocks that
/// together take about `min_seconds` (each block repeats its function until
/// its share has passed, at least `min_reps` calls per check; which side
/// runs first alternates). The two blocks of a pair run within milliseconds
/// of each other, so a slow window on a shared host slows both and drops
/// out of their ratio — which the ratio of two time_ns minima, each taken
/// at its own moment, does not promise.
inline RatioTiming time_ratio(const std::function<void()>& num,
                              const std::function<void()>& den,
                              double min_seconds, int min_reps) {
  num();  // warm-up, as in time_ns
  den();
  const double block_seconds = min_seconds / (2 * kRatioPairs);
  const auto block_ns = [&](const std::function<void()>& fn) {
    std::size_t reps = 0;
    Stopwatch sw;
    do {
      for (int i = 0; i < min_reps; ++i) {
        fn();
      }
      reps += static_cast<std::size_t>(min_reps);
    } while (sw.seconds() < block_seconds);
    return sw.seconds() * 1e9 / static_cast<double>(reps);
  };
  std::vector<double> ratios;
  RatioTiming out;
  out.num_ns = out.den_ns = std::numeric_limits<double>::infinity();
  for (int pair = 0; pair < kRatioPairs; ++pair) {
    double n_ns = 0.0;
    double d_ns = 0.0;
    if (pair % 2 == 0) {
      n_ns = block_ns(num);
      d_ns = block_ns(den);
    } else {
      d_ns = block_ns(den);
      n_ns = block_ns(num);
    }
    ratios.push_back(n_ns / d_ns);
    out.num_ns = std::min(out.num_ns, n_ns);
    out.den_ns = std::min(out.den_ns, d_ns);
  }
  std::nth_element(ratios.begin(), ratios.begin() + kRatioPairs / 2,
                   ratios.end());
  out.ratio = ratios[kRatioPairs / 2];
  return out;
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
