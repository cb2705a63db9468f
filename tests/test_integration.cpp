// End-to-end integration tests: full pipelines (generate → split → train →
// evaluate) and cross-module assertions that mirror the paper's headline
// claims at reduced scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "baselines/als_plain.hpp"
#include "baselines/gpu_sgd.hpp"
#include "common/rng.hpp"
#include "core/als.hpp"
#include "core/implicit_als.hpp"
#include "core/kernel_stats.hpp"
#include "data/implicit.hpp"
#include "data/io.hpp"
#include "data/presets.hpp"
#include "metrics/convergence.hpp"
#include "metrics/rmse.hpp"
#include "sparse/split.hpp"
#include "test_support.hpp"

namespace cumf {
namespace {

/// A preset scaled far down so integration tests stay fast. The row degree
/// (~30) is kept high enough that ALS can approach the noise floor; the
/// scaled analogue of the paper's "acceptable RMSE" is floor × 1.22 (the
/// plateau all solvers reach, mirroring how 0.92 relates to the best
/// published Netflix RMSE).
DatasetPreset test_preset() {
  auto preset = DatasetPreset::netflix();
  preset.scaled.m = 2500;
  preset.scaled.n = 100;
  preset.scaled.nnz = 75'000;
  preset.scaled.seed = 101;
  return preset;
}

constexpr double kScaledTargetFactor = 1.25;

TEST(Integration, FullPipelineReachesScaledAcceptableRmse) {
  // generate → hold out 10% → train cuMF-ALS (CG-FP32, fs=6) → the
  // scaled analogue of Table IV's "converges to acceptable RMSE".
  const auto preset = test_preset();
  const auto data = generate(preset);
  Rng rng(7);
  const auto split = split_holdout(data.ratings, 0.1, rng);

  AlsOptions options;
  options.f = 16;
  options.lambda = static_cast<real_t>(preset.paper_lambda);
  options.solver.kind = SolverKind::CgFp32;
  options.solver.cg_fs = 6;
  AlsEngine als(split.train, options);

  const double target = data.noise_floor_rmse * kScaledTargetFactor;
  ConvergenceTracker tracker;
  for (int epoch = 1; epoch <= 15; ++epoch) {
    als.run_epoch();
    tracker.record(epoch, rmse(split.test, als.user_factors(),
                               als.item_factors()),
                   epoch);
  }
  ASSERT_TRUE(tracker.time_to(target).has_value())
      << "target RMSE " << target << " never reached";
  // ALS converges in few epochs (paper: ~10 on Netflix).
  EXPECT_LE(*tracker.epochs_to(target), 12);
}

TEST(Integration, ApproximateSolverDoesNotHurtConvergence) {
  // Fig. 1 / §IV headline: same accuracy, fewer FLOPs. Train three engines
  // identically except for the solver and compare where they end up.
  const auto data = generate(test_preset());
  Rng rng(11);
  const auto split = split_holdout(data.ratings, 0.1, rng);

  const auto final_rmse = [&](SolverKind kind) {
    AlsOptions options;
    options.f = 16;
    options.lambda = 0.05f;
    options.solver.kind = kind;
    options.solver.cg_fs = 6;
    AlsEngine als(split.train, options);
    for (int epoch = 0; epoch < 12; ++epoch) {
      als.run_epoch();
    }
    return rmse(split.test, als.user_factors(), als.item_factors());
  };

  const double lu = final_rmse(SolverKind::LuFp32);
  const double chol = final_rmse(SolverKind::CholeskyFp32);
  const double cg = final_rmse(SolverKind::CgFp32);
  const double cg16 = final_rmse(SolverKind::CgFp16);
  EXPECT_NEAR(chol, lu, 0.01 * lu);
  EXPECT_NEAR(cg, lu, 0.02 * lu);
  EXPECT_NEAR(cg16, lu, 0.04 * lu);
}

TEST(Integration, SimulatedConvergenceOrderingMatchesTableIV) {
  // Epochs come from real training; per-epoch seconds from the cost model
  // at the paper's full Netflix scale. The resulting time-to-target must
  // reproduce Table IV's ordering:
  //   cuMF-ALS@P < cuMF-ALS@M < GPU-ALS@M, and cuMF-ALS@M < LIBMF.
  const auto preset = test_preset();
  const auto data = generate(preset);
  Rng rng(13);
  const auto split = split_holdout(data.ratings, 0.1, rng);
  const double target = data.noise_floor_rmse * kScaledTargetFactor;

  const auto epochs_to_target = [&](const AlsOptions& options) {
    AlsEngine als(split.train, options);
    for (int epoch = 1; epoch <= 25; ++epoch) {
      als.run_epoch();
      if (rmse(split.test, als.user_factors(), als.item_factors()) <=
          target) {
        return epoch;
      }
    }
    return 25;
  };

  AlsOptions cumf_options;
  cumf_options.f = 16;
  cumf_options.solver.kind = SolverKind::CgFp32;
  cumf_options.solver.cg_fs = 6;
  const int cumf_epochs = epochs_to_target(cumf_options);

  AlsOptions plain_options = cumf_options;
  plain_options.solver.kind = SolverKind::LuFp32;
  plain_options.tiled_hermitian = false;
  const int plain_epochs = epochs_to_target(plain_options);
  ASSERT_LT(cumf_epochs, 25) << "cuMF-ALS never reached the scaled target";
  ASSERT_LT(plain_epochs, 25) << "GPU-ALS never reached the scaled target";

  // Full-scale Netflix per-epoch times.
  const double m = 480189;
  const double n = 17770;
  const double nnz = 99e6;
  const auto maxwell = gpusim::DeviceSpec::maxwell_titan_x();
  const auto pascal = gpusim::DeviceSpec::pascal_p100();
  const auto cumf_cfg = cumfals_kernel_config(100, SolverKind::CgFp32);
  auto plain_cfg = cumf_cfg;
  plain_cfg.solver = SolverKind::LuFp32;
  plain_cfg.load_scheme = LoadScheme::Coalesced;
  plain_cfg.register_tiling = false;

  const double t_cumf_m =
      cumf_epochs * als_epoch_seconds(maxwell, m, n, nnz, cumf_cfg);
  const double t_cumf_p =
      cumf_epochs * als_epoch_seconds(pascal, m, n, nnz, cumf_cfg);
  const double t_plain_m =
      plain_epochs * als_epoch_seconds(maxwell, m, n, nnz, plain_cfg);

  EXPECT_LT(t_cumf_p, t_cumf_m);
  EXPECT_LT(t_cumf_m, t_plain_m);
  EXPECT_GT(t_plain_m / t_cumf_m, 2.0);  // the 2x-4x headline
  EXPECT_LT(t_plain_m / t_cumf_m, 6.0);

  // LIBMF (40-core host model) needs SGD epochs: use the host model with a
  // typical 30-epoch SGD budget; cuMF-ALS must win by a large margin.
  const double libmf_epoch = gpusim::host_sgd_epoch_seconds(
      gpusim::HostSpec::libmf_40core(), nnz, 100);
  const double t_libmf = 30 * libmf_epoch;
  EXPECT_GT(t_libmf / t_cumf_p, 3.0);
}

TEST(Integration, ImplicitPipelineRecommendsPlantedPreferences) {
  // Explicit ratings → implicit conversion → implicit ALS → the items a
  // user interacted with must outscore random items (the §V-F use case).
  auto preset = test_preset();
  preset.scaled.m = 300;
  preset.scaled.n = 120;
  preset.scaled.nnz = 6000;
  const auto data = generate(preset);
  const auto implicit = to_implicit(data.ratings, 3.5f, 20.0);

  ImplicitAlsOptions options;
  options.f = 12;
  options.lambda = 0.05f;
  ImplicitAlsEngine engine(implicit, options);
  for (int epoch = 0; epoch < 6; ++epoch) {
    engine.run_epoch();
  }

  Rng rng(17);
  int wins = 0;
  int trials = 0;
  for (const Rating& e : implicit.interactions.entries()) {
    if (trials >= 500) {
      break;
    }
    const auto rv = static_cast<index_t>(
        rng.uniform_index(implicit.interactions.cols()));
    wins += engine.score(e.u, e.v) > engine.score(e.u, rv);
    ++trials;
  }
  // AUC-style check: observed items beat random items most of the time.
  EXPECT_GT(static_cast<double>(wins) / trials, 0.75);
}

TEST(Integration, SaveTrainLoadRoundTrip) {
  // Dataset written to disk, read back, trained — the example-program path.
  auto preset = test_preset();
  preset.scaled.m = 200;
  preset.scaled.n = 80;
  preset.scaled.nnz = 4000;
  const auto data = generate(preset);
  const std::string path = "/tmp/cumf_integration_ratings.txt";
  write_ratings_file(path, data.ratings);
  const auto loaded = read_ratings_file(path);

  AlsOptions options;
  options.f = 8;
  AlsEngine als(loaded, options);
  for (int epoch = 0; epoch < 4; ++epoch) {
    als.run_epoch();
  }
  EXPECT_LT(rmse(loaded, als.user_factors(), als.item_factors()),
            1.5 * data.noise_floor_rmse);
  std::remove(path.c_str());
}

TEST(Integration, AlsVsSgdCrossoverOnGpu) {
  // Fig. 8: SGD's epochs are cheaper but ALS needs far fewer of them.
  // Epoch counts are measured as "epochs until within 1% of the algorithm's
  // own plateau" — a scale-free notion of convergence speed (at toy scale
  // the two plateaus differ slightly because the regularizers differ).
  const auto preset = test_preset();
  const auto data = generate(preset);
  Rng rng(19);
  const auto split = split_holdout(data.ratings, 0.1, rng);

  const auto epochs_to_own_plateau = [&](auto& engine, int max_epochs) {
    std::vector<double> curve;
    for (int epoch = 0; epoch < max_epochs; ++epoch) {
      engine.run_epoch();
      curve.push_back(
          rmse(split.test, engine.user_factors(), engine.item_factors()));
    }
    const double best = *std::min_element(curve.begin(), curve.end());
    for (int epoch = 0; epoch < max_epochs; ++epoch) {
      if (curve[static_cast<std::size_t>(epoch)] <= best * 1.01) {
        return epoch + 1;
      }
    }
    return max_epochs;
  };

  AlsOptions als_options;
  als_options.f = 16;
  als_options.solver.kind = SolverKind::CgFp32;
  AlsEngine als(split.train, als_options);
  const int als_epochs = epochs_to_own_plateau(als, 15);

  GpuSgd::Options sgd_options;
  sgd_options.f = 16;
  sgd_options.lambda = 0.04f;
  sgd_options.lr = 0.02f;
  sgd_options.seed = 21;
  GpuSgd sgd(split.train, sgd_options);
  const int sgd_epochs = epochs_to_own_plateau(sgd, 40);

  EXPECT_LT(als_epochs, sgd_epochs);  // ALS: fewer epochs…
  const auto dev = gpusim::DeviceSpec::maxwell_titan_x();
  const double sgd_epoch_t = sgd_epoch_seconds(
      dev, static_cast<double>(split.train.nnz()), 16, true, 1,
      gpusim::LinkSpec::nvlink(), static_cast<double>(split.train.rows()),
      static_cast<double>(split.train.cols()));
  const auto config = cumfals_kernel_config(100, SolverKind::CgFp32);
  const double als_epoch_t =
      als_epoch_seconds(dev, 480189, 17770, 99e6, config);
  EXPECT_GT(als_epoch_t, sgd_epoch_t);  // …each more expensive (at scale)
}

}  // namespace
}  // namespace cumf
