// Tests for the comparison algorithms: blocked / NOMAD SGD, the GPU-SGD
// model, the GPU-ALS configuration, BIDMach's kernel model, implicit-CPU.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/als_plain.hpp"
#include "baselines/bidmach_als.hpp"
#include "baselines/gpu_sgd.hpp"
#include "baselines/implicit_cpu.hpp"
#include "baselines/sgd_blocked.hpp"
#include "baselines/sgd_nomad.hpp"
#include "common/rng.hpp"
#include "data/generator.hpp"
#include "metrics/rmse.hpp"
#include "sparse/split.hpp"

namespace cumf {
namespace {

SyntheticDataset sgd_dataset(std::uint64_t seed = 3) {
  SyntheticConfig cfg;
  cfg.m = 250;
  cfg.n = 120;
  cfg.nnz = 8000;
  cfg.true_rank = 4;
  cfg.mean = 3.5;
  cfg.signal_std = 0.7;
  cfg.noise_std = 0.3;
  cfg.seed = seed;
  return generate_synthetic(cfg);
}

SgdOptions sgd_options(int workers = 1) {
  SgdOptions options;
  options.f = 12;
  options.lambda = 0.04f;
  options.lr = 0.02f;
  options.lr_decay = 0.1f;
  options.workers = workers;
  options.seed = 9;
  return options;
}

/// Train RMSE after `epochs`; the convergence smoke test for every variant.
template <typename Engine>
double train_engine(Engine& engine, const RatingsCoo& data, int epochs) {
  for (int e = 0; e < epochs; ++e) {
    engine.run_epoch();
  }
  return rmse(data, engine.user_factors(), engine.item_factors());
}

double baseline_rmse(const RatingsCoo& data) {
  // Predicting the mean: the bar every learner must clear decisively.
  const double mean = data.mean_value();
  double sq = 0;
  for (const Rating& e : data.entries()) {
    sq += (e.r - mean) * (e.r - mean);
  }
  return std::sqrt(sq / static_cast<double>(data.nnz()));
}

// ---------- Blocked (LIBMF/DSGD) ----------

TEST(BlockedSgd, ConvergesWithMultipleWorkers) {
  const auto data = sgd_dataset(7);
  BlockedSgd sgd(data.ratings, sgd_options(4));
  const double r = train_engine(sgd, data.ratings, 30);
  EXPECT_LT(r, 0.75 * baseline_rmse(data.ratings));
  EXPECT_EQ(sgd.grid().row_blocks(), 4u);
}

TEST(BlockedSgd, SingleWorkerDegeneratesToSerialSgd) {
  const auto data = sgd_dataset(11);
  BlockedSgd sgd(data.ratings, sgd_options(1));
  const double r = train_engine(sgd, data.ratings, 25);
  EXPECT_LT(r, 0.8 * baseline_rmse(data.ratings));
}

// ---------- NOMAD ----------

TEST(Nomad, ShardsPartitionAllRatings) {
  const auto data = sgd_dataset(13);
  NomadSgd sgd(data.ratings, sgd_options(3));
  nnz_t total = 0;
  for (int w = 0; w < 3; ++w) {
    for (index_t v = 0; v < data.ratings.cols(); ++v) {
      total += sgd.shard_column(w, v).size();
    }
  }
  EXPECT_EQ(total, data.ratings.nnz());
}

TEST(Nomad, TokenRingConvergesSingleWorker) {
  const auto data = sgd_dataset(17);
  NomadSgd sgd(data.ratings, sgd_options(1));
  const double r = train_engine(sgd, data.ratings, 25);
  EXPECT_LT(r, 0.8 * baseline_rmse(data.ratings));
}

TEST(Nomad, TokenRingConvergesMultiWorker) {
  const auto data = sgd_dataset(19);
  NomadSgd sgd(data.ratings, sgd_options(3));
  const double r = train_engine(sgd, data.ratings, 25);
  EXPECT_LT(r, 0.8 * baseline_rmse(data.ratings));
}

// ---------- GPU-SGD ----------

TEST(GpuSgd, ConvergesWithFp16Factors) {
  const auto data = sgd_dataset(23);
  GpuSgd::Options options;
  static_cast<SgdOptions&>(options) = sgd_options(1);
  options.half_precision = true;
  GpuSgd sgd(data.ratings, options);
  const double r = train_engine(sgd, data.ratings, 30);
  EXPECT_LT(r, 0.8 * baseline_rmse(data.ratings));
}

TEST(GpuSgd, Fp16EpochIsModelledFaster) {
  const auto data = sgd_dataset(29);
  const auto dev = gpusim::DeviceSpec::maxwell_titan_x();
  const auto epoch_seconds = [&](bool half_precision) {
    return sgd_epoch_seconds(dev, static_cast<double>(data.ratings.nnz()), 12,
                             half_precision, 1, gpusim::LinkSpec::nvlink(),
                             static_cast<double>(data.ratings.rows()),
                             static_cast<double>(data.ratings.cols()));
  };
  EXPECT_LT(epoch_seconds(true), epoch_seconds(false));
  // Multi-GPU cuts per-epoch time at full dataset scale (at toy scale the
  // all-gather dominates, which the model correctly reports).
  EXPECT_LT(sgd_epoch_seconds(dev, 99e6, 100, true, 4,
                              gpusim::LinkSpec::nvlink(), 480189, 17770),
            sgd_epoch_seconds(dev, 99e6, 100, true, 1,
                              gpusim::LinkSpec::nvlink(), 480189, 17770));
}

// ---------- GPU-ALS baseline ----------

TEST(GpuAlsBaseline, ConvergesButSlowerEpochsThanCumfals) {
  const auto data = sgd_dataset(43);
  auto baseline = make_gpu_als_baseline(data.ratings, 16, 0.05f);
  for (int e = 0; e < 6; ++e) {
    baseline.engine->run_epoch();
  }
  const double r = rmse(data.ratings, baseline.engine->user_factors(),
                        baseline.engine->item_factors());
  EXPECT_LT(r, 0.7 * baseline_rmse(data.ratings));

  // The kernel config must model slower epochs than cuMF-ALS.
  const auto dev = gpusim::DeviceSpec::maxwell_titan_x();
  const auto cumf = cumfals_kernel_config(100, SolverKind::CgFp32);
  auto plain = baseline.kernel_config;
  plain.f = 100;
  plain.tile = 10;
  const double t_plain = als_epoch_seconds(dev, 480189, 17770, 99e6, plain);
  const double t_cumf = als_epoch_seconds(dev, 480189, 17770, 99e6, cumf);
  EXPECT_GT(t_plain / t_cumf, 2.0);  // the paper's headline 2x–4x
  EXPECT_LT(t_plain / t_cumf, 6.0);
}

// ---------- BIDMach ----------

TEST(Bidmach, KernelRunsAtTensOfGflops) {
  const auto dev = gpusim::DeviceSpec::maxwell_titan_x();
  EXPECT_NEAR(bidmach_hermitian_flops(dev), 40e9, 1e9);
  // Far below what cuMF-ALS sustains on the same device.
  EXPECT_LT(bidmach_hermitian_flops(dev), 0.02 * dev.peak_flops);
}

// ---------- implicit CPU ----------

TEST(ImplicitCpu, PaperPerIterationOrdering) {
  // §V-F: cuMF-ALS 2.2 s ≪ implicit 90 s < QMF 360 s (Netflix-implicit).
  const auto host = gpusim::HostSpec::libmf_40core();
  const auto dev = gpusim::DeviceSpec::maxwell_titan_x();
  const double m = 480189;
  const double n = 17770;
  const double nnz = 99e6;
  const double gpu = implicit_gpu_iteration_seconds(dev, m, n, nnz, 100, 6);
  const double lib = implicit_cpu_iteration_seconds(
      ImplicitCpuFlavor::ImplicitLib, host, m, n, nnz, 100);
  const double qmf = implicit_cpu_iteration_seconds(ImplicitCpuFlavor::Qmf,
                                                    host, m, n, nnz, 100);
  EXPECT_GT(lib / gpu, 10.0);   // GPU at least an order of magnitude ahead
  EXPECT_GT(qmf / lib, 2.0);    // QMF clearly slower than implicit
  EXPECT_LT(qmf / lib, 10.0);
}

// ---------- cross-algorithm comparison ----------

TEST(Baselines, AllReachComparableAccuracyOnSharedData) {
  // ALS and SGD both minimize eq. (1); on the same planted data they must
  // land in the same RMSE neighbourhood (Fig. 6's "same accuracy").
  const auto data = sgd_dataset(53);
  Rng rng(55);
  const auto split = split_holdout(data.ratings, 0.15, rng);

  AlsOptions als_options;
  als_options.f = 12;
  als_options.lambda = 0.05f;
  als_options.solver.kind = SolverKind::CgFp32;
  AlsEngine als(split.train, als_options);
  for (int e = 0; e < 10; ++e) {
    als.run_epoch();
  }
  const double r_als = rmse(split.test, als.user_factors(),
                            als.item_factors());

  auto sgd_opts = sgd_options(1);
  sgd_opts.lr = 0.03f;
  sgd_opts.lr_decay = 0.05f;
  BlockedSgd sgd(split.train, sgd_opts);
  for (int e = 0; e < 80; ++e) {
    sgd.run_epoch();
  }
  const double r_sgd = rmse(split.test, sgd.user_factors(),
                            sgd.item_factors());

  // ALS (direct normal-equation solves with weighted-λ) ends up best on
  // this planted set; SGD must land in the same neighbourhood — within
  // 1.4x — not at the mean-predictor baseline (≈ 2x r_als).
  EXPECT_LT(r_sgd, 1.4 * r_als);
}

}  // namespace
}  // namespace cumf
