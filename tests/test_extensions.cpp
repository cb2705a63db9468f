// Tests for the extension modules: ranking metrics, model persistence,
// parallel ALS workers, the algorithm selector, the hybrid ALS+SGD engine,
// FP16 staging / Tensor-Core modelling, and the Volta device preset.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "common/rng.hpp"
#include "core/als.hpp"
#include "core/hybrid.hpp"
#include "core/kernel_stats.hpp"
#include "core/implicit_als.hpp"
#include "core/selector.hpp"
#include "data/generator.hpp"
#include "data/implicit.hpp"
#include "data/model_io.hpp"
#include "metrics/ranking.hpp"
#include "metrics/rmse.hpp"
#include "sparse/split.hpp"

#include "test_support.hpp"

namespace cumf {
namespace {

SyntheticDataset dataset(std::uint64_t seed = 71, nnz_t nnz = 8000) {
  SyntheticConfig cfg;
  cfg.m = 300;
  cfg.n = 120;
  cfg.nnz = nnz;
  cfg.true_rank = 4;
  cfg.mean = 3.5;
  cfg.signal_std = 0.7;
  cfg.noise_std = 0.25;
  cfg.seed = seed;
  return generate_synthetic(cfg);
}

AlsOptions als_options(int workers = 1) {
  AlsOptions options;
  options.f = 16;
  options.lambda = 0.05f;
  options.solver.kind = SolverKind::CgFp32;
  options.solver.cg_fs = 6;
  options.workers = workers;
  return options;
}

// ---------- ranking ----------

TEST(Ranking, TopKExcludesSeenAndOrdersByScore) {
  Matrix x(1, 2);
  Matrix theta(4, 2);
  x(0, 0) = 1;
  theta(0, 0) = 4;  // seen
  theta(1, 0) = 3;
  theta(2, 0) = 9;
  theta(3, 0) = 1;
  RatingsCoo seen_coo(1, 4);
  seen_coo.add(0, 0, 5.0f);
  const auto seen = CsrMatrix::from_coo(seen_coo);
  const auto top = recommend_top_k(x, theta, seen, 0, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].item, 2u);  // score 9
  EXPECT_EQ(top[1].item, 1u);  // score 3; item 0 excluded as seen
}

TEST(Ranking, TopKCapsAtAvailableItems) {
  Matrix x(1, 1, 1.0f);
  Matrix theta(3, 1, 1.0f);
  RatingsCoo seen_coo(1, 3);
  seen_coo.add(0, 1, 1.0f);
  const auto seen = CsrMatrix::from_coo(seen_coo);
  EXPECT_EQ(recommend_top_k(x, theta, seen, 0, 10).size(), 2u);
  EXPECT_THROW(recommend_top_k(x, theta, seen, 5, 1), CheckError);
}

TEST(Ranking, AucDetectsLearnedPreferences) {
  // AUC separates observed-vs-random for *preference* models: train the
  // implicit engine (explicit-rating models predict values, not exposure,
  // so their observed/random AUC is legitimately near 0.5).
  const auto data = dataset(73);
  const auto implicit = to_implicit(data.ratings, 3.0f, 20.0);
  ImplicitAlsOptions options;
  options.f = 16;
  options.lambda = 0.05f;
  ImplicitAlsEngine als(implicit, options);
  for (int e = 0; e < 6; ++e) {
    als.run_epoch();
  }
  const auto observed = CsrMatrix::from_coo(implicit.interactions);
  Rng rng(3);
  const double trained = auc_observed_vs_random(
      als.user_factors(), als.item_factors(), observed, 4000, rng);
  // Untrained random factors have no preference signal.
  Matrix rx(300, 16);  // untrained reference factors
  Matrix rt(120, 16);
  Rng init(5);
  for (auto& v : rx.data()) {
    v = static_cast<real_t>(init.normal());
  }
  for (auto& v : rt.data()) {
    v = static_cast<real_t>(init.normal());
  }
  Rng rng2(7);
  const double random =
      auc_observed_vs_random(rx, rt, observed, 4000, rng2);
  EXPECT_GT(trained, 0.75);
  EXPECT_NEAR(random, 0.5, 0.06);
}

// ---------- model I/O ----------

TEST(ModelIo, RoundTripPreservesFactorsExactly) {
  const auto data = dataset(83, 3000);
  AlsEngine als(data.ratings, als_options());
  als.run_epoch();
  FactorModel model{als.user_factors(), als.item_factors()};
  std::stringstream ss;
  write_model(ss, model);
  const auto back = read_model(ss);
  EXPECT_EQ(back.x, model.x);
  EXPECT_EQ(back.theta, model.theta);
}

TEST(ModelIo, FileRoundTrip) {
  FactorModel model{Matrix(3, 2, 1.5f), Matrix(4, 2, -0.25f)};
  const std::string path = "/tmp/cumf_model_test.txt";
  write_model_file(path, model);
  const auto back = read_model_file(path);
  EXPECT_EQ(back.x, model.x);
  EXPECT_EQ(back.theta, model.theta);
  std::remove(path.c_str());
}

TEST(ModelIo, RejectsCorruptInput) {
  std::stringstream bad_magic("not-a-model 1\n");
  EXPECT_THROW(read_model(bad_magic), CheckError);
  std::stringstream bad_version("cumf-model 99\n");
  EXPECT_THROW(read_model(bad_version), CheckError);
  std::stringstream truncated("cumf-model 1\n2 2\n1 2 3\n");
  EXPECT_THROW(read_model(truncated), CheckError);
  std::stringstream mismatched("cumf-model 1\n1 2\n1 2\n1 3\n1 2 3\n");
  EXPECT_THROW(read_model(mismatched), CheckError);
}

// ---------- parallel ALS ----------

TEST(ParallelAls, WorkersProduceIdenticalFactors) {
  const auto data = dataset(89);
  AlsEngine serial(data.ratings, als_options(1));
  AlsEngine parallel(data.ratings, als_options(4));
  for (int e = 0; e < 3; ++e) {
    serial.run_epoch();
    parallel.run_epoch();
  }
  // Row updates are disjoint and per-row arithmetic is identical → the
  // parallel run is bit-identical, not merely close.
  EXPECT_EQ(serial.user_factors(), parallel.user_factors());
  EXPECT_EQ(serial.item_factors(), parallel.item_factors());
}

TEST(ParallelAls, StatsAggregateAcrossWorkers) {
  const auto data = dataset(97);
  AlsEngine parallel(data.ratings, als_options(3));
  parallel.run_epoch();
  const auto stats = parallel.solve_stats();
  // Every non-empty row and column was solved exactly once.
  EXPECT_EQ(stats.systems, 300u + 120u);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_GT(parallel.hermitian_ops_per_epoch().flops, 0.0);
}

// ---------- selector ----------

TEST(Selector, ImplicitFeedbackAlwaysPicksAls) {
  SelectorInput input;
  input.m = 1e6;
  input.n = 1e5;
  input.nnz = 1e8;
  input.implicit_feedback = true;
  const auto d = select_algorithm(gpusim::DeviceSpec::maxwell_titan_x(),
                                  input);
  EXPECT_EQ(d.algorithm, Algorithm::Als);
  EXPECT_GT(d.sgd_time_estimate, d.als_time_estimate);
}

TEST(Selector, SparseSingleGpuCanPreferSgd) {
  // Very sparse matrix, single GPU: SGD's cheap epochs win the estimate.
  SelectorInput input;
  input.m = 5e7;   // Hugewiki-like: enormous row count
  input.n = 4e4;
  input.nnz = 1e8; // but only ~2 ratings per row → tiny hermitian benefit
  input.f = 100;
  input.gpus = 1;
  const auto d = select_algorithm(gpusim::DeviceSpec::maxwell_titan_x(),
                                  input);
  EXPECT_EQ(d.algorithm, Algorithm::Sgd);
}

TEST(Selector, MoreGpusShiftTowardAls) {
  SelectorInput input;
  input.m = 5e7;
  input.n = 4e4;
  input.nnz = 3.1e9;  // Hugewiki
  input.f = 100;
  input.gpus = 1;
  const auto dev = gpusim::DeviceSpec::maxwell_titan_x();
  const auto one = select_algorithm(dev, input);
  input.gpus = 4;
  const auto four = select_algorithm(dev, input);
  // With 4 GPUs ALS's estimate improves relative to SGD (Fig. 8's als@4).
  EXPECT_LT(four.als_time_estimate / four.sgd_time_estimate,
            one.als_time_estimate / one.sgd_time_estimate);
}

TEST(Selector, ValidatesInput) {
  SelectorInput bad;
  EXPECT_THROW(
      select_algorithm(gpusim::DeviceSpec::maxwell_titan_x(), bad),
      CheckError);
}

// ---------- hybrid ----------

TEST(Hybrid, StreamedRatingsImproveTheirPredictions) {
  const auto data = dataset(101, 6000);
  HybridOptions options;
  options.als = als_options();
  options.batch_epochs = 6;
  HybridEngine hybrid(data.ratings, options);

  // Stream ratings that contradict the planted model and check the engine
  // tracks them.
  const Rating streamed{5, 7, 5.0f};
  const auto current = [&] {
    return predict(hybrid.user_factors(), hybrid.item_factors(), streamed.u,
                   streamed.v);
  };
  const real_t before = current();
  for (int i = 0; i < 5; ++i) {
    hybrid.observe(streamed);
  }
  const real_t after = current();
  EXPECT_LT(std::abs(5.0f - after), std::abs(5.0f - before));
  EXPECT_EQ(hybrid.observed_count(), 5u);
}

TEST(Hybrid, IncrementalUpdatesPreserveGlobalQuality) {
  const auto data = dataset(103, 8000);
  Rng rng(13);
  const auto split = split_holdout(data.ratings, 0.2, rng);
  HybridOptions options;
  options.als = als_options();
  options.batch_epochs = 8;
  HybridEngine hybrid(split.train, options);

  const double before =
      rmse(split.test, hybrid.user_factors(), hybrid.item_factors());
  // Stream the held-out ratings in: test RMSE on them must improve (they
  // are now observed), without a batch retrain.
  for (const Rating& e : split.test.entries()) {
    hybrid.observe(e);
  }
  const double after =
      rmse(split.test, hybrid.user_factors(), hybrid.item_factors());
  EXPECT_LT(after, before);
}

TEST(Hybrid, RebatchRecommendationAndReset) {
  const auto data = dataset(107, 5000);
  HybridOptions options;
  options.als = als_options();
  options.batch_epochs = 2;
  options.rebatch_threshold = 0.01;  // 1% growth triggers
  HybridEngine hybrid(data.ratings, options);
  EXPECT_FALSE(hybrid.rebatch_recommended());
  Rng rng(17);
  for (int i = 0; i < 60; ++i) {  // 60/5000 > 1%
    hybrid.observe(Rating{static_cast<index_t>(rng.uniform_index(300)),
                          static_cast<index_t>(rng.uniform_index(120)),
                          3.0f});
  }
  EXPECT_TRUE(hybrid.rebatch_recommended());
  EXPECT_EQ(hybrid.batch_phases_run(), 1);
  hybrid.rebatch();
  EXPECT_EQ(hybrid.batch_phases_run(), 2);
  EXPECT_FALSE(hybrid.rebatch_recommended());
}

TEST(Hybrid, RejectsOutOfShapeStream) {
  const auto data = dataset(109, 5000);
  HybridOptions options;
  options.als = als_options();
  options.batch_epochs = 1;
  HybridEngine hybrid(data.ratings, options);
  EXPECT_THROW(hybrid.observe(Rating{999, 0, 1.0f}), CheckError);
}

// ---------- FP16 staging / Tensor Cores / Volta ----------

TEST(TensorCore, Fp16StagingStaysCloseToFp32) {
  const auto data = dataset(113, 4000);
  const auto csr = CsrMatrix::from_coo(data.ratings);
  Matrix theta(csr.cols(), 16);
  Rng rng(19);
  for (auto& v : theta.data()) {
    v = static_cast<real_t>(rng.normal(0.0, 1.0));
  }
  std::vector<real_t> a32(256);
  std::vector<real_t> b32(16);
  std::vector<real_t> a16(256);
  std::vector<real_t> b16(16);
  HermitianWorkspace ws;
  HermitianParams p32{8, 32, false};
  HermitianParams p16{8, 32, true};
  for (index_t u = 0; u < 50; ++u) {
    get_hermitian_row(csr, theta, u, 0.05f, p32, ws, a32, b32);
    get_hermitian_row(csr, theta, u, 0.05f, p16, ws, a16, b16);
    const double deg = csr.row_nnz(u);
    // FP16 inputs perturb each product by ≤ ~2·2⁻¹¹ relative.
    EXPECT_LT(max_abs_diff(a32, a16), 0.01 * (deg + 1.0)) << "u=" << u;
    EXPECT_GT(max_abs_diff(a32, a16), 0.0) << "rounding must be visible";
  }
}

TEST(TensorCore, AlsConvergesWithFp16Staging) {
  const auto data = dataset(127);
  auto options = als_options();
  options.hermitian.fp16_staging = true;
  AlsEngine als(data.ratings, options);
  auto reference_options = als_options();
  AlsEngine reference(data.ratings, reference_options);
  for (int e = 0; e < 8; ++e) {
    als.run_epoch();
    reference.run_epoch();
  }
  const double r16 =
      rmse(data.ratings, als.user_factors(), als.item_factors());
  const double r32 = rmse(data.ratings, reference.user_factors(),
                          reference.item_factors());
  EXPECT_NEAR(r16, r32, 0.02 * r32);
}

TEST(TensorCore, VoltaPresetAndModelledSpeedup) {
  const auto volta = gpusim::DeviceSpec::volta_v100();
  EXPECT_GT(volta.tensor_flops, 10 * volta.peak_flops / 2);
  EXPECT_EQ(gpusim::DeviceSpec::pascal_p100().tensor_flops, 0.0);

  UpdateShape shape{480189, 17770, 99e6};
  AlsKernelConfig base;
  base.solver = SolverKind::CgFp16;
  auto tensor = base;
  tensor.tensor_core_hermitian = true;
  const double t_base =
      update_phase_times(volta, shape, base).compute.seconds;
  const double t_tensor =
      update_phase_times(volta, shape, tensor).compute.seconds;
  EXPECT_LT(t_tensor, t_base / 2.0);  // Tensor Cores cut the compute phase

  // On a device without Tensor Cores the flag is ignored.
  const auto maxwell = gpusim::DeviceSpec::maxwell_titan_x();
  EXPECT_DOUBLE_EQ(update_phase_times(maxwell, shape, tensor).compute.seconds,
                   update_phase_times(maxwell, shape, base).compute.seconds);
}

TEST(TensorCore, VoltaEpochFasterThanPascal) {
  AlsKernelConfig config;
  config.solver = SolverKind::CgFp16;
  config.tensor_core_hermitian = true;
  const double volta = als_epoch_seconds(gpusim::DeviceSpec::volta_v100(),
                                         480189, 17770, 99e6, config);
  AlsKernelConfig pascal_cfg;
  pascal_cfg.solver = SolverKind::CgFp16;
  const double pascal = als_epoch_seconds(gpusim::DeviceSpec::pascal_p100(),
                                          480189, 17770, 99e6, pascal_cfg);
  EXPECT_LT(volta, pascal);
}

}  // namespace
}  // namespace cumf
