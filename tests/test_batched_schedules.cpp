// Tests for the AdaGrad learning-rate schedule of the SGD baselines.
#include <gtest/gtest.h>

#include "baselines/sgd_blocked.hpp"
#include "data/generator.hpp"
#include "metrics/rmse.hpp"

namespace cumf {
namespace {

// ---------- AdaGrad schedule ----------

TEST(AdaGrad, AccumulatorsGrowOnlyForTouchedRows) {
  SgdOptions options;
  options.f = 4;
  options.schedule = SgdSchedule::AdaGrad;
  auto model = make_sgd_model(3, 3, options, 3.0);
  ASSERT_EQ(model.x_gsq.size(), 3u);
  sgd_apply(model, Rating{1, 2, 4.0f}, options, 0.0f);
  EXPECT_EQ(model.x_gsq[0], 0.0f);
  EXPECT_GT(model.x_gsq[1], 0.0f);
  EXPECT_GT(model.theta_gsq[2], 0.0f);
  EXPECT_EQ(model.theta_gsq[0], 0.0f);
}

TEST(AdaGrad, StepsShrinkWithAccumulatedGradient) {
  SgdOptions options;
  options.f = 4;
  options.lr = 0.1f;
  options.schedule = SgdSchedule::AdaGrad;
  auto model = make_sgd_model(1, 1, options, 3.0);
  const Rating s{0, 0, 5.0f};
  real_t prev_delta = 1e9f;
  for (int i = 0; i < 5; ++i) {
    const real_t before = model.x(0, 0);
    sgd_apply(model, s, options, 0.0f);
    const real_t delta = std::abs(model.x(0, 0) - before);
    EXPECT_LT(delta, prev_delta * 1.5f) << "step " << i;  // roughly shrinking
    prev_delta = delta;
  }
  EXPECT_GT(model.x_gsq[0], 0.0f);
}

TEST(AdaGrad, ConvergesAtLeastAsWellAsFixedDecay) {
  SyntheticConfig cfg;
  cfg.m = 250;
  cfg.n = 120;
  cfg.nnz = 8000;
  cfg.seed = 11;
  const auto data = generate_synthetic(cfg);

  SgdOptions fixed;
  fixed.f = 12;
  fixed.lambda = 0.04f;
  fixed.lr = 0.02f;
  fixed.seed = 9;
  auto adaptive = fixed;
  adaptive.schedule = SgdSchedule::AdaGrad;
  adaptive.lr = 0.2f;  // AdaGrad tolerates a larger base rate

  BlockedSgd a(data.ratings, fixed);
  BlockedSgd b(data.ratings, adaptive);
  for (int e = 0; e < 20; ++e) {
    a.run_epoch();
    b.run_epoch();
  }
  const double r_fixed =
      rmse(data.ratings, a.user_factors(), a.item_factors());
  const double r_ada = rmse(data.ratings, b.user_factors(),
                            b.item_factors());
  // The adaptive schedule is the reason LIBMF converges in few passes:
  // here it clearly beats the fixed decay at the same epoch budget.
  EXPECT_LT(r_ada, r_fixed);
  EXPECT_LT(r_ada, 0.45);
}

TEST(AdaGrad, WorksUnderBlockedScheduling) {
  SyntheticConfig cfg;
  cfg.m = 200;
  cfg.n = 100;
  cfg.nnz = 6000;
  cfg.seed = 13;
  const auto data = generate_synthetic(cfg);
  SgdOptions options;
  options.f = 12;
  options.lambda = 0.04f;
  options.lr = 0.2f;
  options.schedule = SgdSchedule::AdaGrad;
  options.workers = 3;
  BlockedSgd sgd(data.ratings, options);
  for (int e = 0; e < 15; ++e) {
    sgd.run_epoch();
  }
  EXPECT_LT(rmse(data.ratings, sgd.user_factors(), sgd.item_factors()),
            0.7);
}

}  // namespace
}  // namespace cumf
