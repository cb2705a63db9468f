// Shared pieces of the SGD baselines (paper §II eq. (5) and §VI-A).
//
// All SGD variants — LIBMF-style blocked, NOMAD-style asynchronous, and the
// GPU SGD model — share the same per-sample update rule and factor model;
// they differ only in how parallel updates are scheduled. Every schedule
// gives each factor row one writer at a time, so the updates below are plain
// loads and stores.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "linalg/dense.hpp"
#include "sparse/coo.hpp"

namespace cumf {

/// Learning-rate schedule. LIBMF's distinguishing feature (Chin et al.,
/// PAKDD'15 — reference [3] of the paper) is the adaptive per-row schedule;
/// the fixed decay is the vanilla eq. (5) behaviour.
enum class SgdSchedule {
  FixedDecay,  ///< α_k = α₀ / (1 + decay·epoch)
  AdaGrad,     ///< per-row α = α₀ / √(1 + G_row), G = accumulated mean ‖g‖²
};

struct SgdOptions {
  std::size_t f = 40;
  real_t lambda = 0.05f;   ///< L2 regularization
  real_t lr = 0.05f;       ///< initial learning rate α₀
  real_t lr_decay = 0.1f;  ///< decay for SgdSchedule::FixedDecay
  SgdSchedule schedule = SgdSchedule::FixedDecay;
  int workers = 1;         ///< parallel workers (threads)
  std::uint64_t seed = 1;
};

/// The factor model every SGD variant trains.
struct SgdModel {
  Matrix x;      ///< m×f user factors
  Matrix theta;  ///< n×f item factors
  /// AdaGrad accumulators (mean squared gradient per row); sized only when
  /// the adaptive schedule is selected.
  std::vector<real_t> x_gsq;
  std::vector<real_t> theta_gsq;
};

/// Initializes the factors with the same warm start used by ALS.
SgdModel make_sgd_model(index_t m, index_t n, const SgdOptions& options,
                        double rating_mean);

/// One SGD step on sample (u, v, r) with learning rate `alpha` (eq. (5)).
inline void sgd_step(SgdModel& model, const Rating& s, real_t alpha,
                     real_t lambda) noexcept {
  const std::size_t f = model.x.cols();
  real_t* xu = model.x.row(s.u).data();
  real_t* tv = model.theta.row(s.v).data();
  real_t pred = 0;
  for (std::size_t k = 0; k < f; ++k) {
    pred += xu[k] * tv[k];
  }
  const real_t err = s.r - pred;
  for (std::size_t k = 0; k < f; ++k) {
    const real_t xk = xu[k];
    const real_t tk = tv[k];
    xu[k] += alpha * (err * tk - lambda * xk);
    tv[k] += alpha * (err * xk - lambda * tk);
  }
}

/// Learning rate for a given epoch under the fixed-decay schedule.
inline real_t sgd_alpha(const SgdOptions& options, int epoch) noexcept {
  return options.lr /
         (real_t{1} + options.lr_decay * static_cast<real_t>(epoch));
}

/// AdaGrad step (LIBMF's schedule): per-row accumulated gradient energy
/// shrinks the step of frequently-updated rows, letting rare rows keep
/// large steps — the reason LIBMF converges in few passes.
inline void sgd_step_adagrad(SgdModel& model, const Rating& s, real_t lr0,
                             real_t lambda) noexcept {
  const std::size_t f = model.x.cols();
  real_t* xu = model.x.row(s.u).data();
  real_t* tv = model.theta.row(s.v).data();
  real_t pred = 0;
  for (std::size_t k = 0; k < f; ++k) {
    pred += xu[k] * tv[k];
  }
  const real_t err = s.r - pred;

  real_t gx_sq = 0;
  real_t gt_sq = 0;
  const real_t ax = lr0 / std::sqrt(real_t{1} + model.x_gsq[s.u]);
  const real_t at = lr0 / std::sqrt(real_t{1} + model.theta_gsq[s.v]);
  for (std::size_t k = 0; k < f; ++k) {
    const real_t xk = xu[k];
    const real_t tk = tv[k];
    const real_t gx = err * tk - lambda * xk;
    const real_t gt = err * xk - lambda * tk;
    gx_sq += gx * gx;
    gt_sq += gt * gt;
    xu[k] += ax * gx;
    tv[k] += at * gt;
  }
  model.x_gsq[s.u] += gx_sq / static_cast<real_t>(f);
  model.theta_gsq[s.v] += gt_sq / static_cast<real_t>(f);
}

/// Dispatches one update under the configured schedule. `alpha` is the
/// epoch's fixed-decay rate (ignored by AdaGrad).
inline void sgd_apply(SgdModel& model, const Rating& s,
                      const SgdOptions& options, real_t alpha) noexcept {
  if (options.schedule == SgdSchedule::AdaGrad) {
    sgd_step_adagrad(model, s, options.lr, options.lambda);
  } else {
    sgd_step(model, s, alpha, options.lambda);
  }
}

}  // namespace cumf
