#include "core/hybrid.hpp"

#include <string>

#include "common/check.hpp"
#include "linalg/dense.hpp"

namespace cumf {

namespace {

std::string shape_error_message(const Rating& rating, index_t rows,
                                index_t cols) {
  return "HybridEngine::observe: streamed rating (u=" +
         std::to_string(rating.u) + ", v=" + std::to_string(rating.v) +
         ") is outside the trained " + std::to_string(rows) + "x" +
         std::to_string(cols) +
         " shape; in-place SGD cannot absorb a new user/item — fold new "
         "users in through serve::ServeEngine, re-batch for new items";
}

}  // namespace

StreamShapeError::StreamShapeError(const Rating& rating, index_t rows,
                                   index_t cols)
    : CheckError(shape_error_message(rating, rows, cols)), rating_(rating) {}

HybridEngine::HybridEngine(const RatingsCoo& batch,
                           const HybridOptions& options)
    : options_(options),
      all_(batch),
      streamed_(batch.rows(), batch.cols()) {
  CUMF_EXPECTS(options_.batch_epochs >= 1, "need at least one batch epoch");
  CUMF_EXPECTS(options_.sgd_lr > 0, "incremental learning rate must be > 0");
  CUMF_EXPECTS(options_.sgd_steps >= 1, "need at least one SGD step");
  CUMF_EXPECTS(options_.rebatch_threshold > 0,
               "re-batch threshold must be positive");
  run_batch();
}

void HybridEngine::run_batch() {
  AlsEngine als(all_, options_.als);
  for (int epoch = 0; epoch < options_.batch_epochs; ++epoch) {
    als.run_epoch();
  }
  x_ = als.user_factors();
  theta_ = als.item_factors();
  ++batch_phases_;
}

void HybridEngine::observe(const Rating& rating) {
  if (rating.u >= all_.rows() || rating.v >= all_.cols()) {
    throw StreamShapeError(rating, all_.rows(), all_.cols());
  }
  all_.add(rating.u, rating.v, rating.r);
  streamed_.add(rating.u, rating.v, rating.r);

  // A few plain SGD steps on the two affected rows (eq. (5), λ from the
  // batch configuration interpreted as a plain per-step weight).
  const std::size_t f = options_.als.f;
  real_t* xu = x_.row(rating.u).data();
  real_t* tv = theta_.row(rating.v).data();
  const real_t lambda = options_.als.lambda;
  for (int step = 0; step < options_.sgd_steps; ++step) {
    real_t pred = 0;
    for (std::size_t k = 0; k < f; ++k) {
      pred += xu[k] * tv[k];
    }
    const real_t err = rating.r - pred;
    for (std::size_t k = 0; k < f; ++k) {
      const real_t xk = xu[k];
      const real_t tk = tv[k];
      xu[k] += options_.sgd_lr * (err * tk - lambda * xk);
      tv[k] += options_.sgd_lr * (err * xk - lambda * tk);
    }
  }
}

bool HybridEngine::rebatch_recommended() const noexcept {
  const auto base = static_cast<double>(all_.nnz() - streamed_.nnz());
  return base > 0 &&
         static_cast<double>(streamed_.nnz()) / base >=
             options_.rebatch_threshold;
}

void HybridEngine::rebatch() {
  run_batch();
  streamed_ = RatingsCoo(all_.rows(), all_.cols());
}

}  // namespace cumf
