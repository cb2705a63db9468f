// Hybrid ALS + SGD training (paper §VII future work): "using ALS for the
// initial batch training and SGD for incremental updates of the model."
//
// The engine wraps a converged (or converging) factor model. New ratings
// stream in one at a time; each is absorbed with a handful of SGD steps on
// just the two affected factor rows — microseconds instead of a full ALS
// epoch. Periodic re-batching (a full ALS epoch over everything seen so
// far) keeps long-run quality; the engine tracks when enough new data has
// arrived to justify one.
#pragma once

#include <cstdint>

#include "common/check.hpp"
#include "core/als.hpp"
#include "sparse/coo.hpp"

namespace cumf {

/// Thrown by HybridEngine::observe for a rating whose user or item index
/// lies outside the trained factor shape. In-place SGD has no factor row to
/// update for a genuinely new user or item — silently clamping or ignoring
/// the rating would corrupt the stream accounting, so the rejection is loud
/// and named. New users belong on the serving fold-in path
/// (serve::ServeEngine::observe / fold_in_user), which solves a fresh
/// factor row against the trained Θ; new items require a re-batch.
class StreamShapeError : public CheckError {
 public:
  StreamShapeError(const Rating& rating, index_t rows, index_t cols);

  const Rating& rating() const noexcept { return rating_; }

 private:
  Rating rating_;
};

struct HybridOptions {
  AlsOptions als;           ///< batch-phase configuration
  int batch_epochs = 8;     ///< ALS epochs for the initial batch training
  real_t sgd_lr = 0.02f;    ///< learning rate for incremental updates
  int sgd_steps = 4;        ///< SGD passes applied per observed rating
  /// A re-batch (full ALS retraining) is recommended once the stream has
  /// grown the training set by this fraction.
  double rebatch_threshold = 0.10;
};

class HybridEngine {
 public:
  HybridEngine(const RatingsCoo& batch, const HybridOptions& options);

  /// Absorbs one streamed rating with incremental SGD steps on x_u and θ_v.
  /// Indices must lie inside the batch matrix's shape; an out-of-shape
  /// rating (a new user or item) throws StreamShapeError — route new users
  /// through serve::ServeEngine fold-in instead.
  void observe(const Rating& rating);

  /// True once the stream has grown the data enough that a fresh batch
  /// phase is recommended (the caller decides when to afford it).
  bool rebatch_recommended() const noexcept;

  /// Re-runs batch ALS over the original data plus everything observed.
  void rebatch();

  const Matrix& user_factors() const noexcept { return x_; }
  const Matrix& item_factors() const noexcept { return theta_; }

  nnz_t observed_count() const noexcept { return streamed_.nnz(); }
  int batch_phases_run() const noexcept { return batch_phases_; }

 private:
  void run_batch();

  HybridOptions options_;
  RatingsCoo all_;       ///< batch data plus absorbed stream
  RatingsCoo streamed_;  ///< stream since the last batch phase
  Matrix x_;             ///< live factors (batch-trained, SGD-refreshed)
  Matrix theta_;
  int batch_phases_ = 0;
};

}  // namespace cumf
