// Blocked SGD in the LIBMF / DSGD style (Zhuang et al. RecSys'13,
// Gemulla et al. KDD'11; paper §VI-A "blocking").
//
// R is divided into a workers×workers grid; blocks that share no rows or
// columns update concurrently without conflicts, so unlike Hogwild! (which
// lets workers race on shared rows) this is race-free by construction.
// Rounds follow the DSGD diagonal schedule. This is the algorithm behind
// the paper's strongest CPU baseline (LIBMF).
#pragma once

#include "baselines/sgd_common.hpp"
#include "common/thread_pool.hpp"
#include "sparse/partition.hpp"

namespace cumf {

class BlockedSgd {
 public:
  BlockedSgd(const RatingsCoo& train, const SgdOptions& options);

  /// One epoch = `workers` diagonal rounds covering every block once.
  void run_epoch();

  int epochs_run() const noexcept { return epochs_; }
  const Matrix& user_factors() const noexcept { return model_.x; }
  const Matrix& item_factors() const noexcept { return model_.theta; }
  const BlockGrid& grid() const noexcept { return grid_; }

 private:
  SgdOptions options_;
  BlockGrid grid_;
  SgdModel model_;
  ThreadPool pool_;
  int epochs_ = 0;
};

}  // namespace cumf
