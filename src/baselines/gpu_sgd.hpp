// GPU-SGD model (cuMF-SGD, Xie et al. HPDC'17; the [35] baseline of Fig. 8).
//
// Functionally this is Hogwild-style SGD — on the GPU thousands of threads
// update concurrently and benign races are absorbed, which a serial shuffled
// pass reproduces in expectation. The half-precision mode additionally
// rounds every written factor to FP16 after each update, reproducing the
// numerics of cuMF-SGD's __half factor storage. Device time per epoch comes
// from core/kernel_stats's memory-bound SGD kernel model.
#pragma once

#include "baselines/sgd_common.hpp"
#include "gpusim/device.hpp"
#include "sparse/coo.hpp"

namespace cumf {

class GpuSgd {
 public:
  struct Options : SgdOptions {
    bool half_precision = true;  ///< cuMF-SGD stores factors in FP16
  };

  GpuSgd(const RatingsCoo& train, const Options& options);

  void run_epoch();

  int epochs_run() const noexcept { return epochs_; }
  const Matrix& user_factors() const noexcept { return model_.x; }
  const Matrix& item_factors() const noexcept { return model_.theta; }

 private:
  Options options_;
  RatingsCoo train_;
  SgdModel model_;
  int epochs_ = 0;
};

}  // namespace cumf
