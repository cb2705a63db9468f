#include "baselines/gpu_sgd.hpp"

#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/kernel_stats.hpp"
#include "half/half.hpp"

namespace cumf {

GpuSgd::GpuSgd(const RatingsCoo& train, const Options& options)
    : options_(options),
      train_(train),
      model_(make_sgd_model(train.rows(), train.cols(), options,
                            train.mean_value())) {
  CUMF_EXPECTS(train_.nnz() > 0, "cannot train on an empty matrix");
  if (options_.half_precision) {
    // Factors live in FP16 on the device from the start.
    for (auto* matrix : {&model_.x, &model_.theta}) {
      for (real_t& w : matrix->data()) {
        w = static_cast<real_t>(half(w));
      }
    }
  }
}

void GpuSgd::run_epoch() {
  const real_t alpha = sgd_alpha(options_, epochs_);
  const auto& samples = train_.entries();

  std::vector<std::uint32_t> order(samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  Rng rng(options_.seed + static_cast<std::uint64_t>(epochs_));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_index(i)]);
  }

  const std::size_t f = options_.f;
  for (const std::uint32_t idx : order) {
    const Rating& s = samples[idx];
    sgd_step(model_, s, alpha, options_.lambda);
    if (options_.half_precision) {
      // Written factors are stored as __half on the device: round the two
      // updated rows to FP16 (arithmetic stayed FP32, as on the GPU).
      real_t* xu = model_.x.row(s.u).data();
      real_t* tv = model_.theta.row(s.v).data();
      for (std::size_t k = 0; k < f; ++k) {
        xu[k] = static_cast<real_t>(half(xu[k]));
        tv[k] = static_cast<real_t>(half(tv[k]));
      }
    }
  }
  ++epochs_;
}

}  // namespace cumf
