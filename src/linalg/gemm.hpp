// Reference dense GEMM kernel (bench_kernels times it as the generic
// dense-product baseline). A straightforward cache-blocked loop —
// correctness and countable work, not peak CPU throughput, is the goal
// (device-time comes from the gpusim cost model).
#pragma once

#include <span>

#include "common/types.hpp"

namespace cumf {

/// C ← alpha·A·B + beta·C with A: m×k, B: k×n, C: m×n, all row-major.
void gemm(std::size_t m, std::size_t n, std::size_t k, real_t alpha,
          std::span<const real_t> a, std::span<const real_t> b, real_t beta,
          std::span<real_t> c);

}  // namespace cumf
