#include "linalg/cg.hpp"

namespace cumf {

double dot_d(std::span<const real_t> a, std::span<const real_t> b,
             simd::KernelPath path) {
  return dot(a, b, path);
}

template CgResult cg_solve<float>(std::size_t, std::span<const float>,
                                  std::span<const real_t>, std::span<real_t>,
                                  std::uint32_t, real_t, simd::KernelPath);
template CgResult pcg_solve<float>(std::size_t, std::span<const float>,
                                   std::span<const real_t>,
                                   std::span<real_t>, std::uint32_t, real_t,
                                   simd::KernelPath);

}  // namespace cumf
