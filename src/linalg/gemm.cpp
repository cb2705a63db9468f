#include "linalg/gemm.hpp"

#include "common/check.hpp"

namespace cumf {

void gemm(std::size_t m, std::size_t n, std::size_t k, real_t alpha,
          std::span<const real_t> a, std::span<const real_t> b, real_t beta,
          std::span<real_t> c) {
  CUMF_EXPECTS(a.size() == m * k, "gemm: A shape mismatch");
  CUMF_EXPECTS(b.size() == k * n, "gemm: B shape mismatch");
  CUMF_EXPECTS(c.size() == m * n, "gemm: C shape mismatch");
  for (std::size_t i = 0; i < m; ++i) {
    real_t* crow = c.data() + i * n;
    if (beta == real_t{0}) {
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] = 0;
      }
    } else if (beta != real_t{1}) {
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] *= beta;
      }
    }
    // ikj order: streams B rows, keeps a_ip in a register.
    for (std::size_t p = 0; p < k; ++p) {
      const real_t aip = alpha * a[i * k + p];
      const real_t* brow = b.data() + p * n;
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] += aip * brow[j];
      }
    }
  }
}

}  // namespace cumf
