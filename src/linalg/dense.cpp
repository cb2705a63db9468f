#include "linalg/dense.hpp"

#include <vector>

namespace cumf {

namespace {

/// Lane-parallel Σ a[i]·b[i] with exact double products; the scalar tail
/// appends sequentially, matching the reference loop's term values.
double dot_simd(const real_t* a, const real_t* b, std::size_t n) {
  simd::vd8 acc8 = simd::vd8::zero();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc8.mul_acc(simd::vf8::load(a + i), simd::vf8::load(b + i));
  }
  double acc = acc8.hsum();
  for (; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

}  // namespace

double dot(std::span<const real_t> a, std::span<const real_t> b,
           simd::KernelPath path) {
  CUMF_EXPECTS(a.size() == b.size(), "dot: size mismatch");
  if (path == simd::KernelPath::simd) {
    return dot_simd(a.data(), b.data(), a.size());
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

void dot_rows(std::span<const real_t> x, const Matrix& a,
              std::size_t row_begin, std::size_t row_end,
              std::span<double> out, simd::KernelPath path) {
  CUMF_EXPECTS(row_begin <= row_end && row_end <= a.rows(),
               "dot_rows: row range out of bounds");
  CUMF_EXPECTS(x.size() == a.cols(), "dot_rows: x/row length mismatch");
  CUMF_EXPECTS(out.size() == row_end - row_begin,
               "dot_rows: output span size mismatch");
  const std::size_t f = a.cols();
  if (path != simd::KernelPath::simd) {
    for (std::size_t r = row_begin; r < row_end; ++r) {
      const real_t* row = a.data().data() + r * f;
      double acc = 0.0;
      for (std::size_t i = 0; i < f; ++i) {
        acc += static_cast<double>(x[i]) * static_cast<double>(row[i]);
      }
      out[r - row_begin] = acc;
    }
    return;
  }
  // Widen x once for the whole scan; every row then replays dot_simd's
  // exact accumulation recurrence against the pre-widened chunks (the
  // widening is exact, so sharing it cannot change any product).
  const std::size_t chunks = f / 8;
  std::vector<simd::vd8> xw(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    xw[c] = simd::vd8::widen(simd::vf8::load(x.data() + c * 8));
  }
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const real_t* row = a.data().data() + r * f;
    simd::vd8 acc8 = simd::vd8::zero();
    for (std::size_t c = 0; c < chunks; ++c) {
      acc8.mul_acc(xw[c], simd::vf8::load(row + c * 8));
    }
    double acc = acc8.hsum();
    for (std::size_t i = chunks * 8; i < f; ++i) {
      acc += static_cast<double>(x[i]) * static_cast<double>(row[i]);
    }
    out[r - row_begin] = acc;
  }
}

void axpy(real_t alpha, std::span<const real_t> x, std::span<real_t> y,
          simd::KernelPath path) {
  CUMF_EXPECTS(x.size() == y.size(), "axpy: size mismatch");
  std::size_t i = 0;
  if (path == simd::KernelPath::simd) {
    const simd::vf8 av = simd::vf8::broadcast(alpha);
    for (; i + 8 <= x.size(); i += 8) {
      (simd::vf8::load(y.data() + i) + av * simd::vf8::load(x.data() + i))
          .store(y.data() + i);
    }
  }
  for (; i < x.size(); ++i) {
    y[i] += alpha * x[i];
  }
}

void symv(std::size_t n, std::span<const real_t> a,
          std::span<const real_t> x, std::span<real_t> y,
          simd::KernelPath path) {
  CUMF_EXPECTS(a.size() == n * n, "symv: A must be n*n");
  CUMF_EXPECTS(x.size() == n && y.size() == n, "symv: vector size mismatch");
  if (path == simd::KernelPath::simd) {
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = static_cast<real_t>(dot_simd(a.data() + i * n, x.data(), n));
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    const real_t* row = a.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      acc += static_cast<double>(row[j]) * static_cast<double>(x[j]);
    }
    y[i] = static_cast<real_t>(acc);
  }
}

}  // namespace cumf
