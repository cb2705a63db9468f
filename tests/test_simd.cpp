// Differential tests for the SIMD hot-path kernels (src/simd, src/half,
// linalg dense/CG/Cholesky/LU, core hermitian).
//
// Contract under test (see src/simd/vec.hpp): elementwise kernels, the
// FP16 conversions and the exact solvers are *bitwise* identical between
// the scalar and SIMD paths; reduction kernels (dot, gemv inside CG)
// accumulate in double on both paths and may differ only by lane
// reassociation of exactly-representable products, so they are compared
// with tight tolerances.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/als.hpp"
#include "core/hermitian.hpp"
#include "core/multi_gpu.hpp"
#include "core/solver.hpp"
#include "data/generator.hpp"
#include "half/half.hpp"
#include "half/half_simd.hpp"
#include "linalg/cg.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/dense.hpp"
#include "linalg/lu.hpp"
#include "simd/vec.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

#include "half_cg_oracle.hpp"

namespace cumf {
namespace {

std::vector<real_t> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real_t> v(n);
  for (auto& x : v) {
    x = static_cast<real_t>(rng.normal());
  }
  return v;
}

// ---------- vec.hpp basics ----------

TEST(SimdVec, LoadStoreRoundTripsUnaligned) {
  alignas(64) float buf[17];
  for (int i = 0; i < 17; ++i) {
    buf[i] = static_cast<float>(i) * 0.5f;
  }
  // Deliberately misaligned source (buf+1 is 4-byte aligned only).
  const simd::vf8 v = simd::vf8::load(buf + 1);
  float out[8];
  v.store(out);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(out[i], buf[i + 1]);
    EXPECT_EQ(v.lane(i), buf[i + 1]);
  }
}

TEST(SimdVec, ArithmeticMatchesScalarLanewise) {
  const auto a = random_vec(8, 1);
  const auto b = random_vec(8, 2);
  const auto va = simd::vf8::load(a.data());
  const auto vb = simd::vf8::load(b.data());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ((va + vb).lane(i), a[i] + b[i]);
    EXPECT_EQ((va - vb).lane(i), a[i] - b[i]);
    EXPECT_EQ((va * vb).lane(i), a[i] * b[i]);
  }
  EXPECT_EQ(simd::vf8::broadcast(3.25f).lane(5), 3.25f);
  EXPECT_EQ(simd::vf8::zero().lane(7), 0.0f);
}

TEST(SimdVec, DoubleAccumulatorSumsExactProducts) {
  const auto a = random_vec(8, 3);
  const auto b = random_vec(8, 4);
  simd::vd8 acc = simd::vd8::zero();
  acc.mul_acc(simd::vf8::load(a.data()), simd::vf8::load(b.data()));
  // Each float×float product widened to double is exact, so the hsum must
  // equal the sequential double sum up to reassociation — which for 8 exact
  // terms of similar magnitude is below 1 double ulp of the total here.
  double expect = 0.0;
  for (int i = 0; i < 8; ++i) {
    expect += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  EXPECT_NEAR(acc.hsum(), expect, std::abs(expect) * 1e-15 + 1e-300);
}

TEST(SimdVec, TransposeMovesLaneCOfRowRToLaneROfRowC) {
  float in[64];
  for (int i = 0; i < 64; ++i) {
    in[i] = static_cast<float>(i) + 0.5f;
  }
  simd::vf8 rows[8];
  for (int r = 0; r < 8; ++r) {
    rows[r] = simd::vf8::load(in + 8 * r);
  }
  simd::transpose(rows);
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) {
      EXPECT_EQ(rows[r].lane(c), in[8 * c + r]) << "r=" << r << " c=" << c;
    }
  }
}

// ---------- FP16 conversions ----------

/// The bit-trick pack of 8 floats as raw half patterns. It is the pack
/// wherever F16C is absent; testing it directly keeps it covered on hosts
/// where float_to_half8 runs on F16C.
void pack_bits8(const float* src, std::uint16_t* out) {
  half_pack_bits(simd::vf8::load(src)).store_u16(out);
}

std::uint32_t float_bits(float x) { return std::bit_cast<std::uint32_t>(x); }

TEST(SimdHalf, UnpackMatchesScalarForEveryPattern) {
  // All 65536 half bit patterns, 8 at a time: the SIMD unpack must produce
  // bit-identical floats to half::to_float, including every NaN payload,
  // ±Inf, ±0 and all subnormals.
  for (std::uint32_t base = 0; base < 0x10000; base += 8) {
    std::uint16_t bits[8];
    half src[8];
    for (std::uint32_t i = 0; i < 8; ++i) {
      bits[i] = static_cast<std::uint16_t>(base + i);
      src[i] = half::from_bits(bits[i]);
    }
    float out[8];
    half_to_float8(src).store(out);
    for (std::uint32_t i = 0; i < 8; ++i) {
      const float ref = half::to_float(bits[i]);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                std::bit_cast<std::uint32_t>(ref))
          << "half bits 0x" << std::hex << bits[i];
    }
  }
}

TEST(SimdHalf, PackMatchesScalarOnRandomBitPatterns) {
  // Uniformly random float bit patterns cover normals, subnormals, ±Inf and
  // NaNs (payloads included) — the pack must agree with half::from_float
  // bit-for-bit on all of them.
  Rng rng(99);
  for (int batch = 0; batch < 20000 / 8; ++batch) {
    float src[8];
    for (int i = 0; i < 8; ++i) {
      src[i] = std::bit_cast<float>(
          static_cast<std::uint32_t>(rng.uniform_index(0x100000000ull)));
    }
    std::uint16_t out[8];
    std::uint16_t out_bits[8];
    float_to_half8(src, out);
    pack_bits8(src, out_bits);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(out[i], half::from_float(src[i]))
          << "float bits 0x" << std::hex
          << std::bit_cast<std::uint32_t>(src[i]);
      EXPECT_EQ(out_bits[i], half::from_float(src[i]))
          << "bit tricks, float bits 0x" << std::hex
          << std::bit_cast<std::uint32_t>(src[i]);
    }
  }
}

TEST(SimdHalf, PackMatchesScalarOnBoundaryValues) {
  const float cases[] = {
      0.0f, -0.0f, 1.0f, -1.0f,
      65504.0f,                       // largest finite half
      65519.996f,                     // just below the overflow threshold
      65520.0f,                       // rounds to +Inf
      0x1.0p-14f,                     // smallest normal half
      0x1.0p-24f,                     // smallest subnormal half
      0x1.0p-25f,                     // tie: rounds to zero (even)
      0x1.8p-25f,                     // above the tie: rounds to denorm_min
      0x1.0p-26f,                     // underflows to zero
      0x1.ffcp-15f,                   // largest subnormal neighborhood
      1.0009766f,                     // RNE tie on bit 13
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
  };
  float src[8];
  std::uint16_t out[8];
  std::uint16_t out_bits[8];
  for (const float c : cases) {
    for (int i = 0; i < 8; ++i) {
      src[i] = c;
    }
    float_to_half8(src, out);
    pack_bits8(src, out_bits);
    EXPECT_EQ(out[0], half::from_float(c))
        << "float bits 0x" << std::hex << std::bit_cast<std::uint32_t>(c);
    EXPECT_EQ(out_bits[0], half::from_float(c))
        << "bit tricks, float bits 0x" << std::hex
        << std::bit_cast<std::uint32_t>(c);
  }
}

TEST(SimdHalf, RoundThroughMatchesScalarAndFlagsOverflowOnBothPaths) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float boundary[] = {
      0.0f, -0.0f, 1.0f, 65504.0f, 65519.996f, 65520.0f, -65520.0f,
      0x1.0p-14f, 0x1.0p-24f, 0x1.0p-25f, 0x1.8p-25f, 0x1.0p-26f,
      0x1.ffcp-15f, 1.0009766f, inf, -inf, nan,
      std::bit_cast<float>(0x7F800001u),  // signalling NaN, low payload
      std::bit_cast<float>(0xFFA12345u),  // negative signalling NaN
      std::bit_cast<float>(0x00000001u),  // float subnormal
  };
  const auto check = [](const std::vector<float>& src, const char* what) {
    const std::size_t n = src.size();
    std::vector<float> expect(n);
    bool expect_overflow = false;
    for (std::size_t i = 0; i < n; ++i) {
      expect[i] = half::to_float(half::from_float(src[i]));
      expect_overflow = expect_overflow ||
                        (std::isinf(expect[i]) && std::isfinite(src[i]));
    }
    for (const auto path :
         {simd::KernelPath::scalar, simd::KernelPath::simd}) {
      std::vector<float> got(n);
      EXPECT_EQ(round_through_half_n(src.data(), got.data(), n, path),
                expect_overflow)
          << what << " n=" << n << " path=" << to_string(path);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(float_bits(got[i]), float_bits(expect[i]))
            << what << " n=" << n << " path=" << to_string(path)
            << " i=" << i << " float bits 0x" << std::hex
            << float_bits(src[i]);
      }
    }
  };
  Rng rng(123);
  for (const std::size_t n : {1ul, 7ul, 8ul, 9ul, 16ul, 17ul, 100ul, 333ul}) {
    std::vector<float> src(n);
    for (int trial = 0; trial < 8; ++trial) {
      for (auto& x : src) {
        x = std::bit_cast<float>(
            static_cast<std::uint32_t>(rng.uniform_index(0x100000000ull)));
      }
      check(src, "random bits");
    }
    for (std::size_t shift = 0; shift < std::size(boundary); ++shift) {
      for (std::size_t i = 0; i < n; ++i) {
        src[i] = boundary[(i + shift) % std::size(boundary)];
      }
      check(src, "boundary");
    }
    // One probe at every position of an in-range vector: only ±65520 is an
    // overflow.
    std::vector<float> in_range(n);
    for (auto& x : in_range) {
      x = static_cast<float>(rng.normal(0.0, 100.0));
    }
    check(in_range, "in range");
    for (std::size_t at = 0; at < n; ++at) {
      for (const float v : {65520.0f, -65520.0f, 65519.0f, inf, nan}) {
        src = in_range;
        src[at] = v;
        check(src, "probe");
      }
    }
  }
}

TEST(SimdHalf, EveryFormMatchesScalarOnAnOddStrideSweepOfAllFloats) {
  // Float bit patterns 257·k for every k < 2^32/257 (≈16.7M): every sign
  // and exponent, with the low mantissa bits stepping through all residues
  // mod 257. Each 8-lane vector goes through the production pack, the bit-
  // trick pack, both round trips and the overflow mask.
  constexpr std::uint64_t kStride = 257;
  constexpr std::uint64_t kCount = (1ull << 32) / kStride;
  std::uint64_t mismatches = 0;
  std::uint32_t first_bad = 0;
  const auto expect_eq = [&](std::uint32_t got, std::uint32_t want,
                             float x) {
    if (got != want) {
      first_bad = mismatches++ == 0 ? float_bits(x) : first_bad;
    }
  };
  float src[8];
  for (std::uint64_t k = 0; k + 8 <= kCount; k += 8) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      src[i] = std::bit_cast<float>(
          static_cast<std::uint32_t>((k + i) * kStride));
    }
    const simd::vf8 x = simd::vf8::load(src);
    std::uint16_t packed[8];
    std::uint16_t packed_bits[8];
    std::uint16_t overflow[8];
    float round[8];
    float round_bits[8];
    float_to_half8(src, packed);
    half_pack_bits(x).store_u16(packed_bits);
    half_overflow_mask(x).store_u16(overflow);
    round_through_half8(x).store(round);
    half_unpack_bits(half_pack_bits(x)).store(round_bits);
    for (int i = 0; i < 8; ++i) {
      const std::uint16_t h = half::from_float(src[i]);
      const float r = half::to_float(h);
      const bool over = std::isinf(r) && std::isfinite(src[i]);
      expect_eq(packed[i], h, src[i]);
      expect_eq(packed_bits[i], h, src[i]);
      expect_eq(float_bits(round[i]), float_bits(r), src[i]);
      expect_eq(float_bits(round_bits[i]), float_bits(r), src[i]);
      expect_eq(overflow[i], over ? 0xFFFFu : 0u, src[i]);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatch at float bits 0x" << std::hex
                            << first_bad;
}

TEST(SimdHalf, BulkHelpersAgreeAcrossPathsIncludingOddTails) {
  for (const std::size_t n : {1ul, 7ul, 8ul, 9ul, 100ul, 333ul}) {
    const auto src = random_vec(n, 7 + n);
    std::vector<half> packed_scalar(n);
    std::vector<half> packed_simd(n);
    float_to_half_n(src.data(), packed_scalar.data(), n,
                    simd::KernelPath::scalar);
    float_to_half_n(src.data(), packed_simd.data(), n,
                    simd::KernelPath::simd);
    std::vector<real_t> staged_scalar(n);
    std::vector<real_t> staged_simd(n);
    round_through_half_n(src.data(), staged_scalar.data(), n,
                         simd::KernelPath::scalar);
    round_through_half_n(src.data(), staged_simd.data(), n,
                         simd::KernelPath::simd);
    std::vector<real_t> widened_scalar(n);
    std::vector<real_t> widened_simd(n);
    half_to_float_n(packed_scalar.data(), widened_scalar.data(), n,
                    simd::KernelPath::scalar);
    half_to_float_n(packed_scalar.data(), widened_simd.data(), n,
                    simd::KernelPath::simd);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(packed_scalar[i].bits(), packed_simd[i].bits());
      EXPECT_EQ(std::bit_cast<std::uint32_t>(staged_scalar[i]),
                std::bit_cast<std::uint32_t>(staged_simd[i]));
      EXPECT_EQ(std::bit_cast<std::uint32_t>(widened_scalar[i]),
                std::bit_cast<std::uint32_t>(widened_simd[i]));
    }
  }
}

// Compile-time lengths: once these calls inline, GCC knows every trip count,
// so a bulk helper whose scalar tail it cannot bound warns
// (-Waggressive-loop-optimizations) and this file fails to build under
// CUMF_WERROR=ON.
TEST(SimdHalf, BulkHelpersBuildAndAgreeAtACompileTimeLength) {
  constexpr std::size_t kN = 10000;
  const auto src = random_vec(kN, 17);
  std::vector<real_t> rounded_simd(kN);
  std::vector<real_t> rounded_scalar(kN);
  EXPECT_FALSE(round_through_half_n(src.data(), rounded_simd.data(), kN,
                                    simd::KernelPath::simd));
  EXPECT_FALSE(round_through_half_n(src.data(), rounded_scalar.data(), kN,
                                    simd::KernelPath::scalar));
  EXPECT_EQ(rounded_simd, rounded_scalar);
  std::vector<half> packed(kN);
  float_to_half_n(src.data(), packed.data(), kN, simd::KernelPath::simd);
  std::vector<real_t> widened(kN);
  half_to_float_n(packed.data(), widened.data(), kN, simd::KernelPath::simd);
  EXPECT_EQ(widened, rounded_scalar);
}

TEST(SimdCg, HelpersBuildAndAgreeAtACompileTimeLength) {
  constexpr std::size_t kF = 100;
  constexpr std::size_t kN = 10000;
  const auto a = random_vec(kF * kF, 18);
  const auto in = random_vec(kF, 19);
  std::vector<real_t> out(kF);
  detail::gemv<float>(kF, a.data(), in.data(), out.data(),
                      simd::KernelPath::simd);
  for (std::size_t i = 0; i < kF; ++i) {
    const std::span<const real_t> row(a.data() + i * kF, kF);
    EXPECT_EQ(out[i], static_cast<real_t>(dot(row, in, simd::KernelPath::simd)))
        << i;
  }
  const auto p = random_vec(kN, 20);
  const auto ap = random_vec(kN, 21);
  std::vector<real_t> x[2] = {random_vec(kN, 22), random_vec(kN, 22)};
  std::vector<real_t> r[2] = {random_vec(kN, 23), random_vec(kN, 23)};
  std::vector<real_t> z[2] = {std::vector<real_t>(kN),
                              std::vector<real_t>(kN)};
  detail::cg_step_update(kN, 0.5f, p.data(), ap.data(), x[0].data(),
                         r[0].data(), simd::KernelPath::scalar);
  detail::cg_step_update(kN, 0.5f, p.data(), ap.data(), x[1].data(),
                         r[1].data(), simd::KernelPath::simd);
  detail::hadamard(kN, p.data(), r[0].data(), z[0].data(),
                   simd::KernelPath::scalar);
  detail::hadamard(kN, p.data(), r[1].data(), z[1].data(),
                   simd::KernelPath::simd);
  detail::xpby(kN, ap.data(), 0.25f, z[0].data(), simd::KernelPath::scalar);
  detail::xpby(kN, ap.data(), 0.25f, z[1].data(), simd::KernelPath::simd);
  EXPECT_EQ(x[0], x[1]);
  EXPECT_EQ(r[0], r[1]);
  EXPECT_EQ(z[0], z[1]);
}

// ---------- dense primitives ----------

TEST(SimdDense, DotAgreesAcrossPaths) {
  for (const std::size_t n : {1ul, 8ul, 15ul, 16ul, 100ul, 1023ul}) {
    const auto a = random_vec(n, 11 + n);
    const auto b = random_vec(n, 13 + n);
    const double ds = dot(a, b, simd::KernelPath::scalar);
    const double dv = dot(a, b, simd::KernelPath::simd);
    // Both paths sum exact double products; only association differs.
    EXPECT_NEAR(dv, ds, (std::abs(ds) + 1.0) * 1e-12);
  }
}

TEST(SimdDense, AxpyIsBitwiseIdenticalAcrossPaths) {
  for (const std::size_t n : {1ul, 8ul, 20ul, 100ul, 257ul}) {
    const auto x = random_vec(n, 17 + n);
    auto y_scalar = random_vec(n, 19 + n);
    auto y_simd = y_scalar;
    axpy(real_t{1.7f}, x, y_scalar, simd::KernelPath::scalar);
    axpy(real_t{1.7f}, x, y_simd, simd::KernelPath::simd);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(y_scalar[i]),
                std::bit_cast<std::uint32_t>(y_simd[i]));
    }
  }
}

TEST(SimdDense, SymvAgreesAcrossPaths) {
  for (const std::size_t n : {4ul, 8ul, 33ul, 100ul}) {
    auto a = random_vec(n * n, 23 + n);
    for (std::size_t i = 0; i < n; ++i) {  // symmetrize
      for (std::size_t j = 0; j < i; ++j) {
        a[j * n + i] = a[i * n + j];
      }
    }
    const auto x = random_vec(n, 29 + n);
    std::vector<real_t> y_scalar(n);
    std::vector<real_t> y_simd(n);
    symv(n, a, x, y_scalar, simd::KernelPath::scalar);
    symv(n, a, x, y_simd, simd::KernelPath::simd);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y_simd[i], y_scalar[i],
                  (std::abs(y_scalar[i]) + 1.0f) * 1e-6f);
    }
  }
}

// ---------- get_hermitian_row ----------

/// Small ratings matrix with varied row lengths (including an empty row and
/// one longer than BIN, so multi-batch staging is exercised).
CsrMatrix hermitian_fixture(index_t m, index_t n, std::uint64_t seed) {
  Rng rng(seed);
  RatingsCoo coo(m, n);
  for (index_t u = 0; u < m; ++u) {
    const auto len = static_cast<index_t>(
        u == 0 ? 0 : (u == 1 ? 3 * 32 + 5 : rng.uniform_index(n / 2) + 1));
    for (index_t k = 0; k < len; ++k) {
      coo.add(u, static_cast<index_t>(rng.uniform_index(n)),
              static_cast<real_t>(rng.normal()));
    }
  }
  coo.sort_and_dedup();
  return CsrMatrix::from_coo(coo);
}

TEST(SimdHermitian, TiledKernelIsBitwiseIdenticalAcrossPaths) {
  struct Case {
    std::size_t f;
    int tile;
    int bin;
  };
  // The scalar path walks T×T tiles, the SIMD path 16-lane register blocks
  // of up to 8 rows with a scalar tail at column f. Tiles below, at and
  // above the lane widths; f below one chunk (8, 12), not a multiple of 8
  // or 16 (20, 21, 36, 100); BIN 1 (one column per batch) and BIN 7 (a
  // short last batch). The SIMD mirror transposes the 8×8 blocks below the
  // diagonal: f = 8 is one diagonal block, 16, 32 and 64 only whole blocks,
  // 9 and 17 one ragged row past them, 100 four.
  const Case cases[] = {{8, 4, 32},   {8, 8, 32},   {16, 16, 32},
                        {32, 8, 32},  {100, 5, 32}, {100, 10, 32},
                        {100, 20, 32}, {12, 4, 7},  {20, 5, 1},
                        {21, 7, 32},  {36, 6, 7},   {36, 9, 1},
                        {100, 10, 7}, {9, 3, 32},   {17, 17, 7},
                        {64, 16, 32}, {64, 8, 1}};
  const auto r = hermitian_fixture(12, 120, 31);
  for (const auto& c : cases) {
    Matrix theta(r.cols(), c.f);
    als_init_factors(theta, 3.6, 41);
    for (const bool fp16 : {false, true}) {
      HermitianParams params;
      params.tile = c.tile;
      params.bin = c.bin;
      params.fp16_staging = fp16;
      HermitianWorkspace ws_scalar;
      HermitianWorkspace ws_simd;
      std::vector<real_t> a_scalar(c.f * c.f);
      std::vector<real_t> a_simd(c.f * c.f);
      std::vector<real_t> b_scalar(c.f);
      std::vector<real_t> b_simd(c.f);
      for (index_t u = 0; u < r.rows(); ++u) {
        get_hermitian_row(r, theta, u, real_t{0.05f}, params, ws_scalar,
                          a_scalar, b_scalar, simd::KernelPath::scalar);
        get_hermitian_row(r, theta, u, real_t{0.05f}, params, ws_simd,
                          a_simd, b_simd, simd::KernelPath::simd);
        for (std::size_t i = 0; i < a_scalar.size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(a_scalar[i]),
                    std::bit_cast<std::uint32_t>(a_simd[i]))
              << "A mismatch at f=" << c.f << " tile=" << c.tile
              << " bin=" << c.bin << " fp16=" << fp16 << " u=" << u
              << " i=" << i;
        }
        for (std::size_t i = 0; i < b_scalar.size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(b_scalar[i]),
                    std::bit_cast<std::uint32_t>(b_simd[i]))
              << "b mismatch at f=" << c.f << " tile=" << c.tile
              << " bin=" << c.bin << " fp16=" << fp16 << " u=" << u
              << " i=" << i;
        }
      }
    }
  }
}

// ---------- CG solve ----------

std::vector<real_t> spd_system(std::size_t f, std::uint64_t seed) {
  const auto g = random_vec(f * f, seed);
  std::vector<real_t> a(f * f, real_t{0});
  for (std::size_t i = 0; i < f; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < f; ++k) {
        acc += static_cast<double>(g[k * f + i]) * g[k * f + j];
      }
      a[i * f + j] = a[j * f + i] =
          static_cast<real_t>(acc / static_cast<double>(f));
    }
    a[i * f + i] += real_t{1};
  }
  return a;
}

/// The SIMD gemv's documented per-row order, replayed in plain code: lane l
/// of a double accumulator sums the exact products of lane l of each full
/// 8-column chunk in order, the lanes reduce as ((0+2)+(1+3))+((4+6)+(5+7)),
/// then the leftover columns add in order.
template <typename T>
real_t gemv_row_in_documented_order(std::size_t n, const T* row,
                                    const real_t* in) {
  double lanes[8] = {};
  const std::size_t body = n - n % 8;
  for (std::size_t j = 0; j < body; ++j) {
    lanes[j % 8] += static_cast<double>(load_as_float(row[j])) *
                    static_cast<double>(in[j]);
  }
  double sum = ((lanes[0] + lanes[2]) + (lanes[1] + lanes[3])) +
               ((lanes[4] + lanes[6]) + (lanes[5] + lanes[7]));
  for (std::size_t j = body; j < n; ++j) {
    sum += static_cast<double>(load_as_float(row[j])) *
           static_cast<double>(in[j]);
  }
  return static_cast<real_t>(sum);
}

TEST(SimdCg, GemvRowsKeepTheirReductionOrder) {
  // Interleaving rows overlaps their accumulation chains but must not touch
  // any row's own order: every output is bitwise the documented sequence.
  // n covers < 8 columns, leftover rows of the 4-row interleave (13, 37)
  // and leftover columns (5, 13, 20, 37, 100).
  for (const std::size_t n : {5ul, 8ul, 13ul, 20ul, 37ul, 100ul}) {
    const auto a_small = random_vec(n * n, 61 + n);
    auto in = random_vec(n, 67 + n);
    std::vector<half> a_half(n * n);
    float_to_half_n(a_small.data(), a_half.data(), a_small.size(),
                    simd::KernelPath::scalar);
    // The float A gets four ±2^40 products per row that cancel exactly, in
    // different lanes and (for n % 8 ≠ 0) the tail: the double rounding of
    // the O(1) terms next to them then depends on the summation order and
    // shows in the float result, so a reordered reduction cannot pass by
    // luck. (2^20 is past the half range, so the half A stays small.)
    auto a = a_small;
    const std::size_t big[] = {0, 1, n / 2, n - 1};
    for (const std::size_t j : big) {
      in[j] = 0x1p20f;
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < 4; ++k) {
        a[i * n + big[k]] = (k + i) % 2 == 0 ? 0x1p20f : -0x1p20f;
      }
    }
    std::vector<real_t> out(n);
    std::vector<real_t> out_half(n);
    detail::gemv(n, a.data(), in.data(), out.data(), simd::KernelPath::simd);
    detail::gemv(n, a_half.data(), in.data(), out_half.data(),
                 simd::KernelPath::simd);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                std::bit_cast<std::uint32_t>(gemv_row_in_documented_order(
                    n, a.data() + i * n, in.data())))
          << "float n=" << n << " row " << i;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(out_half[i]),
                std::bit_cast<std::uint32_t>(gemv_row_in_documented_order(
                    n, a_half.data() + i * n, in.data())))
          << "half n=" << n << " row " << i;
    }
    if (n >= 8) {
      // The planted products do make the order visible: the scalar path's
      // plain sequential sum lands on different floats.
      std::vector<real_t> out_seq(n);
      detail::gemv(n, a.data(), in.data(), out_seq.data(),
                   simd::KernelPath::scalar);
      EXPECT_NE(out_seq, out) << "n=" << n;
    }
  }
}

TEST(SimdCg, SolutionsAgreeAcrossPathsFloatAndHalf) {
  for (const std::size_t f : {8ul, 16ul, 32ul, 100ul}) {
    const auto a = spd_system(f, 51 + f);
    const auto b = random_vec(f, 53 + f);
    std::vector<half> a_half(f * f);
    float_to_half_n(a.data(), a_half.data(), a.size(),
                    simd::KernelPath::scalar);
    for (const std::uint32_t fs : {3u, 6u}) {
      std::vector<real_t> x_scalar(f, real_t{0});
      std::vector<real_t> x_simd(f, real_t{0});
      const auto rs = cg_solve<float>(f, a, b, x_scalar, fs, real_t{0},
                                      simd::KernelPath::scalar);
      const auto rv = cg_solve<float>(f, a, b, x_simd, fs, real_t{0},
                                      simd::KernelPath::simd);
      EXPECT_EQ(rs.iterations, rv.iterations);
      for (std::size_t i = 0; i < f; ++i) {
        // The paths reassociate double-accumulated reductions; after fs
        // iterations the drift stays far below CG's own truncation error.
        EXPECT_NEAR(x_simd[i], x_scalar[i],
                    (std::abs(x_scalar[i]) + 1.0f) * 1e-5f);
      }
      std::vector<real_t> xh_scalar(f, real_t{0});
      std::vector<real_t> xh_simd(f, real_t{0});
      cg_solve<half>(f, std::span<const half>(a_half), b, xh_scalar, fs,
                     real_t{0}, simd::KernelPath::scalar);
      cg_solve<half>(f, std::span<const half>(a_half), b, xh_simd, fs,
                     real_t{0}, simd::KernelPath::simd);
      for (std::size_t i = 0; i < f; ++i) {
        EXPECT_NEAR(xh_simd[i], xh_scalar[i],
                    (std::abs(xh_scalar[i]) + 1.0f) * 1e-5f);
      }
    }
  }
}

// ---------- exact solvers: Cholesky and LU ----------

/// Bit patterns of a float vector, for element-by-element equality that
/// also holds for NaN and signed zero.
std::vector<std::uint32_t> bits(std::span<const real_t> v) {
  std::vector<std::uint32_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = std::bit_cast<std::uint32_t>(v[i]);
  }
  return out;
}

/// A_u of row `u` exactly as training builds it (SIMD get_hermitian, BIN
/// 32), so the solvers see the production system's shape and rounding.
std::vector<real_t> hermitian_system(const CsrMatrix& r, std::size_t f,
                                     index_t u, std::vector<real_t>& b) {
  Matrix theta(r.cols(), f);
  als_init_factors(theta, 3.6, 43 + f);
  HermitianParams params;
  params.tile = 1;
  HermitianWorkspace ws;
  std::vector<real_t> a(f * f);
  b.resize(f);
  get_hermitian_row(r, theta, u, real_t{0.05f}, params, ws, a, b,
                    simd::KernelPath::simd);
  return a;
}

/// Cholesky factor and solve of `a` on both paths: the same verdict, the
/// same factor (lower triangle L, upper triangle untouched) and the same x,
/// bit for bit, with x separate from b and aliasing it.
void expect_cholesky_paths_agree(std::size_t n, const std::vector<real_t>& a,
                                 const std::vector<real_t>& b,
                                 const std::string& what) {
  std::vector<double> ws(cholesky_workspace_size(n));
  auto l_scalar = a;
  auto l_simd = a;
  const bool ok_scalar =
      cholesky_factor(n, l_scalar, simd::KernelPath::scalar);
  const bool ok_simd =
      cholesky_factor(n, l_simd, simd::KernelPath::simd, ws);
  ASSERT_EQ(ok_scalar, ok_simd) << what;
  ASSERT_EQ(bits(l_scalar), bits(l_simd)) << what;
  if (!ok_scalar) {
    return;
  }
  std::vector<real_t> x_scalar(n);
  std::vector<real_t> x_simd(n);
  cholesky_solve(n, l_scalar, b, x_scalar, simd::KernelPath::scalar);
  cholesky_solve(n, l_simd, b, x_simd, simd::KernelPath::simd, ws);
  EXPECT_EQ(bits(x_scalar), bits(x_simd)) << what;
  auto bx = b;  // x aliasing b
  cholesky_solve(n, l_simd, bx, bx, simd::KernelPath::simd, ws);
  EXPECT_EQ(bits(x_scalar), bits(bx)) << what << " (x aliasing b)";
}

constexpr std::size_t kExactSizes[] = {1,  2,  7,  8,  9,  15, 16,
                                       17, 33, 36, 64, 100, 128};

/// G·Gᵀ + I with G's columns scaled by 2^-9 … 2^9. Its factor's products
/// span so many binades that the double sums round differently in another
/// order — data on which a reordered kernel shows.
std::vector<real_t> wide_range_spd(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real_t> g(n * n);
  for (std::size_t k = 0; k < n; ++k) {
    const float scale =
        std::ldexp(1.0f, static_cast<int>(rng.uniform_index(19)) - 9);
    for (std::size_t i = 0; i < n; ++i) {
      g[i * n + k] = static_cast<real_t>(rng.normal()) * scale;
    }
  }
  std::vector<real_t> a(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = i == j ? 1.0 : 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        acc += static_cast<double>(g[i * n + k]) * g[j * n + k];
      }
      a[i * n + j] = static_cast<real_t>(acc);
    }
  }
  return a;
}

/// The scalar factor with every element's sum over k run in descending
/// order: what a kernel that lost the ascending order would compute.
bool cholesky_factor_k_descending(std::size_t n, std::vector<real_t>& a) {
  for (std::size_t j = 0; j < n; ++j) {
    double diag = static_cast<double>(a[j * n + j]);
    for (std::size_t k = j; k-- > 0;) {
      diag -= static_cast<double>(a[j * n + k]) * a[j * n + k];
    }
    if (diag <= 0.0 || !std::isfinite(diag)) {
      return false;
    }
    const double ljj = std::sqrt(diag);
    a[j * n + j] = static_cast<real_t>(ljj);
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = static_cast<double>(a[i * n + j]);
      for (std::size_t k = j; k-- > 0;) {
        acc -= static_cast<double>(a[i * n + k]) * a[j * n + k];
      }
      a[i * n + j] = static_cast<real_t>(acc / ljj);
    }
  }
  return true;
}

TEST(SimdCholesky, FactorAndSolveAreBitwiseIdenticalAcrossPaths) {
  // Sizes around the 8-lane blocks, the 4-column panels and the register
  // block of 4 row blocks; get_hermitian-built systems (one short and one
  // multi-batch row) and dense random SPD ones.
  const auto r = hermitian_fixture(3, 200, 37);
  for (const std::size_t n : kExactSizes) {
    for (const index_t u : {1, 2}) {
      std::vector<real_t> b;
      const auto a = hermitian_system(r, n, u, b);
      expect_cholesky_paths_agree(
          n, a, b, "hermitian n=" + std::to_string(n) + " u=" +
                       std::to_string(u));
    }
    expect_cholesky_paths_agree(n, spd_system(n, 71 + n),
                                random_vec(n, 73 + n),
                                "spd n=" + std::to_string(n));
  }
  // On the wide-range systems the order of each element's k sum shows in
  // the float factor (checked against a descending-k replay), so equality
  // across paths pins the SIMD kernel to ascending k.
  for (const std::size_t n : {64ul, 100ul, 128ul}) {
    const auto a = wide_range_spd(n, 31 + n);
    expect_cholesky_paths_agree(n, a, random_vec(n, 37 + n),
                                "wide range n=" + std::to_string(n));
    auto ascending = a;
    auto descending = a;
    ASSERT_TRUE(cholesky_factor(n, ascending, simd::KernelPath::scalar));
    ASSERT_TRUE(cholesky_factor_k_descending(n, descending));
    EXPECT_NE(bits(ascending), bits(descending))
        << "n=" << n << ": the wide-range data no longer shows the order";
  }
}

TEST(SimdCholesky, RejectionsMatchAcrossPathsWithTheSameFactorPrefix) {
  for (const std::size_t n : {9ul, 36ul, 100ul}) {
    const auto base = spd_system(n, 79 + n);
    const auto b = random_vec(n, 83 + n);
    for (const std::size_t d : {std::size_t{0}, n / 3, n - 1}) {
      // An indefinite diagonal: both paths reject at column d, with L in
      // the columns before it and A's values from d on.
      auto a = base;
      a[d * n + d] = -1.0f;
      expect_cholesky_paths_agree(n, a, b, "indefinite d=" + std::to_string(d));
      // A NaN strictly below the diagonal poisons the rows that use it.
      a = base;
      const std::size_t i = std::max<std::size_t>(d, 1);
      a[i * n + i - 1] = std::numeric_limits<real_t>::quiet_NaN();
      expect_cholesky_paths_agree(n, a, b, "lower NaN d=" + std::to_string(d));
    }
    // The upper triangle is never read: NaN and inf there change nothing.
    for (const real_t bad : {std::numeric_limits<real_t>::quiet_NaN(),
                             std::numeric_limits<real_t>::infinity()}) {
      auto a = base;
      for (std::size_t i = 0; i + 1 < n; i += 2) {
        a[i * n + n - 1] = bad;
      }
      a[n - 1] = bad;
      expect_cholesky_paths_agree(n, a, b, "upper " + std::to_string(bad));
      auto clean = base;
      std::vector<double> ws(cholesky_workspace_size(n));
      ASSERT_TRUE(cholesky_factor(n, clean, simd::KernelPath::simd, ws));
      ASSERT_TRUE(cholesky_factor(n, a, simd::KernelPath::simd, ws));
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(clean[i * n + j]),
                    std::bit_cast<std::uint32_t>(a[i * n + j]));
        }
      }
    }
  }
}

/// LU factor of `a` on both paths: the same verdict, packed factor and
/// pivots, bit for bit; then the same solution.
void expect_lu_paths_agree(std::size_t n, const std::vector<real_t>& a,
                           const std::string& what) {
  auto lu_scalar = a;
  auto lu_simd = a;
  std::vector<index_t> piv_scalar(n);
  std::vector<index_t> piv_simd(n);
  const bool ok_scalar =
      lu_factor(n, lu_scalar, piv_scalar, simd::KernelPath::scalar);
  const bool ok_simd =
      lu_factor(n, lu_simd, piv_simd, simd::KernelPath::simd);
  ASSERT_EQ(ok_scalar, ok_simd) << what;
  ASSERT_EQ(bits(lu_scalar), bits(lu_simd)) << what;
  ASSERT_EQ(piv_scalar, piv_simd) << what;
}

TEST(SimdLu, FactorIsBitwiseIdenticalAcrossPaths) {
  const auto r = hermitian_fixture(3, 200, 89);
  for (const std::size_t n : kExactSizes) {
    std::vector<real_t> b;
    expect_lu_paths_agree(n, hermitian_system(r, n, 1, b),
                          "hermitian n=" + std::to_string(n));
    // A general matrix: partial pivoting swaps rows at most steps.
    expect_lu_paths_agree(n, random_vec(n * n, 97 + n),
                          "random n=" + std::to_string(n));
    // Singular: a zero column stays exactly zero through every update, so
    // the factor stops at its pivot, partway, on both paths.
    auto a = random_vec(n * n, 101 + n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i * n + n / 2] = 0.0f;
    }
    expect_lu_paths_agree(n, a, "zero column n=" + std::to_string(n));
    if (n >= 2) {
      // Row n-1 repeats row 0: rounding decides whether a pivot comes out
      // zero, and it must decide alike on both paths.
      a = random_vec(n * n, 103 + n);
      std::copy(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(n),
                a.begin() + static_cast<std::ptrdiff_t>((n - 1) * n));
      expect_lu_paths_agree(n, a, "repeated row n=" + std::to_string(n));
    }
  }
}

TEST(SimdLu, RowUpdateContractsToFmaExactlyWhereTheScalarLoopDoes) {
  // l = 1/3 is not a float, so l·u = 3·round(1/3) = 1 − 2^-54 is not a
  // double: a fused a − l·u keeps the 2^-54, an unfused one rounds the
  // product to 1 and returns 0. Row 0 = 3s and row 1 = 1s plant that
  // update in every column of row 1, in the 8-lane body (n = 20: columns
  // 1–16) and the scalar tail (17–19) alike. The other rows are the
  // identity, so row 1 is the next pivot and keeps the planted values: a
  // fused build factors on with a 2^-54 pivot, an unfused one stops there
  // as singular. Whichever form the scalar loop compiles to, the SIMD lanes
  // must match it bit for bit.
  constexpr std::size_t n = 20;
  const double l = 1.0 / 3.0;
  volatile double product = l * 3.0;  // rounded: volatile stops fusion
  const auto unfused = static_cast<real_t>(1.0 - product);
  const auto fused = static_cast<real_t>(std::fma(-l, 3.0, 1.0));
  ASSERT_NE(std::bit_cast<std::uint32_t>(unfused),
            std::bit_cast<std::uint32_t>(fused))
      << "the planted data no longer tells fused from unfused";

  std::vector<real_t> a(n * n, 0.0f);
  for (std::size_t j = 0; j < n; ++j) {
    a[j] = 3.0f;
    a[n + j] = 1.0f;
  }
  for (std::size_t i = 2; i < n; ++i) {
    a[i * n + i] = 1.0f;
  }
  expect_lu_paths_agree(n, a, "contraction pin");
  std::vector<index_t> piv(n);
  const bool ok = lu_factor(n, a, piv, simd::KernelPath::simd);
  const real_t planted = a[n + 1];
  EXPECT_EQ(std::bit_cast<std::uint32_t>(planted),
            std::bit_cast<std::uint32_t>(ok ? fused : unfused));
  for (std::size_t j = 2; j < n; ++j) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a[n + j]),
              std::bit_cast<std::uint32_t>(planted))
        << "j=" << j;
  }
}

TEST(SimdExactSolvers, EnginesAreBitwiseIdenticalAcrossPaths) {
  // solver.path pins get_hermitian and the solve together; both are
  // bitwise, so whole epochs match in factors and SolveStats — on worker
  // chunks and on the device shards of a two-GPU run.
  SyntheticConfig cfg;
  cfg.m = 120;
  cfg.n = 70;
  cfg.nnz = 2400;
  cfg.seed = 107;
  const auto data = generate_synthetic(cfg);
  for (const SolverKind kind : {SolverKind::CholeskyFp32, SolverKind::LuFp32}) {
    for (const int gpus : {0, 2}) {
      AlsOptions options;
      options.f = 20;
      options.lambda = 0.05f;
      options.workers = 2;
      options.solver.kind = kind;
      AlsOptions scalar_options = options;
      scalar_options.solver.path = simd::KernelPath::scalar;
      AlsOptions simd_options = options;
      simd_options.solver.path = simd::KernelPath::simd;
      const auto run = [&](const AlsOptions& o) {
        std::unique_ptr<AlsEngine> engine;
        if (gpus > 0) {
          engine = std::make_unique<MultiGpuAls>(data.ratings, o, gpus);
        } else {
          engine = std::make_unique<AlsEngine>(data.ratings, o);
        }
        engine->run_epoch();
        engine->run_epoch();
        return engine;
      };
      const auto scalar = run(scalar_options);
      const auto vector = run(simd_options);
      const std::string what = std::string(to_string(kind)) +
                               " gpus=" + std::to_string(gpus);
      EXPECT_EQ(scalar->solve_stats(), vector->solve_stats()) << what;
      EXPECT_GT(vector->solve_stats().systems, 0u) << what;
      for (const auto pick : {&AlsEngine::user_factors,
                              &AlsEngine::item_factors}) {
        const Matrix& ms = ((*scalar).*pick)();
        const Matrix& mv = ((*vector).*pick)();
        ASSERT_EQ(ms.rows(), mv.rows());
        for (std::size_t i = 0; i < ms.rows(); ++i) {
          ASSERT_EQ(bits(ms.row(i)), bits(mv.row(i)))
              << what << " row " << i;
        }
      }
    }
  }
}

// ---------- nnz-balanced scheduling ----------

TEST(NnzSchedule, BoundsBalanceSkewedRows) {
  // Row 0 holds half of all nnz; remaining rows are uniform.
  RatingsCoo coo(64, 600);
  Rng rng(71);
  for (index_t v = 0; v < 300; ++v) {
    coo.add(0, v, real_t{1});
  }
  for (index_t u = 1; u < 64; ++u) {
    for (int k = 0; k < 5; ++k) {
      coo.add(u, static_cast<index_t>(rng.uniform_index(600)), real_t{1});
    }
  }
  coo.sort_and_dedup();
  const auto csr = CsrMatrix::from_coo(coo);
  const auto bounds = nnz_balanced_bounds(csr, 8);

  ASSERT_GE(bounds.size(), 3u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), static_cast<std::size_t>(csr.rows()));
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);  // strictly ascending, no empties
  }
  // The heavy row must sit alone in its chunk: no boundary may lump it with
  // a meaningful share of the remaining rows.
  EXPECT_EQ(bounds[1], 1u);
  // Chunks after the heavy one each hold roughly total/8 nnz.
  const auto& ptr = csr.row_ptr();
  const double share =
      static_cast<double>(ptr[csr.rows()]) / 8.0;
  for (std::size_t i = 1; i + 1 < bounds.size(); ++i) {
    const auto chunk_nnz =
        static_cast<double>(ptr[bounds[i + 1]] - ptr[bounds[i]]);
    EXPECT_LE(chunk_nnz, 2.0 * share);
  }
}

TEST(NnzSchedule, GuidedAndStaticSchedulesProduceIdenticalFactors) {
  // Row updates are self-contained, so the schedule must not affect the
  // result at all — factors are bitwise equal between schedules and worker
  // counts.
  SyntheticConfig cfg;
  cfg.m = 150;
  cfg.n = 80;
  cfg.nnz = 3000;
  cfg.seed = 91;
  const auto data = generate_synthetic(cfg);

  AlsOptions base;
  base.f = 16;
  base.workers = 1;
  base.schedule = AlsSchedule::static_rows;

  AlsOptions guided = base;
  guided.workers = 4;
  guided.schedule = AlsSchedule::nnz_guided;

  AlsEngine serial(data.ratings, base);
  AlsEngine parallel(data.ratings, guided);
  for (int epoch = 0; epoch < 3; ++epoch) {
    serial.run_epoch();
    parallel.run_epoch();
  }
  const auto& xs = serial.user_factors();
  const auto& xp = parallel.user_factors();
  ASSERT_EQ(xs.rows(), xp.rows());
  for (std::size_t i = 0; i < xs.rows(); ++i) {
    for (std::size_t k = 0; k < xs.cols(); ++k) {
      ASSERT_EQ(xs(i, k), xp(i, k)) << "factor divergence at " << i;
    }
  }
}

}  // namespace
}  // namespace cumf
