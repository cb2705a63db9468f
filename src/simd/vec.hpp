// Portable fixed-width SIMD layer for the hot-path kernels.
//
// The paper's kernels (get_hermitian tiling, the CG solve) live or die by
// data-parallel arithmetic; on the CPU reproduction that means vector
// registers. This header wraps GCC/Clang vector extensions behind small
// fixed-width value types — vf8 (8 × float) for elementwise work, vf16
// (16 × float) for the register-resident get_hermitian accumulators, vd8
// (8 × double) for reduction accumulators, vu8 (8 × uint32) for the bit
// manipulation in the FP16 conversions, plus an 8×8 vf8 transpose — with a
// scalar-array fallback selected at configure time (CMake option CUMF_SIMD,
// which defines CUMF_SIMD_ENABLED).
//
// Numerical contract, relied on by the differential tests:
//  - elementwise ops (add/mul/select/convert) are bitwise identical to the
//    scalar loops they replace — every lane performs the same IEEE op;
//  - reductions (hsum after lane-parallel accumulation) reassociate the sum,
//    so results are ULP-close, not bitwise equal, to a sequential loop.
//    Products of two floats widened to double are exact (24+24 ≤ 53 bits),
//    so lane accumulation in vd8 only reorders exactly-representable terms;
//  - vd8 lane arithmetic (− × ÷, narrow) is the scalar double op per lane.
//    `acc - l * x` contracts to a fused multiply-add exactly where the
//    scalar expression does (any target with FMA, -ffp-contract=fast), so
//    a kernel that keeps each element's operation order stays bitwise.
//
// Both kernel variants (scalar and SIMD) are always compiled; KernelPath
// selects per call, and kDefaultPath reflects the configure-time choice.
// With CUMF_SIMD=OFF the "simd" path still runs — through the scalar-array
// fallback below — so differential tests are meaningful in every config.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__AVX__)
#include <immintrin.h>
#endif

namespace cumf::simd {

/// Which implementation of a dual-path kernel to run.
enum class KernelPath { scalar, simd };

const char* to_string(KernelPath path) noexcept;

#if defined(CUMF_SIMD_ENABLED) && CUMF_SIMD_ENABLED && \
    (defined(__GNUC__) || defined(__clang__))
#define CUMF_SIMD_VEXT 1
#else
#define CUMF_SIMD_VEXT 0
#endif

/// Fully unrolls the loop that follows (a constant trip count), so arrays of
/// register-blocked accumulators are kept in registers rather than memory.
#if defined(__clang__)
#define CUMF_UNROLL _Pragma("unroll")
#elif defined(__GNUC__)
#define CUMF_UNROLL _Pragma("GCC unroll 16")
#else
#define CUMF_UNROLL
#endif

/// True when the vector-extension backend is compiled in.
inline constexpr bool kSimdCompiled = CUMF_SIMD_VEXT != 0;

// 64-byte vectors (vf16, vd8) are single registers only with AVX-512;
// elsewhere they are built from 32-byte halves.
#if CUMF_SIMD_VEXT && defined(__AVX512F__)
#define CUMF_SIMD_WIDE 1
#else
#define CUMF_SIMD_WIDE 0
#endif

/// True when vf16 and vd8 each fill one 512-bit register. Kernels size
/// their register blocks by it: the vector register file holds twice as
/// many of them as on targets that split them in two.
inline constexpr bool kWideVectors = CUMF_SIMD_WIDE != 0;

/// What production call sites use when the caller has no opinion.
inline constexpr KernelPath kDefaultPath =
    kSimdCompiled ? KernelPath::simd : KernelPath::scalar;

/// Human-readable backend tag for bench/report output.
const char* backend_name() noexcept;

#if CUMF_SIMD_VEXT

using f32x8 = float __attribute__((vector_size(32)));
using u32x8 = std::uint32_t __attribute__((vector_size(32)));
using i32x8 = std::int32_t __attribute__((vector_size(32)));

/// 8 packed floats. Loads/stores go through memcpy, so unaligned pointers
/// are fine (compiles to movups / vmovups).
struct vf8 {
  static constexpr std::size_t kLanes = 8;
  f32x8 v;

  static vf8 zero() noexcept { return {f32x8{}}; }
  static vf8 broadcast(float x) noexcept {
    return {f32x8{x, x, x, x, x, x, x, x}};
  }
  static vf8 load(const float* p) noexcept {
    vf8 r;
    std::memcpy(&r.v, p, sizeof(r.v));
    return r;
  }
  void store(float* p) const noexcept { std::memcpy(p, &v, sizeof(v)); }

  friend vf8 operator+(vf8 a, vf8 b) noexcept { return {a.v + b.v}; }
  friend vf8 operator-(vf8 a, vf8 b) noexcept { return {a.v - b.v}; }
  friend vf8 operator*(vf8 a, vf8 b) noexcept { return {a.v * b.v}; }
  vf8& operator+=(vf8 o) noexcept {
    v += o.v;
    return *this;
  }

  float lane(std::size_t i) const noexcept { return v[i]; }
};

#if CUMF_SIMD_WIDE

using f32x16 = float __attribute__((vector_size(64)));
using f64x8 = double __attribute__((vector_size(64)));

/// 16 packed floats in one AVX-512 register. Same elementwise contract as
/// vf8; get_hermitian keeps a block of A_u rows in these across a whole
/// staged batch.
struct vf16 {
  static constexpr std::size_t kLanes = 16;
  f32x16 v;

  static vf16 broadcast(float x) noexcept {
    return {f32x16{x, x, x, x, x, x, x, x, x, x, x, x, x, x, x, x}};
  }
  static vf16 load(const float* p) noexcept {
    vf16 r;
    std::memcpy(&r.v, p, sizeof(r.v));
    return r;
  }
  void store(float* p) const noexcept { std::memcpy(p, &v, sizeof(v)); }

  friend vf16 operator+(vf16 a, vf16 b) noexcept { return {a.v + b.v}; }
  friend vf16 operator*(vf16 a, vf16 b) noexcept { return {a.v * b.v}; }
  vf16& operator+=(vf16 o) noexcept {
    v += o.v;
    return *this;
  }

  float lane(std::size_t i) const noexcept { return v[i]; }
};

/// 8 packed doubles — reduction accumulator. Lane l sums the exact
/// products of lane l of each 8-float chunk, in chunk order; hsum() then
/// reduces ((v0+v2)+(v1+v3)) + ((v4+v6)+(v5+v7)). Keep that order: the
/// dot, gemv and CG results — and every trained factor — depend on it
/// bit for bit. The exact solvers use the lanes as 8 independent scalar
/// accumulators (load, − × ÷, narrow), one matrix element each.
struct vd8 {
  static constexpr std::size_t kLanes = 8;
  f64x8 v;

  static vd8 zero() noexcept { return {f64x8{}}; }
  static vd8 broadcast(double x) noexcept {
    return {f64x8{x, x, x, x, x, x, x, x}};
  }
  static vd8 load(const double* p) noexcept {
    vd8 r;
    std::memcpy(&r.v, p, sizeof(r.v));
    return r;
  }
  void store(double* p) const noexcept { std::memcpy(p, &v, sizeof(v)); }
  /// All 8 lanes widened to double (exact — every float is a double).
  /// Spelled as the intrinsic: GCC 12 lowers the generic convertvector to
  /// two half-width conversions plus an extract and an insert where this
  /// is one vcvtps2pd. (The all-lanes mask form, because the unmasked one
  /// trips GCC 12's -Wmaybe-uninitialized.)
  static vd8 widen(vf8 a) noexcept {
    return {std::bit_cast<f64x8>(_mm512_mask_cvtps_pd(
        _mm512_setzero_pd(), 0xFF, std::bit_cast<__m256>(a.v)))};
  }
  /// All 8 lanes rounded to float, as static_cast<float> rounds each.
  vf8 narrow() const noexcept { return {__builtin_convertvector(v, f32x8)}; }

  friend vd8 operator-(vd8 a, vd8 b) noexcept { return {a.v - b.v}; }
  friend vd8 operator*(vd8 a, vd8 b) noexcept { return {a.v * b.v}; }
  friend vd8 operator/(vd8 a, vd8 b) noexcept { return {a.v / b.v}; }
  /// acc += widen(a) * widen(b), one exact product per lane.
  void mul_acc(vf8 a, vf8 b) noexcept { v += widen(a).v * widen(b).v; }
  /// Same with a pre-widened left operand — hoists a's conversion out of
  /// loops that reuse it across many right operands (e.g. gemv rows).
  void mul_acc(vd8 a_wide, vf8 b) noexcept { v += a_wide.v * widen(b).v; }

  /// ((v0+v2)+(v1+v3)) + ((v4+v6)+(v5+v7)).
  double hsum() const noexcept {
    return ((v[0] + v[2]) + (v[1] + v[3])) + ((v[4] + v[6]) + (v[5] + v[7]));
  }
};

#else  // no 512-bit registers: 64-byte generic vectors would live in memory

using f64x4 = double __attribute__((vector_size(32)));

/// vf16 as two 8-lane halves (lanes 0–7 in lo), each op applied per half —
/// the same per-lane arithmetic as the AVX-512 form.
struct vf16 {
  static constexpr std::size_t kLanes = 16;
  vf8 lo;
  vf8 hi;

  static vf16 broadcast(float x) noexcept {
    return {vf8::broadcast(x), vf8::broadcast(x)};
  }
  static vf16 load(const float* p) noexcept {
    return {vf8::load(p), vf8::load(p + 8)};
  }
  void store(float* p) const noexcept {
    lo.store(p);
    hi.store(p + 8);
  }

  friend vf16 operator+(vf16 a, vf16 b) noexcept {
    return {a.lo + b.lo, a.hi + b.hi};
  }
  friend vf16 operator*(vf16 a, vf16 b) noexcept {
    return {a.lo * b.lo, a.hi * b.hi};
  }
  vf16& operator+=(vf16 o) noexcept {
    lo += o.lo;
    hi += o.hi;
    return *this;
  }

  float lane(std::size_t i) const noexcept {
    return i < 8 ? lo.lane(i) : hi.lane(i - 8);
  }
};

/// vd8 as two 4-double halves (lanes 0–3 in lo) with the same per-lane
/// products and the same hsum() order as the AVX-512 form.
struct vd8 {
  static constexpr std::size_t kLanes = 8;
  f64x4 lo;
  f64x4 hi;

  static vd8 zero() noexcept { return {f64x4{}, f64x4{}}; }
  static vd8 broadcast(double x) noexcept {
    return {f64x4{x, x, x, x}, f64x4{x, x, x, x}};
  }
  static vd8 load(const double* p) noexcept {
    vd8 r;
    std::memcpy(&r.lo, p, sizeof(r.lo));
    std::memcpy(&r.hi, p + 4, sizeof(r.hi));
    return r;
  }
  void store(double* p) const noexcept {
    std::memcpy(p, &lo, sizeof(lo));
    std::memcpy(p + 4, &hi, sizeof(hi));
  }
  static vd8 widen(vf8 a) noexcept {
#if defined(__AVX__)
    // Two vcvtps2pd, as in the AVX-512 form: GCC 12 lowers each generic
    // 4-lane conversion to two 2-lane ones plus shuffles.
    const auto x = std::bit_cast<__m256>(a.v);
    return {std::bit_cast<f64x4>(_mm256_cvtps_pd(_mm256_castps256_ps128(x))),
            std::bit_cast<f64x4>(
                _mm256_cvtps_pd(_mm256_extractf128_ps(x, 1)))};
#else
    return {__builtin_convertvector(
                __builtin_shufflevector(a.v, a.v, 0, 1, 2, 3), f64x4),
            __builtin_convertvector(
                __builtin_shufflevector(a.v, a.v, 4, 5, 6, 7), f64x4)};
#endif
  }
  vf8 narrow() const noexcept {
    using f32x4 = float __attribute__((vector_size(16)));
    const f32x4 l = __builtin_convertvector(lo, f32x4);
    const f32x4 h = __builtin_convertvector(hi, f32x4);
    return {__builtin_shufflevector(l, h, 0, 1, 2, 3, 4, 5, 6, 7)};
  }

  friend vd8 operator-(vd8 a, vd8 b) noexcept {
    return {a.lo - b.lo, a.hi - b.hi};
  }
  friend vd8 operator*(vd8 a, vd8 b) noexcept {
    return {a.lo * b.lo, a.hi * b.hi};
  }
  friend vd8 operator/(vd8 a, vd8 b) noexcept {
    return {a.lo / b.lo, a.hi / b.hi};
  }
  void mul_acc(vf8 a, vf8 b) noexcept { mul_acc(widen(a), b); }
  void mul_acc(vd8 a_wide, vf8 b) noexcept {
    const vd8 b_wide = widen(b);
    lo += a_wide.lo * b_wide.lo;
    hi += a_wide.hi * b_wide.hi;
  }

  double hsum() const noexcept {
    return ((lo[0] + lo[2]) + (lo[1] + lo[3])) +
           ((hi[0] + hi[2]) + (hi[1] + hi[3]));
  }
};

#endif  // CUMF_SIMD_WIDE

/// 8 packed uint32 — bit manipulation for the FP16 unpack/pack.
struct vu8 {
  static constexpr std::size_t kLanes = 8;
  u32x8 v;

  static vu8 broadcast(std::uint32_t x) noexcept {
    return {u32x8{x, x, x, x, x, x, x, x}};
  }
  /// Widening load of 8 consecutive uint16 values.
  static vu8 load_u16(const std::uint16_t* p) noexcept {
#if defined(__AVX2__)
    // One vpmovzxwd: GCC 12 lowers the generic convertvector to two
    // half-width ones plus a shift and an insert.
    __m128i narrow;
    std::memcpy(&narrow, p, sizeof(narrow));
    return {std::bit_cast<u32x8>(_mm256_cvtepu16_epi32(narrow))};
#else
    using u16x8 = std::uint16_t __attribute__((vector_size(16)));
    u16x8 narrow;
    std::memcpy(&narrow, p, sizeof(narrow));
    return {__builtin_convertvector(narrow, u32x8)};
#endif
  }
  /// Narrowing store of the low 16 bits of each lane.
  void store_u16(std::uint16_t* p) const noexcept {
    using u16x8 = std::uint16_t __attribute__((vector_size(16)));
    const u16x8 narrow = __builtin_convertvector(v, u16x8);
    std::memcpy(p, &narrow, sizeof(narrow));
  }

  friend vu8 operator&(vu8 a, vu8 b) noexcept { return {a.v & b.v}; }
  friend vu8 operator|(vu8 a, vu8 b) noexcept { return {a.v | b.v}; }
  friend vu8 operator+(vu8 a, vu8 b) noexcept { return {a.v + b.v}; }
  friend vu8 operator-(vu8 a, vu8 b) noexcept { return {a.v - b.v}; }
  friend vu8 operator<<(vu8 a, int s) noexcept { return {a.v << s}; }
  friend vu8 operator>>(vu8 a, int s) noexcept { return {a.v >> s}; }
  vu8 operator~() const noexcept { return {~v}; }

  /// Lanewise a == b / a >= b / a > b as all-ones / all-zeros masks.
  static vu8 eq(vu8 a, vu8 b) noexcept {
    return {std::bit_cast<u32x8>(a.v == b.v)};
  }
  static vu8 ge(vu8 a, vu8 b) noexcept {
    return {std::bit_cast<u32x8>(a.v >= b.v)};
  }
  static vu8 gt(vu8 a, vu8 b) noexcept {
    return {std::bit_cast<u32x8>(a.v > b.v)};
  }
  /// mask ? a : b, with mask lanes all-ones or all-zeros.
  static vu8 select(vu8 mask, vu8 a, vu8 b) noexcept {
    return {(mask.v & a.v) | (~mask.v & b.v)};
  }

  vf8 as_float() const noexcept { return {std::bit_cast<f32x8>(v)}; }
  static vu8 from_float(vf8 f) noexcept { return {std::bit_cast<u32x8>(f.v)}; }

  /// True when any lane is nonzero (the reduction of an accumulated mask).
  bool any() const noexcept {
    std::uint32_t r = 0;
    for (std::size_t i = 0; i < kLanes; ++i) r |= v[i];
    return r != 0;
  }
};

/// Transposes the 8×8 block held in `rows`: lane c of row r moves to lane r
/// of row c. Pure data movement, so exact; get_hermitian's mirror copies
/// the lower triangle of A onto the upper one a block at a time through it.
/// Three shuffle stages (unpack pairs of rows, then pairs of pairs within
/// each 128-bit half, then swap the halves), 24 shuffles in all.
inline void transpose(vf8 (&rows)[8]) noexcept {
  f32x8 t[8];
  CUMF_UNROLL
  for (std::size_t k = 0; k < 8; k += 2) {  // (a0 b0 a1 b1 | a4 b4 a5 b5)
    t[k] = __builtin_shufflevector(rows[k].v, rows[k + 1].v, 0, 8, 1, 9, 4,
                                   12, 5, 13);
    t[k + 1] = __builtin_shufflevector(rows[k].v, rows[k + 1].v, 2, 10, 3,
                                       11, 6, 14, 7, 15);
  }
  f32x8 q[8];
  CUMF_UNROLL
  for (std::size_t k = 0; k < 8; k += 4) {  // (a0 b0 c0 d0 | a4 b4 c4 d4)
    q[k] = __builtin_shufflevector(t[k], t[k + 2], 0, 1, 8, 9, 4, 5, 12, 13);
    q[k + 1] =
        __builtin_shufflevector(t[k], t[k + 2], 2, 3, 10, 11, 6, 7, 14, 15);
    q[k + 2] =
        __builtin_shufflevector(t[k + 1], t[k + 3], 0, 1, 8, 9, 4, 5, 12, 13);
    q[k + 3] = __builtin_shufflevector(t[k + 1], t[k + 3], 2, 3, 10, 11, 6,
                                       7, 14, 15);
  }
  CUMF_UNROLL
  for (std::size_t c = 0; c < 4; ++c) {
    rows[c].v =
        __builtin_shufflevector(q[c], q[c + 4], 0, 1, 2, 3, 8, 9, 10, 11);
    rows[c + 4].v =
        __builtin_shufflevector(q[c], q[c + 4], 4, 5, 6, 7, 12, 13, 14, 15);
  }
}

#else  // scalar-array fallback: same API, element loops

struct vf8 {
  static constexpr std::size_t kLanes = 8;
  float v[8];

  static vf8 zero() noexcept { return vf8{{0, 0, 0, 0, 0, 0, 0, 0}}; }
  static vf8 broadcast(float x) noexcept {
    return vf8{{x, x, x, x, x, x, x, x}};
  }
  static vf8 load(const float* p) noexcept {
    vf8 r;
    std::memcpy(r.v, p, sizeof(r.v));
    return r;
  }
  void store(float* p) const noexcept { std::memcpy(p, v, sizeof(v)); }

  friend vf8 operator+(vf8 a, vf8 b) noexcept {
    vf8 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  friend vf8 operator-(vf8 a, vf8 b) noexcept {
    vf8 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
  }
  friend vf8 operator*(vf8 a, vf8 b) noexcept {
    vf8 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  vf8& operator+=(vf8 o) noexcept {
    for (std::size_t i = 0; i < kLanes; ++i) v[i] += o.v[i];
    return *this;
  }

  float lane(std::size_t i) const noexcept { return v[i]; }
};

struct vf16 {
  static constexpr std::size_t kLanes = 16;
  float v[16];

  static vf16 broadcast(float x) noexcept {
    vf16 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = x;
    return r;
  }
  static vf16 load(const float* p) noexcept {
    vf16 r;
    std::memcpy(r.v, p, sizeof(r.v));
    return r;
  }
  void store(float* p) const noexcept { std::memcpy(p, v, sizeof(v)); }

  friend vf16 operator+(vf16 a, vf16 b) noexcept {
    vf16 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  friend vf16 operator*(vf16 a, vf16 b) noexcept {
    vf16 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  vf16& operator+=(vf16 o) noexcept {
    for (std::size_t i = 0; i < kLanes; ++i) v[i] += o.v[i];
    return *this;
  }

  float lane(std::size_t i) const noexcept { return v[i]; }
};

/// See the vector-ext backend's vd8 doc.
struct vd8 {
  static constexpr std::size_t kLanes = 8;
  double v[8];

  static vd8 zero() noexcept { return vd8{{0, 0, 0, 0, 0, 0, 0, 0}}; }
  static vd8 broadcast(double x) noexcept {
    return vd8{{x, x, x, x, x, x, x, x}};
  }
  static vd8 load(const double* p) noexcept {
    vd8 r;
    std::memcpy(r.v, p, sizeof(r.v));
    return r;
  }
  void store(double* p) const noexcept { std::memcpy(p, v, sizeof(v)); }
  static vd8 widen(vf8 a) noexcept {
    vd8 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i];
    return r;
  }
  vf8 narrow() const noexcept {
    vf8 r;
    for (std::size_t i = 0; i < kLanes; ++i) {
      r.v[i] = static_cast<float>(v[i]);
    }
    return r;
  }

  friend vd8 operator-(vd8 a, vd8 b) noexcept {
    vd8 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
  }
  friend vd8 operator*(vd8 a, vd8 b) noexcept {
    vd8 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  friend vd8 operator/(vd8 a, vd8 b) noexcept {
    vd8 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] / b.v[i];
    return r;
  }
  void mul_acc(vf8 a, vf8 b) noexcept {
    for (std::size_t i = 0; i < kLanes; ++i) {
      v[i] += static_cast<double>(a.v[i]) * static_cast<double>(b.v[i]);
    }
  }
  void mul_acc(vd8 a_wide, vf8 b) noexcept {
    for (std::size_t i = 0; i < kLanes; ++i) {
      v[i] += a_wide.v[i] * static_cast<double>(b.v[i]);
    }
  }
  double hsum() const noexcept {
    return ((v[0] + v[2]) + (v[1] + v[3])) + ((v[4] + v[6]) + (v[5] + v[7]));
  }
};

struct vu8 {
  static constexpr std::size_t kLanes = 8;
  std::uint32_t v[8];

  static vu8 broadcast(std::uint32_t x) noexcept {
    return vu8{{x, x, x, x, x, x, x, x}};
  }
  static vu8 load_u16(const std::uint16_t* p) noexcept {
    vu8 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = p[i];
    return r;
  }
  void store_u16(std::uint16_t* p) const noexcept {
    for (std::size_t i = 0; i < kLanes; ++i) {
      p[i] = static_cast<std::uint16_t>(v[i]);
    }
  }

#define CUMF_VU8_BINOP(opname, expr)                     \
  friend vu8 opname(vu8 a, vu8 b) noexcept {             \
    vu8 r;                                               \
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = (expr); \
    return r;                                            \
  }
  CUMF_VU8_BINOP(operator&, a.v[i] & b.v[i])
  CUMF_VU8_BINOP(operator|, a.v[i] | b.v[i])
  CUMF_VU8_BINOP(operator+, a.v[i] + b.v[i])
  CUMF_VU8_BINOP(operator-, a.v[i] - b.v[i])
#undef CUMF_VU8_BINOP
  friend vu8 operator<<(vu8 a, int s) noexcept {
    vu8 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] << s;
    return r;
  }
  friend vu8 operator>>(vu8 a, int s) noexcept {
    vu8 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] >> s;
    return r;
  }
  vu8 operator~() const noexcept {
    vu8 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = ~v[i];
    return r;
  }

  static vu8 eq(vu8 a, vu8 b) noexcept {
    vu8 r;
    for (std::size_t i = 0; i < kLanes; ++i) {
      r.v[i] = a.v[i] == b.v[i] ? ~0u : 0u;
    }
    return r;
  }
  static vu8 ge(vu8 a, vu8 b) noexcept {
    vu8 r;
    for (std::size_t i = 0; i < kLanes; ++i) {
      r.v[i] = a.v[i] >= b.v[i] ? ~0u : 0u;
    }
    return r;
  }
  static vu8 gt(vu8 a, vu8 b) noexcept {
    vu8 r;
    for (std::size_t i = 0; i < kLanes; ++i) {
      r.v[i] = a.v[i] > b.v[i] ? ~0u : 0u;
    }
    return r;
  }
  static vu8 select(vu8 mask, vu8 a, vu8 b) noexcept {
    return (mask & a) | (~mask & b);
  }

  vf8 as_float() const noexcept {
    vf8 r;
    for (std::size_t i = 0; i < kLanes; ++i) {
      r.v[i] = std::bit_cast<float>(v[i]);
    }
    return r;
  }
  static vu8 from_float(vf8 f) noexcept {
    vu8 r;
    for (std::size_t i = 0; i < kLanes; ++i) {
      r.v[i] = std::bit_cast<std::uint32_t>(f.v[i]);
    }
    return r;
  }

  bool any() const noexcept {
    std::uint32_t r = 0;
    for (std::size_t i = 0; i < kLanes; ++i) r |= v[i];
    return r != 0;
  }
};

inline void transpose(vf8 (&rows)[8]) noexcept {
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = r + 1; c < 8; ++c) {
      const float t = rows[r].v[c];
      rows[r].v[c] = rows[c].v[r];
      rows[c].v[r] = t;
    }
  }
}

#endif  // CUMF_SIMD_VEXT

}  // namespace cumf::simd
