// Vectorized FP16 ⇄ FP32 conversion for the hot paths.
//
// The CG-FP16 solver rounds its f² system through binary16 once per solve,
// the fp16_staging mode of get_hermitian rounds every staged θ element, and
// the half-storage CG the tests hold CG-FP16 to reads f² halves per matvec;
// this header provides the 8-wide conversions they use, each bitwise equal
// to the scalar `half` class.
//
// Pack and round trip: with F16C (and the vector-extension backend), one
// vcvtps2ph with an immediate round-to-nearest-even packs 8 floats, and
// vcvtph2ps widens the packed halves back. Both are exact, NaN payloads
// included: the pack quiets a NaN and keeps its top payload bits exactly as
// half::from_float does, and a half the pack produced is never signalling,
// so its hardware widening equals half::to_float.
//
// Unpack of arbitrary halves (half_to_float8, the half CG's loads) keeps the
// bit tricks below even with F16C: vcvtph2ps quiets a signalling-NaN half
// (0x7c01 becomes 0x7fc02000, where half::to_float gives 0x7f802000).
//
// The bit tricks are the classic exponent-rebias algorithms (Giesen,
// "float->half variants"): unpack shifts the half's exponent/mantissa into
// float position and rebias-adds (127−15)<<23, fixing up Inf/NaN with a
// second rebias and subnormals with an exact magic-number subtraction; pack
// uses the reverse rebias with an explicit round-to-nearest-even increment
// and a magic-addition for results that land in the subnormal half range.
// They are the pack and round trip wherever F16C is absent. The differential
// tests check every form bitwise against the scalar `half` class over every
// 16-bit pattern (unpack), over random, boundary and odd-stride sweeps of
// float patterns (pack and round trip), and over the overflow verdict.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "half/half.hpp"
#include "simd/vec.hpp"

#if CUMF_SIMD_VEXT && defined(__F16C__)
#define CUMF_HALF_F16C 1
#else
#define CUMF_HALF_F16C 0
#endif

namespace cumf {

/// Widens 8 half bit patterns (the low 16 bits of each lane) to floats with
/// the bit tricks.
inline simd::vf8 half_unpack_bits(simd::vu8 h) noexcept {
  using simd::vu8;
  const vu8 sign = (h & vu8::broadcast(0x8000u)) << 16;
  vu8 o = (h & vu8::broadcast(0x7FFFu)) << 13;
  const vu8 exp = o & vu8::broadcast(0x0F800000u);  // 0x7C00 << 13

  // Rebias 15 → 127; Inf/NaN need the exponent field topped out, which is
  // exactly one more rebias of the same size ((255−31)−(127−15) = 112).
  o = o + vu8::broadcast(0x38000000u);
  const vu8 infnan = vu8::eq(exp, vu8::broadcast(0x0F800000u));
  o = o + (infnan & vu8::broadcast(0x38000000u));

  // Zero/subnormal: bump the exponent to 2^-14 and subtract 2^-14; the
  // subtraction is Sterbenz-exact, yielding frac·2^-24 (and ±0 for zero).
  const vu8 tiny = vu8::eq(exp, vu8::broadcast(0u));
  const simd::vf8 sub_f =
      (o + vu8::broadcast(0x00800000u)).as_float() -
      simd::vf8::broadcast(0x1.0p-14f);
  o = vu8::select(tiny, vu8::from_float(sub_f), o);

  return (o | sign).as_float();
}

/// Packs 8 floats to half bit patterns (in the low 16 bits of each lane)
/// with round-to-nearest-even, with the bit tricks.
inline simd::vu8 half_pack_bits(simd::vf8 x) noexcept {
  using simd::vu8;
  vu8 u = vu8::from_float(x);
  const vu8 sign16 = (u & vu8::broadcast(0x80000000u)) >> 16;
  u = u & vu8::broadcast(0x7FFFFFFFu);

  // Inf/NaN/overflow (|x| ≥ 2^16): Inf and values that round past the half
  // range become 0x7C00; NaN keeps its quiet bit and top payload bits,
  // matching half::from_float.
  const vu8 infnan = vu8::ge(u, vu8::broadcast(0x47800000u));
  const vu8 nan = vu8::gt(u, vu8::broadcast(0x7F800000u));
  const vu8 payload =
      vu8::broadcast(0x0200u) | ((u & vu8::broadcast(0x007FFFFFu)) >> 13);
  const vu8 o_infnan = vu8::broadcast(0x7C00u) | (nan & payload);

  // Subnormal-or-zero results (|x| < 2^-14): adding 0.5f aligns the result
  // in the low mantissa bits with correct RNE; subtracting the magic's bit
  // pattern leaves the half's subnormal bits.
  const vu8 tiny = vu8::gt(vu8::broadcast(113u << 23), u);
  const vu8 magic = vu8::broadcast(126u << 23);  // 0.5f
  const vu8 o_tiny =
      vu8::from_float(u.as_float() + magic.as_float()) - magic;

  // Normal results: rebias 127 → 15 and round to nearest even on bit 13
  // (add 0xFFF plus the pre-round odd bit, then truncate).
  const vu8 mant_odd = (u >> 13) & vu8::broadcast(1u);
  vu8 o_norm = u - vu8::broadcast(0x38000000u);  // (127-15) << 23
  o_norm = o_norm + vu8::broadcast(0x0FFFu) + mant_odd;
  o_norm = o_norm >> 13;

  const vu8 o = vu8::select(infnan, o_infnan, vu8::select(tiny, o_tiny, o_norm));
  return o | sign16;
}

/// All-ones in the lanes whose finite x rounds past the half range to ±inf
/// (65520 ≤ |x| < inf); ±inf and NaN are not overflows.
inline simd::vu8 half_overflow_mask(simd::vf8 x) noexcept {
  using simd::vu8;
  constexpr std::uint32_t kFirst = 0x477FF000u;  // 65520, the tie to inf
  constexpr std::uint32_t kInf = 0x7F800000u;
  const vu8 mag = vu8::from_float(x) & vu8::broadcast(0x7FFFFFFFu);
  // kFirst ≤ mag < kInf as one unsigned compare.
  return vu8::gt(vu8::broadcast(kInf - kFirst), mag - vu8::broadcast(kFirst));
}

/// Converts 8 packed half-bit patterns to 8 floats.
inline simd::vf8 half_to_float8(const half* src) noexcept {
  // half is a single uint16_t; reinterpret the array as raw bit patterns.
  return half_unpack_bits(
      simd::vu8::load_u16(reinterpret_cast<const std::uint16_t*>(src)));
}

/// Converts 8 packed floats to 8 half-bit patterns with round-to-nearest-
/// even, writing the raw uint16 patterns to `dst`.
inline void float_to_half8(const float* src, std::uint16_t* dst) noexcept {
#if CUMF_HALF_F16C
  const __m128i h =
      _mm256_cvtps_ph(_mm256_loadu_ps(src), _MM_FROUND_TO_NEAREST_INT);
  std::memcpy(dst, &h, sizeof(h));
#else
  half_pack_bits(simd::vf8::load(src)).store_u16(dst);
#endif
}

/// x rounded to binary16 (nearest even) and widened back to float.
inline simd::vf8 round_through_half8(simd::vf8 x) noexcept {
#if CUMF_HALF_F16C
  const __m128i h = _mm256_cvtps_ph(std::bit_cast<__m256>(x.v),
                                    _MM_FROUND_TO_NEAREST_INT);
  return {std::bit_cast<simd::f32x8>(_mm256_cvtph_ps(h))};
#else
  return half_unpack_bits(half_pack_bits(x));
#endif
}

/// Widens `n` halves into floats. The SIMD path and the scalar path are
/// bitwise identical (conversion is exact), so this dispatches freely.
inline void half_to_float_n(const half* src, float* dst, std::size_t n,
                            simd::KernelPath path) noexcept {
  // The bulk helpers start their scalar tail at the 8-lane body's bound:
  // with a tail that resumed the body's counter, GCC 12 inlining a call
  // with a compile-time n warned -Waggressive-loop-optimizations.
  std::size_t body = 0;
  if (path == simd::KernelPath::simd) {
    body = n - n % 8;
    for (std::size_t i = 0; i < body; i += 8) {
      half_to_float8(src + i).store(dst + i);
    }
  }
  for (std::size_t i = body; i < n; ++i) {
    dst[i] = static_cast<float>(src[i]);
  }
}

/// Rounds `n` floats through binary16 and back: the CG-FP16 copy of A, and
/// the fp16_staging transform (Tensor-Core input precision, FP32
/// accumulate). Returns true when a finite element overflowed the half
/// range to ±inf — the CG-FP16 pack check, computed in the same pass.
inline bool round_through_half_n(const float* src, float* dst, std::size_t n,
                                 simd::KernelPath path) noexcept {
  std::size_t body = 0;
  bool overflow = false;
  if (path == simd::KernelPath::simd) {
    body = n - n % 8;
    simd::vu8 over = simd::vu8::broadcast(0u);
    for (std::size_t i = 0; i < body; i += 8) {
      const simd::vf8 x = simd::vf8::load(src + i);
      round_through_half8(x).store(dst + i);
      over = over | half_overflow_mask(x);
    }
    overflow = over.any();
  }
  for (std::size_t i = body; i < n; ++i) {
    dst[i] = static_cast<float>(half(src[i]));
    overflow = overflow || (std::isinf(dst[i]) && std::isfinite(src[i]));
  }
  return overflow;
}

/// Narrows `n` floats to half storage (the CG-FP16 A conversion).
inline void float_to_half_n(const float* src, half* dst, std::size_t n,
                            simd::KernelPath path) noexcept {
  std::size_t body = 0;
  if (path == simd::KernelPath::simd) {
    body = n - n % 8;
    for (std::size_t i = 0; i < body; i += 8) {
      float_to_half8(src + i, reinterpret_cast<std::uint16_t*>(dst + i));
    }
  }
  for (std::size_t i = body; i < n; ++i) {
    dst[i] = half(src[i]);
  }
}

}  // namespace cumf
