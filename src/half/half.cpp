#include "half/half.hpp"

#include <bit>

namespace cumf {

namespace {
constexpr std::uint16_t kSignMask16 = 0x8000;
constexpr std::uint16_t kExpMask16 = 0x7C00;
constexpr std::uint16_t kFracMask16 = 0x03FF;
}  // namespace

std::uint16_t half::from_float(float value) noexcept {
  const std::uint32_t f = std::bit_cast<std::uint32_t>(value);
  const std::uint16_t sign = static_cast<std::uint16_t>((f >> 16) & 0x8000u);
  const std::uint32_t exp32 = (f >> 23) & 0xFFu;
  std::uint32_t frac32 = f & 0x007FFFFFu;

  if (exp32 == 0xFF) {  // Inf or NaN
    if (frac32 != 0) {
      // Preserve NaN-ness; set the quiet bit, keep top payload bits.
      return static_cast<std::uint16_t>(sign | 0x7E00u | (frac32 >> 13));
    }
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }

  // Unbiased exponent of the float.
  const int e = static_cast<int>(exp32) - 127;

  if (e > 15) {  // overflows half range → infinity
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }

  if (e >= -14) {  // normal half
    // 13 fraction bits are discarded; round to nearest, ties to even.
    std::uint32_t mantissa = frac32;
    std::uint32_t half_bits =
        (static_cast<std::uint32_t>(e + 15) << 10) | (mantissa >> 13);
    const std::uint32_t round_bits = mantissa & 0x1FFFu;
    if (round_bits > 0x1000u ||
        (round_bits == 0x1000u && (half_bits & 1u))) {
      ++half_bits;  // may carry into the exponent — that is correct rounding
    }
    return static_cast<std::uint16_t>(sign | half_bits);
  }

  if (e >= -25) {  // subnormal half (or rounds up to the smallest normal)
    // Implicit leading 1 becomes explicit; shift right by the deficit.
    std::uint32_t mantissa = frac32 | 0x00800000u;
    const int shift = -e - 14 + 13;  // total right-shift to half's 10 bits
    std::uint32_t half_frac = mantissa >> shift;
    const std::uint32_t rem = mantissa & ((1u << shift) - 1u);
    const std::uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_frac & 1u))) {
      ++half_frac;  // may round up to min normal — still correct
    }
    return static_cast<std::uint16_t>(sign | half_frac);
  }

  // Underflows to (signed) zero.
  return sign;
}

float half::to_float(std::uint16_t bits) noexcept {
  const std::uint32_t sign = static_cast<std::uint32_t>(bits & kSignMask16)
                             << 16;
  const std::uint32_t exp16 = (bits & kExpMask16) >> 10;
  std::uint32_t frac16 = bits & kFracMask16;

  std::uint32_t f;
  if (exp16 == 0x1F) {  // Inf / NaN
    f = sign | 0x7F800000u | (frac16 << 13);
  } else if (exp16 != 0) {  // normal
    f = sign | ((exp16 + 112u) << 23) | (frac16 << 13);
  } else if (frac16 != 0) {  // subnormal: normalize
    int e = -1;
    do {
      ++e;
      frac16 <<= 1;
    } while ((frac16 & 0x0400u) == 0);
    f = sign | ((113u - static_cast<std::uint32_t>(e) - 1u) << 23) |
        ((frac16 & kFracMask16) << 13);
  } else {  // zero
    f = sign;
  }
  return std::bit_cast<float>(f);
}

}  // namespace cumf
