// Software IEEE-754 binary16 ("half precision").
//
// The paper stores the Hermitian matrices A_u in FP16 inside the CG solver to
// halve memory traffic (Solution 4, §IV-B). We have no GPU half-precision
// hardware, so this type reproduces the numerics in software: conversions use
// round-to-nearest-even and subnormals are handled exactly. It is a storage
// format only — arithmetic widens to float — the semantics of CUDA's __half
// when used as a storage format with float accumulation.
#pragma once

#include <cstdint>

namespace cumf {

class half {
 public:
  constexpr half() noexcept = default;

  /// Converts from float with round-to-nearest-even.
  explicit half(float value) noexcept : bits_(from_float(value)) {}

  /// Reinterprets raw binary16 bits.
  static constexpr half from_bits(std::uint16_t bits) noexcept {
    half h;
    h.bits_ = bits;
    return h;
  }

  std::uint16_t bits() const noexcept { return bits_; }

  /// Widening conversion; exact for every finite half.
  explicit operator float() const noexcept { return to_float(bits_); }

  /// Largest finite half: 65504.
  static half max() noexcept { return from_bits(0x7BFF); }
  /// Smallest positive normal half: 2^-14.
  static half min_normal() noexcept { return from_bits(0x0400); }
  /// Smallest positive subnormal half: 2^-24.
  static half denorm_min() noexcept { return from_bits(0x0001); }
  /// Machine epsilon for half: 2^-10.
  static half epsilon() noexcept { return from_bits(0x1400); }

  static std::uint16_t from_float(float value) noexcept;
  static float to_float(std::uint16_t bits) noexcept;

 private:
  std::uint16_t bits_ = 0;
};

}  // namespace cumf
