#include "baselines/bidmach_als.hpp"

namespace cumf {

double bidmach_hermitian_flops(const gpusim::DeviceSpec& dev) {
  // 40 GFLOPS measured on the Maxwell Titan X (7 TFLOPS peak) → 0.57% of
  // peak; the generic kernel's inefficiency tracks the device's peak.
  constexpr double kBidmachFractionOfPeak = 40.0e9 / 7.0e12;
  return dev.peak_flops * kBidmachFractionOfPeak;
}

}  // namespace cumf
