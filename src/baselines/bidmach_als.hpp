// BIDMach-style ALS (Canny et al., IEEE BigData'15; paper §V-C / §VI-B).
//
// BIDMach builds ALS from *generic* sparse-matrix primitives: A_u is formed
// with a general SpMM-like kernel that is not specialized for the Hermitian
// structure, no symmetry exploitation, no register tiling. The paper reports
// its ALS kernel running at ~40 GFLOPS — an order of magnitude below
// cuMF-ALS — and failing to reach the acceptable RMSE, so only the kernel
// throughput is reproduced (bench_fig7 prints it beside cuMF-ALS).
#pragma once

#include "gpusim/device.hpp"

namespace cumf {

/// Modelled sustained throughput of BIDMach's generic ALS kernel on `dev`.
/// Calibrated to the paper's measurement (≈40 GFLOPS on Maxwell) and scaled
/// across devices by peak-FLOPS ratio.
double bidmach_hermitian_flops(const gpusim::DeviceSpec& dev);

}  // namespace cumf
