// CPU implicit-MF baselines: `implicit` (Ben Frederickson) and QMF (Quora),
// the two open-source libraries of the paper's §V-F comparison.
//
// Both implement Hu-Koren-Volinsky ALS on the CPU; `implicit` uses the Gram
// trick with a CG inner solver on multiple threads, QMF solves exactly with
// Cholesky and parallelizes more coarsely. The paper reports per-iteration
// times of 90 s (implicit) and 360 s (QMF) against cuMF-ALS's 2.2 s on
// Netflix-implicit. Functionally both reduce to ImplicitAlsEngine, so only
// their per-iteration times are modelled, from the host model.
#pragma once

#include "core/implicit_als.hpp"
#include "gpusim/device.hpp"

namespace cumf {

enum class ImplicitCpuFlavor {
  ImplicitLib,  ///< github.com/benfred/implicit: Gram trick + CG, OpenMP
  Qmf,          ///< github.com/quora/qmf: exact Cholesky per row
};

/// Modelled seconds per implicit-ALS iteration on the CPU host for a
/// dataset of the given shape.
double implicit_cpu_iteration_seconds(ImplicitCpuFlavor flavor,
                                      const gpusim::HostSpec& host, double m,
                                      double n, double nnz, int f);

/// Simulated seconds per implicit-ALS iteration for cuMF-ALS on `dev`.
double implicit_gpu_iteration_seconds(const gpusim::DeviceSpec& dev,
                                      double m, double n, double nnz, int f,
                                      std::uint32_t cg_fs);

}  // namespace cumf
