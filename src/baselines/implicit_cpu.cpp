#include "baselines/implicit_cpu.hpp"

#include "common/check.hpp"
#include "core/als.hpp"
#include "core/kernel_stats.hpp"

namespace cumf {

namespace {
/// Fraction of the host's aggregate FLOP rate each library sustains,
/// calibrated to the paper's §V-F per-iteration numbers (90 s / 360 s on
/// Netflix-implicit against the 40-core host).
double flavor_efficiency(ImplicitCpuFlavor flavor) {
  switch (flavor) {
    case ImplicitCpuFlavor::ImplicitLib:
      return 0.11;  // OpenMP + BLAS inner kernels
    case ImplicitCpuFlavor::Qmf:
      return 0.028;  // coarser parallelism, exact per-row Cholesky
  }
  return 0.1;
}
}  // namespace

double implicit_cpu_iteration_seconds(ImplicitCpuFlavor flavor,
                                      const gpusim::HostSpec& host, double m,
                                      double n, double nnz, int f) {
  CUMF_EXPECTS(host.cores_per_machine > 0, "host needs cores");
  const double ff = f;
  // Gram matrices + per-entry corrections for both half-sweeps.
  double flops = 2.0 * (nnz * ff * ff + (m + n) * ff * ff);
  if (flavor == ImplicitCpuFlavor::Qmf) {
    flops += (m + n) * (1.0 / 3.0) * ff * ff * ff;  // exact Cholesky
  } else {
    flops += (m + n) * 3.0 * 2.0 * ff * ff;  // 3 CG steps
  }
  const double rate = host.machines * host.cores_per_machine *
                      host.flops_per_core * host.parallel_efficiency *
                      flavor_efficiency(flavor);
  return flops / rate;
}

double implicit_gpu_iteration_seconds(const gpusim::DeviceSpec& dev,
                                      double m, double n, double nnz, int f,
                                      std::uint32_t cg_fs) {
  // The implicit update is the explicit kernel plus the shared Gram matrix
  // (a dense SYRK, effectively free at cuMF's FLOPS) — model it as the
  // explicit ALS epoch with the CG solver.
  AlsKernelConfig config;
  config.f = f;
  config.tile = pick_tile(static_cast<std::size_t>(f), 10);
  config.solver = SolverKind::CgFp32;
  config.cg_fs = cg_fs;
  return als_epoch_seconds(dev, m, n, nnz, config);
}

}  // namespace cumf
