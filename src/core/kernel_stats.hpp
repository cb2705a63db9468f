// Bridges the ALS kernels to the gpusim cost model.
//
// For a dataset shape (m, n, Nz), a kernel configuration and a device, this
// module produces the simulated time of each phase the paper measures:
//   Fig. 4 — get_hermitian split into load / compute / write under the three
//            memory-access schemes;
//   Fig. 5 — solver time of LU-FP32 / CG-FP32 / CG-FP16 (± L1);
//   Fig. 6/8 — whole-epoch times, optionally across multiple GPUs.
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "core/solver.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/device.hpp"
#include "gpusim/interconnect.hpp"
#include "gpusim/occupancy.hpp"
#include "gpusim/trace.hpp"
#include "sparse/csr.hpp"

namespace cumf {

class ThreadPool;

/// Global-memory access scheme of get_hermitian's load phase (Fig. 3/4).
enum class LoadScheme {
  Coalesced,         ///< conventional: warp cooperates column-by-column
  NonCoalescedL1,    ///< paper's Solution 2: thread-per-column, L1 on
  NonCoalescedNoL1,  ///< thread-per-column with L1 bypassed (-dlcm=cg)
};

const char* to_string(LoadScheme scheme);

struct AlsKernelConfig {
  int f = 100;
  int tile = 10;
  int bin = 32;
  LoadScheme load_scheme = LoadScheme::NonCoalescedL1;
  SolverKind solver = SolverKind::CgFp32;
  std::uint32_t cg_fs = 6;
  /// L1 enabled for the *solver's* A reads (Fig. 5 solve-L1 vs solve-noL1;
  /// the paper shows it makes no difference for the coalesced CG).
  bool solver_l1 = false;
  /// false models GPU-ALS [31]: same algorithm but without the aggressive
  /// register tiling of Fig. 2, so the compute phase sustains lower FLOPS.
  bool register_tiling = true;
  /// §VII future work: run the θθᵀ accumulation on Tensor Cores with FP16
  /// inputs and FP32 accumulation. Requires a device with tensor_flops > 0
  /// (ignored otherwise); also halves the θ staging traffic.
  bool tensor_core_hermitian = false;
};

/// The matrix shape a kernel runs against. `rows` is the side being updated
/// (m for update-X, n for update-Θ); `cols` the fixed side.
struct UpdateShape {
  double rows = 0;
  double cols = 0;
  double nnz = 0;
};

/// Simulated times of one half-sweep (one `update` in Fig. 4's terms).
struct UpdatePhaseTimes {
  gpusim::KernelTime load;     ///< stage θ batches global → shared
  gpusim::KernelTime compute;  ///< accumulate θθᵀ tiles in registers
  gpusim::KernelTime write;    ///< flush A_u blocks to global memory
  gpusim::KernelTime solve;    ///< LU or CG batch solve

  /// Whole-kernel time: the cuMF kernel double-buffers the shared-memory
  /// staging, so the load phase overlaps the tile accumulation; the A_u
  /// flush cannot overlap (it needs the final accumulator).
  double hermitian_seconds() const noexcept {
    return std::max(load.seconds, compute.seconds) + write.seconds;
  }
  double total_seconds() const noexcept {
    return hermitian_seconds() + solve.seconds;
  }
};

/// Occupancy of the get_hermitian kernel for this configuration — the
/// quantity behind Observation 2 (6 blocks/SM on Maxwell at f=100).
gpusim::Occupancy hermitian_occupancy(const gpusim::DeviceSpec& dev,
                                      const AlsKernelConfig& config);

/// Models one half-sweep. `sample_rows`, when given, supplies real rating
/// rows whose column lists drive the cache-trace simulation of the load
/// phase; otherwise synthetic uniform rows with ⌊nnz/rows⌋ non-zeros are
/// used, and their trace statistics are memoized process-wide on what the
/// trace reads (device cache geometry, kernel config, degree, fixed side).
UpdatePhaseTimes update_phase_times(const gpusim::DeviceSpec& dev,
                                    const UpdateShape& shape,
                                    const AlsKernelConfig& config,
                                    const CsrMatrix* sample_rows = nullptr);

/// Cache-trace statistics of get_hermitian's load phase alone — the same
/// simulation update_phase_times() runs internally, exposed for telemetry
/// (simulated L1/L2 hit rates and DRAM bytes per epoch).
gpusim::TraceStats hermitian_load_stats(const gpusim::DeviceSpec& dev,
                                        const UpdateShape& shape,
                                        const AlsKernelConfig& config,
                                        const CsrMatrix* sample_rows = nullptr);

/// update_phase_times(dev, shapes[i], config).total_seconds() for every
/// shape, one shape per task on `pool` when given. Results are written by
/// index, so they are identical for any pool size; the first failing
/// shape's exception is rethrown on the caller.
std::vector<double> update_seconds(const gpusim::DeviceSpec& dev,
                                   std::span<const UpdateShape> shapes,
                                   const AlsKernelConfig& config,
                                   ThreadPool* pool = nullptr);

/// Full-epoch simulated seconds: update-X + update-Θ on `gpus` devices.
/// Multi-GPU runs partition rows per device and all-gather the updated
/// factors over `link` after each half-sweep.
double als_epoch_seconds(const gpusim::DeviceSpec& dev, double m, double n,
                         double nnz, const AlsKernelConfig& config,
                         int gpus = 1,
                         const gpusim::LinkSpec& link =
                             gpusim::LinkSpec::nvlink());

/// GPU-SGD epoch model (cuMF-SGD, Xie et al. HPDC'17): Hogwild-style update
/// kernel, memory-bound, optionally with FP16 factor storage.
double sgd_epoch_seconds(const gpusim::DeviceSpec& dev, double nnz, int f,
                         bool half_precision, int gpus = 1,
                         const gpusim::LinkSpec& link =
                             gpusim::LinkSpec::nvlink(),
                         double m = 0, double n = 0);

}  // namespace cumf
