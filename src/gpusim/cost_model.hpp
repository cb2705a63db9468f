// Kernel timing model: roofline with a latency-bound correction.
//
// A kernel's simulated time is the maximum of four bottlenecks:
//   compute   — FLOPs / (peak × efficiency)
//   DRAM      — bytes moved to/from device memory / bandwidth
//   L2        — bytes served by L2 / L2 bandwidth
//   latency   — total warp stall time / available memory-level parallelism
// The last term is what distinguishes the paper's low-occupancy regime
// (Observation 2): with few resident warps, loads cannot be overlapped and
// the kernel is latency-bound even though DRAM bandwidth is idle.
#pragma once

#include <string>

#include "gpusim/device.hpp"
#include "gpusim/trace.hpp"

namespace cumf::gpusim {

struct KernelProfile {
  std::string name;
  double flops = 0;              ///< total floating-point operations
  double dram_read_bytes = 0;    ///< bytes actually fetched from DRAM
  double dram_write_bytes = 0;   ///< bytes written back to DRAM
  double l2_read_bytes = 0;      ///< bytes served by the L2 (incl. DRAM fills)
  /// Sum over warp memory instructions of the stall latency of their worst
  /// line (from a cache trace or an analytic estimate).
  double stall_latency_s = 0;
  int warps_per_sm = 0;          ///< occupancy of this kernel
  /// 0 means "use the device default" compute efficiency.
  double compute_efficiency = 0;
  /// Fraction of peak DRAM bandwidth this access pattern can sustain
  /// (streaming ≈ 0.85, scattered ≈ 0.5, memcpy reference ≈ 0.75).
  double dram_efficiency = 0.85;
  /// Memory instructions one warp keeps in flight. Independent streaming
  /// loads reach the device limit; a dependent load→shared-store→syncthreads
  /// staging loop (get_hermitian's load phase) sustains ~1. 0 = device
  /// default.
  int outstanding_per_warp = 0;
  /// Distinct cache lines touched per warp instruction: a fully coalesced
  /// access keeps 1 line in flight, the paper's non-coalesced scheme up to
  /// 32. Memory-level parallelism scales with lines, not instructions —
  /// this is the physical mechanism behind Solution 2.
  double lines_per_instruction = 1.0;
};

struct KernelTime {
  double seconds = 0;
  double t_compute = 0;
  double t_dram = 0;
  double t_l2 = 0;
  double t_latency = 0;
  const char* bound_by = "";
};

KernelTime kernel_time(const DeviceSpec& dev, const KernelProfile& profile);

/// Achieved device-to-device memcpy bandwidth (the Fig. 7b reference line):
/// bytes are both read and written, so the transfer rate seen by the SMs is
/// the full read+write traffic over the elapsed time.
double memcpy_bandwidth(const DeviceSpec& dev);

/// Converts a load-phase cache trace into {dram bytes, l2 bytes, stall
/// seconds} for a KernelProfile, scaling from `stats.rows_simulated`
/// simulated rows on one SM to `total_rows` rows on the whole device.
void apply_trace(const DeviceSpec& dev, const TraceStats& stats,
                 double total_rows, KernelProfile& profile);

// --- CPU / cluster models for the Fig. 6 comparison lines ---

/// One SGD epoch (all Nz samples once) on the host described by `host`.
/// flops_per_nz / bytes_per_nz describe the update kernel (≈10·f FLOPs and
/// ≈16·f bytes for a plain SGD step at latent dimension f).
double host_sgd_epoch_seconds(const HostSpec& host, double nnz, int f);

/// Per-epoch network time of a NOMAD-style multi-machine SGD: each of the
/// `columns` item-feature vectors circulates through every machine once per
/// epoch. Returns 0 for single-machine hosts. Overlappable with compute:
/// callers take max(compute, network).
double host_network_epoch_seconds(const HostSpec& host, double columns,
                                  int f);

}  // namespace cumf::gpusim
