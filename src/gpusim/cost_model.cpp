#include "gpusim/cost_model.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace cumf::gpusim {

KernelTime kernel_time(const DeviceSpec& dev, const KernelProfile& profile) {
  CUMF_EXPECTS(dev.peak_flops > 0 && dev.dram_bw > 0, "invalid device");
  KernelTime t;

  const double eff = profile.compute_efficiency > 0
                         ? profile.compute_efficiency
                         : dev.compute_efficiency;
  t.t_compute = profile.flops / (dev.peak_flops * eff);
  const double bw_eff =
      profile.dram_efficiency > 0 ? profile.dram_efficiency : 1.0;
  t.t_dram = (profile.dram_read_bytes + profile.dram_write_bytes) /
             (dev.dram_bw * bw_eff);
  t.t_l2 = dev.l2_bw > 0 ? profile.l2_read_bytes / dev.l2_bw : 0.0;

  // Latency bound: total stall time divided by the memory-level parallelism
  // available to hide it — resident warps × outstanding loads per warp,
  // across all SMs (the trace accounts one SM; apply_trace scales totals).
  if (profile.stall_latency_s > 0) {
    const int warps = std::max(1, profile.warps_per_sm);
    const int outstanding = profile.outstanding_per_warp > 0
                                ? profile.outstanding_per_warp
                                : dev.outstanding_loads_per_warp;
    const double mlp = static_cast<double>(warps) * outstanding *
                       std::max(1.0, profile.lines_per_instruction) *
                       static_cast<double>(dev.sm_count);
    t.t_latency = profile.stall_latency_s / mlp;
  }

  t.seconds = t.t_compute;
  t.bound_by = "compute";
  if (t.t_dram > t.seconds) {
    t.seconds = t.t_dram;
    t.bound_by = "dram";
  }
  if (t.t_l2 > t.seconds) {
    t.seconds = t.t_l2;
    t.bound_by = "l2";
  }
  if (t.t_latency > t.seconds) {
    t.seconds = t.t_latency;
    t.bound_by = "latency";
  }
  return t;
}

double memcpy_bandwidth(const DeviceSpec& dev) {
  return dev.dram_bw * dev.memcpy_efficiency;
}

void apply_trace(const DeviceSpec& dev, const TraceStats& stats,
                 double total_rows, KernelProfile& profile) {
  CUMF_EXPECTS(stats.rows_simulated > 0, "trace must cover at least one row");
  // The trace covered rows_simulated rows on ONE SM; the full kernel
  // processes total_rows rows over all SMs. Totals scale linearly in rows.
  const double scale =
      total_rows / static_cast<double>(stats.rows_simulated);

  profile.dram_read_bytes +=
      scale * stats.dram_bytes(dev.cache_line_bytes);
  // L2→SM transfers happen at 32-byte sector granularity for scattered
  // requests, not whole cache lines; DRAM→L2 fills stay line-granular.
  constexpr double kSectorBytes = 32.0;
  profile.l2_read_bytes +=
      scale * static_cast<double>(stats.l2_hits + stats.dram_accesses) *
      kSectorBytes;

  const double stall =
      static_cast<double>(stats.inst_worst_dram) * dev.dram_latency_s +
      static_cast<double>(stats.inst_worst_l2) * dev.l2_latency_s +
      static_cast<double>(stats.inst_worst_l1) * dev.l1_latency_s;
  profile.stall_latency_s += scale * stall;
  if (stats.warp_instructions > 0) {
    profile.lines_per_instruction =
        static_cast<double>(stats.line_accesses) /
        static_cast<double>(stats.warp_instructions);
  }
}

double host_sgd_epoch_seconds(const HostSpec& host, double nnz, int f) {
  CUMF_EXPECTS(host.cores_per_machine > 0, "host needs cores");
  const double flops = nnz * (10.0 * f);
  // ~8·f bytes per sample: two factor rows are read and written but the
  // cache-blocked CPU implementations (LIBMF) keep roughly half the traffic
  // in the last-level cache.
  const double bytes = nnz * (8.0 * f);
  const double total_flops_rate = host.machines * host.cores_per_machine *
                                  host.flops_per_core *
                                  host.parallel_efficiency;
  const double total_bw = host.machines * host.mem_bw_per_machine;
  return std::max(flops / total_flops_rate, bytes / total_bw);
}

double host_network_epoch_seconds(const HostSpec& host, double columns,
                                  int f) {
  if (host.machines <= 1 || host.network_bw <= 0) {
    return 0.0;
  }
  // NOMAD-style column-token circulation: each column's f-vector visits
  // every machine once per epoch; all machines send concurrently, and
  // tokens are batched into messages of ~1000 columns.
  const double msg_bytes = columns * host.machines * (f * 4.0);
  return msg_bytes / (host.machines * host.network_bw) +
         host.network_latency_s * columns / 1000.0;
}

}  // namespace cumf::gpusim
