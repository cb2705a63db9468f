// Fig. 7: (a) FLOPS and FLOPS-efficiency of get_hermitian vs the cuBLAS
// gemmBatched baseline across the three GPU generations, with BIDMach's
// generic ALS kernel (§VI-B) beside them; (b) memory bandwidth achieved by
// the CG solver vs the cudaMemcpy reference.
#include <cstdio>

#include "baselines/bidmach_als.hpp"
#include "bench/bench_util.hpp"
#include "gpusim/cost_model.hpp"

using namespace cumf;

int main() {
  bench::print_header("Fig. 7", "FLOPS and bandwidth utilization");

  const auto preset = DatasetPreset::netflix();
  const auto shape = bench::full_x_shape(preset);
  const double f = preset.paper_f;
  // gemmBatched comparison point: m multiplications of f×deg by deg×f,
  // fixed at the mean degree so cuBLAS can batch them (paper §V-D).
  const double herm_flops = shape.nnz * (f * f + 2.0 * f);

  std::printf("(a) get_hermitian FLOPS vs cuBLAS gemmBatched\n");
  Table a({"GPU", "cuMF TFLOPS", "cuBLAS TFLOPS", "cuMF efficiency",
           "cuBLAS efficiency", "BIDMach GFLOPS", "cuMF / BIDMach"});
  for (const auto& dev :
       {gpusim::DeviceSpec::kepler_k40(), gpusim::DeviceSpec::maxwell_titan_x(),
        gpusim::DeviceSpec::pascal_p100()}) {
    AlsKernelConfig config;
    const auto times = update_phase_times(dev, shape, config);
    // Achieved FLOPS of the full kernel (load + compute + write).
    const double cumf_flops = herm_flops / times.hermitian_seconds();
    // cuBLAS gemmBatched on f×deg skinny batches: generic tiling tuned for
    // large square GEMM sustains a small fraction of peak on these shapes,
    // and it computes the full (non-symmetric) product. Calibrated to the
    // paper's Fig. 7a bars (cuBLAS slightly below cuMF on each device).
    const double cublas_flops = dev.peak_flops * dev.compute_efficiency * 0.28;
    const double bidmach_flops = bidmach_hermitian_flops(dev);
    a.add_row({dev.name, Table::num(cumf_flops / 1e12, 2),
               Table::num(cublas_flops / 1e12, 2),
               Table::num(cumf_flops / dev.peak_flops, 2),
               Table::num(cublas_flops / dev.peak_flops, 2),
               Table::num(bidmach_flops / 1e9, 0),
               Table::num(cumf_flops / bidmach_flops, 0)});
  }
  std::printf("%s\n", a.to_string().c_str());

  std::printf("(b) CG solver bandwidth vs cudaMemcpy\n");
  Table b({"GPU", "CG solver GB/s", "memcpy GB/s", "CG bw utilization"});
  for (const auto& dev :
       {gpusim::DeviceSpec::kepler_k40(), gpusim::DeviceSpec::maxwell_titan_x(),
        gpusim::DeviceSpec::pascal_p100()}) {
    AlsKernelConfig config;
    config.solver = SolverKind::CgFp32;
    const auto times = update_phase_times(dev, shape, config);
    const double bytes =
        shape.rows * config.cg_fs * f * f * 4.0 + shape.rows * f * 4.0;
    const double cg_bw = bytes / times.solve.seconds;
    b.add_row({dev.name, Table::num(cg_bw / 1e9, 0),
               Table::num(gpusim::memcpy_bandwidth(dev) / 1e9, 0),
               Table::num(cg_bw / dev.dram_bw, 2)});
  }
  std::printf("%s\n", b.to_string().c_str());
  std::printf(
      "Expected shape: cuMF ≥ cuBLAS on every generation with efficiency\n"
      "rising Kepler → Maxwell → Pascal (registers per core grow); BIDMach\n"
      "at tens of GFLOPS (the paper's ~40 on Maxwell), well over an order\n"
      "of magnitude below cuMF; the CG solver's achieved bandwidth exceeds\n"
      "the memcpy reference on all three devices.\n");
  return 0;
}
