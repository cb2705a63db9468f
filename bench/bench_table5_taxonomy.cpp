// Table V: the paper's taxonomy of parallel MF solutions (SGD / ALS / CCD
// on CPUs and GPUs), annotated with where each entry lives in this
// repository — as a faithful reimplementation, as a calibrated time model,
// or as an entry the paper names in Table V only and this repository does
// not reproduce. This is a documentation table; nothing is measured here.
#include <cstdio>

#include "bench/bench_util.hpp"

using namespace cumf;

int main() {
  bench::print_header("Table V", "parallel MF solutions and their analogues here");

  Table t({"family", "system (paper ref)", "platform", "implemented as"});
  // --- SGD, CPU ---
  t.add_row({"SGD lock-free", "HogWild! [22]", "1 node",
             "Table V only; not reproduced"});
  t.add_row({"SGD lock-free", "FactorBird [30], Petuum [5]", "multi-node",
             "host model only (gpusim::HostSpec)"});
  t.add_row({"SGD blocking", "DSGD [9]", "MapReduce",
             "sparse/partition diagonal schedule"});
  t.add_row({"SGD blocking", "LIBMF [39]", "multi-core",
             "baselines/sgd_blocked + AdaGrad schedule [3]"});
  t.add_row({"SGD blocking", "NOMAD [37]", "MPI cluster",
             "baselines/sgd_nomad (token ring) + network model"});
  t.add_row({"SGD blocking", "DSGD++ [32], dcMF [21], MLGF-MF [27]",
             "multi-core/node", "covered by the blocked/NOMAD variants"});
  // --- SGD, GPU ---
  t.add_row({"SGD", "cuMF-SGD [35]", "1-4 GPUs",
             "baselines/gpu_sgd (FP16 factors) + sgd_epoch_seconds model"});
  // --- ALS, CPU ---
  t.add_row({"ALS replicate", "PALS [38], DALS [32]", "multi-node",
             "host model only"});
  t.add_row({"ALS partial-rep", "SparkALS [18], GraphLab [17], Sparkler [16]",
             "cluster", "mllib/ facade (Spark-style API, local engine)"});
  t.add_row({"ALS rotate", "Facebook [13]", "cluster", "host model only"});
  t.add_row({"ALS approximate", "Pilaszy et al. [29]", "1 node",
             "linalg/cg + core/solver (the paper builds on this idea)"});
  // --- ALS, GPU ---
  t.add_row({"ALS", "BIDMach [2]", "1 GPU",
             "baselines/bidmach_als (kernel-throughput model, Fig. 7)"});
  t.add_row({"ALS", "HPC-ALS [8]", "1 GPU",
             "register/smem tiling without the paper's Solutions 2-4"});
  t.add_row({"ALS", "GPU-ALS [31]", "1-4 GPUs",
             "baselines/als_plain (LU + coalesced, no tiling)"});
  t.add_row({"ALS", "cuMF-ALS (this paper)", "1-4 GPUs",
             "core/ (the reproduction target)"});
  // --- CCD ---
  t.add_row({"CCD", "CCD++ [36]", "multi-core/node",
             "Table V only; not reproduced"});
  t.add_row({"CCD", "parallel CCD++ [20]", "1 GPU",
             "Table V only; not reproduced"});
  std::printf("%s", t.to_string().c_str());
  return 0;
}
