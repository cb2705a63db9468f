// bench_hotpath — the SIMD / scheduling regression harness.
//
// Measures the vectorized hot paths (dense primitives, get_hermitian, CG
// solve, exact Cholesky/LU solve) with the scalar and SIMD KernelPath side
// by side, each against the measured one-core roof of this host, plus the
// static vs nnz-guided epoch schedule on a power-law dataset, and writes a
// machine-readable BENCH_hotpath.json for tools/bench_compare.py and the CI
// perf-smoke gate.
// See docs/performance.md for how to read the numbers.
//
// Usage: bench_hotpath [--quick] [--out PATH]
//   --quick  shrink repetitions and the schedule dataset (CI smoke)
//   --out    output JSON path (default: BENCH_hotpath.json)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/als.hpp"
#include "core/solver.hpp"
#include "data/generator.hpp"
#include "half/half.hpp"
#include "half/half_simd.hpp"
#include "linalg/cg.hpp"
#include "linalg/dense.hpp"
#include "simd/vec.hpp"
#include "sparse/csr.hpp"

namespace {

using namespace cumf;

struct Measurement {
  double ns_per_op = 0.0;
  double gflops = 0.0;    ///< useful FLOP rate (0 when not meaningful)
  double gbytes = 0.0;    ///< touched-bytes rate (0 when not meaningful)
};

struct KernelRow {
  std::string name;
  Measurement scalar;
  Measurement simd;
  double speedup = 0.0;  ///< scalar ns / simd ns
};

using bench::g_sink;
using bench::time_ns;

/// One timed chain-block of the host roof: kChains independent vf16
/// accumulators, each step acc = acc·m + c. That is the kernels' own
/// multiply-then-add expression form, so it compiles to the instruction
/// they issue (an FMA on hosts that have one). Returns ns per call.
template <std::size_t kChains>
double time_roof_chains(double min_seconds, std::size_t steps) {
  return time_ns(
      [steps] {
        // Locals, not captures: nothing aliases them, so the chains stay in
        // registers for the whole loop.
        simd::vf16 acc[kChains];
        for (std::size_t k = 0; k < kChains; ++k) {
          acc[k] = simd::vf16::broadcast(1.0f + 1e-3f * static_cast<float>(k));
        }
        // acc → c/(1−m) = 1: values stay normal however long the loop runs.
        const simd::vf16 m = simd::vf16::broadcast(0.999f);
        const simd::vf16 c = simd::vf16::broadcast(0.001f);
        for (std::size_t s = 0; s < steps; ++s) {
          CUMF_UNROLL
          for (std::size_t k = 0; k < kChains; ++k) {
            acc[k] = acc[k] * m + c;
          }
        }
        float sum = 0.0f;
        for (const auto& a : acc) {
          sum += a.lane(0);
        }
        g_sink = sum;
      },
      min_seconds, 4);
}

/// Measured peak 16-lane multiply-add GFLOPS of one core of this host (2
/// flops per lane per step): the best of 4, 8 and 12 independent chains, so
/// the add latency is covered on every port without the chains spilling
/// out of the register file (where a vf16 takes two registers, 12 do).
double host_roof_gflops(double min_seconds) {
  constexpr std::size_t kSteps = 4096;
  const auto gflops = [](std::size_t chains, double ns) {
    return 2.0 * simd::vf16::kLanes * static_cast<double>(chains * kSteps) /
           ns;
  };
  return std::max({gflops(4, time_roof_chains<4>(min_seconds, kSteps)),
                   gflops(8, time_roof_chains<8>(min_seconds, kSteps)),
                   gflops(12, time_roof_chains<12>(min_seconds, kSteps))});
}

KernelRow bench_pair(const std::string& name, double flops_per_op,
                     double bytes_per_op, double min_seconds, int min_reps,
                     double roof_gflops,
                     const std::function<void(simd::KernelPath)>& op) {
  KernelRow row;
  row.name = name;
  for (const auto path : {simd::KernelPath::scalar, simd::KernelPath::simd}) {
    Measurement m;
    m.ns_per_op = time_ns([&] { op(path); }, min_seconds, min_reps);
    m.gflops = flops_per_op / m.ns_per_op;  // flop/ns == Gflop/s
    m.gbytes = bytes_per_op / m.ns_per_op;
    (path == simd::KernelPath::scalar ? row.scalar : row.simd) = m;
  }
  row.speedup = row.scalar.ns_per_op / row.simd.ns_per_op;
  std::printf("  %-28s scalar %10.1f ns   simd %10.1f ns   %5.2fx"
              "   (%.2f GFLOP/s = %4.1f%% of roof, %.2f GB/s simd)\n",
              row.name.c_str(), row.scalar.ns_per_op, row.simd.ns_per_op,
              row.speedup, row.simd.gflops,
              100.0 * row.simd.gflops / roof_gflops, row.simd.gbytes);
  return row;
}

std::vector<real_t> random_vec(std::size_t n, Rng& rng) {
  std::vector<real_t> v(n);
  for (auto& x : v) {
    x = static_cast<real_t>(rng.normal());
  }
  return v;
}

/// SPD system A = GᵀG/f + I for the CG benches (well-conditioned, so eps=0
/// runs exactly fs iterations without numerical drama).
std::vector<real_t> spd_matrix(std::size_t f, Rng& rng) {
  const auto g = random_vec(f * f, rng);
  std::vector<real_t> a(f * f, real_t{0});
  for (std::size_t i = 0; i < f; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < f; ++k) {
        acc += static_cast<double>(g[k * f + i]) * g[k * f + j];
      }
      a[i * f + j] = a[j * f + i] =
          static_cast<real_t>(acc / static_cast<double>(f));
    }
    a[i * f + i] += real_t{1};
  }
  return a;
}

/// Max worker share of nnz under a static equal-rows partition, relative to
/// the perfect share (total/workers). 1.0 = perfectly balanced.
double static_imbalance(const CsrMatrix& r, std::size_t workers) {
  const auto& ptr = r.row_ptr();
  const auto m = static_cast<std::size_t>(r.rows());
  const double perfect =
      static_cast<double>(ptr[m]) / static_cast<double>(workers);
  const std::size_t base = m / workers;
  const std::size_t extra = m % workers;
  double worst = 0.0;
  std::size_t begin = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t end = begin + base + (w < extra ? 1 : 0);
    worst = std::max(worst, static_cast<double>(ptr[end] - ptr[begin]));
    begin = end;
  }
  return worst / perfect;
}

/// Critical-path bound for the guided schedule: a greedy pull of the chunk
/// list cannot leave any worker with more than perfect + max_chunk nnz, so
/// the imbalance is bounded by max(perfect, heaviest chunk) / perfect.
double guided_imbalance(const CsrMatrix& r, std::size_t workers) {
  const auto& ptr = r.row_ptr();
  const auto m = static_cast<std::size_t>(r.rows());
  const double perfect =
      static_cast<double>(ptr[m]) / static_cast<double>(workers);
  const auto bounds = nnz_balanced_bounds(r, 8 * workers);
  double max_chunk = 0.0;
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    max_chunk = std::max(
        max_chunk, static_cast<double>(ptr[bounds[i + 1]] - ptr[bounds[i]]));
  }
  return std::max(perfect, max_chunk) / perfect;
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  const double min_seconds = quick ? 0.02 : 0.2;
  std::printf("bench_hotpath  backend=%s  default=%s  mode=%s\n\n",
              simd::backend_name(), to_string(simd::kDefaultPath),
              quick ? "quick" : "full");

  const double roof = host_roof_gflops(min_seconds);
  std::printf("  host roof: %.2f GFLOP/s (16-lane multiply-add, one core)\n\n",
              roof);

  Rng rng(7);
  std::vector<KernelRow> rows;
  std::map<std::string, double> speedups;

  // --- dense primitives (f = 100, the paper's rank) ---------------------
  const std::size_t f = 100;
  const auto va = random_vec(f, rng);
  const auto vb = random_vec(f, rng);
  auto vy = random_vec(f, rng);
  const auto sa = spd_matrix(f, rng);

  rows.push_back(bench_pair(
      "dot_f100", 2.0 * f, 2.0 * f * sizeof(real_t), min_seconds, 2000, roof,
      [&](simd::KernelPath p) { g_sink = dot(va, vb, p); }));
  speedups["dot_f100"] = rows.back().speedup;

  rows.push_back(bench_pair(
      "axpy_f100", 2.0 * f, 3.0 * f * sizeof(real_t), min_seconds, 2000, roof,
      [&](simd::KernelPath p) {
        axpy(real_t{0.5}, va, vy, p);
        g_sink = vy[0];
      }));
  speedups["axpy_f100"] = rows.back().speedup;

  rows.push_back(bench_pair(
      "symv_f100", 2.0 * f * f, 1.0 * f * f * sizeof(real_t), min_seconds,
      200, roof, [&](simd::KernelPath p) {
        symv(f, sa, va, vy, p);
        g_sink = vy[0];
      }));
  speedups["symv_f100"] = rows.back().speedup;

  // --- half conversions -------------------------------------------------
  const std::size_t hn = 4096;
  const auto hsrc_f = random_vec(hn, rng);
  std::vector<half> hsrc(hn);
  float_to_half_n(hsrc_f.data(), hsrc.data(), hn, simd::KernelPath::scalar);
  std::vector<real_t> hdst(hn);
  rows.push_back(bench_pair(
      "half_unpack_4096", 0.0, hn * (sizeof(half) + sizeof(real_t)),
      min_seconds, 100, roof, [&](simd::KernelPath p) {
        half_to_float_n(hsrc.data(), hdst.data(), hn, p);
        g_sink = hdst[0];
      }));
  speedups["half_unpack"] = rows.back().speedup;

  std::vector<half> hpack(hn);
  rows.push_back(bench_pair(
      "half_pack_4096", 0.0, hn * (sizeof(half) + sizeof(real_t)),
      min_seconds, 100, roof, [&](simd::KernelPath p) {
        float_to_half_n(hsrc_f.data(), hpack.data(), hn, p);
        g_sink = static_cast<float>(hpack[0]);
      }));
  speedups["half_pack"] = rows.back().speedup;

  // --- get_hermitian_row, f=100 tile=10 (the paper's kernel shape) ------
  std::printf("\n");
  // One of its systems, kept for the exact-solver rows below.
  std::vector<real_t> exact_a(f * f);
  std::vector<real_t> exact_b(f);
  {
    SyntheticConfig cfg;
    cfg.m = 400;
    cfg.n = 600;
    cfg.nnz = 40000;
    cfg.seed = 11;
    const auto data = generate_synthetic(cfg);
    const auto csr = CsrMatrix::from_coo(data.ratings);
    Matrix theta(csr.cols(), f);
    als_init_factors(theta, 3.6, 5);
    HermitianParams params;  // tile=10, bin=32
    HermitianWorkspace ws;
    ws.prepare(f, params);
    std::vector<real_t> a_out(f * f);
    std::vector<real_t> b_out(f);
    // Rotate through rows so the benchmark sees the dataset's nnz mix.
    const double mean_nnz = static_cast<double>(csr.nnz()) /
                            static_cast<double>(csr.rows());
    index_t u = 0;
    const auto next_u = [&] {
      u = (u + 1) % csr.rows();
      return u;
    };

    for (const bool fp16 : {false, true}) {
      params.fp16_staging = fp16;
      const std::string name =
          fp16 ? "hermitian_f100_t10_fp16stage" : "hermitian_f100_t10";
      rows.push_back(bench_pair(
          name, mean_nnz * (f * f + 2.0 * f),
          mean_nnz * f * sizeof(real_t), min_seconds, 20, roof,
          [&](simd::KernelPath p) {
            get_hermitian_row(csr, theta, next_u(), real_t{0.05}, params, ws,
                              a_out, b_out, p);
            g_sink = a_out[0];
          }));
      speedups[fp16 ? "hermitian_f100_fp16stage" : "hermitian_f100"] =
          rows.back().speedup;
    }
    params.fp16_staging = false;
    get_hermitian_row(csr, theta, 0, real_t{0.05}, params, ws, exact_a,
                      exact_b, simd::kDefaultPath);
  }

  // --- CG solve, f=100, fs = 3..6, eps=0 so every iteration runs --------
  // cg_fp32 times cg_solve alone; cg_fp16 times what production runs for
  // CG-FP16: SystemSolver::solve rounding A through binary16, checking the
  // pack, then the FP32 CG on the rounded copy.
  std::printf("\n");
  auto x = random_vec(f, rng);
  double fp16_over_fp32 = 0.0;
  for (std::uint32_t fs = 3; fs <= 6; ++fs) {
    const double flops = fs * (2.0 * f * f + 10.0 * f);
    rows.push_back(bench_pair(
        "cg_fp32_f100_fs" + std::to_string(fs), flops,
        fs * static_cast<double>(f) * f * sizeof(real_t), min_seconds, 50,
        roof, [&](simd::KernelPath p) {
          std::copy(vb.begin(), vb.end(), x.begin());
          const auto r = cg_solve<float>(f, sa, va, x, fs, real_t{0}, p);
          g_sink = r.residual_norm;
        }));
    speedups["cg_fp32_fs" + std::to_string(fs)] = rows.back().speedup;
    SolverOptions cg16;
    cg16.kind = SolverKind::CgFp16;
    cg16.cg_fs = fs;
    cg16.cg_eps = real_t{0};
    cg16.path = simd::KernelPath::scalar;
    SystemSolver cg16_scalar(f, cg16);
    cg16.path = simd::KernelPath::simd;
    SystemSolver cg16_simd(f, cg16);
    // Bytes the host moves: the round reads A and writes its FP32 copy,
    // then fs+1 matvecs (the initial residual plus one per step) read it.
    rows.push_back(bench_pair(
        "cg_fp16_f100_fs" + std::to_string(fs), flops,
        (fs + 3.0) * static_cast<double>(f) * f * sizeof(real_t),
        min_seconds, 50, roof, [&](simd::KernelPath p) {
          std::copy(vb.begin(), vb.end(), x.begin());
          SystemSolver& solver =
              p == simd::KernelPath::scalar ? cg16_scalar : cg16_simd;
          g_sink = solver.solve(sa, va, x) ? x[0] : -1.0;
        }));
    speedups["cg_fp16_fs" + std::to_string(fs)] = rows.back().speedup;
    if (fs == 6) {
      // The two SIMD solves in alternating blocks, so both sides of the
      // ratio see the same host load.
      fp16_over_fp32 =
          bench::time_ratio(
              [&] {
                std::copy(vb.begin(), vb.end(), x.begin());
                g_sink = cg16_simd.solve(sa, va, x) ? x[0] : -1.0;
              },
              [&] {
                std::copy(vb.begin(), vb.end(), x.begin());
                g_sink = cg_solve<float>(f, sa, va, x, fs, real_t{0},
                                         simd::KernelPath::simd)
                             .residual_norm;
              },
              min_seconds, 50)
              .ratio;
    }
  }
  speedups["fp16_over_fp32_walltime"] = fp16_over_fp32;
  std::printf("\n  cg fp16/fp32 wall-time ratio (fs=6, simd): %.2fx\n",
              fp16_over_fp32);

  // --- exact solves, f=100, on the get_hermitian-built SPD system -------
  // What production runs for an exact kind: SystemSolver::solve copying A,
  // factoring, substituting and checking x is finite. Flops are the
  // factor's f³/3 (Cholesky) or 2f³/3 (LU) plus 2f² for the substitutions.
  // Both paths work in double, so their share of the float roof tops out
  // at one half.
  std::printf("\n");
  for (const SolverKind kind : {SolverKind::CholeskyFp32, SolverKind::LuFp32}) {
    const bool cholesky = kind == SolverKind::CholeskyFp32;
    SolverOptions exact;
    exact.kind = kind;
    exact.path = simd::KernelPath::scalar;
    SystemSolver exact_scalar(f, exact);
    exact.path = simd::KernelPath::simd;
    SystemSolver exact_simd(f, exact);
    const double fd = static_cast<double>(f);
    const char* name = cholesky ? "cholesky_f100" : "lu_f100";
    rows.push_back(bench_pair(
        name, (cholesky ? 1.0 : 2.0) * fd * fd * fd / 3.0 + 2.0 * fd * fd,
        fd * fd * sizeof(real_t), min_seconds, 20, roof,
        [&](simd::KernelPath p) {
          SystemSolver& solver =
              p == simd::KernelPath::scalar ? exact_scalar : exact_simd;
          g_sink = solver.solve(exact_a, exact_b, x) ? x[0] : -1.0;
        }));
    speedups[name] = rows.back().speedup;
  }

  // --- schedule: static rows vs nnz-guided on a power-law epoch --------
  std::printf("\n");
  SyntheticConfig sched_cfg;
  sched_cfg.m = quick ? 12000 : 60000;
  sched_cfg.n = quick ? 2000 : 10000;
  sched_cfg.nnz = quick ? 200000 : 1000000;
  sched_cfg.row_zipf = 1.2;  // heavy user skew: the schedule stress case
  sched_cfg.seed = 23;
  auto sched_data = generate_synthetic(sched_cfg);
  // Relabel users by descending activity. Real dumps frequently arrive
  // ID-sorted by activity; for a static contiguous partition this is the
  // worst case (the first worker owns nearly all nnz), while the nnz-guided
  // schedule is invariant to it.
  {
    std::vector<nnz_t> degree(sched_cfg.m, 0);
    for (const Rating& e : sched_data.ratings.entries()) {
      ++degree[e.u];
    }
    std::vector<index_t> order(sched_cfg.m);
    for (index_t i = 0; i < sched_cfg.m; ++i) {
      order[i] = i;
    }
    std::sort(order.begin(), order.end(), [&](index_t a, index_t b) {
      return degree[a] > degree[b];
    });
    std::vector<index_t> rank(sched_cfg.m);
    for (index_t i = 0; i < sched_cfg.m; ++i) {
      rank[order[i]] = i;
    }
    RatingsCoo sorted(sched_cfg.m, sched_cfg.n);
    for (const Rating& e : sched_data.ratings.entries()) {
      sorted.add(rank[e.u], e.v, e.r);
    }
    sched_data.ratings = std::move(sorted);
  }
  const std::size_t workers = 4;

  std::map<std::string, double> sched_json;
  double wall[2] = {0.0, 0.0};
  for (const auto schedule :
       {AlsSchedule::static_rows, AlsSchedule::nnz_guided}) {
    AlsOptions opt;
    opt.f = 32;
    opt.workers = static_cast<int>(workers);
    opt.schedule = schedule;
    AlsEngine engine(sched_data.ratings, opt);
    engine.run_epoch();  // warm-up: faults factor pages, fills pool
    Stopwatch sw;
    engine.run_epoch();
    const double secs = sw.seconds();
    wall[schedule == AlsSchedule::nnz_guided ? 1 : 0] = secs;
    const char* name =
        schedule == AlsSchedule::nnz_guided ? "nnz_guided" : "static_rows";
    sched_json[std::string("epoch_seconds_") + name] = secs;
    std::printf("  epoch (%s, %zu workers): %.3f s\n", name, workers, secs);
  }
  const auto csr = CsrMatrix::from_coo(sched_data.ratings);
  const double imb_static = static_imbalance(csr, workers);
  const double imb_guided = guided_imbalance(csr, workers);
  sched_json["imbalance_static"] = imb_static;
  sched_json["imbalance_guided"] = imb_guided;
  sched_json["critical_path_improvement"] = imb_static / imb_guided;
  sched_json["epoch_speedup"] = wall[0] / wall[1];
  std::printf("  nnz imbalance (max worker share / perfect): static %.2f,"
              " guided %.2f  -> critical-path improvement %.2fx\n",
              imb_static, imb_guided, imb_static / imb_guided);
  std::printf("  measured epoch speedup: %.2fx"
              " (meaningful only with >= %zu hardware threads)\n",
              wall[0] / wall[1], workers);

  // --- JSON -------------------------------------------------------------
  std::ofstream out(out_path);
  out << "{\n  \"backend\": \"" << simd::backend_name() << "\",\n"
      << "  \"default_path\": \"" << to_string(simd::kDefaultPath)
      << "\",\n  \"quick\": " << (quick ? "true" : "false")
      << ",\n  \"kernels\": {\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "    \"" << r.name << "\": {"
        << "\"scalar_ns\": " << json_num(r.scalar.ns_per_op)
        << ", \"simd_ns\": " << json_num(r.simd.ns_per_op)
        << ", \"simd_gflops\": " << json_num(r.simd.gflops)
        << ", \"simd_gbps\": " << json_num(r.simd.gbytes)
        << ", \"speedup\": " << json_num(r.speedup) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  },\n  \"host_roof\": {\n"
      << "    \"mul_add_gflops\": " << json_num(roof) << ",\n"
      << "    \"simd_share\": {\n";
  bool first_share = true;
  for (const auto& r : rows) {
    if (r.simd.gflops <= 0.0) {
      continue;  // conversions: no flop rate to compare
    }
    out << (first_share ? "" : ",\n") << "      \"" << r.name
        << "\": " << json_num(r.simd.gflops / roof);
    first_share = false;
  }
  out << "\n    }\n  },\n  \"speedups\": {\n";
  for (auto it = speedups.begin(); it != speedups.end(); ++it) {
    out << "    \"" << it->first << "\": " << json_num(it->second)
        << (std::next(it) != speedups.end() ? "," : "") << "\n";
  }
  out << "  },\n  \"schedule\": {\n";
  for (auto it = sched_json.begin(); it != sched_json.end(); ++it) {
    out << "    \"" << it->first << "\": " << json_num(it->second)
        << (std::next(it) != sched_json.end() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
