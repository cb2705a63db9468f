// cumf_train — command-line trainer in the spirit of LIBMF's `mf-train`.
//
//   cumf_train train   <ratings> <model-out> [options]
//   cumf_train predict <model> <pairs> [--out file]
//   cumf_train recommend <model> <ratings> <user> [-k N]
//
// Options for `train`:
//   -f N           latent dimension (default 32)
//   -l X           lambda, ALS-WR weighted regularization (default 0.05)
//   -t N           epochs (default 10)
//   --solver S     lu | cholesky | cg | cg16 | pcg   (default cg16)
//   --fs N         CG truncation (default 6)
//   --tile N       hermitian register-tile width (default 10, snapped to
//                  the largest divisor of f)
//   --bin N        hermitian BIN batching factor (default 32)
//   --schedule S   worker schedule: static | nnz (default nnz)
//   --auto-tune P  load a cumf_tune config (a file, or a directory keyed by
//                  device x dataset fingerprint) and apply its knobs; flags
//                  given explicitly on the command line win over the tuned
//                  values. A config for a different device/dataset/f/lambda
//                  is a hard error naming the mismatch.
//   --workers N    host threads (default 1)
//   --gpus N       train on N simulated devices (MultiGpuAls): nnz-balanced
//                  row shards run concurrently, one solver+workspace per
//                  device; factors are bit-identical to the single-engine
//                  run. Adds the modeled multi-device timeline (compute,
//                  all-gather, scaling efficiency) to --metrics records.
//   --link L       interconnect for the multi-GPU / out-of-core transfer
//                  model: pcie3 | nvlink (default nvlink)
//   --shards DIR   train out-of-core from a shard store built by
//                  `cumf_shard build` (also auto-detected when <ratings>
//                  is a directory containing shard-meta.bin). The ratings
//                  stream through a bounded tile cache; factors are
//                  bit-identical to the in-core run of the same seed/split.
//                  Requires --host-mem; incompatible with --implicit,
//                  --gpus and --cuverify (those need the full matrix in
//                  memory).
//   --host-mem S   hard host budget for cached tiles (e.g. 64M, 2G); must
//                  admit the largest tile
//   --device-mem S modeled device memory; overlap needs room to
//                  double-buffer the two largest tiles (0 = unconstrained)
//   --no-overlap   disable tile prefetch (the no-overlap ablation the
//                  bench gate compares against)
//   --implicit A   treat input as implicit with confidence alpha = A
//   --movielens    input uses the u::v::r::ts format (1-based ids)
//   --test FRAC    hold out FRAC for test RMSE reporting (default 0.1)
//   --seed N       RNG seed for the holdout split and factor init (default 1)
//   --cuverify     static pregate: prove the training kernels' access plans
//                  (bounds, races, barriers, coalescing/bank shape,
//                  occupancy) and predict FP16 pack safety for this dataset
//                  — zero kernel execution; aborts on error findings
//   --trace F      write a Chrome trace-event JSON of the run to F
//                  (load it in chrome://tracing or ui.perfetto.dev)
//   --metrics F    append per-epoch telemetry JSONL to F (schema 2: RMSE,
//                  phase seconds, CG iteration histogram, FP16 pack volume,
//                  simulated cache hit rates, plus one cuscope bottleneck
//                  verdict per phase); tools/trace_report.py summarizes and
//                  validates it, tools/cumf_report.py diffs two runs
//   --prof-summary print a per-span timing table (count/mean/p50/p95),
//                  engine phase seconds and the cuscope roofline
//                  attribution table after training
//   --checkpoint DIR       write a crash-safe checkpoint (CRC-framed binary,
//                          atomic rename) into DIR during training
//   --checkpoint-every N   checkpoint every N epochs (default 1)
//   --resume               continue from the newest valid checkpoint in the
//                          --checkpoint directory; a rejected checkpoint
//                          (bad magic/CRC/version, wrong run) is a hard
//                          error naming the file and the reason
//
// Fault-injection hooks (deterministic, for robustness testing — see
// docs/robustness.md):
//   --inject-seed N            seed for the per-row fault decisions
//   --inject-nan-a P           P(NaN into a system's A) per row update
//   --inject-inf-b P           P(+inf into a system's b)
//   --inject-indefinite-a P    P(flip an A diagonal negative; CG breaks
//                              down, exact LU still solves it)
//   --inject-fp16-overflow P   P(inflate an A diagonal past FP16 range;
//                              the cg16 solver must retry in FP32)
//   --crash-after-epoch N      _Exit(42) right after epoch N's checkpoint
//                              is durable (simulated crash for resume tests)
//
// Input files: triplet "u v r" lines by default (LIBMF/NOMAD format).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "analysis/cuverify/fp16range.hpp"
#include "analysis/cuverify/verify.hpp"
#include "analysis/faultinject.hpp"
#include "cusim/kernels.hpp"
#include "gpusim/occupancy.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/als.hpp"
#include "core/kernel_stats.hpp"
#include "core/multi_gpu.hpp"
#include "core/ooc_als.hpp"
#include "data/checkpoint.hpp"
#include "data/shards.hpp"
#include "data/loaders.hpp"
#include "data/model_io.hpp"
#include "gpusim/device.hpp"
#include "metrics/convergence.hpp"
#include "metrics/ranking.hpp"
#include "metrics/rmse.hpp"
#include "metrics/roofline.hpp"
#include "mllib/als.hpp"
#include "prof/bottleneck.hpp"
#include "prof/prof.hpp"
#include "prof/telemetry.hpp"
#include "sparse/split.hpp"
#include "tune/tune.hpp"

#include "cli_parse.hpp"

using namespace cumf;

namespace {

constexpr const char* kTool = "cumf_train";

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  cumf_train train <ratings> <model-out> [-f N] [-l X] "
               "[-t N | --epochs N]\n"
               "             [--solver lu|cholesky|cg|cg16|pcg] [--fs N]\n"
               "             [--tile N] [--bin N] [--schedule static|nnz]\n"
               "             [--auto-tune FILE|DIR]\n"
               "             [--workers N] [--gpus N] [--link pcie3|nvlink]\n"
               "             [--shards DIR] [--host-mem SIZE] "
               "[--device-mem SIZE]\n"
               "             [--no-overlap]\n"
               "             [--implicit ALPHA] [--movielens]\n"
               "             [--test FRAC] [--seed N] [--cuverify]\n"
               "             [--trace FILE] [--metrics FILE] "
               "[--prof-summary]\n"
               "             [--checkpoint DIR] [--checkpoint-every N] "
               "[--resume]\n"
               "             [--inject-seed N] [--inject-nan-a P] "
               "[--inject-inf-b P]\n"
               "             [--inject-indefinite-a P] "
               "[--inject-fp16-overflow P]\n"
               "             [--crash-after-epoch N]\n"
               "  cumf_train predict <model> <pairs> \n"
               "  cumf_train recommend <model> <ratings> <user> [-k N]\n");
  std::exit(2);
}

/// "512M" / "2G" / "65536" → bytes (suffixes are binary: K=2^10 …).
std::uint64_t parse_mem_size(const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  std::uint64_t scale = 1;
  if (end != nullptr && *end != '\0') {
    switch (*end) {
      case 'k': case 'K': scale = 1ull << 10; break;
      case 'm': case 'M': scale = 1ull << 20; break;
      case 'g': case 'G': scale = 1ull << 30; break;
      default:
        std::fprintf(stderr, "cumf_train: bad memory size '%s'\n",
                     text.c_str());
        std::exit(2);
    }
  }
  if (value < 0 || end == text.c_str()) {
    std::fprintf(stderr, "cumf_train: bad memory size '%s'\n", text.c_str());
    std::exit(2);
  }
  return static_cast<std::uint64_t>(value * static_cast<double>(scale));
}

SolverKind parse_solver(const std::string& name) {
  if (name == "lu") return SolverKind::LuFp32;
  if (name == "cholesky") return SolverKind::CholeskyFp32;
  if (name == "cg") return SolverKind::CgFp32;
  if (name == "cg16") return SolverKind::CgFp16;
  if (name == "pcg") return SolverKind::PcgFp32;
  std::fprintf(stderr, "unknown solver '%s'\n", name.c_str());
  std::exit(2);
}

/// Everything the explicit training loop needs besides the engine and the
/// data. The engine's options() carry f, the solver, tile/BIN, schedule,
/// workers and seed.
struct ExplicitConfig {
  std::string ratings_path;
  std::string metrics_path;
  std::string checkpoint_dir;
  /// -l as given: the telemetry header prints it at double precision (the
  /// engine holds the float the solver uses).
  double lambda = 0.05;
  int epochs = 10;
  std::string link_name = "nvlink";
  int checkpoint_every = 1;
  bool resume = false;
  /// Static FP16 range verdict for this dataset (cuverify); recorded in the
  /// --metrics header so post-hoc analysis can compare the prediction
  /// against the observed per-epoch fp16_fallbacks.
  bool predicted_fp16_safe = true;
  /// Training-set nnz for the telemetry header, the checkpoint fingerprint
  /// and the cache-sim shape. Equal to split.train.nnz() on the in-core
  /// paths; the out-of-core path keeps split.train as an empty shell (the
  /// whole point is not materializing it), so the count comes from the
  /// shard meta instead.
  std::uint64_t train_nnz = 0;
  /// Out-of-core streaming (--shards): shard directory + budgets.
  std::string shard_dir;
  OocOptions ooc;
  /// --prof-summary wants the roofline verdicts even without --metrics.
  bool prof_summary = false;
  /// JSON payload of the applied --auto-tune config, embedded verbatim in
  /// the --metrics header so a run records what tuned it. Empty = untuned.
  std::string tuned_json;
};

/// The modeled timeline of a multi-GPU or streamed engine. The kernels,
/// and therefore the model, are epoch-invariant, so it is evaluated once
/// where the engine is built and surfaces the same numbers in every epoch
/// record.
struct EngineModel {
  std::string device;  ///< the device the timeline is modeled on
  /// Host seconds spent computing the timeline: a pipeline stage of its
  /// own, between building the engine and epoch 1.
  double host_s = 0.0;
  MultiGpuScaling scaling;  ///< set when engine.gpus() > 0
  /// Per-device modeled compute (update-X + update-Θ shards summed): the
  /// raggedness here is the nnz balance the sharding achieved.
  std::vector<double> device_compute_s;
  OocTimeline ooc;  ///< set when engine.streamed_meta() != nullptr
};

/// The modeled kernel of a training run.
AlsKernelConfig kernel_config(const AlsOptions& options) {
  AlsKernelConfig kc;
  kc.f = static_cast<int>(options.f);
  kc.tile = options.hermitian.tile;
  kc.bin = options.hermitian.bin;
  kc.solver = options.solver.kind;
  kc.cg_fs = options.solver.cg_fs;
  return kc;
}

/// What run_explicit leaves behind for cmd_train's --prof-summary output:
/// the last epoch's cuscope roofline verdicts plus the engine-level phase
/// seconds (OOC stall/load/compute, multi-GPU compute/comm) so one summary
/// reads uniformly across engines.
struct RunSummary {
  std::string roof_device;
  std::vector<prof::Verdict> verdicts;
  struct EnginePhase {
    std::string name;
    double seconds = 0;
    double pct = 0;  ///< percent of the engine's epoch wall
  };
  std::vector<EnginePhase> engine_phases;
  double timeline_host_s = 0;  ///< EngineModel::host_s (0 in core)
};

/// The explicit-ALS epoch loop: resume, telemetry, checkpointing and
/// fault-crash handling for every row source and partition of the one
/// engine. Results are bit-identical across them, so only the records of
/// the device-shard partition (engine.gpus() > 0) and of the streamed row
/// source (engine.streamed_meta()) differ, and those read the engine's
/// reports and `modeled`.
int run_explicit(AlsEngine& engine, const EngineModel& modeled,
                 const ExplicitConfig& cfg, const RatingsCoo& ratings,
                 const TrainTestSplit& split, Rng& rng, FactorModel& model,
                 SolveStats& final_stats, RunSummary& summary) {
  const AlsOptions& options = engine.options();
  const bool multi_gpu = engine.gpus() > 0;
  const ShardMeta* const streamed = engine.streamed_meta();
  const MultiGpuScaling& scaling = modeled.scaling;
  const OocTimeline& ooc_timeline = modeled.ooc;
  Stopwatch sw;

  // Resume: load and validate the newest checkpoint before training (and
  // before the telemetry header, which records the resume point). A file
  // that fails any structural check — magic, version, length, CRC — or
  // that belongs to a different run configuration is a hard error naming
  // the file and the reason; silently starting over would mask corruption.
  // The checkpoint does not record a device count: factors are
  // bit-identical across --gpus values, so a snapshot from a single-GPU
  // run resumes exactly on four devices and vice versa.
  std::optional<TrainCheckpoint> resumed;
  if (cfg.resume) {
    const auto latest = latest_checkpoint(cfg.checkpoint_dir);
    if (!latest) {
      std::printf("resume: no checkpoint in %s, starting fresh\n",
                  cfg.checkpoint_dir.c_str());
    } else {
      try {
        TrainCheckpoint ckpt = read_checkpoint_file(*latest);
        std::string why;
        if (ckpt.f != options.f) {
          why = "latent dimension differs";
        } else if (ckpt.solver_kind !=
                   static_cast<std::uint32_t>(options.solver.kind)) {
          why = "solver differs";
        } else if (ckpt.cg_fs != options.solver.cg_fs) {
          why = "CG truncation differs";
        } else if (ckpt.lambda != options.lambda) {
          why = "lambda differs";
        } else if (ckpt.seed != options.seed) {
          why = "seed differs";
        } else if (ckpt.rows != ratings.rows() ||
                   ckpt.cols != ratings.cols() ||
                   ckpt.train_nnz != cfg.train_nnz) {
          why = "dataset shape differs";
        } else if (!(ckpt.rng == rng.state())) {
          why = "holdout-split RNG state differs";
        }
        if (!why.empty()) {
          throw FrameError(FrameReject::mismatch, why);
        }
        resumed = std::move(ckpt);
      } catch (const FrameError& e) {
        std::fprintf(stderr, "cumf_train: rejected checkpoint '%s': %s\n",
                     latest->c_str(), e.what());
        return 1;
      }
      std::printf("resumed from %s (after epoch %u, %.2f s trained)\n",
                  latest->c_str(), resumed->epoch, resumed->train_seconds);
    }
  }
  if (!cfg.checkpoint_dir.empty()) {
    std::filesystem::create_directories(cfg.checkpoint_dir);
  }

  prof::TelemetryWriter telemetry;
  gpusim::TraceStats cache_sim;
  const bool have_test = split.test.nnz() > 0;
  // The modeled device, kernel config and shape feed both the telemetry
  // (cache sim, header) and the cuscope roofline verdicts, which
  // --prof-summary wants even without --metrics.
  const auto dev = gpusim::DeviceSpec::maxwell_titan_x();
  const AlsKernelConfig kc = kernel_config(options);
  const UpdateShape shape{static_cast<double>(ratings.rows()),
                          static_cast<double>(ratings.cols()),
                          static_cast<double>(cfg.train_nnz)};
  if (!cfg.metrics_path.empty()) {
    if (!telemetry.open(cfg.metrics_path)) {
      std::fprintf(stderr, "cumf_train: cannot open '%s' for telemetry\n",
                   cfg.metrics_path.c_str());
      return 1;
    }
    prof::JsonObject header;
    header.set("type", "header").set("schema", 2);
    header.set("dataset", cfg.ratings_path);
    header.set("rows", static_cast<std::uint64_t>(ratings.rows()));
    header.set("cols", static_cast<std::uint64_t>(ratings.cols()));
    header.set("train_nnz", cfg.train_nnz);
    header.set("test_nnz", static_cast<std::uint64_t>(split.test.nnz()));
    header.set("f", kc.f).set("lambda", cfg.lambda);
    header.set("solver", to_string(kc.solver));
    header.set("predicted_fp16_safe", cfg.predicted_fp16_safe);
    header.set("fs", static_cast<std::uint64_t>(kc.cg_fs));
    header.set("tile", kc.tile).set("bin", kc.bin);
    header.set("schedule", to_string(options.schedule));
    header.set("workers", options.workers).set("epochs", cfg.epochs);
    header.set("seed", options.seed);
    if (!cfg.tuned_json.empty()) {
      header.set_raw("auto_tune", cfg.tuned_json);
    }
    header.set("sim_device", dev.name);
    // Schema 2: the device peaks the bottleneck verdicts were classified
    // against, so cumf_report.py can diff runs in attribution terms.
    prof::JsonObject roof;
    roof.set("device", dev.name);
    roof.set("peak_flops", dev.peak_flops);
    roof.set("dram_bw", dev.dram_bw);
    roof.set("l2_bw", dev.l2_bw);
    roof.set("compute_efficiency", dev.compute_efficiency);
    roof.set("memcpy_efficiency", dev.memcpy_efficiency);
    header.set_raw("roof", roof.str());
    // Analytic Table-I complexities at this run's shape: the reference
    // line next to the measured per-epoch intensities.
    const bool cg_like = kc.solver == SolverKind::CgFp32 ||
                         kc.solver == SolverKind::CgFp16 ||
                         kc.solver == SolverKind::PcgFp32;
    const AlsComplexity cx =
        cg_like ? als_complexity_cg(shape.nnz, shape.rows, shape.cols,
                                    kc.f, static_cast<int>(kc.cg_fs))
                : als_complexity(shape.nnz, shape.rows, shape.cols, kc.f);
    prof::JsonObject mdl;
    mdl.set("hermitian_flops", cx.hermitian_compute);
    mdl.set("hermitian_bytes", cx.hermitian_memory);
    mdl.set("solve_flops", cx.solve_compute);
    mdl.set("solve_bytes", cx.solve_memory);
    header.set_raw("model", mdl.str());
    if (multi_gpu || streamed != nullptr) {
      header.set("timeline_host_s", modeled.host_s);
    }
    if (multi_gpu) {
      header.set("gpus", engine.gpus());
      header.set("link", cfg.link_name);
      header.set("mgpu_sim_device", modeled.device);
      header.set_array("mgpu_device_compute_s", modeled.device_compute_s);
    }
    if (streamed != nullptr) {
      header.set("mode", "ooc");
      header.set("shards", cfg.shard_dir);
      header.set("link", cfg.link_name);
      header.set("host_mem_bytes", cfg.ooc.host_mem_bytes);
      header.set("device_mem_bytes", cfg.ooc.device_mem_bytes);
      header.set("overlap", engine.overlap_active());
      header.set("row_tiles",
                 static_cast<std::uint64_t>(streamed->row_tiles.size()));
      header.set("col_tiles",
                 static_cast<std::uint64_t>(streamed->col_tiles.size()));
    }
    if (resumed) {
      header.set("resumed_from_epoch",
                 static_cast<std::uint64_t>(resumed->epoch));
    }
    // The cache-model numbers come from gpusim's trace-driven simulation
    // of get_hermitian's load phase on the paper's Maxwell device. The
    // kernel (and thus the hit profile) is epoch-invariant, so simulate
    // once up front.
    if (cfg.train_nnz > 0) {
      cache_sim = hermitian_load_stats(dev, shape, kc,
                                       /*sample_rows=*/nullptr);
    }
    telemetry.write(header);
  }

  // cuscope: the roof components of the modeled kernel phases are
  // epoch-invariant, so evaluate both half-sweeps once; arithmetic
  // intensity and the fp16/multi-GPU/OOC phases vary per epoch and are
  // filled inside the loop.
  const bool want_verdicts =
      (telemetry.is_open() || cfg.prof_summary) && cfg.train_nnz > 0;
  prof::PhaseSample herm_base;
  prof::PhaseSample solve_base;
  if (want_verdicts) {
    const UpdateShape x_shape{shape.rows, shape.cols, shape.nnz};
    const UpdateShape t_shape{shape.cols, shape.rows, shape.nnz};
    const UpdatePhaseTimes tx = update_phase_times(dev, x_shape, kc);
    const UpdatePhaseTimes tt = update_phase_times(dev, t_shape, kc);
    herm_base.phase = prof::kPhaseHermitian;
    for (const gpusim::KernelTime* t :
         {&tx.load, &tx.compute, &tx.write, &tt.load, &tt.compute,
          &tt.write}) {
      prof::add_kernel_time(herm_base, *t);
    }
    // The kernel double-buffers the shared-memory staging, so the phase
    // wall is max(load, compute) + write per sweep, not the accumulated
    // sum of kernel seconds.
    herm_base.wall_s = tx.hermitian_seconds() + tt.hermitian_seconds();
    solve_base.phase = prof::kPhaseSolve;
    prof::add_kernel_time(solve_base, tx.solve);
    prof::add_kernel_time(solve_base, tt.solve);
  }

  ConvergenceTracker tracker;
  std::vector<prof::Verdict> last_verdicts;
  SolveStats prev_stats;
  double final_rmse = std::numeric_limits<double>::quiet_NaN();
  double time_offset = 0.0;
  int start_epoch = 0;
  if (resumed) {
    engine.restore(resumed->x, resumed->theta,
                   static_cast<int>(resumed->epoch), resumed->solve_stats);
    for (const ConvergenceTracker::Point& p : resumed->curve) {
      tracker.record(p.seconds, p.rmse, p.epoch);
    }
    if (!resumed->curve.empty()) {
      final_rmse = resumed->curve.back().rmse;
    }
    prev_stats = resumed->solve_stats;
    time_offset = resumed->train_seconds;
    start_epoch = static_cast<int>(resumed->epoch);
    sw.reset();  // the offset already covers pre-crash wall time
  }
  for (int epoch = start_epoch + 1; epoch <= cfg.epochs; ++epoch) {
    engine.run_epoch();
    const double epoch_s = sw.lap();

    double eval_s = 0.0;
    if (have_test) {
      const std::uint64_t t0 = prof::now_ns();
      final_rmse = rmse(split.test, engine.user_factors(),
                        engine.item_factors());
      const std::uint64_t t1 = prof::now_ns();
      eval_s = static_cast<double>(t1 - t0) * 1e-9;
      if (prof::Tracer::enabled()) {
        prof::Tracer::instance().complete_span("rmse_eval", "metrics", t0,
                                               t1);
        CUMF_PROF_COUNTER("test_rmse", final_rmse);
      }
      tracker.record(time_offset + sw.seconds(), final_rmse, epoch);
    }

    const SolveStats cumulative = engine.solve_stats();
    const SolveStats delta = cumulative - prev_stats;
    prev_stats = cumulative;
    const auto& herm_ops = engine.hermitian_ops_per_epoch();
    const auto& solve_ops = engine.solve_ops_per_epoch();

    // cuscope verdicts for this epoch. The modeled-kernel phases are
    // deterministic functions of counters (no clocks); only ooc_stream
    // classifies measured seconds, because the exposed prefetch wait *is*
    // the phenomenon being attributed there.
    last_verdicts.clear();
    if (want_verdicts) {
      prof::PhaseSample herm = herm_base;
      herm.flops = herm_ops.flops;
      herm.bytes = herm_ops.bytes();
      last_verdicts.push_back(prof::classify(herm));
      prof::PhaseSample solve_sample = solve_base;
      solve_sample.flops = solve_ops.flops;
      solve_sample.bytes = solve_ops.bytes();
      last_verdicts.push_back(prof::classify(solve_sample));
      if (delta.fp16_converted > 0) {
        prof::PhaseSample pack;
        pack.phase = prof::kPhaseFp16Pack;
        const double elems = static_cast<double>(delta.fp16_converted);
        pack.flops = elems;  // one convert per element
        pack.bytes = fp16_pack_traffic(elems);
        pack.t_dram = pack.bytes / (dev.dram_bw * dev.memcpy_efficiency);
        pack.t_compute = elems / (dev.peak_flops * dev.compute_efficiency);
        last_verdicts.push_back(prof::classify(pack));
      }
      if (multi_gpu) {
        prof::PhaseSample mg;
        mg.phase = prof::kPhaseMgpuAllGather;
        mg.wall_s = scaling.total_s;
        mg.t_compute = scaling.compute_s;
        mg.t_comm = scaling.comm_s;
        last_verdicts.push_back(prof::classify(mg));
      }
      if (streamed != nullptr) {
        const OocEpochStats& os = engine.ooc_stats_last_epoch();
        prof::PhaseSample st;
        st.phase = prof::kPhaseOocStream;
        st.wall_s = os.stall_s + os.compute_s;
        st.t_compute = os.compute_s;
        st.t_stall = os.stall_s;
        st.flops = herm_ops.flops + solve_ops.flops;
        st.bytes = static_cast<double>(os.bytes_loaded);
        last_verdicts.push_back(prof::classify(st));
      }
    }

    if (telemetry.is_open()) {
      const auto& phase = engine.phase_seconds_last_epoch();

      prof::JsonObject rec;
      rec.set("type", "epoch").set("epoch", epoch);
      rec.set("seconds", time_offset + sw.seconds())
          .set("epoch_s", epoch_s);
      if (have_test) {
        rec.set("rmse", final_rmse);
      } else {
        rec.set_null("rmse");
      }
      prof::JsonObject phase_obj;
      phase_obj.set("hermitian", phase.hermitian);
      phase_obj.set("solve", phase.solve);
      phase_obj.set("rmse_eval", eval_s);
      rec.set_raw("phase_s", phase_obj.str());

      prof::JsonObject solver_obj;
      solver_obj.set("systems", delta.systems);
      solver_obj.set("cg_iterations", delta.cg_iterations);
      solver_obj.set("failures", delta.failures);
      solver_obj.set("cg_fallbacks", delta.cg_fallbacks);
      solver_obj.set("fp16_fallbacks", delta.fp16_fallbacks);
      solver_obj.set("fp16_pack_bytes", delta.fp16_converted * 2);
      std::string hist = "{";
      for (std::size_t i = 0; i < delta.cg_hist.size(); ++i) {
        if (delta.cg_hist[i] == 0) {
          continue;
        }
        if (hist.size() > 1) {
          hist += ',';
        }
        hist += '"' + std::to_string(i) + "\":" +
                std::to_string(delta.cg_hist[i]);
      }
      hist += '}';
      solver_obj.set_raw("cg_hist", hist);
      rec.set_raw("solver", solver_obj.str());

      prof::JsonObject ops;
      ops.set("hermitian_flops", herm_ops.flops);
      ops.set("hermitian_bytes", herm_ops.bytes());
      ops.set("solve_flops", solve_ops.flops);
      ops.set("solve_bytes", solve_ops.bytes());
      if (phase.hermitian > 0) {
        ops.set("hermitian_gflops",
                herm_ops.flops / phase.hermitian * 1e-9);
      }
      if (phase.solve > 0) {
        ops.set("solve_gbps", solve_ops.bytes() / phase.solve * 1e-9);
      }
      rec.set_raw("host_ops", ops.str());

      prof::JsonObject sim;
      sim.set("l1_hit_rate", cache_sim.l1_hit_rate());
      sim.set("l2_hit_rate", cache_sim.l2_hit_rate());
      sim.set("dram_bytes", cache_sim.dram_bytes(128));
      rec.set_raw("sim_cache", sim.str());

      if (multi_gpu) {
        prof::JsonObject mg;
        mg.set("gpus", engine.gpus());
        mg.set("link", cfg.link_name);
        mg.set("compute_s", scaling.compute_s);
        mg.set("comm_s", scaling.comm_s);
        mg.set("total_s", scaling.total_s);
        mg.set("single_gpu_s", scaling.single_gpu_s);
        mg.set("speedup", scaling.speedup);
        mg.set("scaling_efficiency", scaling.efficiency);
        mg.set("comm_fraction", scaling.comm_fraction);
        rec.set_raw("multi_gpu", mg.str());
      }

      if (streamed != nullptr) {
        // Measured streaming breakdown of this epoch plus the (epoch-
        // invariant) modeled transfer pipeline. stall_s is the exposed
        // wait; load_s is total time inside tile loads, which overlaps
        // compute when prefetch is on.
        const OocEpochStats& os = engine.ooc_stats_last_epoch();
        prof::JsonObject ooc;
        ooc.set("stall_s", os.stall_s);
        ooc.set("compute_s", os.compute_s);
        ooc.set("load_s", os.load_s);
        ooc.set("tiles", os.tiles);
        ooc.set("cache_hits", os.cache_hits);
        ooc.set("cache_misses", os.cache_misses);
        ooc.set("bytes_loaded", os.bytes_loaded);
        ooc.set("overlap", engine.overlap_active());
        ooc.set("model_transfer_s", ooc_timeline.transfer_s);
        ooc.set("model_compute_s", ooc_timeline.compute_s);
        ooc.set("model_serial_s", ooc_timeline.serial_s);
        ooc.set("model_pipelined_s", ooc_timeline.pipelined_s);
        ooc.set("model_overlap_gain", ooc_timeline.overlap_gain);
        rec.set_raw("ooc", ooc.str());
      }

      telemetry.write(rec);

      // One bottleneck record per phase, after the epoch record it
      // explains (schema 2; tools/trace_report.py --check enforces the
      // shape, tools/cumf_report.py diffs runs by these).
      for (const prof::Verdict& v : last_verdicts) {
        prof::JsonObject bn;
        bn.set("type", "bottleneck").set("epoch", epoch);
        bn.set("phase", v.phase);
        bn.set("bound", prof::to_string(v.bound));
        bn.set("arithmetic_intensity", v.arithmetic_intensity);
        bn.set("pct_of_roof", v.pct_of_roof);
        bn.set("headroom", v.headroom);
        bn.set("wall_s", v.wall_s);
        prof::JsonObject roof_s;
        roof_s.set("compute", v.sample.t_compute);
        roof_s.set("dram", v.sample.t_dram);
        roof_s.set("l2", v.sample.t_l2);
        roof_s.set("latency", v.sample.t_latency);
        roof_s.set("comm", v.sample.t_comm);
        roof_s.set("stall", v.sample.t_stall);
        bn.set_raw("roof_s", roof_s.str());
        bn.set("flops", v.sample.flops);
        bn.set("bytes", v.sample.bytes);
        telemetry.write(bn);
      }
    }

    if (!cfg.checkpoint_dir.empty() &&
        (epoch % cfg.checkpoint_every == 0 || epoch == cfg.epochs)) {
      TrainCheckpoint ckpt;
      ckpt.epoch = static_cast<std::uint32_t>(epoch);
      ckpt.rng = rng.state();
      ckpt.train_seconds = time_offset + sw.seconds();
      ckpt.solve_stats = engine.solve_stats();
      ckpt.curve = tracker.curve();
      ckpt.x = engine.user_factors();
      ckpt.theta = engine.item_factors();
      ckpt.seed = options.seed;
      ckpt.f = options.f;
      ckpt.solver_kind = static_cast<std::uint32_t>(options.solver.kind);
      ckpt.cg_fs = options.solver.cg_fs;
      ckpt.lambda = options.lambda;
      ckpt.rows = ratings.rows();
      ckpt.cols = ratings.cols();
      ckpt.train_nnz = cfg.train_nnz;
      write_checkpoint_file(checkpoint_path(cfg.checkpoint_dir, epoch),
                            ckpt);
      prune_checkpoints(cfg.checkpoint_dir, 3);
      if (analysis::FaultInjector::enabled() &&
          analysis::FaultInjector::instance().should_crash_after_epoch(
              epoch)) {
        // Simulated crash: die without unwinding, exactly like a kill -9
        // would. The checkpoint above is already durable (temp + rename),
        // so a --resume run continues bit-identically from here.
        std::fprintf(stderr,
                     "fault injection: crashing after epoch %d "
                     "(checkpoint is durable)\n",
                     epoch);
        std::fflush(nullptr);
        std::_Exit(42);
      }
    }
  }

  std::printf("trained %d epochs (f=%zu, %s) in %.2f s\n", cfg.epochs,
              options.f, to_string(options.solver.kind),
              time_offset + sw.seconds());
  if (have_test) {
    std::printf("test RMSE: %.4f\n", final_rmse);
    std::printf("%s", tracker.to_csv().c_str());
  }
  if (telemetry.is_open()) {
    std::printf("telemetry written to %s (%zu records)\n",
                cfg.metrics_path.c_str(), telemetry.lines_written());
  }
  summary.roof_device = dev.name;
  summary.verdicts = std::move(last_verdicts);
  summary.timeline_host_s = modeled.host_s;
  // Engine-level phases: measured streaming seconds, or the modeled
  // multi-device compute/comm split (the CLI never builds both).
  const OocEpochStats& os = engine.ooc_stats_last_epoch();
  const double wall =
      multi_gpu ? scaling.total_s : os.stall_s + os.compute_s;
  const auto add_phase = [&](const char* name, double seconds) {
    summary.engine_phases.push_back(
        {name, seconds, wall > 0 ? seconds / wall * 100.0 : 0.0});
  };
  if (streamed != nullptr) {
    add_phase("ooc_stall", os.stall_s);
    add_phase("ooc_load", os.load_s);
    add_phase("ooc_compute", os.compute_s);
  }
  if (multi_gpu) {
    add_phase("mgpu_compute", scaling.compute_s);
    add_phase("mgpu_comm", scaling.comm_s);
  }
  final_stats = engine.solve_stats();
  model = FactorModel{engine.user_factors(), engine.item_factors()};
  return 0;
}

int cmd_train(int argc, char** argv) {
  if (argc < 4) {
    usage();
  }
  const std::string ratings_path = argv[2];
  const std::string model_path = argv[3];
  int f = 32;
  double lambda = 0.05;
  int epochs = 10;
  SolverKind solver = SolverKind::CgFp16;
  bool solver_given = false;
  std::uint32_t fs = 6;
  bool fs_given = false;
  int tile = 10;
  bool tile_given = false;
  int bin = 32;
  bool bin_given = false;
  AlsSchedule schedule = AlsSchedule::nnz_guided;
  bool schedule_given = false;
  std::string autotune_path;
  int workers = 1;
  bool workers_given = false;
  int gpus = 0;  // 0 = --gpus not given: single-engine AlsEngine path
  std::string link_name = "nvlink";
  bool link_given = false;
  std::optional<double> implicit_alpha;
  LoaderOptions loader;
  double test_fraction = 0.1;
  bool run_cuverify = false;
  std::uint64_t seed = 1;
  bool seed_given = false;
  std::string trace_path;
  std::string metrics_path;
  bool prof_summary = false;
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  bool resume = false;
  std::string shard_dir;
  std::uint64_t host_mem = 0;
  std::uint64_t device_mem = 0;
  bool ooc_overlap = true;
  analysis::FaultPlan fault_plan;
  bool inject = false;

  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
      }
      return argv[++i];
    };
    if (arg == "-f") {
      f = static_cast<int>(cli::parse_int(kTool, "-f", next(), 1, 65536));
    } else if (arg == "-l") {
      lambda = cli::parse_double(kTool, "-l", next(), 0.0, 1e9);
    } else if (arg == "-t" || arg == "--epochs") {
      epochs = static_cast<int>(
          cli::parse_int(kTool, arg.c_str(), next(), 1, 1000000));
    } else if (arg == "--solver") {
      solver = parse_solver(next());
      solver_given = true;
    } else if (arg == "--fs") {
      fs = static_cast<std::uint32_t>(
          cli::parse_uint(kTool, "--fs", next(), 1, 1024));
      fs_given = true;
    } else if (arg == "--tile") {
      tile = static_cast<int>(
          cli::parse_int(kTool, "--tile", next(), 1, 65536));
      tile_given = true;
    } else if (arg == "--bin") {
      bin = static_cast<int>(
          cli::parse_int(kTool, "--bin", next(), 1, 65536));
      bin_given = true;
    } else if (arg == "--schedule") {
      const std::string name = next();
      const auto parsed = schedule_from_name(name);
      if (!parsed) {
        std::fprintf(stderr,
                     "cumf_train: --schedule must be static or nnz\n");
        return 2;
      }
      schedule = *parsed;
      schedule_given = true;
    } else if (arg == "--auto-tune") {
      autotune_path = next();
    } else if (arg == "--workers") {
      workers = static_cast<int>(
          cli::parse_int(kTool, "--workers", next(), 1, 4096));
      workers_given = true;
    } else if (arg == "--gpus") {
      gpus = static_cast<int>(
          cli::parse_int(kTool, "--gpus", next(), 1, 1024));
    } else if (arg == "--link") {
      link_name = next();
      link_given = true;
      if (link_name != "pcie3" && link_name != "nvlink") {
        std::fprintf(stderr,
                     "cumf_train: --link must be pcie3 or nvlink\n");
        return 2;
      }
    } else if (arg == "--implicit") {
      implicit_alpha = cli::parse_double(kTool, "--implicit", next(), 0.0,
                                         1e9);
    } else if (arg == "--movielens") {
      loader.format = RatingsFormat::MovieLens;
      loader.one_based = true;
    } else if (arg == "--test") {
      test_fraction = cli::parse_double(kTool, "--test", next(), 0.0, 0.99);
    } else if (arg == "--cuverify") {
      run_cuverify = true;
    } else if (arg == "--seed") {
      seed = cli::parse_uint(kTool, "--seed", next(), 0,
                             std::numeric_limits<std::uint64_t>::max());
      seed_given = true;
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else if (arg == "--prof-summary") {
      prof_summary = true;
    } else if (arg == "--checkpoint") {
      checkpoint_dir = next();
    } else if (arg == "--checkpoint-every") {
      checkpoint_every = static_cast<int>(
          cli::parse_int(kTool, "--checkpoint-every", next(), 1, 1000000));
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--shards") {
      shard_dir = next();
    } else if (arg == "--host-mem") {
      host_mem = parse_mem_size(next());
    } else if (arg == "--device-mem") {
      device_mem = parse_mem_size(next());
    } else if (arg == "--no-overlap") {
      ooc_overlap = false;
    } else if (arg == "--inject-seed") {
      fault_plan.seed =
          cli::parse_uint(kTool, "--inject-seed", next(), 0,
                          std::numeric_limits<std::uint64_t>::max());
      inject = true;
    } else if (arg == "--inject-nan-a") {
      fault_plan.nan_a_prob =
          cli::parse_double(kTool, "--inject-nan-a", next(), 0.0, 1.0);
      inject = true;
    } else if (arg == "--inject-inf-b") {
      fault_plan.inf_b_prob =
          cli::parse_double(kTool, "--inject-inf-b", next(), 0.0, 1.0);
      inject = true;
    } else if (arg == "--inject-indefinite-a") {
      fault_plan.indefinite_a_prob = cli::parse_double(
          kTool, "--inject-indefinite-a", next(), 0.0, 1.0);
      inject = true;
    } else if (arg == "--inject-fp16-overflow") {
      fault_plan.fp16_overflow_prob = cli::parse_double(
          kTool, "--inject-fp16-overflow", next(), 0.0, 1.0);
      inject = true;
    } else if (arg == "--crash-after-epoch") {
      fault_plan.crash_at_epoch = static_cast<int>(
          cli::parse_int(kTool, "--crash-after-epoch", next(), 1, 1000000));
      inject = true;
    } else {
      std::fprintf(stderr, "cumf_train: unknown option '%s'\n", arg.c_str());
      usage();
    }
  }

  // A shard store can be named explicitly (--shards) or positionally (the
  // <ratings> argument is a directory holding shard-meta.bin).
  if (shard_dir.empty() && is_shard_dir(ratings_path)) {
    shard_dir = ratings_path;
  }
  const bool ooc = !shard_dir.empty();
  if (ooc) {
    if (!is_shard_dir(shard_dir)) {
      std::fprintf(stderr, "cumf_train: '%s' has no %s (run cumf_shard "
                           "build first)\n",
                   shard_dir.c_str(), std::string(kShardMetaFile).c_str());
      return 2;
    }
    if (implicit_alpha || gpus > 0 || run_cuverify) {
      std::fprintf(stderr,
                   "cumf_train: --shards is incompatible with --implicit, "
                   "--gpus and --cuverify (they need the full matrix in "
                   "memory)\n");
      return 2;
    }
    if (host_mem == 0 && autotune_path.empty()) {
      std::fprintf(stderr,
                   "cumf_train: out-of-core training requires --host-mem\n");
      return 2;
    }
  } else if (host_mem != 0 || device_mem != 0 || !ooc_overlap) {
    std::fprintf(stderr,
                 "cumf_train: --host-mem/--device-mem/--no-overlap only "
                 "apply to out-of-core training (--shards)\n");
    return 2;
  }
  if (resume && checkpoint_dir.empty()) {
    std::fprintf(stderr, "cumf_train: --resume requires --checkpoint DIR\n");
    return 2;
  }
  if (!checkpoint_dir.empty() && implicit_alpha) {
    std::fprintf(stderr,
                 "cumf_train: checkpointing is only supported for the "
                 "explicit ALS path\n");
    return 2;
  }
  if (!metrics_path.empty() && implicit_alpha) {
    std::fprintf(stderr,
                 "cumf_train: --metrics is only supported for the explicit "
                 "ALS path\n");
    return 2;
  }
  if (checkpoint_every < 1) {
    std::fprintf(stderr, "cumf_train: --checkpoint-every must be >= 1\n");
    return 2;
  }
  if (gpus > 0 && implicit_alpha) {
    std::fprintf(stderr,
                 "cumf_train: --gpus is only supported for the explicit "
                 "ALS path\n");
    return 2;
  }
  if (gpus > 1 && workers > 1) {
    std::fprintf(stderr,
                 "cumf_train: note: --workers is ignored with --gpus "
                 "(the device count is the parallelism knob)\n");
  }
  if (inject) {
    analysis::FaultInjector::instance().arm(fault_plan);
  }

  // Profiling is runtime-gated: any telemetry flag turns the tracer on
  // (the per-epoch phase seconds come from the same clock reads as the
  // trace spans, so --metrics needs it too).
  const bool profiling =
      !trace_path.empty() || !metrics_path.empty() || prof_summary;
  if (profiling) {
    prof::Tracer::instance().enable();
    prof::Tracer::instance().set_thread_name("main");
  }

  std::optional<ShardMeta> shard_meta;
  RatingsCoo ratings;
  double load_seconds = 0.0;
  std::uintmax_t load_bytes = 0;
  if (ooc) {
    shard_meta = read_shard_meta(shard_dir);
    // The split is baked into the shard store; training must replay the
    // init of the seed that built it or the factors silently diverge from
    // the in-core reference.
    if (!seed_given) {
      seed = shard_meta->seed;
    } else if (seed != shard_meta->seed) {
      std::fprintf(stderr,
                   "cumf_train: note: --seed %llu differs from the shard "
                   "store's build seed %llu; factors will not match an "
                   "in-core run of either seed\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(shard_meta->seed));
    }
    ratings = RatingsCoo(shard_meta->rows, shard_meta->cols);
    std::printf("shard store %s: %u x %u, %llu train + %llu test nnz, "
                "%zu+%zu tiles\n",
                shard_dir.c_str(), shard_meta->rows, shard_meta->cols,
                static_cast<unsigned long long>(shard_meta->train_nnz),
                static_cast<unsigned long long>(shard_meta->test_nnz),
                shard_meta->row_tiles.size(), shard_meta->col_tiles.size());
  } else {
    std::printf("loading %s...\n", ratings_path.c_str());
    Stopwatch load_sw;
    ratings = load_ratings_file(ratings_path, loader);
    load_seconds = load_sw.seconds();
    std::error_code ec;
    load_bytes = std::filesystem::file_size(ratings_path, ec);
    if (ec) {
      load_bytes = 0;
    }
    std::printf("  %u x %u, %llu ratings\n", ratings.rows(), ratings.cols(),
                static_cast<unsigned long long>(ratings.nnz()));
  }

  // --auto-tune: load the tuned config keyed by this run's device x dataset
  // fingerprint and apply its knobs. Explicit command-line flags win over
  // the tuned values; a config for a different run is a hard error.
  simd::KernelPath kernel_path = simd::kDefaultPath;
  std::optional<tune::TunedConfig> tuned;
  if (!autotune_path.empty()) {
    if (implicit_alpha) {
      std::fprintf(stderr,
                   "cumf_train: --auto-tune only applies to the explicit "
                   "ALS path\n");
      return 2;
    }
    tune::TuneFingerprint expected;
    expected.device = gpusim::DeviceSpec::maxwell_titan_x().name;
    expected.rows = ooc ? shard_meta->rows : ratings.rows();
    expected.cols = ooc ? shard_meta->cols : ratings.cols();
    expected.nnz = ooc ? shard_meta->train_nnz + shard_meta->test_nnz
                       : static_cast<std::uint64_t>(ratings.nnz());
    expected.f = static_cast<std::uint32_t>(f);
    expected.lambda = static_cast<float>(lambda);
    try {
      tuned = tune::load_tuned_config(autotune_path, expected);
    } catch (const FrameError& e) {
      std::fprintf(stderr, "cumf_train: rejected tuned config [%s]: %s\n",
                   to_string(e.reason()), e.what());
      return 2;
    }
    const tune::TuneChoice& tc = tuned->choice;
    if (!tile_given) {
      tile = tc.tile;
    }
    if (!bin_given) {
      bin = tc.bin;
    }
    if (!solver_given) {
      solver = tc.solver;
    }
    if (!fs_given) {
      fs = tc.fs;
    }
    if (!schedule_given) {
      schedule = tc.schedule;
    }
    if (gpus == 0 && tc.gpus > 1 && !ooc) {
      gpus = tc.gpus;
    } else if (!workers_given && gpus == 0) {
      workers = tc.workers;
    }
    if (!link_given) {
      link_name = tc.link;
    }
    kernel_path = tc.path;
    if (ooc && host_mem == 0) {
      host_mem = tc.ooc_host_bytes;
    }
    std::printf(
        "auto-tune: tile=%d bin=%d solver=%s fs=%u schedule=%s path=%s "
        "workers=%d gpus=%d link=%s — modeled epoch %.3g s vs default "
        "%.3g s (%.2fx), searched %llu candidates (%llu pruned by model, "
        "%llu probed)\n",
        tc.tile, tc.bin, solver_cli_name(tc.solver), tc.fs,
        to_string(tc.schedule), to_string(tc.path), tc.workers, tc.gpus,
        tc.link.c_str(), tuned->model_epoch_s, tuned->default_epoch_s,
        tuned->model_epoch_s > 0
            ? tuned->default_epoch_s / tuned->model_epoch_s
            : 0.0,
        static_cast<unsigned long long>(tuned->candidates),
        static_cast<unsigned long long>(tuned->pruned),
        static_cast<unsigned long long>(tuned->finalists));
  }
  if (ooc && host_mem == 0) {
    std::fprintf(stderr,
                 "cumf_train: out-of-core training requires --host-mem "
                 "(or an --auto-tune config with a host budget)\n");
    return 2;
  }

  // The explicit engine's options, final now that flags and --auto-tune
  // are resolved: the static pregate below verifies this exact kernel.
  AlsOptions options;
  options.f = static_cast<std::size_t>(f);
  options.lambda = static_cast<real_t>(lambda);
  options.solver.kind = solver;
  options.solver.cg_fs = fs;
  options.solver.path = kernel_path;
  options.hermitian.tile = pick_tile(static_cast<std::size_t>(f), tile);
  options.hermitian.bin = bin;
  options.schedule = schedule;
  options.workers = workers;
  options.seed = seed;

  Rng rng(seed);
  TrainTestSplit split;
  if (ooc) {
    // Train stays an empty shell — the tiles stream through the engine's
    // cache; only the (small) test set is materialized for RMSE points.
    split.train = RatingsCoo(shard_meta->rows, shard_meta->cols);
    split.test = read_shard_test(shard_dir);
  } else if (test_fraction > 0) {
    split = split_holdout(ratings, test_fraction, rng);
  } else {
    split = TrainTestSplit{ratings,
                           RatingsCoo(ratings.rows(), ratings.cols())};
  }

  // FP16 range prediction is one cheap pass over the ratings and feeds both
  // the --cuverify report and the --metrics header's predicted_fp16_safe
  // bit, so compute it whenever either consumer is active. Both update
  // directions pack an A (user rows and item rows), so both sides must be
  // safe.
  bool predicted_fp16_safe = true;
  if (run_cuverify || !metrics_path.empty()) {
    namespace cuv = analysis::cuverify;
    auto train_sorted = split.train;
    train_sorted.sort_and_dedup();
    const auto csr = CsrMatrix::from_coo(train_sorted);
    const auto csr_t = csr.transposed();

    cuv::Fp16RangeOptions range;
    range.f = static_cast<std::size_t>(f);
    range.lambda = lambda;
    range.cg_fs = fs;
    const auto user_side = cuv::analyze_fp16_range(csr, range);
    const auto item_side = cuv::analyze_fp16_range(csr_t, range);
    predicted_fp16_safe =
        user_side.predicted_fp16_safe && item_side.predicted_fp16_safe;

    if (run_cuverify) {
      // Static pregate: prove the access plans of the kernels this run
      // would launch, with zero execution (launch_count pins the claim).
      const std::uint64_t launches_before = cusim::launch_count();
      std::printf("cuverify: static access-plan analysis (no execution)\n");
      std::vector<analysis::Finding> findings;

      const auto verify_side = [&](const CsrMatrix& side, const char* name) {
        if (side.rows() == 0) {
          return;
        }
        index_t densest = 0;
        for (index_t u = 1; u < side.rows(); ++u) {
          if (side.row_nnz(u) > side.row_nnz(densest)) {
            densest = u;
          }
        }
        cusim::HermitianPlanParams params;
        params.rows = side.rows();
        params.theta_rows = side.cols();
        params.f = static_cast<std::size_t>(f);
        params.tile = options.hermitian.tile;
        params.bin = options.hermitian.bin;
        const auto row = side.row_cols(densest);
        params.cols.assign(row.begin(), row.end());
        params.regs_per_thread =
            gpusim::hermitian_regs_per_thread(f, params.tile);
        auto plan = cusim::hermitian_kernel_plan(params);
        plan.kernel += std::string("[") + name + "]";
        const auto report = cuv::verify(plan);
        std::printf("%s", report.summary().c_str());
        findings.insert(findings.end(), report.findings.begin(),
                        report.findings.end());
      };
      verify_side(csr, "update-X");
      verify_side(csr_t, "update-Theta");

      const auto batch =
          std::min<std::size_t>(std::max<index_t>(csr.rows(), 1), 64);
      const auto cg_report = cuv::verify(
          cusim::cg_kernel_plan(batch, static_cast<std::size_t>(f), fs));
      std::printf("%s", cg_report.summary().c_str());
      findings.insert(findings.end(), cg_report.findings.begin(),
                      cg_report.findings.end());

      const bool cg16 = solver == SolverKind::CgFp16;
      for (const auto* side : {&user_side, &item_side}) {
        const auto fp16 = cuv::fp16_findings(
            *side, cg16, side == &user_side ? "update-X" : "update-Theta");
        std::printf("%s", analysis::render(fp16).c_str());
        findings.insert(findings.end(), fp16.begin(), fp16.end());
      }

      const std::uint64_t launches_after = cusim::launch_count();
      if (analysis::exit_code(findings) != 0) {
        std::fprintf(stderr,
                     "cuverify: error findings in the training kernels' "
                     "access plans; refusing to train\n");
        return 1;
      }
      std::printf("cuverify: PASS (%llu kernels executed)\n",
                  static_cast<unsigned long long>(launches_after -
                                                  launches_before));
    }
  }

  FactorModel model;
  SolveStats final_stats;  // explicit path only; drives --prof-summary
  RunSummary summary;      // likewise: roofline verdicts + engine phases
  Stopwatch sw;
  if (implicit_alpha) {
    // Implicit path: the mllib facade drives ImplicitAlsEngine; per-epoch
    // telemetry is an explicit-path feature (rejected above; spans still
    // record).
    auto als = mllib::Als()
                   .set_rank(f)
                   .set_reg_param(lambda)
                   .set_max_iter(epochs)
                   .set_num_blocks(workers)
                   .set_solver(solver, fs)
                   .set_implicit_prefs(true)
                   .set_alpha(*implicit_alpha);
    if (seed_given) {
      als.set_seed(seed);
    }
    const auto fitted = als.fit(split.train);
    std::printf("trained %d epochs (f=%d, %s) in %.2f s\n", epochs, f,
                to_string(solver), sw.seconds());
    model = FactorModel{fitted.user_factors(), fitted.item_factors()};
  } else {
    // Explicit path: every row source and partition is the one AlsEngine
    // driven through run_explicit, so every epoch yields a test RMSE point
    // and, with --metrics, one telemetry record; all of them produce
    // bit-identical factors. The device-shard (--gpus) and streamed
    // (--shards) engines model their device timeline here, once.
    ExplicitConfig cfg;
    cfg.ratings_path = ratings_path;
    cfg.metrics_path = metrics_path;
    cfg.checkpoint_dir = checkpoint_dir;
    cfg.lambda = lambda;
    cfg.epochs = epochs;
    cfg.link_name = link_name;
    cfg.checkpoint_every = checkpoint_every;
    cfg.resume = resume;
    cfg.predicted_fp16_safe = predicted_fp16_safe;
    cfg.train_nnz = ooc ? shard_meta->train_nnz
                        : static_cast<std::uint64_t>(split.train.nnz());
    cfg.shard_dir = shard_dir;
    cfg.ooc.host_mem_bytes = host_mem;
    cfg.ooc.device_mem_bytes = device_mem;
    cfg.ooc.overlap = ooc_overlap;
    cfg.prof_summary = prof_summary;
    if (tuned) {
      cfg.tuned_json = tune::tuned_config_payload(*tuned);
    }

    const auto model_dev = gpusim::DeviceSpec::pascal_p100();
    const gpusim::LinkSpec link = gpusim::link_by_name(link_name);
    const AlsKernelConfig kc = kernel_config(options);
    EngineModel modeled;
    modeled.device = model_dev.name;
    int rc = 0;
    if (ooc) {
      OocAlsEngine engine(shard_dir, options, cfg.ooc);
      if (ooc_overlap && !engine.overlap_active()) {
        std::fprintf(stderr,
                     "cumf_train: note: budgets too small to double-buffer "
                     "tiles; prefetch disabled (synchronous loads)\n");
      }
      // Per-tile transfers over the chosen link pipelined against per-tile
      // compute.
      {
        CUMF_PROF_SCOPE("timeline_model", "gpusim");
        Stopwatch model_sw;
        modeled.ooc = engine.epoch_timeline(model_dev, kc, link,
                                            engine.overlap_active());
        modeled.host_s = model_sw.seconds();
      }
      std::printf(
          "out-of-core model (%zu+%zu tiles over %s on %s): epoch %.3f s "
          "(serial %.3f s, overlap gain %.2fx)%s\n",
          engine.meta().row_tiles.size(), engine.meta().col_tiles.size(),
          link.name.c_str(), model_dev.name.c_str(), modeled.ooc.pipelined_s,
          modeled.ooc.serial_s, modeled.ooc.overlap_gain,
          engine.overlap_active() ? "" : " [overlap disabled]");
      rc = run_explicit(engine, modeled, cfg, ratings, split, rng, model,
                        final_stats, summary);
    } else if (gpus >= 1) {
      MultiGpuAls engine(split.train, options, gpus);
      // Cost-model compute per shard plus the ring all-gather over the
      // chosen link, with pipelined overlap.
      {
        CUMF_PROF_SCOPE("timeline_model", "gpusim");
        Stopwatch model_sw;
        modeled.scaling = engine.scaling_report(model_dev, kc, link);
        modeled.host_s = model_sw.seconds();
      }
      const MultiGpuTimeline& timeline = modeled.scaling.timeline;
      modeled.device_compute_s = timeline.update_x.device_compute_s;
      for (std::size_t d = 0; d < modeled.device_compute_s.size(); ++d) {
        modeled.device_compute_s[d] +=
            timeline.update_theta.device_compute_s[d];
      }
      const MultiGpuScaling& sc = modeled.scaling;
      std::printf(
          "multi-GPU model (%d x %s on %s): epoch %.3f s vs %.3f s on one "
          "device — speedup %.2fx, efficiency %.0f%%, comm %.1f%%\n",
          engine.gpus(), link.name.c_str(), model_dev.name.c_str(),
          sc.total_s, sc.single_gpu_s, sc.speedup, sc.efficiency * 100.0,
          sc.comm_fraction * 100.0);
      rc = run_explicit(engine, modeled, cfg, ratings, split, rng, model,
                        final_stats, summary);
    } else {
      AlsEngine engine(split.train, options);
      rc = run_explicit(engine, modeled, cfg, ratings, split, rng, model,
                        final_stats, summary);
    }
    if (rc != 0) {
      return rc;
    }
  }

  if (inject) {
    const analysis::FaultCounts& fc =
        analysis::FaultInjector::instance().counts();
    std::printf("faults injected: nan_a=%llu inf_b=%llu indefinite_a=%llu "
                "fp16_overflow=%llu\n",
                static_cast<unsigned long long>(fc.nan_a.load()),
                static_cast<unsigned long long>(fc.inf_b.load()),
                static_cast<unsigned long long>(fc.indefinite_a.load()),
                static_cast<unsigned long long>(fc.fp16_overflow.load()));
  }

  write_model_file(model_path, model);
  std::printf("model written to %s\n", model_path.c_str());

  if (!trace_path.empty()) {
    if (!prof::Tracer::instance().write_chrome_trace(trace_path)) {
      std::fprintf(stderr, "cumf_train: cannot write trace to '%s'\n",
                   trace_path.c_str());
      return 1;
    }
    std::printf("trace written to %s\n", trace_path.c_str());
  }
  if (prof_summary) {
    std::printf("\n%-24s %8s %12s %10s %10s %10s %10s\n", "span", "count",
                "total ms", "mean us", "p50 us", "p95 us", "max us");
    for (const auto& st : prof::Tracer::instance().summarize()) {
      std::printf("%-24s %8llu %12.3f %10.2f %10.2f %10.2f %10.2f\n",
                  st.name.c_str(), static_cast<unsigned long long>(st.count),
                  st.total_ms, st.mean_us, st.p50_us, st.p95_us, st.max_us);
    }
    const auto dropped = prof::Tracer::instance().total_dropped();
    if (dropped > 0) {
      std::printf("(%llu events dropped by ring wrap)\n",
                  static_cast<unsigned long long>(dropped));
    }
    std::printf("solver fallbacks: cg->lu %llu, fp16->fp32 %llu, "
                "unsolvable %llu (of %llu systems)\n",
                static_cast<unsigned long long>(final_stats.cg_fallbacks),
                static_cast<unsigned long long>(final_stats.fp16_fallbacks),
                static_cast<unsigned long long>(final_stats.failures),
                static_cast<unsigned long long>(final_stats.systems));
    if (load_bytes > 0 && load_seconds > 0) {
      const double mb = static_cast<double>(load_bytes) / 1e6;
      std::printf("ratings read: %.1f MB in %.3f s (%.1f MB/s)\n", mb,
                  load_seconds, mb / load_seconds);
    }
    if (summary.timeline_host_s > 0) {
      std::printf("timeline model: %.3f s of host time before epoch 1\n",
                  summary.timeline_host_s);
    }
    if (!summary.engine_phases.empty()) {
      std::printf("\n%-24s %12s %9s\n", "engine phase", "seconds",
                  "% wall");
      for (const RunSummary::EnginePhase& p : summary.engine_phases) {
        std::printf("%-24s %12.6f %8.1f%%\n", p.name.c_str(), p.seconds,
                    p.pct);
      }
    }
    if (!summary.verdicts.empty()) {
      std::printf("\n%s",
                  prof::render_roofline_table(summary.verdicts,
                                              summary.roof_device)
                      .c_str());
    }
    if (tuned && !tuned->verdicts.empty()) {
      std::printf(
          "\nauto-tune winner (modeled epoch %.3g s, %.2fx over default) "
          "— why it wins:\n%s",
          tuned->model_epoch_s,
          tuned->model_epoch_s > 0
              ? tuned->default_epoch_s / tuned->model_epoch_s
              : 0.0,
          prof::render_roofline_table(tuned->verdicts,
                                      tuned->fingerprint.device)
              .c_str());
    }
  }
  return 0;
}

int cmd_predict(int argc, char** argv) {
  if (argc < 4) {
    usage();
  }
  const auto model = read_model_file(argv[2]);
  const auto pairs = load_ratings_file(argv[3], LoaderOptions{});
  for (const Rating& e : pairs.entries()) {
    CUMF_EXPECTS(e.u < model.x.rows() && e.v < model.theta.rows(),
                 "pair outside the model's shape");
    std::printf("%u %u %.4f\n", e.u, e.v,
                static_cast<double>(
                    dot(model.x.row(e.u), model.theta.row(e.v))));
  }
  return 0;
}

int cmd_recommend(int argc, char** argv) {
  if (argc < 5) {
    usage();
  }
  const auto model = read_model_file(argv[2]);
  auto ratings = load_ratings_file(argv[3], LoaderOptions{});
  const auto user = static_cast<index_t>(cli::parse_uint(
      kTool, "<user>", argv[4], 0, std::numeric_limits<index_t>::max()));
  std::size_t k = 10;
  for (int i = 5; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "-k") == 0) {
      k = static_cast<std::size_t>(
          cli::parse_uint(kTool, "-k", argv[i + 1], 1, 1000000));
    }
  }
  ratings.sort_and_dedup();
  const auto seen = CsrMatrix::from_coo(ratings);
  CUMF_EXPECTS(user < seen.rows(), "user outside the dataset");
  for (const auto& item :
       recommend_top_k(model.x, model.theta, seen, user, k)) {
    std::printf("item %u\tscore %.4f\n", item.item,
                static_cast<double>(item.score));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
  }
  const std::string command = argv[1];
  try {
    if (command == "train") {
      return cmd_train(argc, argv);
    }
    if (command == "predict") {
      return cmd_predict(argc, argv);
    }
    if (command == "recommend") {
      return cmd_recommend(argc, argv);
    }
    usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
