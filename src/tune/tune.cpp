#include "tune/tune.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>
#include <utility>

#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "data/atomic_file.hpp"
#include "gpusim/interconnect.hpp"
#include "gpusim/occupancy.hpp"
#include "metrics/rmse.hpp"
#include "metrics/roofline.hpp"
#include "prof/telemetry.hpp"
#include "sparse/partition.hpp"

namespace cumf::tune {

namespace {

/// Modeled compute derate of the scalar kernel path: the committed
/// BENCH_hotpath numbers put the 8-lane SIMD hermitian at ~2.8x the scalar
/// variant, so a scalar candidate's compute roof is charged that factor.
/// Memory roofs are path-independent (both variants move the same bytes).
constexpr double kScalarComputeDerate = 2.8;

bool is_cg(SolverKind kind) {
  return kind == SolverKind::CgFp32 || kind == SolverKind::CgFp16 ||
         kind == SolverKind::PcgFp32;
}

const char* path_name(simd::KernelPath path) {
  return path == simd::KernelPath::scalar ? "scalar" : "simd";
}

/// Roof-max of one kernel with the compute component rescaled (the scalar
/// path derate); mirrors how gpusim::kernel_time defines `seconds`.
double roof_max(const gpusim::KernelTime& t, double compute_scale) {
  return std::max(std::max(t.t_compute * compute_scale, t.t_dram),
                  std::max(t.t_l2, t.t_latency));
}

/// Whole half-sweep under the rescaled roofs: the double-buffered staging
/// overlaps load with compute, the A_u flush and the solve cannot overlap.
double sweep_seconds(const UpdatePhaseTimes& t, double compute_scale) {
  return std::max(roof_max(t.load, compute_scale),
                  roof_max(t.compute, compute_scale)) +
         roof_max(t.write, compute_scale) +
         roof_max(t.solve, compute_scale);
}

AlsKernelConfig make_kernel_config(const TuneRequest& req,
                                   const TuneChoice& choice) {
  AlsKernelConfig kc;
  kc.f = static_cast<int>(req.f);
  kc.tile = pick_tile(req.f, choice.tile);
  kc.bin = choice.bin;
  kc.solver = choice.solver;
  kc.cg_fs = choice.fs;
  return kc;
}

/// Measured-counter corrections probe_candidate feeds back into the model.
struct ProbeAdjust {
  std::uint32_t effective_fs = 0;  ///< 0 = keep the configured truncation
  double fp16_retry_frac = 0;      ///< systems re-solved in FP32 after pack
  double cg_fallback_frac = 0;     ///< systems rerouted to the exact path
};

/// Memoized cost-model evaluations for one (request, dataset) pair:
/// update_phase_times depends only on (tile, bin, solver, fs, gpus), so a
/// few hundred cache entries cover the few thousand grid points. Its
/// expensive part, the load-phase trace, reads only tile and BIN (and the
/// shape), and kernel_stats memoizes it on those, so candidates that differ
/// in solver or fs share one simulation.
class ModelContext {
 public:
  ModelContext(const TuneRequest& req, const CsrMatrix& csr)
      : req_(req), csr_(csr) {}

  struct PhasePair {
    UpdatePhaseTimes x;
    UpdatePhaseTimes theta;
  };

  const PhasePair& phases(const AlsKernelConfig& kc, int gpus) {
    const auto key = std::make_tuple(kc.tile, kc.bin,
                                     static_cast<int>(kc.solver),
                                     static_cast<int>(kc.cg_fs), gpus);
    auto it = phase_cache_.find(key);
    if (it == phase_cache_.end()) {
      const double g = gpus;
      const double m = static_cast<double>(csr_.rows());
      const double n = static_cast<double>(csr_.cols());
      const double nnz = static_cast<double>(csr_.nnz());
      PhasePair pp;
      pp.x = update_phase_times(req_.device, UpdateShape{m / g, n, nnz / g},
                                kc);
      pp.theta = update_phase_times(req_.device,
                                    UpdateShape{n / g, m, nnz / g}, kc);
      it = phase_cache_.emplace(key, std::move(pp)).first;
    }
    return it->second;
  }

  /// Epoch slowdown of distributing the row sweep over `workers` lanes
  /// under `schedule`, from the real nnz distribution (>= 1; 1 = balanced).
  /// static_rows serializes behind the heaviest contiguous range; the
  /// guided schedule is bounded by one chunk of imbalance (list-scheduling
  /// bound). The row-side distribution stands in for both half-sweeps.
  double imbalance(AlsSchedule schedule, int workers) {
    if (workers <= 1 || csr_.rows() == 0 || csr_.nnz() == 0) {
      return 1.0;
    }
    const auto key = std::make_pair(static_cast<int>(schedule), workers);
    auto it = imbalance_cache_.find(key);
    if (it != imbalance_cache_.end()) {
      return it->second;
    }
    const auto& row_ptr = csr_.row_ptr();
    const std::size_t rows = csr_.rows();
    const double total = static_cast<double>(csr_.nnz());
    const std::size_t w = static_cast<std::size_t>(workers);
    double value = 1.0;
    if (schedule == AlsSchedule::static_rows) {
      const std::size_t per = (rows + w - 1) / w;
      double max_range = 0;
      for (std::size_t begin = 0; begin < rows; begin += per) {
        const std::size_t end = std::min(rows, begin + per);
        max_range = std::max(
            max_range, static_cast<double>(row_ptr[end] - row_ptr[begin]));
      }
      value = std::max(1.0, max_range * static_cast<double>(w) / total);
    } else {
      const auto bounds = nnz_balanced_bounds(csr_, 8 * w);
      double max_chunk = 0;
      for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
        max_chunk = std::max(max_chunk,
                             static_cast<double>(row_ptr[bounds[i + 1]] -
                                                 row_ptr[bounds[i]]));
      }
      value = 1.0 + max_chunk * static_cast<double>(w - 1) / total;
    }
    imbalance_cache_.emplace(key, value);
    return value;
  }

  const TuneRequest& request() const noexcept { return req_; }
  const CsrMatrix& csr() const noexcept { return csr_; }

 private:
  const TuneRequest& req_;
  const CsrMatrix& csr_;
  std::map<std::tuple<int, int, int, int, int>, PhasePair> phase_cache_;
  std::map<std::pair<int, int>, double> imbalance_cache_;
};

/// Exposed prefetch stall of streaming the row tiles once per epoch with
/// `host_bytes` of host cache, double-buffered against `core_seconds` of
/// compute. A budget that holds the whole store caches every tile after
/// the first epoch (steady-state stall 0); smaller budgets re-stream the
/// uncached fraction.
double ooc_stall_seconds(const TuneRequest& req, const TuneChoice& choice,
                         double core_seconds) {
  if (req.ooc_row_tiles.empty() || choice.ooc_host_bytes == 0) {
    return 0.0;
  }
  double total_bytes = 0;
  double total_nnz = 0;
  for (const TileRange& t : req.ooc_row_tiles) {
    total_bytes += static_cast<double>(t.bytes);
    total_nnz += static_cast<double>(t.nnz);
  }
  if (total_bytes <= 0 || total_nnz <= 0) {
    return 0.0;
  }
  const double cached = std::min(
      1.0, static_cast<double>(choice.ooc_host_bytes) / total_bytes);
  if (cached >= 1.0) {
    return 0.0;
  }
  const gpusim::LinkSpec link = gpusim::link_by_name(choice.link);
  std::vector<double> transfer;
  std::vector<double> compute;
  transfer.reserve(req.ooc_row_tiles.size());
  compute.reserve(req.ooc_row_tiles.size());
  for (const TileRange& t : req.ooc_row_tiles) {
    transfer.push_back(
        gpusim::transfer_seconds(link, static_cast<double>(t.bytes)) *
        (1.0 - cached));
    compute.push_back(core_seconds * static_cast<double>(t.nnz) / total_nnz);
  }
  const double wall = gpusim::pipelined_stream_seconds(transfer, compute);
  return std::max(0.0, wall - core_seconds);
}

/// The tuner's objective: projected epoch seconds of this choice — kernel
/// roofs from the gpusim model, distributed over the worker lanes with the
/// schedule's imbalance factor (gpus > 1 shards rows across devices
/// instead and pays the ring all-gather), plus any exposed out-of-core
/// stream stall.
double modeled_epoch_seconds(ModelContext& ctx, const TuneChoice& choice,
                             const ProbeAdjust* adjust) {
  const TuneRequest& req = ctx.request();
  AlsKernelConfig kc = make_kernel_config(req, choice);
  if (adjust != nullptr && adjust->effective_fs > 0 && is_cg(kc.solver)) {
    kc.cg_fs = adjust->effective_fs;
  }
  const double compute_scale =
      choice.path == simd::KernelPath::scalar ? kScalarComputeDerate : 1.0;
  const auto& pp = ctx.phases(kc, choice.gpus);
  double core = sweep_seconds(pp.x, compute_scale) +
                sweep_seconds(pp.theta, compute_scale);
  if (adjust != nullptr) {
    // Measured degradation events re-solve their systems on a slower
    // path; charge that fraction of the fallback solver's roof on top.
    const auto retry_cost = [&](SolverKind fallback, double frac) {
      if (frac <= 0) {
        return 0.0;
      }
      AlsKernelConfig retry = kc;
      retry.solver = fallback;
      const auto& rp = ctx.phases(retry, choice.gpus);
      return frac * (roof_max(rp.x.solve, compute_scale) +
                     roof_max(rp.theta.solve, compute_scale));
    };
    core += retry_cost(SolverKind::CgFp32, adjust->fp16_retry_frac);
    core += retry_cost(SolverKind::LuFp32, adjust->cg_fallback_frac);
  }
  double comm = 0.0;
  if (choice.gpus > 1) {
    const gpusim::LinkSpec link = gpusim::link_by_name(choice.link);
    const double g = choice.gpus;
    const double m = static_cast<double>(ctx.csr().rows());
    const double n = static_cast<double>(ctx.csr().cols());
    const double fb = static_cast<double>(req.f) * 4.0;
    comm = gpusim::allgather_seconds(link, choice.gpus, m / g * fb) +
           gpusim::allgather_seconds(link, choice.gpus, n / g * fb);
  } else {
    core = core * ctx.imbalance(choice.schedule, choice.workers) /
           static_cast<double>(std::max(1, choice.workers));
  }
  return core + comm + ooc_stall_seconds(req, choice, core);
}

Candidate evaluate_with_context(ModelContext& ctx,
                                const TuneChoice& choice) {
  const TuneRequest& req = ctx.request();
  Candidate c;
  c.choice = choice;
  c.choice.tile = pick_tile(req.f, choice.tile);
  const AlsKernelConfig kc = make_kernel_config(req, c.choice);
  const gpusim::Occupancy occ = hermitian_occupancy(req.device, kc);
  if (occ.blocks_per_sm < 1) {
    c.feasible = false;
    c.infeasible_why =
        std::string("hermitian kernel fits zero blocks/SM (limited by ") +
        gpusim::to_string(occ.limited_by) + ")";
    return c;
  }
  if (!req.ooc_row_tiles.empty()) {
    std::uint64_t max_tile = 0;
    for (const TileRange& t : req.ooc_row_tiles) {
      max_tile = std::max(max_tile, t.bytes);
    }
    if (c.choice.ooc_host_bytes < max_tile) {
      c.feasible = false;
      c.infeasible_why = "host budget below the largest tile";
      return c;
    }
  }
  c.model_epoch_s = modeled_epoch_seconds(ctx, c.choice, nullptr);
  return c;
}

std::string choice_key(const TuneChoice& c) {
  std::string key;
  key += std::to_string(c.tile) + '/';
  key += std::to_string(c.bin) + '/';
  key += std::to_string(static_cast<int>(c.solver)) + '/';
  key += std::to_string(c.fs) + '/';
  key += std::to_string(static_cast<int>(c.schedule)) + '/';
  key += std::to_string(static_cast<int>(c.path)) + '/';
  key += std::to_string(c.workers) + '/';
  key += std::to_string(c.gpus) + '/';
  key += c.link + '/';
  key += std::to_string(c.ooc_host_bytes);
  return key;
}

/// cuscope verdicts for the winning configuration: the modeled kernel
/// roofs (with the measured effective fs plugged in) against the analytic
/// Table-I flop/byte complexities, plus the comm / stream phases the
/// choice activates. Pure arithmetic — deterministic.
std::vector<prof::Verdict> winner_verdicts(ModelContext& ctx,
                                           const Candidate& winner) {
  const TuneRequest& req = ctx.request();
  const TuneChoice& choice = winner.choice;
  AlsKernelConfig kc = make_kernel_config(req, choice);
  if (is_cg(kc.solver) && winner.mean_cg_iters > 0) {
    kc.cg_fs = static_cast<std::uint32_t>(std::max<long long>(
        1, std::llround(winner.mean_cg_iters)));
  }
  const double compute_scale =
      choice.path == simd::KernelPath::scalar ? kScalarComputeDerate : 1.0;
  const auto scaled = [&](gpusim::KernelTime t) {
    t.t_compute *= compute_scale;
    t.seconds = roof_max(t, 1.0);
    return t;
  };
  const auto& pp = ctx.phases(kc, choice.gpus);
  const double m = static_cast<double>(ctx.csr().rows());
  const double n = static_cast<double>(ctx.csr().cols());
  const double nnz = static_cast<double>(ctx.csr().nnz());
  const AlsComplexity cx =
      is_cg(kc.solver)
          ? als_complexity_cg(nnz, m, n, kc.f, static_cast<int>(kc.cg_fs))
          : als_complexity(nnz, m, n, kc.f);

  std::vector<prof::Verdict> verdicts;
  prof::PhaseSample herm;
  herm.phase = prof::kPhaseHermitian;
  for (const gpusim::KernelTime* t :
       {&pp.x.load, &pp.x.compute, &pp.x.write, &pp.theta.load,
        &pp.theta.compute, &pp.theta.write}) {
    prof::add_kernel_time(herm, scaled(*t));
  }
  herm.wall_s = std::max(roof_max(pp.x.load, compute_scale),
                         roof_max(pp.x.compute, compute_scale)) +
                roof_max(pp.x.write, compute_scale) +
                std::max(roof_max(pp.theta.load, compute_scale),
                         roof_max(pp.theta.compute, compute_scale)) +
                roof_max(pp.theta.write, compute_scale);
  herm.flops = cx.hermitian_compute;
  herm.bytes = cx.hermitian_memory;
  verdicts.push_back(prof::classify(herm));

  prof::PhaseSample solve;
  solve.phase = prof::kPhaseSolve;
  prof::add_kernel_time(solve, scaled(pp.x.solve));
  prof::add_kernel_time(solve, scaled(pp.theta.solve));
  solve.flops = cx.solve_compute;
  solve.bytes = cx.solve_memory;
  verdicts.push_back(prof::classify(solve));

  if (choice.solver == SolverKind::CgFp16) {
    // Every system packs its f x f Gram matrix to FP16 once per epoch.
    const double elems =
        (m + n) * static_cast<double>(req.f) * static_cast<double>(req.f);
    prof::PhaseSample pack;
    pack.phase = prof::kPhaseFp16Pack;
    pack.flops = elems;
    pack.bytes = fp16_pack_traffic(elems);
    pack.t_dram =
        pack.bytes / (req.device.dram_bw * req.device.memcpy_efficiency);
    pack.t_compute =
        elems / (req.device.peak_flops * req.device.compute_efficiency);
    verdicts.push_back(prof::classify(pack));
  }
  if (choice.gpus > 1) {
    const gpusim::LinkSpec link = gpusim::link_by_name(choice.link);
    const double g = choice.gpus;
    const double fb = static_cast<double>(req.f) * 4.0;
    prof::PhaseSample mg;
    mg.phase = prof::kPhaseMgpuAllGather;
    mg.t_compute = sweep_seconds(pp.x, compute_scale) +
                   sweep_seconds(pp.theta, compute_scale);
    mg.t_comm = gpusim::allgather_seconds(link, choice.gpus, m / g * fb) +
                gpusim::allgather_seconds(link, choice.gpus, n / g * fb);
    mg.wall_s = mg.t_compute + mg.t_comm;
    verdicts.push_back(prof::classify(mg));
  }
  if (!req.ooc_row_tiles.empty()) {
    const double core = sweep_seconds(pp.x, compute_scale) +
                        sweep_seconds(pp.theta, compute_scale);
    const double stall = ooc_stall_seconds(req, choice, core);
    if (stall > 0) {
      prof::PhaseSample st;
      st.phase = prof::kPhaseOocStream;
      st.t_compute = core;
      st.t_stall = stall;
      st.wall_s = core + stall;
      verdicts.push_back(prof::classify(st));
    }
  }
  return verdicts;
}

}  // namespace

std::vector<TuneChoice> enumerate_grid(const TuneRequest& req) {
  std::vector<TuneChoice> out;
  std::set<std::string> seen;
  const bool ooc = !req.ooc_row_tiles.empty();

  std::uint64_t store_bytes = 0;
  std::uint64_t max_tile = 0;
  for (const TileRange& t : req.ooc_row_tiles) {
    store_bytes += t.bytes;
    max_tile = std::max(max_tile, t.bytes);
  }
  const std::uint64_t cap =
      req.ooc_host_cap > 0 ? std::min(req.ooc_host_cap, store_bytes)
                           : store_bytes;
  std::vector<std::uint64_t> budgets{0};
  if (ooc) {
    budgets = {std::min(cap, std::max(max_tile, store_bytes / 4)),
               std::min(cap, std::max(max_tile, store_bytes / 2)), cap};
    std::sort(budgets.begin(), budgets.end());
    budgets.erase(std::unique(budgets.begin(), budgets.end()),
                  budgets.end());
  }

  const auto push = [&](TuneChoice c) {
    c.tile = pick_tile(req.f, c.tile);
    if (c.gpus > 1) {
      // Devices are the parallelism knob: shards are nnz-cut per device
      // and --workers is ignored with --gpus, so host knobs normalize.
      c.workers = 1;
      c.schedule = AlsSchedule::nnz_guided;
    }
    if (!is_cg(c.solver)) {
      c.fs = TuneChoice{}.fs;  // truncation is inert for exact solvers
    }
    if (seen.insert(choice_key(c)).second) {
      out.push_back(std::move(c));
    }
  };

  // The default configuration is candidate 0 by construction: it is always
  // probed, so the winner can never score worse than it.
  TuneChoice def;
  def.ooc_host_bytes = ooc ? cap : 0;
  push(def);

  const auto tiles = req.tile_grid.empty() ? std::vector<int>{10}
                                           : req.tile_grid;
  const auto bins = req.bin_grid.empty() ? std::vector<int>{32}
                                         : req.bin_grid;
  const auto fss = req.fs_grid.empty() ? std::vector<std::uint32_t>{6}
                                       : req.fs_grid;
  const auto workers = req.worker_grid.empty() ? std::vector<int>{1}
                                               : req.worker_grid;
  std::vector<std::pair<SolverKind, std::uint32_t>> solvers;
  for (const SolverKind kind :
       {SolverKind::CgFp32, SolverKind::CgFp16, SolverKind::PcgFp32}) {
    for (const std::uint32_t fs : fss) {
      solvers.emplace_back(kind, fs);
    }
  }
  if (req.include_exact) {
    solvers.emplace_back(SolverKind::LuFp32, TuneChoice{}.fs);
    solvers.emplace_back(SolverKind::CholeskyFp32, TuneChoice{}.fs);
  }
  std::vector<simd::KernelPath> paths{simd::kDefaultPath};
  if (req.include_scalar_path &&
      simd::kDefaultPath != simd::KernelPath::scalar) {
    paths.push_back(simd::KernelPath::scalar);
  }

  for (const int tile : tiles) {
    for (const int bin : bins) {
      for (const auto& [solver, fs] : solvers) {
        for (const simd::KernelPath path : paths) {
          for (const std::uint64_t budget : budgets) {
            for (const AlsSchedule schedule :
                 {AlsSchedule::nnz_guided, AlsSchedule::static_rows}) {
              for (const int w : workers) {
                TuneChoice c;
                c.tile = tile;
                c.bin = bin;
                c.solver = solver;
                c.fs = fs;
                c.schedule = schedule;
                c.path = path;
                c.workers = std::max(1, w);
                c.ooc_host_bytes = budget;
                push(c);
              }
            }
            for (int g = 2; g <= req.max_gpus; g *= 2) {
              for (const char* link : {"nvlink", "pcie3"}) {
                TuneChoice c;
                c.tile = tile;
                c.bin = bin;
                c.solver = solver;
                c.fs = fs;
                c.path = path;
                c.gpus = g;
                c.link = link;
                c.ooc_host_bytes = budget;
                push(c);
              }
            }
          }
        }
      }
    }
  }
  return out;
}

Candidate evaluate_model(const TuneRequest& req, const CsrMatrix& train_csr,
                         const TuneChoice& choice) {
  ModelContext ctx(req, train_csr);
  return evaluate_with_context(ctx, choice);
}

void probe_candidate(const TuneRequest& req, const TuneInput& input,
                     const CsrMatrix& train_csr, Candidate& c) {
  CUMF_EXPECTS(req.probe_epochs >= 1, "probe_epochs must be >= 1");
  AlsOptions options;
  options.f = req.f;
  options.lambda = static_cast<real_t>(req.lambda);
  options.solver.kind = c.choice.solver;
  options.solver.cg_fs = c.choice.fs;
  options.solver.path = c.choice.path;
  options.hermitian.tile = pick_tile(req.f, c.choice.tile);
  options.hermitian.bin = c.choice.bin;
  options.schedule = c.choice.schedule;
  // One worker regardless of the choice: factors (and therefore every
  // counter below) are bit-identical across worker counts, and a serial
  // probe keeps concurrent finalist probes from oversubscribing the host.
  options.workers = 1;
  options.seed = req.seed;

  AlsEngine engine(input.train, options);
  Stopwatch sw;
  for (int epoch = 0; epoch < req.probe_epochs; ++epoch) {
    engine.run_epoch();
  }
  c.wall_epoch_s = sw.seconds() / req.probe_epochs;
  const SolveStats stats = engine.solve_stats();
  c.probed = true;
  c.cg_fallbacks = stats.cg_fallbacks;
  c.fp16_fallbacks = stats.fp16_fallbacks;
  c.failures = stats.failures;
  ProbeAdjust adjust;
  if (stats.systems > 0 && is_cg(c.choice.solver)) {
    c.mean_cg_iters = static_cast<double>(stats.cg_iterations) /
                      static_cast<double>(stats.systems);
    adjust.effective_fs = static_cast<std::uint32_t>(
        std::max<long long>(1, std::llround(c.mean_cg_iters)));
    adjust.fp16_retry_frac = static_cast<double>(stats.fp16_fallbacks) /
                             static_cast<double>(stats.systems);
    adjust.cg_fallback_frac = static_cast<double>(stats.cg_fallbacks) /
                              static_cast<double>(stats.systems);
  }
  if (input.test.nnz() > 0) {
    c.probe_rmse =
        rmse(input.test, engine.user_factors(), engine.item_factors());
  }
  ModelContext ctx(req, train_csr);
  c.refined_epoch_s = modeled_epoch_seconds(ctx, c.choice, &adjust);
}

TunedConfig tune(const TuneRequest& req, const TuneInput& input,
                 std::vector<Candidate>* trace) {
  CUMF_EXPECTS(req.f >= 1, "latent dimension must be >= 1");
  CUMF_EXPECTS(req.probe_epochs >= 1, "probe_epochs must be >= 1");
  CUMF_EXPECTS(req.finalists >= 1, "finalists must be >= 1");
  CUMF_EXPECTS(input.train.nnz() > 0, "cannot tune on an empty train set");

  const CsrMatrix csr = CsrMatrix::from_coo(input.train);
  ModelContext ctx(req, csr);
  const std::vector<TuneChoice> grid = enumerate_grid(req);
  std::vector<Candidate> candidates;
  candidates.reserve(grid.size());
  for (const TuneChoice& choice : grid) {
    candidates.push_back(evaluate_with_context(ctx, choice));
  }

  // Model prune: keep the K cheapest feasible candidates, plus the default
  // (candidate 0) unconditionally.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].feasible) {
      order.push_back(i);
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return candidates[a].model_epoch_s <
                            candidates[b].model_epoch_s;
                   });
  std::vector<std::size_t> finalists;
  for (const std::size_t i : order) {
    if (finalists.size() >= req.finalists) {
      break;
    }
    finalists.push_back(i);
  }
  if (candidates[0].feasible &&
      std::find(finalists.begin(), finalists.end(), 0u) == finalists.end()) {
    finalists.push_back(0);
  }
  CUMF_EXPECTS(!finalists.empty(), "no feasible candidate in the grid");

  // Probe finalists with real epochs. Tuner workers parallelize across
  // finalists; every probe is independent and deterministic, so the result
  // set is identical for any worker count.
  const auto probe_one = [&](std::size_t idx) {
    try {
      probe_candidate(req, input, csr, candidates[idx]);
    } catch (const std::exception& e) {
      candidates[idx].quality_ok = false;
      candidates[idx].infeasible_why = e.what();
    }
  };
  if (req.workers > 1 && finalists.size() > 1) {
    ThreadPool pool(static_cast<std::size_t>(req.workers));
    for (const std::size_t idx : finalists) {
      pool.submit([&probe_one, idx] { probe_one(idx); });
    }
    pool.wait_idle();
  } else {
    for (const std::size_t idx : finalists) {
      probe_one(idx);
    }
  }

  // Quality gate: a finalist that converges measurably worse than the best
  // finalist (or that failed systems outright) cannot win on speed.
  double best_rmse = std::numeric_limits<double>::infinity();
  for (const std::size_t idx : finalists) {
    const Candidate& c = candidates[idx];
    if (c.probed && std::isfinite(c.probe_rmse)) {
      best_rmse = std::min(best_rmse, c.probe_rmse);
    }
  }
  for (const std::size_t idx : finalists) {
    Candidate& c = candidates[idx];
    if (!c.probed || c.failures > 0) {
      c.quality_ok = false;
      continue;
    }
    if (std::isfinite(best_rmse) && std::isfinite(c.probe_rmse) &&
        c.probe_rmse > best_rmse * (1.0 + req.rmse_slack)) {
      c.quality_ok = false;
    }
  }

  // Deterministic winner: smallest refined score among qualified
  // finalists, ties broken by enumeration order. Falls back to the default
  // candidate if the gate disqualified everything.
  std::size_t winner_idx = 0;
  bool have_winner = false;
  for (const std::size_t idx : finalists) {
    const Candidate& c = candidates[idx];
    if (!c.quality_ok) {
      continue;
    }
    if (!have_winner ||
        c.refined_epoch_s < candidates[winner_idx].refined_epoch_s ||
        (c.refined_epoch_s == candidates[winner_idx].refined_epoch_s &&
         idx < winner_idx)) {
      winner_idx = idx;
      have_winner = true;
    }
  }
  const Candidate& winner = candidates[winner_idx];
  const Candidate& fallback = candidates[0];

  TunedConfig config;
  config.fingerprint = input.fingerprint;
  config.choice = winner.choice;
  config.model_epoch_s = winner.refined_epoch_s;
  config.default_epoch_s = fallback.probed ? fallback.refined_epoch_s
                                           : fallback.model_epoch_s;
  config.mean_cg_iters = winner.mean_cg_iters;
  config.probe_rmse = winner.probe_rmse;
  config.candidates = candidates.size();
  config.finalists = finalists.size();
  config.pruned = candidates.size() - finalists.size();
  config.verdicts = winner_verdicts(ctx, winner);
  if (trace != nullptr) {
    *trace = std::move(candidates);
  }
  return config;
}

// --- persistence -----------------------------------------------------------

namespace {

constexpr std::string_view kWhat = "tuned config";

// -- a minimal JSON reader, just enough for our own writer's output --

struct JsonValue {
  enum class Kind { null, boolean, number, string, array, object };
  Kind kind = Kind::null;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
};

[[noreturn]] void malformed(const std::string& why) {
  reject(FrameReject::malformed, kWhat, why);
}

void skip_ws(std::string_view s, std::size_t& pos) {
  while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t' ||
                            s[pos] == '\n' || s[pos] == '\r')) {
    ++pos;
  }
}

JsonValue parse_value(std::string_view s, std::size_t& pos, int depth);

std::string parse_string_token(std::string_view s, std::size_t& pos) {
  if (pos >= s.size() || s[pos] != '"') {
    malformed("expected string");
  }
  ++pos;
  std::string out;
  while (pos < s.size() && s[pos] != '"') {
    char c = s[pos];
    if (c == '\\') {
      if (pos + 1 >= s.size()) {
        malformed("dangling escape");
      }
      const char esc = s[++pos];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos + 4 >= s.size()) {
            malformed("short \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s[++pos];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              malformed("bad \\u escape");
            }
          }
          // Our writer only escapes control characters; anything beyond
          // Latin-1 is preserved as a replacement to keep the reader tiny.
          out += code < 0x100 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          malformed("unknown escape");
      }
      ++pos;
    } else {
      out += c;
      ++pos;
    }
  }
  if (pos >= s.size()) {
    malformed("unterminated string");
  }
  ++pos;  // closing quote
  return out;
}

JsonValue parse_value(std::string_view s, std::size_t& pos, int depth) {
  if (depth > 32) {
    malformed("nesting too deep");
  }
  skip_ws(s, pos);
  if (pos >= s.size()) {
    malformed("unexpected end");
  }
  JsonValue v;
  const char c = s[pos];
  if (c == '{') {
    v.kind = JsonValue::Kind::object;
    ++pos;
    skip_ws(s, pos);
    if (pos < s.size() && s[pos] == '}') {
      ++pos;
      return v;
    }
    while (true) {
      skip_ws(s, pos);
      std::string key = parse_string_token(s, pos);
      skip_ws(s, pos);
      if (pos >= s.size() || s[pos] != ':') {
        malformed("expected ':'");
      }
      ++pos;
      v.fields.emplace_back(std::move(key), parse_value(s, pos, depth + 1));
      skip_ws(s, pos);
      if (pos < s.size() && s[pos] == ',') {
        ++pos;
        continue;
      }
      if (pos < s.size() && s[pos] == '}') {
        ++pos;
        return v;
      }
      malformed("expected ',' or '}'");
    }
  }
  if (c == '[') {
    v.kind = JsonValue::Kind::array;
    ++pos;
    skip_ws(s, pos);
    if (pos < s.size() && s[pos] == ']') {
      ++pos;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value(s, pos, depth + 1));
      skip_ws(s, pos);
      if (pos < s.size() && s[pos] == ',') {
        ++pos;
        continue;
      }
      if (pos < s.size() && s[pos] == ']') {
        ++pos;
        return v;
      }
      malformed("expected ',' or ']'");
    }
  }
  if (c == '"') {
    v.kind = JsonValue::Kind::string;
    v.str = parse_string_token(s, pos);
    return v;
  }
  if (s.compare(pos, 4, "null") == 0) {
    pos += 4;
    return v;
  }
  if (s.compare(pos, 4, "true") == 0) {
    pos += 4;
    v.kind = JsonValue::Kind::boolean;
    v.b = true;
    return v;
  }
  if (s.compare(pos, 5, "false") == 0) {
    pos += 5;
    v.kind = JsonValue::Kind::boolean;
    v.b = false;
    return v;
  }
  // number
  std::size_t end = pos;
  while (end < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[end])) != 0 ||
          s[end] == '-' || s[end] == '+' || s[end] == '.' || s[end] == 'e' ||
          s[end] == 'E')) {
    ++end;
  }
  double num = 0;
  const auto res = std::from_chars(s.data() + pos, s.data() + end, num);
  if (res.ec != std::errc{} || res.ptr != s.data() + end || end == pos) {
    malformed("bad number");
  }
  pos = end;
  v.kind = JsonValue::Kind::number;
  v.num = num;
  return v;
}

JsonValue parse_json(std::string_view payload) {
  std::size_t pos = 0;
  JsonValue v = parse_value(payload, pos, 0);
  skip_ws(payload, pos);
  if (pos != payload.size()) {
    malformed("trailing bytes after the JSON object");
  }
  return v;
}

double require_number(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::number) {
    malformed("missing numeric field '" + std::string(key) + "'");
  }
  return v->num;
}

std::string require_string(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::string) {
    malformed("missing string field '" + std::string(key) + "'");
  }
  return v->str;
}

const JsonValue& require_object(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::object) {
    malformed("missing object field '" + std::string(key) + "'");
  }
  return *v;
}

SolverKind solver_from_json(const std::string& name) {
  const auto kind = solver_from_cli_name(name);
  if (!kind) {
    malformed("unknown solver '" + name + "'");
  }
  return *kind;
}

prof::Bound bound_from_json(const std::string& name) {
  for (const prof::Bound b :
       {prof::Bound::compute, prof::Bound::dram, prof::Bound::l2,
        prof::Bound::latency, prof::Bound::comm, prof::Bound::stall}) {
    if (name == prof::to_string(b)) {
      return b;
    }
  }
  malformed("unknown bound '" + name + "'");
}

std::string sanitize(const std::string& name) {
  std::string out;
  bool dash = false;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      out += static_cast<char>(
          std::tolower(static_cast<unsigned char>(c)));
      dash = false;
    } else if (!dash && !out.empty()) {
      out += '-';
      dash = true;
    }
  }
  while (!out.empty() && out.back() == '-') {
    out.pop_back();
  }
  return out.empty() ? "device" : out;
}

}  // namespace

std::string tuned_config_payload(const TunedConfig& config) {
  prof::JsonObject root;
  root.set("type", "cumf-tuned-config");
  root.set("version", static_cast<std::uint64_t>(config.version));

  prof::JsonObject fp;
  fp.set("device", config.fingerprint.device);
  fp.set("rows", static_cast<std::uint64_t>(config.fingerprint.rows));
  fp.set("cols", static_cast<std::uint64_t>(config.fingerprint.cols));
  fp.set("nnz", config.fingerprint.nnz);
  fp.set("f", static_cast<std::uint64_t>(config.fingerprint.f));
  fp.set("lambda", static_cast<double>(config.fingerprint.lambda));
  root.set_raw("fingerprint", fp.str());

  prof::JsonObject choice;
  choice.set("tile", config.choice.tile);
  choice.set("bin", config.choice.bin);
  choice.set("solver", solver_cli_name(config.choice.solver));
  choice.set("fs", static_cast<std::uint64_t>(config.choice.fs));
  choice.set("schedule", to_string(config.choice.schedule));
  choice.set("path", path_name(config.choice.path));
  choice.set("workers", config.choice.workers);
  choice.set("gpus", config.choice.gpus);
  choice.set("link", config.choice.link);
  choice.set("ooc_host_bytes", config.choice.ooc_host_bytes);
  root.set_raw("choice", choice.str());

  root.set("model_epoch_s", config.model_epoch_s);
  root.set("default_epoch_s", config.default_epoch_s);
  root.set("speedup", config.model_epoch_s > 0
                          ? config.default_epoch_s / config.model_epoch_s
                          : 0.0);
  root.set("mean_cg_iters", config.mean_cg_iters);
  if (std::isfinite(config.probe_rmse)) {
    root.set("probe_rmse", config.probe_rmse);
  } else {
    root.set_null("probe_rmse");
  }

  prof::JsonObject search;
  search.set("candidates", config.candidates);
  search.set("pruned", config.pruned);
  search.set("finalists", config.finalists);
  root.set_raw("search", search.str());

  std::string verdicts = "[";
  for (const prof::Verdict& v : config.verdicts) {
    if (verdicts.size() > 1) {
      verdicts += ',';
    }
    prof::JsonObject item;
    item.set("phase", v.phase);
    item.set("bound", prof::to_string(v.bound));
    item.set("arithmetic_intensity", v.arithmetic_intensity);
    item.set("pct_of_roof", v.pct_of_roof);
    item.set("headroom", v.headroom);
    item.set("wall_s", v.wall_s);
    verdicts += item.str();
  }
  verdicts += ']';
  root.set_raw("verdicts", verdicts);
  return root.str();
}

std::string serialize_tuned_config(const TunedConfig& config) {
  return frame(kTuneMagic, kTuneVersion, tuned_config_payload(config));
}

TunedConfig parse_tuned_config(std::string_view bytes) {
  const std::string_view payload =
      unframe(kTuneMagic, kTuneVersion, bytes, kWhat);
  const JsonValue root = parse_json(payload);
  if (root.kind != JsonValue::Kind::object) {
    malformed("payload is not a JSON object");
  }
  if (require_string(root, "type") != "cumf-tuned-config") {
    malformed("wrong payload type");
  }
  TunedConfig config;
  config.version =
      static_cast<std::uint32_t>(require_number(root, "version"));

  const JsonValue& fp = require_object(root, "fingerprint");
  config.fingerprint.device = require_string(fp, "device");
  config.fingerprint.rows =
      static_cast<std::uint32_t>(require_number(fp, "rows"));
  config.fingerprint.cols =
      static_cast<std::uint32_t>(require_number(fp, "cols"));
  config.fingerprint.nnz =
      static_cast<std::uint64_t>(require_number(fp, "nnz"));
  config.fingerprint.f =
      static_cast<std::uint32_t>(require_number(fp, "f"));
  config.fingerprint.lambda =
      static_cast<float>(require_number(fp, "lambda"));

  const JsonValue& ch = require_object(root, "choice");
  config.choice.tile = static_cast<int>(require_number(ch, "tile"));
  config.choice.bin = static_cast<int>(require_number(ch, "bin"));
  config.choice.solver = solver_from_json(require_string(ch, "solver"));
  config.choice.fs =
      static_cast<std::uint32_t>(require_number(ch, "fs"));
  const std::string schedule = require_string(ch, "schedule");
  const auto sched = schedule_from_name(schedule);
  if (!sched) {
    malformed("unknown schedule '" + schedule + "'");
  }
  config.choice.schedule = *sched;
  const std::string path = require_string(ch, "path");
  if (path == "scalar") {
    config.choice.path = simd::KernelPath::scalar;
  } else if (path == "simd") {
    config.choice.path = simd::KernelPath::simd;
  } else {
    malformed("unknown kernel path '" + path + "'");
  }
  config.choice.workers = static_cast<int>(require_number(ch, "workers"));
  config.choice.gpus = static_cast<int>(require_number(ch, "gpus"));
  config.choice.link = require_string(ch, "link");
  config.choice.ooc_host_bytes =
      static_cast<std::uint64_t>(require_number(ch, "ooc_host_bytes"));
  if (config.choice.tile < 1 || config.choice.bin < 1 ||
      config.choice.fs < 1 || config.choice.workers < 1 ||
      config.choice.gpus < 1) {
    malformed("choice fields out of range");
  }

  config.model_epoch_s = require_number(root, "model_epoch_s");
  config.default_epoch_s = require_number(root, "default_epoch_s");
  config.mean_cg_iters = require_number(root, "mean_cg_iters");
  if (const JsonValue* r = root.find("probe_rmse");
      r != nullptr && r->kind == JsonValue::Kind::number) {
    config.probe_rmse = r->num;
  }
  const JsonValue& search = require_object(root, "search");
  config.candidates =
      static_cast<std::uint64_t>(require_number(search, "candidates"));
  config.pruned =
      static_cast<std::uint64_t>(require_number(search, "pruned"));
  config.finalists =
      static_cast<std::uint64_t>(require_number(search, "finalists"));

  const JsonValue* verdicts = root.find("verdicts");
  if (verdicts == nullptr || verdicts->kind != JsonValue::Kind::array) {
    malformed("missing verdicts array");
  }
  for (const JsonValue& item : verdicts->items) {
    if (item.kind != JsonValue::Kind::object) {
      malformed("verdict entries must be objects");
    }
    prof::Verdict v;
    v.phase = require_string(item, "phase");
    v.bound = bound_from_json(require_string(item, "bound"));
    v.arithmetic_intensity = require_number(item, "arithmetic_intensity");
    v.pct_of_roof = require_number(item, "pct_of_roof");
    v.headroom = require_number(item, "headroom");
    v.wall_s = require_number(item, "wall_s");
    config.verdicts.push_back(std::move(v));
  }
  return config;
}

std::string tuned_config_filename(const TuneFingerprint& fp) {
  return "tune-" + sanitize(fp.device) + "-" + std::to_string(fp.rows) +
         "x" + std::to_string(fp.cols) + "-" + std::to_string(fp.nnz) +
         "-f" + std::to_string(fp.f) + ".bin";
}

void write_tuned_config_file(const std::string& path,
                             const TunedConfig& config) {
  atomic_write_file(path, serialize_tuned_config(config));
}

TunedConfig read_tuned_config_file(const std::string& path) {
  return parse_tuned_config(read_file(path));
}

TunedConfig load_tuned_config(const std::string& path_or_dir,
                              const TuneFingerprint& expected) {
  std::string path = path_or_dir;
  if (std::filesystem::is_directory(path_or_dir)) {
    path = (std::filesystem::path(path_or_dir) /
            tuned_config_filename(expected))
               .string();
    if (!std::filesystem::exists(path)) {
      throw FrameError(FrameReject::io,
                       "no tuned config for this device x dataset in " +
                           path_or_dir + " (expected " +
                           tuned_config_filename(expected) + ")");
    }
  }
  TunedConfig config = read_tuned_config_file(path);
  const TuneFingerprint& have = config.fingerprint;
  std::string why;
  if (have.device != expected.device) {
    why = "device '" + have.device + "' != '" + expected.device + "'";
  } else if (have.rows != expected.rows || have.cols != expected.cols) {
    why = "dataset shape " + std::to_string(have.rows) + "x" +
          std::to_string(have.cols) + " != " +
          std::to_string(expected.rows) + "x" +
          std::to_string(expected.cols);
  } else if (have.nnz != expected.nnz) {
    why = "dataset nnz " + std::to_string(have.nnz) + " != " +
          std::to_string(expected.nnz);
  } else if (have.f != expected.f) {
    why = "latent dimension " + std::to_string(have.f) + " != " +
          std::to_string(expected.f);
  } else if (have.lambda != expected.lambda) {
    why = "lambda differs";
  }
  if (!why.empty()) {
    throw FrameError(FrameReject::mismatch,
                     "tuned config fingerprint mismatch: " + why);
  }
  return config;
}

}  // namespace cumf::tune
