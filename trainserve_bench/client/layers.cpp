// The traced run's per-layer replay: times the client's own calls into each
// module's public functions on the run's inputs and model. Nothing here is
// traced inside src/; each call is bracketed from outside. Per-row kernel
// calls (get_hermitian_row, SystemSolver::solve, float_to_half_n, dot_rows)
// are aggregated into counts and totals.
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "client.hpp"
#include "common/rng.hpp"
#include "core/als.hpp"
#include "core/hermitian.hpp"
#include "core/kernel_stats.hpp"
#include "core/multi_gpu.hpp"
#include "core/ooc_als.hpp"
#include "core/solver.hpp"
#include "data/checkpoint.hpp"
#include "data/loaders.hpp"
#include "data/model_io.hpp"
#include "data/shards.hpp"
#include "gpusim/device.hpp"
#include "gpusim/interconnect.hpp"
#include "half/half_simd.hpp"
#include "linalg/dense.hpp"
#include "metrics/rmse.hpp"
#include "sparse/partition.hpp"
#include "sparse/split.hpp"

namespace tsb {
namespace {

using namespace cumf;

double secs(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

/// max/mean nnz over contiguous row ranges given as cut points.
double imbalance(const CsrMatrix& r, const std::vector<std::size_t>& cuts) {
  double max_nnz = 0;
  double total = 0;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const auto nnz = static_cast<double>(r.row_ptr()[cuts[i + 1]] -
                                         r.row_ptr()[cuts[i]]);
    max_nnz = std::max(max_nnz, nnz);
    total += nnz;
  }
  const double parts = static_cast<double>(cuts.size() - 1);
  return total > 0 ? max_nnz / (total / parts) : 0.0;
}

std::vector<std::size_t> shard_cuts(const CsrMatrix& r, int parts) {
  std::vector<std::size_t> cuts{0};
  for (const RowRange& s : nnz_balanced_shards(r, parts)) {
    cuts.push_back(s.end);
  }
  return cuts;
}

struct Replay {
  double hermitian_s = 0;
  double pack_s = 0;
  double solve_s = 0;
  double wall_s = 0;
  std::uint64_t ratings = 0;
  std::uint64_t systems = 0;
  double pack_bytes = 0;
  SolveStats stats;
};

/// One ALS epoch (update-X then update-Θ) on one thread, starting from the
/// run's model. `timed` brackets every per-row call; the untimed pass is
/// the reference that prices the bracketing.
Replay replay_epoch(const CsrMatrix& r, const CsrMatrix& rt, Matrix x,
                    Matrix theta, const AlsOptions& opt, bool timed) {
  const std::size_t f = opt.f;
  HermitianWorkspace ws;
  ws.prepare(f, opt.hermitian);
  SystemSolver solver(f, opt.solver);
  std::vector<real_t> a(f * f);
  std::vector<real_t> b(f);
  std::vector<half> packed(f * f);
  const bool pack = opt.solver.kind == SolverKind::CgFp16;
  Replay out;
  const std::uint64_t t_begin = now_ns();
  const auto sweep = [&](const CsrMatrix& ratings, const Matrix& fixed,
                         Matrix& solved) {
    for (index_t u = 0; u < ratings.rows(); ++u) {
      if (ratings.row_nnz(u) == 0) {
        continue;
      }
      const std::uint64_t t0 = timed ? now_ns() : 0;
      get_hermitian_row(ratings, fixed, u, opt.lambda, opt.hermitian, ws, a, b,
                        opt.solver.path);
      const std::uint64_t t1 = timed ? now_ns() : 0;
      if (pack) {
        float_to_half_n(a.data(), packed.data(), a.size(), opt.solver.path);
      }
      const std::uint64_t t2 = timed ? now_ns() : 0;
      if (!solver.solve(a, b, solved.row(u))) {
        throw std::runtime_error("replay: unsolvable system");
      }
      if (timed) {
        const std::uint64_t t3 = now_ns();
        out.hermitian_s += secs(t0, t1);
        out.pack_s += secs(t1, t2);
        out.solve_s += secs(t2, t3);
      }
      out.ratings += ratings.row_nnz(u);
      ++out.systems;
    }
  };
  sweep(r, theta, x);
  sweep(rt, x, theta);
  out.wall_s = secs(t_begin, now_ns());
  out.stats = solver.stats();
  out.pack_bytes = pack ? static_cast<double>(out.systems) *
                              static_cast<double>(f * f) * (4 + 2)
                        : 0.0;
  if (timed) {
    Spans& spans = Spans::instance();
    const auto ns = [](double s) { return static_cast<std::uint64_t>(s * 1e9); };
    spans.count("core.get_hermitian_row", ns(out.hermitian_s), out.systems);
    spans.count("core.SystemSolver::solve", ns(out.solve_s), out.systems);
    if (pack) {
      spans.count("half.float_to_half_n", ns(out.pack_s), out.systems);
    }
  }
  return out;
}

}  // namespace

int cmd_layers(const Args& args) {
  Spans::instance().enable(true);
  const std::string ratings_path = args.str("ratings");
  const std::string scratch = args.str("scratch");
  const auto seed = static_cast<std::uint64_t>(args.num("seed"));
  const int parts = static_cast<int>(args.num("parts"));
  const int gpus = static_cast<int>(args.num("gpus", 0));
  const std::string shard_dir = args.str("shards", "");
  const auto solver_kind = solver_from_cli_name(args.str("solver"));
  if (!solver_kind) {
    throw std::runtime_error("unknown solver");
  }
  AlsOptions opt;
  opt.f = static_cast<std::size_t>(args.num("f"));
  opt.lambda = static_cast<real_t>(args.num("lambda"));
  opt.solver.kind = *solver_kind;
  opt.solver.cg_fs = static_cast<std::uint32_t>(args.num("fs", 6));
  // cumf_train's default tile and BIN, which the workloads do not override.
  opt.hermitian.tile = pick_tile(opt.f, 10);
  opt.hermitian.bin = 32;
  opt.workers = std::max(1, parts);
  opt.seed = seed;
  Json out;

  // data: parse.
  std::uint64_t t0 = now_ns();
  RatingsCoo all;
  {
    const Span s("data.load_ratings_file");
    all = load_ratings_file(ratings_path, LoaderOptions{});
  }
  const double parse_s = secs(t0, now_ns());
  const double mb =
      static_cast<double>(std::filesystem::file_size(ratings_path)) / 1e6;
  out.set("data.parse_s", parse_s).set("data.parse_mb_s", mb / parse_s);

  // sparse: the CLI's split, then the canonical CSR pair the engines build.
  Rng rng(seed);
  t0 = now_ns();
  TrainTestSplit split;
  {
    const Span s("sparse.split_holdout");
    split = split_holdout(all, args.num("test"), rng);
  }
  out.set("sparse.split_s", secs(t0, now_ns()));
  t0 = now_ns();
  CsrMatrix r;
  CsrMatrix rt;
  {
    const Span s("sparse.csr");
    RatingsCoo train = split.train;
    train.sort_and_dedup();
    r = CsrMatrix::from_coo(train);
    rt = r.transposed();
  }
  out.set("sparse.csr_s", secs(t0, now_ns()));
  {
    const Span s("sparse.partition");
    const int p = std::max(1, gpus > 0 ? gpus : parts);
    const double imb =
        gpus > 0 ? std::max(imbalance(r, shard_cuts(r, p)),
                            imbalance(rt, shard_cuts(rt, p)))
                 : std::max(imbalance(r, nnz_balanced_bounds(r, p)),
                            imbalance(rt, nnz_balanced_bounds(rt, p)));
    out.set("sparse.shard_imbalance", imb);
  }

  // data: model and checkpoint files at the run's shapes.
  t0 = now_ns();
  FactorModel model;
  {
    const Span s("data.read_model_file");
    model = read_model_file(args.str("model"));
  }
  out.set("data.model_read_s", secs(t0, now_ns()));
  const std::string tmp_model = scratch + "/layers-model.txt";
  t0 = now_ns();
  {
    const Span s("data.write_model_file");
    write_model_file(tmp_model, model);
  }
  out.set("data.model_write_s", secs(t0, now_ns()));
  double ckpt_s = 0;
  if (args.num("checkpoint", 0) != 0) {
    TrainCheckpoint ckpt;
    ckpt.epoch = 1;
    ckpt.x = model.x;
    ckpt.theta = model.theta;
    ckpt.seed = seed;
    ckpt.f = opt.f;
    ckpt.rows = r.rows();
    ckpt.cols = r.cols();
    ckpt.train_nnz = r.nnz();
    t0 = now_ns();
    {
      const Span s("data.write_checkpoint_file");
      write_checkpoint_file(scratch + "/layers-ckpt.bin", ckpt);
    }
    ckpt_s = secs(t0, now_ns());
  }
  out.set("data.ckpt_write_s", ckpt_s);

  // data: one epoch's tile schedule (every tile of both views once).
  double tile_s = 0;
  double tile_mb = 0;
  double timeline_s = 0;
  AlsKernelConfig kc;
  kc.f = static_cast<int>(opt.f);
  kc.tile = opt.hermitian.tile;
  kc.bin = opt.hermitian.bin;
  kc.solver = opt.solver.kind;
  kc.cg_fs = opt.solver.cg_fs;
  const auto dev = gpusim::DeviceSpec::pascal_p100();
  const gpusim::LinkSpec link = gpusim::link_by_name("nvlink");
  if (!shard_dir.empty()) {
    const ShardMeta meta = read_shard_meta(shard_dir);
    for (const TileView view : {TileView::by_row, TileView::by_col}) {
      const auto& tiles = meta.tiles(view);
      for (std::size_t i = 0; i < tiles.size(); ++i) {
        t0 = now_ns();
        {
          const Span s("data.load_tile");
          const CsrTile tile = load_tile(shard_dir, view, i, tiles[i]);
          if (tile.csr.nnz() != tiles[i].nnz) {
            throw std::runtime_error("tile nnz disagrees with the meta");
          }
        }
        tile_s += secs(t0, now_ns());
        tile_mb += static_cast<double>(tiles[i].bytes) / 1e6;
      }
    }
    OocOptions ooc;
    ooc.host_mem_bytes =
        static_cast<std::uint64_t>(args.num("host-mem"));
    const OocAlsEngine engine(shard_dir, opt, ooc);
    t0 = now_ns();
    {
      const Span s("gpusim.ooc_epoch_timeline");
      const OocTimeline tl =
          engine.epoch_timeline(dev, kc, link, engine.overlap_active());
      if (!(tl.pipelined_s > 0)) {
        throw std::runtime_error("empty OOC timeline");
      }
    }
    timeline_s = secs(t0, now_ns());
  } else if (gpus > 0) {
    const MultiGpuAls engine(split.train, opt, gpus);
    t0 = now_ns();
    {
      const Span s("gpusim.multi_gpu_timeline");
      const MultiGpuScaling sc = engine.scaling_report(dev, kc, link);
      const MultiGpuTimeline tl = engine.epoch_timeline(dev, kc, link);
      if (!(sc.total_s > 0) || !(tl.total_s() > 0)) {
        throw std::runtime_error("empty multi-GPU timeline");
      }
    }
    timeline_s = secs(t0, now_ns());
  }
  out.set("data.tile_load_s", tile_s)
      .set("data.tile_mb", tile_mb)
      .set("gpusim.timeline_s", timeline_s);

  // metrics: holdout RMSE.
  t0 = now_ns();
  {
    const Span s("metrics.rmse");
    if (!(rmse(split.test, model.x, model.theta) > 0)) {
      throw std::runtime_error("holdout RMSE is not positive");
    }
  }
  out.set("metrics.rmse_s", secs(t0, now_ns()));

  // linalg: one user's scores over every item, for a sample of users.
  {
    const std::size_t users = std::min<std::size_t>(256, model.x.rows());
    std::vector<double> scores(model.theta.rows());
    t0 = now_ns();
    for (std::size_t i = 0; i < users; ++i) {
      const std::size_t u = i * model.x.rows() / users;
      dot_rows(model.x.row(u), model.theta, 0, model.theta.rows(), scores);
    }
    const std::uint64_t ns = now_ns() - t0;
    Spans::instance().count("linalg.dot_rows", ns, users);
    out.set("linalg.score_us",
            static_cast<double>(ns) * 1e-3 / static_cast<double>(users));
  }

  // core + half: one epoch on one thread, untimed then with every per-row
  // call bracketed.
  const Replay plain = replay_epoch(r, rt, model.x, model.theta, opt, false);
  Replay rep;
  {
    const Span s("core.replay_epoch");
    rep = replay_epoch(r, rt, model.x, model.theta, opt, true);
  }
  const double systems = static_cast<double>(rep.systems);
  out.set("core.hermitian_s", rep.hermitian_s)
      .set("core.hermitian_ns_per_rating",
           rep.hermitian_s * 1e9 / static_cast<double>(rep.ratings))
      .set("core.solve_s", rep.solve_s)
      .set("core.solve_us_per_system", rep.solve_s * 1e6 / systems)
      .set("core.cg_iters_per_system",
           static_cast<double>(rep.stats.cg_iterations) / systems)
      .set("core.fallback_ratio",
           static_cast<double>(rep.stats.cg_fallbacks +
                               rep.stats.fp16_fallbacks) /
               systems)
      .set("core.replay_failures", static_cast<double>(rep.stats.failures))
      .set("half.pack_s", rep.pack_s)
      .set("half.pack_bytes", rep.pack_bytes)
      .set("replay.plain_epoch_s", plain.wall_s)
      .set("replay.traced_epoch_s", rep.wall_s);

  const std::string spans_out = args.str("spans-out", "");
  if (!spans_out.empty() && !Spans::instance().write(spans_out)) {
    throw std::runtime_error("cannot write spans to " + spans_out);
  }
  std::string self;
  for (const auto& [name, sum] : Spans::instance().summarize()) {
    self += (self.empty() ? "\"" : ", \"") + name + "\": " +
            Json()
                .set("count", static_cast<double>(sum.count))
                .set("total_s", sum.total_s)
                .set("self_s", sum.self_s)
                .str();
  }
  out.set_raw("spans", "{" + self + "}");
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace tsb
