// cumf_serve — answer top-k requests (and fold in streamed ratings) from a
// trained model.
//
//   cumf_serve <model> <ratings> [--requests FILE] [--shards N] [--cache N]
//              [--lambda X] [--solver lu|cholesky|cg|cg16|pcg] [--fs N]
//              [--scalar] [--trace FILE]
//
// <model> is a cumf-model text file, a CUMFCKPT checkpoint file, or a
// checkpoint directory (the latest epoch is loaded). <ratings> rebuilds the
// seen matrix the top-k excludes. Requests come from --requests FILE or
// stdin, one per line:
//
//   topk <user> [k]        print the k best unseen items for <user>
//   rate <user> <item> <r> fold the rating in (user == current user count
//                          grows the model by one new user)
//
// topk output is byte-identical to `cumf_train recommend` on the same
// model state ("item <v>\tscore <s>\n" per line), which is exactly what the
// serve-smoke CI job asserts with cmp. Everything else — fold-in acks, the
// end-of-run summary (requests, cache hits, solver fallbacks) — goes to
// stderr so stdout stays a pure response stream.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/stopwatch.hpp"
#include "data/checkpoint.hpp"
#include "data/loaders.hpp"
#include "data/model_io.hpp"
#include "prof/counters.hpp"
#include "prof/prof.hpp"
#include "serve/serve.hpp"
#include "sparse/csr.hpp"

#include "cli_parse.hpp"

using namespace cumf;

namespace {

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  cumf_serve <model> <ratings> [--requests FILE] [--shards N]\n"
      "             [--cache N] [--lambda X] "
      "[--solver lu|cholesky|cg|cg16|pcg]\n"
      "             [--fs N] [--scalar] [--trace FILE]\n"
      "\n"
      "  <model>: cumf-model file, CUMFCKPT checkpoint file, or checkpoint "
      "dir\n"
      "  requests (stdin or --requests): 'topk <user> [k]' | "
      "'rate <u> <v> <r>'\n");
  std::exit(2);
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

/// Model file, checkpoint file, or checkpoint directory → FactorModel.
FactorModel load_model_any(const std::string& path) {
  std::string file = path;
  if (std::filesystem::is_directory(path)) {
    const auto latest = latest_checkpoint(path);
    CUMF_EXPECTS(latest.has_value(),
                 "no checkpoints found in directory: " + path);
    file = *latest;
    std::fprintf(stderr, "cumf_serve: loading checkpoint %s\n",
                 file.c_str());
  }
  std::ifstream probe(file, std::ios::binary);
  CUMF_EXPECTS(probe.good(), "cannot open model file: " + file);
  char magic[8] = {};
  probe.read(magic, sizeof magic);
  if (probe.gcount() == sizeof magic &&
      std::string_view(magic, sizeof magic) == kCheckpointMagic) {
    TrainCheckpoint ckpt = read_checkpoint_file(file);
    return FactorModel{std::move(ckpt.x), std::move(ckpt.theta)};
  }
  return read_model_file(file);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    usage();
  }
  const std::string model_path = argv[1];
  const std::string ratings_path = argv[2];
  std::string requests_path;
  std::string trace_path;
  serve::ServeOptions options;
  options.shards = 4;

  int i = 3;
  const auto next = [&]() -> const char* {
    if (i + 1 >= argc) {
      usage();
    }
    return argv[++i];
  };
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--requests") {
      requests_path = next();
    } else if (arg == "--shards") {
      options.shards = static_cast<std::size_t>(
          cli::parse_uint("cumf_serve", "--shards", next(), 1, 65536));
    } else if (arg == "--cache") {
      options.cache_capacity = static_cast<std::size_t>(
          cli::parse_uint("cumf_serve", "--cache", next(), 0, 1000000000));
    } else if (arg == "--lambda") {
      options.lambda = static_cast<real_t>(
          cli::parse_double("cumf_serve", "--lambda", next(), 0.0, 1e9));
    } else if (arg == "--solver") {
      options.solver.kind = parse_solver(next());
    } else if (arg == "--fs") {
      options.solver.cg_fs = static_cast<std::uint32_t>(
          cli::parse_uint("cumf_serve", "--fs", next(), 1, 1024));
    } else if (arg == "--scalar") {
      options.path = simd::KernelPath::scalar;
      options.solver.path = simd::KernelPath::scalar;
    } else if (arg == "--trace") {
      trace_path = next();
    } else {
      std::fprintf(stderr, "cumf_serve: unknown option '%s'\n", arg.c_str());
      usage();
    }
  }

  try {
    if (!trace_path.empty()) {
      prof::Tracer::instance().enable();
      prof::Tracer::instance().set_thread_name("serve");
    }

    FactorModel model = load_model_any(model_path);
    auto loaded = load_ratings_file(ratings_path, LoaderOptions{});
    // Rebuild the seen matrix on the model's shape (the ratings file's
    // inferred shape may be smaller if trailing users/items are unrated).
    CUMF_EXPECTS(loaded.rows() <= model.x.rows() &&
                     loaded.cols() <= model.theta.rows(),
                 "ratings file exceeds the model's shape");
    const RatingsCoo shaped(static_cast<index_t>(model.x.rows()),
                            static_cast<index_t>(model.theta.rows()),
                            std::move(loaded.entries()));
    const auto seen = CsrMatrix::from_coo(shaped);

    serve::ServeEngine engine(std::move(model), seen, options);
    std::fprintf(stderr,
                 "cumf_serve: %u users x %u items, f=%zu, %zu shards, "
                 "cache %zu\n",
                 engine.users(), engine.items(), engine.f(),
                 options.shards, options.cache_capacity);

    std::ifstream req_file;
    if (!requests_path.empty()) {
      req_file.open(requests_path);
      CUMF_EXPECTS(req_file.good(),
                   "cannot open request file: " + requests_path);
    }
    std::istream& in = requests_path.empty() ? std::cin : req_file;

    prof::CounterRegistry registry;
    std::uint64_t topk_count = 0;
    std::uint64_t fold_count = 0;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') {
        continue;
      }
      std::istringstream fields(line);
      std::string verb;
      fields >> verb;
      if (verb == "topk") {
        index_t user = 0;
        std::size_t k = 10;
        fields >> user;
        if (!(fields >> k)) {
          k = 10;
        }
        const auto t0 = Stopwatch::now_ns();
        const auto recs = engine.top_k(user, k);
        registry.observe("serve.topk_us",
                         static_cast<double>(Stopwatch::now_ns() - t0) /
                             1e3);
        for (const ScoredItem& item : recs) {
          std::printf("item %u\tscore %.4f\n", item.item,
                      static_cast<double>(item.score));
        }
        ++topk_count;
      } else if (verb == "rate") {
        Rating r{};
        fields >> r.u >> r.v >> r.r;
        CUMF_EXPECTS(!fields.fail(), "malformed rate request: " + line);
        const auto t0 = Stopwatch::now_ns();
        engine.observe(r);
        registry.observe("serve.fold_in_us",
                         static_cast<double>(Stopwatch::now_ns() - t0) /
                             1e3);
        std::fprintf(stderr, "fold-in u=%u v=%u ok (users now %u)\n", r.u,
                     r.v, engine.users());
        ++fold_count;
      } else {
        CUMF_EXPECTS(false, "unknown request verb: " + verb);
      }
    }

    const auto cache = engine.cache_stats();
    const auto solves = engine.solve_stats();
    std::fprintf(stderr,
                 "served %llu topk, %llu fold-ins | cache hits %llu misses "
                 "%llu evictions %llu | solver fallbacks: cg->lu %llu, "
                 "fp16->fp32 %llu, unsolvable %llu (of %llu systems)\n",
                 static_cast<unsigned long long>(topk_count),
                 static_cast<unsigned long long>(fold_count),
                 static_cast<unsigned long long>(cache.hits),
                 static_cast<unsigned long long>(cache.misses),
                 static_cast<unsigned long long>(cache.evictions),
                 static_cast<unsigned long long>(solves.cg_fallbacks),
                 static_cast<unsigned long long>(solves.fp16_fallbacks),
                 static_cast<unsigned long long>(solves.failures),
                 static_cast<unsigned long long>(solves.systems));
    for (const char* name : {"serve.topk_us", "serve.fold_in_us"}) {
      if (const prof::Histogram* h = registry.histogram(name)) {
        std::fprintf(stderr,
                     "%s: count %llu mean %.1f p50 %.0f p95 %.0f p99 %.0f\n",
                     name, static_cast<unsigned long long>(h->count()),
                     h->mean(), h->percentile(0.50), h->percentile(0.95),
                     h->percentile(0.99));
      }
    }
    if (!trace_path.empty() &&
        prof::Tracer::instance().write_chrome_trace(trace_path)) {
      std::fprintf(stderr, "trace written to %s\n", trace_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
