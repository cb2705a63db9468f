// cumf_shard: build and inspect out-of-core shard stores.
//
// Usage:
//   cumf_shard build RATINGS DIR [--tiles N] [--test FRAC] [--seed N]
//                                [--movielens]
//   cumf_shard info DIR
//   cumf_shard verify DIR
//
// `build` loads a ratings file, replays the trainer's canonical
// Rng(seed)+split_holdout sequence, and writes the checksummed tile files,
// test set and meta into DIR (see data/shards.hpp for the format). A store
// built with seed S trains bit-identically to `cumf_train train RATINGS ...
// --seed S` run in-core with the same --test fraction.
//
// `info` prints the manifest; `verify` re-reads every file, checking magic,
// version, CRC and the tile cross-checks, and exits nonzero naming the
// first rejected file and its reason.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <string>

#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "data/loaders.hpp"
#include "data/shards.hpp"
#include "sparse/coo.hpp"

#include "cli_parse.hpp"

namespace {

using namespace cumf;

int usage() {
  std::fprintf(
      stderr,
      "usage: cumf_shard build RATINGS DIR [--tiles N] [--test FRAC]\n"
      "                                    [--seed N] [--movielens]\n"
      "       cumf_shard info DIR\n"
      "       cumf_shard verify DIR\n"
      "\n"
      "  --tiles N      tile count per view (default 8; nnz-balanced cuts\n"
      "                 may merge down when single rows exceed a share)\n"
      "  --test FRAC    held-out test fraction (default 0.1), as cumf_train\n"
      "  --seed N       holdout-split seed (default 1); training the store\n"
      "                 matches an in-core run with the same seed\n"
      "  --movielens    input uses the u::v::r::ts format (1-based ids)\n");
  return 2;
}

void print_tiles(const char* label, const std::vector<TileRange>& tiles) {
  std::printf("%s (%zu tiles):\n", label, tiles.size());
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    const TileRange& t = tiles[i];
    std::printf("  %4zu  rows [%u, %u)  %10" PRIu64 " nnz  %10" PRIu64
                " bytes on disk\n",
                i, t.row_begin, t.row_end, static_cast<std::uint64_t>(t.nnz),
                t.bytes);
  }
}

void print_meta(const std::string& dir, const ShardMeta& meta) {
  std::printf("shard store %s\n", dir.c_str());
  std::printf("  %u x %u, %" PRIu64 " train + %" PRIu64
              " test nnz, mean %.6f\n",
              meta.rows, meta.cols, static_cast<std::uint64_t>(meta.train_nnz),
              static_cast<std::uint64_t>(meta.test_nnz), meta.mean);
  std::printf("  test fraction %g, split seed %" PRIu64 "\n",
              meta.test_fraction, meta.seed);
  print_tiles("  by-row view", meta.row_tiles);
  print_tiles("  by-col view", meta.col_tiles);
}

int cmd_build(int argc, char** argv) {
  if (argc < 4) {
    return usage();
  }
  const std::string ratings_path = argv[2];
  const std::string dir = argv[3];
  ShardBuildOptions options;
  LoaderOptions loader;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiles" && has_value) {
      options.tiles = static_cast<std::size_t>(
          cli::parse_uint("cumf_shard", "--tiles", argv[++i], 1, 1000000));
    } else if (arg == "--test" && has_value) {
      options.test_fraction =
          cli::parse_double("cumf_shard", "--test", argv[++i], 0.0, 1.0);
    } else if (arg == "--seed" && has_value) {
      options.seed =
          cli::parse_uint("cumf_shard", "--seed", argv[++i], 0,
                          std::numeric_limits<std::uint64_t>::max());
    } else if (arg == "--movielens") {
      loader.format = RatingsFormat::MovieLens;
      loader.one_based = true;
    } else {
      std::fprintf(stderr, "cumf_shard: unknown option '%s'\n", arg.c_str());
      return usage();
    }
  }
  if (options.tiles == 0) {
    std::fprintf(stderr, "cumf_shard: --tiles must be >= 1\n");
    return 2;
  }
  if (!(options.test_fraction > 0.0 && options.test_fraction < 1.0)) {
    std::fprintf(stderr, "cumf_shard: --test must be in (0, 1)\n");
    return 2;
  }

  std::printf("loading %s...\n", ratings_path.c_str());
  Stopwatch sw;
  nnz_t dropped = 0;
  const RatingsCoo all = load_ratings_file(ratings_path, loader, &dropped);
  std::printf("  %u x %u, %" PRIu64 " ratings", all.rows(), all.cols(),
              static_cast<std::uint64_t>(all.nnz()));
  if (dropped != 0) {
    std::printf(" (%" PRIu64 " earlier duplicates dropped, latest kept)",
                static_cast<std::uint64_t>(dropped));
  }
  std::printf(" in %.3f s\n", sw.seconds());

  Stopwatch shard_sw;
  const ShardMeta meta = write_shards(dir, all, options);
  std::printf("sharded in %.3f s\n", shard_sw.seconds());
  print_meta(dir, meta);
  return 0;
}

int cmd_info(const std::string& dir) {
  print_meta(dir, read_shard_meta(dir));
  return 0;
}

int cmd_verify(const std::string& dir) {
  const ShardMeta meta = read_shard_meta(dir);
  const RatingsCoo test = read_shard_test(dir);
  CUMF_EXPECTS(test.nnz() == meta.test_nnz,
               "test set nnz disagrees with the manifest");
  std::size_t files = 2;  // meta + test already validated
  const struct {
    TileView view;
    const std::vector<TileRange>* tiles;
  } views[] = {{TileView::by_row, &meta.row_tiles},
               {TileView::by_col, &meta.col_tiles}};
  for (const auto& v : views) {
    for (std::size_t i = 0; i < v.tiles->size(); ++i) {
      (void)load_tile(dir, v.view, i, (*v.tiles)[i]);
      ++files;
    }
  }
  std::printf("verify OK: %zu files, %zu+%zu tiles, %" PRIu64
              " train nnz\n",
              files, meta.row_tiles.size(), meta.col_tiles.size(),
              static_cast<std::uint64_t>(meta.train_nnz));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "build") {
      return cmd_build(argc, argv);
    }
    if (cmd == "info" && argc == 3) {
      return cmd_info(argv[2]);
    }
    if (cmd == "verify" && argc == 3) {
      return cmd_verify(argv[2]);
    }
    return usage();
  } catch (const cumf::FrameError& e) {
    std::fprintf(stderr, "cumf_shard: rejected shard file (%s): %s\n",
                 cumf::to_string(e.reason()), e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cumf_shard: %s\n", e.what());
    return 1;
  }
}
