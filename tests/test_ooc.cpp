// Out-of-core layer: shard store round-trip and rejection taxonomy, the
// serpentine block schedule, the bounded tile cache, and the streamed row
// source's bit-identity to the in-core AlsEngine under both worker
// partitions (the same regression bar the device-shard partition meets).
// The CLI-level leg (cumf_shard build → streamed train → cmp against
// in-core, plus crash/resume) runs in tools/CMakeLists.txt.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/faultinject.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "core/als.hpp"
#include "core/ooc_als.hpp"
#include "data/generator.hpp"
#include "data/shards.hpp"
#include "sparse/split.hpp"

namespace cumf {
namespace {

/// A fresh scratch directory under the test temp dir, removed with its
/// contents when the object goes out of scope. The name carries the pid:
/// ctest runs each parameterized instance as its own process, and
/// concurrent instances sharing one directory race remove_all.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_((std::filesystem::path(::testing::TempDir()) /
               (name + "-" + std::to_string(::getpid())))
                  .string()) {
    std::filesystem::remove_all(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;  // a destructor must not throw
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

RatingsCoo tiny_ratings() {
  SyntheticConfig cfg;
  cfg.m = 90;
  cfg.n = 50;
  cfg.nnz = 1400;
  cfg.true_rank = 4;
  cfg.mean = 3.5;
  cfg.seed = 5;
  return generate_synthetic(cfg).ratings;
}

AlsOptions tiny_options(SolverKind kind = SolverKind::CgFp32) {
  AlsOptions options;
  options.f = 8;
  options.lambda = 0.05f;
  options.solver.kind = kind;
  options.workers = 2;
  options.seed = 3;
  return options;
}

ShardBuildOptions tiny_build() {
  ShardBuildOptions options;
  options.tiles = 4;
  options.test_fraction = 0.1;
  options.seed = 3;
  return options;
}

/// The canonical train split the shard build replays — what an in-core
/// engine of the same seed/test fraction trains on.
RatingsCoo in_core_train(const RatingsCoo& all, const ShardBuildOptions& b) {
  Rng rng(b.seed);
  return split_holdout(all, b.test_fraction, rng).train;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(real_t)) == 0;
}

// ---------- Shard store round-trip ----------

TEST(ShardStore, MetaAndTilesRoundTrip) {
  const ScratchDir scratch("shard_roundtrip");
  const std::string& dir = scratch.path();
  const RatingsCoo all = tiny_ratings();
  const ShardBuildOptions build = tiny_build();
  const ShardMeta written = write_shards(dir, all, build);

  EXPECT_TRUE(is_shard_dir(dir));
  const ShardMeta meta = read_shard_meta(dir);
  EXPECT_EQ(meta.rows, written.rows);
  EXPECT_EQ(meta.cols, written.cols);
  EXPECT_EQ(meta.train_nnz, written.train_nnz);
  EXPECT_EQ(meta.test_nnz, written.test_nnz);
  EXPECT_EQ(meta.mean, written.mean);  // bit-exact double round-trip
  EXPECT_EQ(meta.seed, build.seed);
  EXPECT_EQ(meta.row_tiles, written.row_tiles);
  EXPECT_EQ(meta.col_tiles, written.col_tiles);

  // Concatenating the by-row tiles must reproduce the canonical train CSR
  // exactly: same split, same dedup, same value bits.
  RatingsCoo canonical = in_core_train(all, build);
  canonical.sort_and_dedup();
  const CsrMatrix csr = CsrMatrix::from_coo(canonical);
  nnz_t seen = 0;
  index_t row = 0;
  for (std::size_t i = 0; i < meta.row_tiles.size(); ++i) {
    const CsrTile tile =
        load_tile(dir, TileView::by_row, i, meta.row_tiles[i]);
    EXPECT_EQ(tile.row_begin, row);
    for (index_t u = 0; u < tile.csr.rows(); ++u) {
      const auto cols = tile.csr.row_cols(u);
      const auto vals = tile.csr.row_vals(u);
      const auto want_cols = csr.row_cols(row + u);
      const auto want_vals = csr.row_vals(row + u);
      ASSERT_EQ(cols.size(), want_cols.size());
      EXPECT_TRUE(std::memcmp(cols.data(), want_cols.data(),
                              cols.size() * sizeof(index_t)) == 0);
      EXPECT_TRUE(std::memcmp(vals.data(), want_vals.data(),
                              vals.size() * sizeof(real_t)) == 0);
    }
    row = tile.row_end;
    seen += tile.csr.nnz();
  }
  EXPECT_EQ(row, meta.rows);
  EXPECT_EQ(seen, meta.train_nnz);

  const RatingsCoo test = read_shard_test(dir);
  EXPECT_EQ(test.nnz(), meta.test_nnz);
}

// The on-disk bytes of one tile, the meta and the test set, pinned by size
// and CRC-32: a codec change that moves a single byte fails here.
TEST(ShardStore, BytesArePinned) {
  const ScratchDir scratch("shard_bytes");
  const std::string& dir = scratch.path();
  write_shards(dir, tiny_ratings(), tiny_build());
  struct Pin {
    std::string path;
    std::size_t size;
    std::uint32_t crc;
  };
  const std::filesystem::path root(dir);
  for (const Pin& pin :
       {Pin{tile_path(dir, TileView::by_col, 1), 2753u, 0x073aef97u},
        Pin{(root / kShardMetaFile).string(), 280u, 0x10d8401bu},
        Pin{(root / kShardTestFile).string(), 1912u, 0x20c1b477u}}) {
    const std::string bytes = read_file(pin.path);
    EXPECT_EQ(bytes.size(), pin.size) << pin.path;
    EXPECT_EQ(crc32(bytes), pin.crc) << pin.path;
  }
}

// ---------- Rejection taxonomy ----------

/// Byte-level surgery on a framed shard file (read back with the frame's
/// read_file). Payload starts at offset 20; the trailing 4 bytes are the
/// payload CRC.
void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class ShardRejectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    meta_ = write_shards(dir_, tiny_ratings(), tiny_build());
    tile_ = tile_path(dir_, TileView::by_row, 0);
  }

  FrameReject load_reason() {
    try {
      load_tile(dir_, TileView::by_row, 0, meta_.row_tiles[0]);
    } catch (const FrameError& e) {
      return e.reason();
    }
    ADD_FAILURE() << "tile unexpectedly accepted";
    return FrameReject::io;
  }

  const ScratchDir scratch_{"shard_reject"};
  const std::string& dir_ = scratch_.path();
  ShardMeta meta_;
  std::string tile_;
};

TEST_F(ShardRejectTest, PayloadCorruptionIsBadCrc) {
  std::string bytes = read_file(tile_);
  bytes[bytes.size() / 2] ^= 0x5a;  // mid-payload bit flips
  write_file(tile_, bytes);
  EXPECT_EQ(load_reason(), FrameReject::bad_crc);
}

TEST_F(ShardRejectTest, WrongMagicIsBadMagic) {
  std::string bytes = read_file(tile_);
  bytes.replace(0, 8, "NOTATILE");
  write_file(tile_, bytes);
  EXPECT_EQ(load_reason(), FrameReject::bad_magic);
}

TEST_F(ShardRejectTest, TornWriteIsTruncated) {
  const std::string bytes = read_file(tile_);
  write_file(tile_, bytes.substr(0, bytes.size() / 2));
  EXPECT_EQ(load_reason(), FrameReject::truncated);
}

TEST_F(ShardRejectTest, FutureVersionIsVersionSkew) {
  std::string bytes = read_file(tile_);
  const std::uint32_t future = kShardVersion + 1;
  std::memcpy(bytes.data() + 8, &future, sizeof(future));
  write_file(tile_, bytes);
  EXPECT_EQ(load_reason(), FrameReject::version_skew);
}

TEST_F(ShardRejectTest, ValidButWrongTileIsMismatch) {
  // A perfectly valid file under the wrong name: framing passes, the
  // cross-check against the manifest must still reject it.
  std::filesystem::copy_file(
      tile_path(dir_, TileView::by_row, 1), tile_,
      std::filesystem::copy_options::overwrite_existing);
  EXPECT_EQ(load_reason(), FrameReject::mismatch);
}

TEST_F(ShardRejectTest, CrcValidGarbagePayloadIsMalformed) {
  // Corrupt the view tag, then repair the CRC: the frame is self-consistent
  // but the payload no longer parses.
  std::string bytes = read_file(tile_);
  bytes[20] = 7;  // view tag: must be 0 or 1
  const std::size_t payload_len = bytes.size() - 20 - 4;
  const std::uint32_t fixed = crc32(0, bytes.data() + 20, payload_len);
  std::memcpy(bytes.data() + bytes.size() - 4, &fixed, sizeof(fixed));
  write_file(tile_, bytes);
  EXPECT_EQ(load_reason(), FrameReject::malformed);
}

TEST_F(ShardRejectTest, MissingFileIsIo) {
  std::filesystem::remove(tile_);
  EXPECT_EQ(load_reason(), FrameReject::io);
}

TEST_F(ShardRejectTest, ReasonsAreNamed) {
  EXPECT_STREQ(to_string(FrameReject::bad_crc), "corrupted (CRC mismatch)");
  EXPECT_STREQ(to_string(FrameReject::version_skew),
               "incompatible format version");
  EXPECT_STREQ(to_string(FrameReject::mismatch),
               "valid, but not the one expected");
}

// ---------- Block schedule ----------

TEST(TileSchedule, SerpentineAndDeterministic) {
  EXPECT_EQ(ooc_tile_order(4, 0), (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(ooc_tile_order(4, 1), (std::vector<std::size_t>{3, 2, 1, 0}));
  EXPECT_EQ(ooc_tile_order(4, 2), (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(ooc_tile_order(1, 5), (std::vector<std::size_t>{0}));
  EXPECT_TRUE(ooc_tile_order(0, 0).empty());
  // Pure function of (tiles, sweep): identical on every call — the property
  // that makes the schedule independent of worker count and prefetch state.
  EXPECT_EQ(ooc_tile_order(7, 3), ooc_tile_order(7, 3));
}

// ---------- Tile cache ----------

TEST(TileCache, BudgetIsHardAndEvictionIsLru) {
  const ScratchDir scratch("cache_budget");
  const std::string& dir = scratch.path();
  const ShardMeta meta = write_shards(dir, tiny_ratings(), tiny_build());
  std::uint64_t largest = 0;
  std::uint64_t total = 0;
  for (const TileRange& t : meta.row_tiles) {
    largest = std::max(largest, tile_resident_bytes(t));
    total += tile_resident_bytes(t);
  }
  ASSERT_GT(meta.row_tiles.size(), 2u);

  // Budget below the largest tile can never hold a working set: reject at
  // construction instead of thrashing.
  EXPECT_THROW(TileCache(dir, meta, largest - 1),
               CheckError);

  // A two-tile budget streams the whole view while staying under budget.
  TileCache cache(dir, meta, 2 * largest);
  for (std::size_t pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < meta.row_tiles.size(); ++i) {
      const auto tile = cache.get(TileView::by_row, i);
      EXPECT_EQ(tile->index, i);
      EXPECT_LE(cache.resident_bytes(), cache.budget_bytes());
    }
  }
  const TileCache::Stats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.bytes_loaded, 0u);

  // Everything fits → second pass is all hits.
  TileCache big(dir, meta, 2 * total);
  for (std::size_t i = 0; i < meta.row_tiles.size(); ++i) {
    (void)big.get(TileView::by_row, i);
  }
  const std::uint64_t misses_after_fill = big.stats().misses;
  for (std::size_t i = 0; i < meta.row_tiles.size(); ++i) {
    (void)big.get(TileView::by_row, i);
  }
  EXPECT_EQ(big.stats().misses, misses_after_fill);
  EXPECT_EQ(big.stats().hits, meta.row_tiles.size());
}

// ---------- Streamed engine: bit-identity ----------

struct OocCase {
  int workers;
  bool overlap;
  bool tight_budget;
  SolverKind solver;
  AlsSchedule schedule = AlsSchedule::nnz_guided;
};

/// Prints a case as its readable name, e.g. w4_overlap_tight_cg32.
/// gtest would otherwise print the raw bytes of OocCase, padding included,
/// and gtest_discover_tests builds the ctest name from this printout (a
/// name generator would not help: CMake appends the printed parameter to
/// any non-numeric test suffix).
void PrintTo(const OocCase& c, std::ostream* os) {
  const char* solver = c.solver == SolverKind::CgFp16         ? "cg16"
                       : c.solver == SolverKind::CholeskyFp32 ? "cholesky"
                                                              : "cg32";
  *os << 'w' << c.workers << (c.overlap ? "_overlap" : "_sync")
      << (c.tight_budget ? "_tight_" : "_roomy_") << solver
      << (c.schedule == AlsSchedule::static_rows ? "_static" : "");
}

class OocBitIdentity : public ::testing::TestWithParam<OocCase> {};

TEST_P(OocBitIdentity, MatchesInCoreAlsEngine) {
  const OocCase& c = GetParam();
  const ScratchDir scratch("ooc_bitident");
  const std::string& dir = scratch.path();
  const RatingsCoo all = tiny_ratings();
  const ShardBuildOptions build = tiny_build();
  const ShardMeta meta = write_shards(dir, all, build);

  AlsOptions options = tiny_options(c.solver);
  options.workers = c.workers;
  options.schedule = c.schedule;
  AlsEngine reference(in_core_train(all, build), options);

  std::uint64_t largest = 0;
  for (const auto* table : {&meta.row_tiles, &meta.col_tiles}) {
    for (const TileRange& t : *table) {
      largest = std::max(largest, tile_resident_bytes(t));
    }
  }
  OocOptions ooc;
  ooc.host_mem_bytes = c.tight_budget ? 2 * largest : std::uint64_t{1} << 30;
  ooc.overlap = c.overlap;
  OocAlsEngine streamed(dir, options, ooc);
  EXPECT_EQ(streamed.overlap_active(), c.overlap);

  for (int epoch = 0; epoch < 3; ++epoch) {
    reference.run_epoch();
    streamed.run_epoch();
    EXPECT_TRUE(same_bits(reference.user_factors(), streamed.user_factors()))
        << "epoch " << epoch;
    EXPECT_TRUE(same_bits(reference.item_factors(), streamed.item_factors()))
        << "epoch " << epoch;
  }
  // The integer solve counters must agree too (they feed checkpoints).
  const SolveStats a = reference.solve_stats();
  const SolveStats b = streamed.solve_stats();
  EXPECT_EQ(a.systems, b.systems);
  EXPECT_EQ(a.cg_iterations, b.cg_iterations);
  EXPECT_EQ(a.cg_fallbacks, b.cg_fallbacks);
  EXPECT_EQ(a.fp16_fallbacks, b.fp16_fallbacks);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OocBitIdentity,
    ::testing::Values(
        OocCase{1, true, true, SolverKind::CgFp32},
        OocCase{4, true, true, SolverKind::CgFp32},
        OocCase{4, false, true, SolverKind::CgFp32},
        OocCase{2, true, true, SolverKind::CgFp32},
        OocCase{2, true, false, SolverKind::CgFp16},
        OocCase{3, false, false, SolverKind::CholeskyFp32},
        OocCase{3, true, true, SolverKind::CgFp32,
                AlsSchedule::static_rows}));

TEST(OocEngine, RestoreContinuesBitIdentically) {
  const ScratchDir scratch("ooc_restore");
  const std::string& dir = scratch.path();
  const RatingsCoo all = tiny_ratings();
  write_shards(dir, all, tiny_build());
  const AlsOptions options = tiny_options(SolverKind::CgFp16);
  OocOptions ooc;
  ooc.host_mem_bytes = std::uint64_t{1} << 30;

  OocAlsEngine uninterrupted(dir, options, ooc);
  for (int i = 0; i < 2; ++i) {
    uninterrupted.run_epoch();
  }
  const Matrix snap_x = uninterrupted.user_factors();
  const Matrix snap_theta = uninterrupted.item_factors();
  const SolveStats snap_stats = uninterrupted.solve_stats();
  for (int i = 0; i < 2; ++i) {
    uninterrupted.run_epoch();
  }

  // A fresh engine restored from the snapshot re-enters the serpentine
  // schedule at the right sweep parity and lands on identical bits.
  OocAlsEngine resumed(dir, options, ooc);
  resumed.restore(snap_x, snap_theta, 2, snap_stats);
  for (int i = 0; i < 2; ++i) {
    resumed.run_epoch();
  }
  EXPECT_EQ(resumed.epochs_run(), 4);
  EXPECT_TRUE(same_bits(uninterrupted.user_factors(),
                        resumed.user_factors()));
  EXPECT_TRUE(same_bits(uninterrupted.item_factors(),
                        resumed.item_factors()));
  EXPECT_EQ(uninterrupted.solve_stats().systems,
            resumed.solve_stats().systems);
}

TEST(OocEngine, FaultInjectionHitsTheSameGlobalRows) {
  // Fault decisions hash (seed, site, global row): the streamed engine must
  // pass global row ids through tile-local updates, or injected faults land
  // on different rows and the degradation ladder diverges from in-core.
  const ScratchDir scratch("ooc_faults");
  const std::string& dir = scratch.path();
  const RatingsCoo all = tiny_ratings();
  const ShardBuildOptions build = tiny_build();
  write_shards(dir, all, build);
  const AlsOptions options = tiny_options(SolverKind::CgFp32);

  analysis::FaultPlan plan;
  plan.seed = 11;
  plan.indefinite_a_prob = 0.05;
  Matrix ref_x, ref_theta;
  std::uint64_t ref_fallbacks = 0;
  {
    analysis::ScopedFaultPlan armed(plan);
    AlsEngine reference(in_core_train(all, build), options);
    for (int i = 0; i < 2; ++i) {
      reference.run_epoch();
    }
    ref_x = reference.user_factors();
    ref_theta = reference.item_factors();
    ref_fallbacks = reference.solve_stats().cg_fallbacks;
  }
  {
    analysis::ScopedFaultPlan armed(plan);
    OocOptions ooc;
    ooc.host_mem_bytes = std::uint64_t{1} << 30;
    OocAlsEngine streamed(dir, options, ooc);
    for (int i = 0; i < 2; ++i) {
      streamed.run_epoch();
    }
    EXPECT_GT(streamed.solve_stats().cg_fallbacks, 0u);
    EXPECT_EQ(streamed.solve_stats().cg_fallbacks, ref_fallbacks);
    EXPECT_TRUE(same_bits(ref_x, streamed.user_factors()));
    EXPECT_TRUE(same_bits(ref_theta, streamed.item_factors()));
  }
}

TEST(OocEngine, EpochStatsAndTimelineArePopulated) {
  const ScratchDir scratch("ooc_stats");
  const std::string& dir = scratch.path();
  write_shards(dir, tiny_ratings(), tiny_build());
  OocOptions ooc;
  ooc.host_mem_bytes = std::uint64_t{1} << 30;
  OocAlsEngine engine(dir, tiny_options(), ooc);
  engine.run_epoch();

  const OocEpochStats& stats = engine.ooc_stats_last_epoch();
  EXPECT_EQ(stats.tiles,
            engine.meta().row_tiles.size() + engine.meta().col_tiles.size());
  EXPECT_GT(stats.compute_s, 0.0);
  EXPECT_GT(stats.bytes_loaded, 0u);

  const OocTimeline tl = engine.epoch_timeline(
      gpusim::DeviceSpec::pascal_p100(), AlsKernelConfig{},
      gpusim::LinkSpec::pcie3(), /*overlap=*/true);
  EXPECT_GT(tl.transfer_s, 0.0);
  EXPECT_GT(tl.compute_s, 0.0);
  EXPECT_GE(tl.serial_s, tl.pipelined_s);
  EXPECT_GE(tl.overlap_gain, 1.0);
  // The ablation timeline degenerates to the serial sum.
  const OocTimeline flat = engine.epoch_timeline(
      gpusim::DeviceSpec::pascal_p100(), AlsKernelConfig{},
      gpusim::LinkSpec::pcie3(), /*overlap=*/false);
  EXPECT_DOUBLE_EQ(flat.pipelined_s, flat.serial_s);
}

TEST(OocEngine, PooledTimelineMatchesSerialUnderOneTwoThreeWorkers) {
  const ScratchDir scratch("ooc_timeline_pool");
  const std::string& dir = scratch.path();
  const ShardMeta meta = write_shards(dir, tiny_ratings(), tiny_build());
  const auto dev = gpusim::DeviceSpec::pascal_p100();
  const auto link = gpusim::LinkSpec::pcie3();
  const AlsKernelConfig config{};
  for (const bool overlap : {true, false}) {
    const OocTimeline serial =
        ooc_epoch_timeline(dev, config, link, meta, overlap);
    for (const int workers : {1, 2, 3}) {
      AlsOptions options = tiny_options();
      options.workers = workers;
      OocOptions ooc;
      ooc.host_mem_bytes = std::uint64_t{1} << 30;
      const OocAlsEngine engine(dir, options, ooc);
      EXPECT_TRUE(engine.epoch_timeline(dev, config, link, overlap) ==
                  serial)
          << workers << " workers, overlap " << overlap;
    }
  }
}

}  // namespace
}  // namespace cumf
