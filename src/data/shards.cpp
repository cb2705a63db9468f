#include "data/shards.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/rng.hpp"
#include "data/atomic_file.hpp"
#include "sparse/partition.hpp"
#include "sparse/split.hpp"

namespace cumf {
namespace {

constexpr std::string_view kMetaWhat = "shard meta";
constexpr std::string_view kTestWhat = "shard test set";

/// The tile payload of rows [begin, end) of `csr`, written straight from
/// the view: row_ptr rebased to start at 0, col_idx/values verbatim
/// (columns stay global ids).
void render_tile_payload(ByteWriter& w, TileView view, std::uint32_t index,
                         const CsrMatrix& csr, index_t begin, index_t end) {
  const std::vector<nnz_t>& ptr = csr.row_ptr();
  const nnz_t lo = ptr[begin];
  const nnz_t hi = ptr[end];
  w.put<std::uint8_t>(static_cast<std::uint8_t>(view));
  w.put<std::uint32_t>(index);
  w.put<std::uint32_t>(begin);
  w.put<std::uint32_t>(end);
  w.put<std::uint32_t>(csr.cols());
  w.put<std::uint64_t>(hi - lo);
  for (index_t u = begin; u <= end; ++u) {
    w.put<std::uint64_t>(ptr[u] - lo);
  }
  w.put_array(std::span(csr.col_idx()).subspan(lo, hi - lo));
  w.put_array(std::span(csr.values()).subspan(lo, hi - lo));
}

CsrTile parse_tile_payload(std::string_view payload, std::string_view what) {
  ByteReader r(payload, what);
  CsrTile tile;
  const auto view_raw = r.get<std::uint8_t>();
  if (view_raw > 1) {
    reject(FrameReject::malformed, what, "unknown view tag");
  }
  tile.view = static_cast<TileView>(view_raw);
  tile.index = r.get<std::uint32_t>();
  tile.row_begin = r.get<std::uint32_t>();
  tile.row_end = r.get<std::uint32_t>();
  const auto cols = r.get<std::uint32_t>();
  if (tile.row_end < tile.row_begin) {
    reject(FrameReject::malformed, what, "inverted row range");
  }
  const index_t rows = tile.row_end - tile.row_begin;
  const auto nnz = r.get_count(sizeof(std::uint64_t));
  if (static_cast<std::uint64_t>(rows) + 1 >
      r.remaining() / sizeof(std::uint64_t)) {
    reject(FrameReject::malformed, what, "row count exceeds payload size");
  }
  std::vector<nnz_t> row_ptr(static_cast<std::size_t>(rows) + 1);
  r.get_array(row_ptr);
  std::vector<index_t> col_idx(nnz);
  r.get_array(col_idx);
  std::vector<real_t> values(nnz);
  r.get_array(values);
  r.expect_end();
  try {
    // from_parts re-validates the structural invariants (monotone row_ptr
    // spanning [0, nnz], columns < cols); a CRC-valid file that fails them
    // is malformed, not corrupted.
    tile.csr = CsrMatrix::from_parts(rows, cols, std::move(row_ptr),
                                     std::move(col_idx), std::move(values));
  } catch (const CheckError& e) {
    reject(FrameReject::malformed, what, e.what());
  }
  return tile;
}

void put_tile_table(ByteWriter& w, const std::vector<TileRange>& tiles) {
  w.put<std::uint64_t>(tiles.size());
  for (const TileRange& t : tiles) {
    w.put<std::uint32_t>(t.row_begin);
    w.put<std::uint32_t>(t.row_end);
    w.put<std::uint64_t>(t.nnz);
    w.put<std::uint64_t>(t.bytes);
  }
}

std::vector<TileRange> get_tile_table(ByteReader& r) {
  const auto count = r.get_count(24);  // 2×u32 + 2×u64 per entry
  std::vector<TileRange> tiles;
  tiles.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    TileRange t;
    t.row_begin = r.get<std::uint32_t>();
    t.row_end = r.get<std::uint32_t>();
    t.nnz = r.get<std::uint64_t>();
    t.bytes = r.get<std::uint64_t>();
    tiles.push_back(t);
  }
  return tiles;
}

void render_meta_payload(ByteWriter& w, const ShardMeta& meta) {
  w.put<std::uint32_t>(meta.rows);
  w.put<std::uint32_t>(meta.cols);
  w.put<std::uint64_t>(meta.train_nnz);
  w.put<std::uint64_t>(meta.test_nnz);
  w.put(meta.mean);
  w.put(meta.test_fraction);
  w.put<std::uint64_t>(meta.seed);
  put_tile_table(w, meta.row_tiles);
  put_tile_table(w, meta.col_tiles);
}

ShardMeta parse_meta_payload(std::string_view payload) {
  ByteReader r(payload, kMetaWhat);
  ShardMeta meta;
  meta.rows = r.get<std::uint32_t>();
  meta.cols = r.get<std::uint32_t>();
  meta.train_nnz = r.get<std::uint64_t>();
  meta.test_nnz = r.get<std::uint64_t>();
  meta.mean = r.get<double>();
  meta.test_fraction = r.get<double>();
  meta.seed = r.get<std::uint64_t>();
  meta.row_tiles = get_tile_table(r);
  meta.col_tiles = get_tile_table(r);
  r.expect_end();
  return meta;
}

void render_test_payload(ByteWriter& w, const RatingsCoo& test) {
  w.put<std::uint32_t>(test.rows());
  w.put<std::uint32_t>(test.cols());
  w.put<std::uint64_t>(test.nnz());
  for (const Rating& e : test.entries()) {
    w.put<std::uint32_t>(e.u);
    w.put<std::uint32_t>(e.v);
    w.put(e.r);
  }
}

RatingsCoo parse_test_payload(std::string_view payload) {
  ByteReader r(payload, kTestWhat);
  const auto rows = r.get<std::uint32_t>();
  const auto cols = r.get<std::uint32_t>();
  const auto nnz = r.get_count(12);  // u, v, f32 bits per entry
  RatingsCoo test(rows, cols);
  test.entries().reserve(nnz);
  for (std::uint64_t k = 0; k < nnz; ++k) {
    const auto u = r.get<std::uint32_t>();
    const auto v = r.get<std::uint32_t>();
    const auto val = r.get<float>();
    if (u >= rows || v >= cols) {
      reject(FrameReject::malformed, kTestWhat, "entry index out of range");
    }
    test.add(u, v, val);
  }
  r.expect_end();
  return test;
}

/// Cuts one CSR view into nnz-balanced tiles, writes each tile file, and
/// returns the tile table (with on-disk sizes filled in).
std::vector<TileRange> write_view_tiles(const std::string& dir,
                                        TileView view, const CsrMatrix& csr,
                                        std::size_t tiles) {
  const std::vector<std::size_t> bounds = nnz_balanced_bounds(csr, tiles);
  std::vector<TileRange> table;
  table.reserve(bounds.size() - 1);
  for (std::size_t t = 0; t + 1 < bounds.size(); ++t) {
    const auto begin = static_cast<index_t>(bounds[t]);
    const auto end = static_cast<index_t>(bounds[t + 1]);
    const std::string bytes =
        frame(kTileMagic, kShardVersion, [&](ByteWriter& w) {
          render_tile_payload(w, view, static_cast<std::uint32_t>(t), csr,
                              begin, end);
        });
    atomic_write_file(tile_path(dir, view, t), bytes);
    table.push_back(TileRange{begin, end,
                              csr.row_ptr()[end] - csr.row_ptr()[begin],
                              static_cast<std::uint64_t>(bytes.size())});
  }
  return table;
}

}  // namespace

const char* to_string(TileView view) {
  return view == TileView::by_row ? "by_row" : "by_col";
}

std::string tile_path(const std::string& dir, TileView view,
                      std::size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "tile-%c-%04zu.bin",
                view == TileView::by_row ? 'r' : 'c', index);
  return (std::filesystem::path(dir) / name).string();
}

bool is_shard_dir(const std::string& dir) {
  std::error_code ec;
  return std::filesystem::is_regular_file(
      std::filesystem::path(dir) / kShardMetaFile, ec);
}

ShardMeta write_shards(const std::string& dir, const RatingsCoo& all,
                       const ShardBuildOptions& options) {
  CUMF_EXPECTS(options.tiles >= 1, "need at least one tile per view");
  CUMF_EXPECTS(options.test_fraction >= 0 && options.test_fraction < 1,
               "test fraction must be in [0, 1)");
  std::filesystem::create_directories(dir);

  // Replicate cumf_train's exact sequence — Rng(seed), split, canonicalize —
  // so an out-of-core run over these shards sees the identical train/test
  // partition and warm-start mean an in-core run of the same seed computes.
  Rng rng(options.seed);
  TrainTestSplit split = split_holdout(all, options.test_fraction, rng);
  const CsrPair pair = CsrPair::from_coo(split.train);
  split.train = RatingsCoo();
  const CsrMatrix& csr = pair.r;
  for (const real_t r : csr.values()) {
    CUMF_EXPECTS(std::isfinite(r), "ratings must be finite");
  }

  ShardMeta meta;
  meta.rows = csr.rows();
  meta.cols = csr.cols();
  meta.train_nnz = csr.nnz();
  meta.test_nnz = split.test.nnz();
  meta.mean = csr.mean_value();
  meta.test_fraction = options.test_fraction;
  meta.seed = options.seed;
  meta.row_tiles = write_view_tiles(dir, TileView::by_row, csr,
                                    options.tiles);
  meta.col_tiles = write_view_tiles(dir, TileView::by_col, pair.rt,
                                    options.tiles);

  const std::string test_file =
      (std::filesystem::path(dir) / kShardTestFile).string();
  atomic_write_file(
      test_file,
      frame(kShardTestMagic, kShardVersion,
            [&](ByteWriter& w) { render_test_payload(w, split.test); }));
  const std::string meta_file =
      (std::filesystem::path(dir) / kShardMetaFile).string();
  atomic_write_file(
      meta_file,
      frame(kShardMetaMagic, kShardVersion,
            [&](ByteWriter& w) { render_meta_payload(w, meta); }));
  return meta;
}

ShardMeta read_shard_meta(const std::string& dir) {
  const std::string bytes =
      read_file((std::filesystem::path(dir) / kShardMetaFile).string());
  return parse_meta_payload(
      unframe(kShardMetaMagic, kShardVersion, bytes, kMetaWhat));
}

RatingsCoo read_shard_test(const std::string& dir) {
  const std::string bytes =
      read_file((std::filesystem::path(dir) / kShardTestFile).string());
  return parse_test_payload(
      unframe(kShardTestMagic, kShardVersion, bytes, kTestWhat));
}

CsrTile load_tile(const std::string& dir, TileView view, std::size_t index,
                  const TileRange& expected, std::string* staging) {
  const std::string path = tile_path(dir, view, index);
  const std::string what = "tile '" + path + "'";
  std::string local;
  std::string& bytes = staging != nullptr ? *staging : local;
  read_file(path, bytes);
  CsrTile tile = parse_tile_payload(
      unframe(kTileMagic, kShardVersion, bytes, what), what);
  if (tile.view != view || tile.index != index ||
      tile.row_begin != expected.row_begin ||
      tile.row_end != expected.row_end || tile.csr.nnz() != expected.nnz) {
    reject(FrameReject::mismatch, what,
           std::string("does not match the meta table entry (") +
               to_string(view) + " #" + std::to_string(index) + ")");
  }
  return tile;
}

std::uint64_t tile_resident_bytes(const TileRange& range) {
  const std::uint64_t rows = range.row_end - range.row_begin;
  return (rows + 1) * sizeof(nnz_t) +
         range.nnz * (sizeof(index_t) + sizeof(real_t));
}

TileCache::TileCache(std::string dir, ShardMeta meta,
                     std::uint64_t budget_bytes)
    : dir_(std::move(dir)), meta_(std::move(meta)), budget_(budget_bytes) {
  std::uint64_t largest = 0;
  for (const std::vector<TileRange>* table : {&meta_.row_tiles,
                                              &meta_.col_tiles}) {
    for (const TileRange& t : *table) {
      largest = std::max(largest, tile_resident_bytes(t));
    }
  }
  CUMF_EXPECTS(budget_ >= largest,
               "host tile budget is smaller than the largest tile; "
               "re-shard with more tiles or raise --host-mem");
}

std::shared_ptr<const CsrTile> TileCache::get(TileView view,
                                              std::size_t index) {
  const std::vector<TileRange>& table = meta_.tiles(view);
  CUMF_EXPECTS(index < table.size(), "tile index out of range");
  const Key key{view, index};
  std::string staging;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second);  // bump to most recent
      return it->second->tile;
    }
    ++stats_.misses;
    if (!staging_pool_.empty()) {
      staging = std::move(staging_pool_.back());
      staging_pool_.pop_back();
    }
  }
  // Load outside the lock: a prefetch miss must not stall concurrent hits.
  const auto t0 = std::chrono::steady_clock::now();
  auto tile = std::make_shared<const CsrTile>(
      load_tile(dir_, view, index, table[index], &staging));
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const std::uint64_t bytes = tile_resident_bytes(table[index]);

  std::lock_guard<std::mutex> lock(mu_);
  stats_.load_seconds += seconds;
  stats_.bytes_loaded += table[index].bytes;
  staging.clear();
  staging_pool_.push_back(std::move(staging));
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Another thread loaded the same tile while we were off-lock; keep the
    // cached copy (ours is dropped) so both callers share one allocation.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->tile;
  }
  evict_to_fit(bytes);
  lru_.push_front(Entry{key, tile, bytes});
  index_.emplace(key, lru_.begin());
  resident_ += bytes;
  return tile;
}

void TileCache::evict_to_fit(std::uint64_t incoming) {
  auto it = lru_.end();
  while (resident_ + incoming > budget_ && it != lru_.begin()) {
    --it;
    // An entry a caller still holds cannot free memory by eviction; skip it
    // and charge the budget to the least-recent releasable tile instead.
    if (it->tile.use_count() > 1) {
      continue;
    }
    resident_ -= it->bytes;
    ++stats_.evictions;
    index_.erase(it->key);
    it = lru_.erase(it);
  }
}

TileCache::Stats TileCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::uint64_t TileCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_;
}

}  // namespace cumf
