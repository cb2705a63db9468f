// Out-of-core shard store: a ratings matrix partitioned into checksummed
// CSR tile files plus a bounded host-side tile cache.
//
// `cumf_shard build` cuts the canonical train split into nnz-balanced row
// ranges of both views (R for update-X, Rᵀ for update-Θ) and writes one
// framed file per tile, the held-out test set, and a meta file carrying the
// run fingerprint the out-of-core engine needs to start bit-identically to
// an in-core run (shape, exact mean, seed, tile tables). Every file is one
// frame (data/frame.hpp) with its own magic ("CUMFTILE" / "CUMFSHRD" /
// "CUMFTEST") and kShardVersion, written through atomic_write_file, so a
// crash mid-shard never leaves a half-written tile under a valid name. The
// reader verifies the CRC before trusting a byte and rejects damage with a
// FrameError naming its FrameReject reason.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "data/frame.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace cumf {

inline constexpr std::string_view kTileMagic = "CUMFTILE";
inline constexpr std::string_view kShardMetaMagic = "CUMFSHRD";
inline constexpr std::string_view kShardTestMagic = "CUMFTEST";
inline constexpr std::uint32_t kShardVersion = 1;
inline constexpr std::string_view kShardMetaFile = "shard-meta.bin";
inline constexpr std::string_view kShardTestFile = "test.bin";

/// Which half-sweep a tile feeds: rows of R (update-X) or rows of Rᵀ
/// (update-Θ).
enum class TileView : std::uint8_t { by_row = 0, by_col = 1 };

const char* to_string(TileView view);

/// One tile's slot in the meta tables: the global row range it covers in
/// its view, its nnz, and the framed file size on disk (what a host↔device
/// transfer of the tile costs).
struct TileRange {
  index_t row_begin = 0;
  index_t row_end = 0;
  nnz_t nnz = 0;
  std::uint64_t bytes = 0;

  friend bool operator==(const TileRange&, const TileRange&) = default;
};

/// Shard-store manifest. `mean` is the exact double mean_value() of the
/// canonical train split — als_init_factors must see the identical bits an
/// in-core run computes, or the warm start (and therefore every factor)
/// diverges.
struct ShardMeta {
  index_t rows = 0;
  index_t cols = 0;
  nnz_t train_nnz = 0;
  nnz_t test_nnz = 0;
  double mean = 0.0;
  double test_fraction = 0.0;
  std::uint64_t seed = 0;
  std::vector<TileRange> row_tiles;  ///< tiles of R (update-X view)
  std::vector<TileRange> col_tiles;  ///< tiles of Rᵀ (update-Θ view)

  const std::vector<TileRange>& tiles(TileView view) const noexcept {
    return view == TileView::by_row ? row_tiles : col_tiles;
  }
};

/// One decoded tile: rows [row_begin, row_end) of its view, stored as a
/// local CSR whose row 0 is global row row_begin (columns stay global).
struct CsrTile {
  TileView view = TileView::by_row;
  std::uint32_t index = 0;
  index_t row_begin = 0;
  index_t row_end = 0;
  CsrMatrix csr;
};

struct ShardBuildOptions {
  std::size_t tiles = 8;        ///< requested tile count per view (≥ 1)
  double test_fraction = 0.1;   ///< held-out share, as in cumf_train
  std::uint64_t seed = 1;       ///< drives the holdout split RNG
};

/// Splits `all` with the same Rng(seed)+split_holdout sequence cumf_train
/// uses, canonicalizes the train side, and writes tile files, test set and
/// meta into `dir` (created if missing). Tile cuts are nnz-balanced per
/// view, so the count may come out below `tiles` when single heavy rows
/// exceed an equal share. Returns the written meta. The build itself is
/// in-memory (sharding a dataset needs the RAM once; *training* is what
/// must run within the budget).
ShardMeta write_shards(const std::string& dir, const RatingsCoo& all,
                       const ShardBuildOptions& options);

/// "DIR/tile-r-0007.bin" / "DIR/tile-c-0007.bin".
std::string tile_path(const std::string& dir, TileView view,
                      std::size_t index);

/// True when `dir` contains a shard meta file (cumf_train's auto-detect).
bool is_shard_dir(const std::string& dir);

/// Reads and validates DIR/shard-meta.bin; throws FrameError.
ShardMeta read_shard_meta(const std::string& dir);

/// Reads and validates DIR/test.bin; throws FrameError.
RatingsCoo read_shard_test(const std::string& dir);

/// Loads one tile: reads the file, checks magic/version/CRC, decodes, and
/// cross-checks view/index/row-range/nnz against `expected` (reason
/// `mismatch` when the file is valid but not the requested tile).
/// `staging`, when given, is a reusable read buffer.
CsrTile load_tile(const std::string& dir, TileView view, std::size_t index,
                  const TileRange& expected, std::string* staging = nullptr);

/// Host bytes a decoded tile occupies (row_ptr + col_idx + values): the
/// quantity the cache budget meters, distinct from TileRange::bytes (disk).
std::uint64_t tile_resident_bytes(const TileRange& range);

/// Bounded LRU cache of decoded tiles, safe for the engine's compute thread
/// and prefetch thread to share. A miss loads outside the lock (so a
/// prefetch never stalls a concurrent hit), then inserts and evicts
/// least-recently-used tiles until the resident total is back under budget.
/// Tiles handed out are shared_ptr<const CsrTile>, so an evicted tile a
/// caller still holds stays alive until released — the budget therefore
/// bounds *cached* bytes, with at most the in-flight tiles on top. The
/// staging buffers of the read path are pooled and reused across loads (the
/// pinned-host-buffer discipline of a real H2D pipeline).
class TileCache {
 public:
  /// `budget_bytes` is the hard resident-byte ceiling; it must admit the
  /// largest tile.
  TileCache(std::string dir, ShardMeta meta, std::uint64_t budget_bytes);

  /// Returns the tile, loading it on a miss. Throws FrameError on damage.
  std::shared_ptr<const CsrTile> get(TileView view, std::size_t index);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bytes_loaded = 0;   ///< disk bytes read on misses
    double load_seconds = 0.0;        ///< wall time inside tile loads
  };
  Stats stats() const;

  std::uint64_t resident_bytes() const;
  std::uint64_t budget_bytes() const noexcept { return budget_; }
  const ShardMeta& meta() const noexcept { return meta_; }

 private:
  struct Key {
    TileView view;
    std::size_t index;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return k.index * 2 + static_cast<std::size_t>(k.view);
    }
  };
  struct Entry {
    Key key;
    std::shared_ptr<const CsrTile> tile;
    std::uint64_t bytes = 0;
  };

  void evict_to_fit(std::uint64_t incoming);  // caller holds mu_

  std::string dir_;
  ShardMeta meta_;
  std::uint64_t budget_ = 0;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recent
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  std::uint64_t resident_ = 0;
  std::vector<std::string> staging_pool_;
  Stats stats_;
};

}  // namespace cumf
