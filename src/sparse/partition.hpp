// 2-D block partitioning of the rating matrix for parallel SGD.
//
// Blocked SGD (DSGD / LIBMF / NOMAD families, §VI-A of the paper) divides R
// into a grid of row×column blocks; blocks that share no rows or columns can
// be updated concurrently without conflicting writes to X or Θ. This module
// buckets entries into the grid and produces conflict-free schedules
// ("diagonals" of the grid, as in DSGD).
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace cumf {

/// Chunk boundaries over the rows of `r` such that each chunk holds roughly
/// equal total nnz (cut points from the row_ptr prefix sums). Returns an
/// ascending list starting at 0 and ending at r.rows(), with at most
/// `chunks` chunks — fewer when single heavy rows exceed the equal share,
/// each of which then forms its own chunk. Shared by the ALS worker
/// schedules, the multi-GPU shard partition, and the out-of-core tile cuts.
std::vector<std::size_t> nnz_balanced_bounds(const CsrMatrix& r,
                                             std::size_t chunks);

class BlockGrid {
 public:
  /// Partitions `coo` into a grid of `row_blocks` × `col_blocks` blocks of
  /// (near-)equal index ranges.
  BlockGrid(const RatingsCoo& coo, index_t row_blocks, index_t col_blocks);

  index_t row_blocks() const noexcept { return rb_; }
  index_t col_blocks() const noexcept { return cb_; }

  /// Entries belonging to block (i, j).
  const std::vector<Rating>& block(index_t i, index_t j) const;

  /// Which row-block does row u fall into?
  index_t row_block_of(index_t u) const noexcept;
  /// Which column-block does column v fall into?
  index_t col_block_of(index_t v) const noexcept;

  /// A schedule is a sequence of "rounds"; each round is a set of blocks with
  /// pairwise-disjoint row and column ranges (so they may run in parallel).
  /// This returns the DSGD diagonal schedule covering every block exactly
  /// once. Requires row_blocks() == col_blocks().
  struct BlockId {
    index_t i = 0;
    index_t j = 0;
    friend bool operator==(const BlockId&, const BlockId&) = default;
  };
  std::vector<std::vector<BlockId>> diagonal_schedule() const;

 private:
  index_t m_ = 0;
  index_t n_ = 0;
  index_t rb_ = 0;
  index_t cb_ = 0;
  std::vector<std::vector<Rating>> blocks_;  // rb_*cb_, row-major
};

}  // namespace cumf
