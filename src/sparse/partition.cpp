#include "sparse/partition.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace cumf {

std::vector<std::size_t> nnz_balanced_bounds(const CsrMatrix& r,
                                             std::size_t chunks) {
  CUMF_EXPECTS(chunks >= 1, "need at least one chunk");
  const auto m = static_cast<std::size_t>(r.rows());
  const std::vector<nnz_t>& ptr = r.row_ptr();
  std::vector<std::size_t> bounds;
  bounds.reserve(chunks + 1);
  bounds.push_back(0);
  if (m == 0) {
    bounds.push_back(0);
    return bounds;
  }
  const nnz_t total = ptr[m];
  for (std::size_t c = 1; c < chunks; ++c) {
    // End chunk c at the first row boundary whose cumulative nnz reaches an
    // equal share of the total. A row heavier than the share swallows the
    // next cut point(s), yielding fewer, still-balanced chunks.
    const nnz_t target = total * c / chunks;
    const auto it = std::lower_bound(ptr.begin(), ptr.end(), target);
    const auto row = static_cast<std::size_t>(it - ptr.begin());
    if (row <= bounds.back() || row >= m) {
      continue;
    }
    bounds.push_back(row);
  }
  bounds.push_back(m);
  return bounds;
}

namespace {
/// Maps index x in [0, extent) to its block in a partition of `blocks`
/// near-equal ranges (the first `extent % blocks` ranges get one extra).
index_t block_of(index_t x, index_t extent, index_t blocks) noexcept {
  const index_t base = extent / blocks;
  const index_t extra = extent % blocks;
  const index_t boundary = extra * (base + 1);
  if (x < boundary) {
    return x / (base + 1);
  }
  return extra + (x - boundary) / base;
}
}  // namespace

BlockGrid::BlockGrid(const RatingsCoo& coo, index_t row_blocks,
                     index_t col_blocks)
    : m_(coo.rows()), n_(coo.cols()), rb_(row_blocks), cb_(col_blocks) {
  CUMF_EXPECTS(rb_ > 0 && cb_ > 0, "grid must have at least one block");
  CUMF_EXPECTS(rb_ <= m_ && cb_ <= n_,
               "more blocks than rows/columns to partition");
  blocks_.resize(static_cast<std::size_t>(rb_) * cb_);
  for (const Rating& e : coo.entries()) {
    const index_t i = row_block_of(e.u);
    const index_t j = col_block_of(e.v);
    blocks_[static_cast<std::size_t>(i) * cb_ + j].push_back(e);
  }
}

const std::vector<Rating>& BlockGrid::block(index_t i, index_t j) const {
  CUMF_EXPECTS(i < rb_ && j < cb_, "block coordinate out of range");
  return blocks_[static_cast<std::size_t>(i) * cb_ + j];
}

index_t BlockGrid::row_block_of(index_t u) const noexcept {
  return block_of(u, m_, rb_);
}

index_t BlockGrid::col_block_of(index_t v) const noexcept {
  return block_of(v, n_, cb_);
}

std::vector<std::vector<BlockGrid::BlockId>> BlockGrid::diagonal_schedule()
    const {
  CUMF_EXPECTS(rb_ == cb_, "diagonal schedule needs a square grid");
  std::vector<std::vector<BlockId>> rounds(rb_);
  for (index_t d = 0; d < rb_; ++d) {
    rounds[d].reserve(rb_);
    for (index_t i = 0; i < rb_; ++i) {
      rounds[d].push_back(BlockId{i, static_cast<index_t>((i + d) % cb_)});
    }
  }
  return rounds;
}

}  // namespace cumf
